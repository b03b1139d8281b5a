//! Service-level warm-restart tests: the serving layer across a
//! kill-restart boundary.
//!
//! The claims under test: [`ClusterService::recover_from`] reproduces
//! the killed system's epoch and overlay digest (so answers are
//! bit-identical before and after the restart), the churn-aware cache is
//! *transparent* to a warm recovery (a recovered system validates the
//! old incarnation's cache entries, because the stamp they were computed
//! under is reproduced exactly), and churn after the restart invalidates
//! those entries like any other epoch move — every served answer equal to
//! the system's fresh answer throughout.

use bcc_core::BandwidthClasses;
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_service::{ClusterQuery, ClusterService, ServiceConfig, ServiceError, ServiceResponse};
use bcc_simnet::{ChurnOp, DynamicSystem, MemStorage, PersistError, SnapshotStore, SystemConfig};

const CAPS: [f64; 3] = [10.0, 30.0, 100.0];

fn universe(n: usize) -> (BandwidthMatrix, SystemConfig) {
    let caps: Vec<f64> = (0..n).map(|i| CAPS[i % CAPS.len()]).collect();
    let bandwidth = BandwidthMatrix::from_fn(n, |i, j| caps[i].min(caps[j]));
    let classes = BandwidthClasses::new(vec![25.0, 60.0], RationalTransform::default());
    (bandwidth, SystemConfig::new(classes))
}

fn live_service(n: usize, hosts: usize) -> (ClusterService, BandwidthMatrix, SystemConfig) {
    let (bandwidth, sys_cfg) = universe(n);
    let hosts: Vec<NodeId> = (0..hosts).map(NodeId::new).collect();
    let system = DynamicSystem::bootstrap(bandwidth.clone(), sys_cfg.clone(), &hosts)
        .expect("bootstrap succeeds");
    let service = ClusterService::new(system, ServiceConfig::default()).expect("valid config");
    (service, bandwidth, sys_cfg)
}

/// The response equals the answer the service's system gives afresh.
fn assert_fresh(service: &ClusterService, resp: &ServiceResponse) {
    let q = resp.query;
    let fresh =
        service
            .system()
            .query_resilient(q.submit_node, q.k, q.bandwidth, &service.config().retry);
    assert_eq!(resp.outcome, fresh, "served {q:?} stale");
}

fn queries() -> Vec<ClusterQuery> {
    vec![
        ClusterQuery::new(NodeId::new(0), 2, 25.0),
        ClusterQuery::new(NodeId::new(2), 3, 25.0),
        ClusterQuery::new(NodeId::new(1), 2, 60.0),
    ]
}

#[test]
fn recovered_service_serves_bit_identical_answers() {
    let (mut service, bandwidth, sys_cfg) = live_service(8, 6);
    let mut store = SnapshotStore::new(MemStorage::new());
    store.snapshot(service.system());
    service.join(NodeId::new(6)).unwrap();
    store.log(ChurnOp::Join, NodeId::new(6), service.system().epoch());

    let before: Vec<_> = queries()
        .into_iter()
        .map(|q| {
            service.submit(q).unwrap();
            service.drain().remove(0)
        })
        .collect();
    let pre_epoch = service.system().epoch();
    let pre_digest = service.system().live_digest();

    drop(service); // the kill

    let (mut recovered, report) =
        ClusterService::recover_from(&store, &bandwidth, &sys_cfg, ServiceConfig::default())
            .unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.replayed_ops, 1);
    assert_eq!(recovered.system().epoch(), pre_epoch);
    assert_eq!(recovered.system().live_digest(), pre_digest);
    assert_eq!(
        recovered.system().cluster_index().stats().full_builds,
        0,
        "warm recovery must never rebuild the index from scratch"
    );

    let after: Vec<_> = queries()
        .into_iter()
        .map(|q| {
            recovered.submit(q).unwrap();
            recovered.drain().remove(0)
        })
        .collect();
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.outcome, a.outcome, "answers must survive the restart");
        assert_eq!(b.class_idx, a.class_idx);
    }
}

#[test]
fn warm_recovery_is_transparent_to_the_cache_and_churn_still_invalidates() {
    let (mut service, bandwidth, sys_cfg) = live_service(8, 6);
    let mut store = SnapshotStore::new(MemStorage::new());
    store.snapshot(service.system());

    // Populate the cache in the pre-kill incarnation.
    for q in queries() {
        service.submit(q).unwrap();
        service.drain();
    }
    let warm_lookups = service.cache_stats().lookups;
    assert!(warm_lookups > 0);

    // Swap in the recovered system under the *same* service: the cache
    // entries were stamped with (epoch, digest), and the recovered
    // system reproduces both, so every entry must still validate.
    let (recovered_sys, _) = store.recover(&bandwidth, &sys_cfg).unwrap();
    service.with_system_mut(|sys| *sys = recovered_sys);
    for q in queries() {
        service.submit(q).unwrap();
        let resp = service.drain().remove(0);
        assert!(
            resp.cached,
            "recovered stamp matches, the entry must validate: {:?}",
            resp.query
        );
        assert_fresh(&service, &resp);
    }
    assert_eq!(service.cache_stats().invalidated, 0);

    // Churn after the restart moves the epoch: every cached answer must
    // now invalidate instead of being served across the boundary.
    service.join(NodeId::new(7)).unwrap();
    for q in queries() {
        service.submit(q).unwrap();
        let resp = service.drain().remove(0);
        assert!(!resp.cached, "churn must invalidate: {:?}", resp.query);
        assert_fresh(&service, &resp);
    }
    assert!(service.cache_stats().invalidated > 0);
}

#[test]
fn in_place_recovery_resets_breakers_and_stale_tier_with_the_cache() {
    use bcc_service::{BreakerState, Tier};

    let (mut service, bandwidth, sys_cfg) = live_service(8, 6);
    let mut store = SnapshotStore::new(MemStorage::new());
    store.snapshot(service.system());

    // Populate the cache, then churn and re-ask so the old entries are
    // demoted into the second-chance stale tier.
    for q in queries() {
        service.submit(q).unwrap();
        service.drain();
    }
    service.join(NodeId::new(6)).unwrap();
    for q in queries() {
        service.submit(q).unwrap();
        service.drain();
    }
    assert!(
        service.stale_len() > 0,
        "demoted entries feed the stale tier"
    );

    // Trip lane 0: three zero-budget executions on fresh keys are three
    // consecutive exhaustions, the default failure threshold.
    for start in 0..3 {
        service
            .submit(ClusterQuery::new(NodeId::new(start), 4, 25.0).with_budget(0))
            .unwrap();
        service.drain();
    }
    assert_eq!(service.breaker_state(0), Some(BreakerState::Open));

    // Leave one admitted query in flight across the kill (lane 1 — lane 0
    // is refusing traffic now).
    service
        .submit(ClusterQuery::new(NodeId::new(0), 2, 60.0))
        .unwrap();
    assert_eq!(service.in_flight(), 1);
    let pre_kill_submitted = service.stats().submitted;

    // The kill-restart boundary, in place.
    let report = service
        .recover_in_place(&store, &bandwidth, &sys_cfg)
        .unwrap();
    assert_eq!(report.generation, 1);

    // Every piece of dead-incarnation serving state is gone...
    assert_eq!(service.breaker_state(0), Some(BreakerState::Closed));
    assert_eq!(service.breaker_state(1), Some(BreakerState::Closed));
    assert_eq!(service.stale_len(), 0, "stale tier resets with the cache");
    assert_eq!(service.in_flight(), 0, "queued queries are dropped");
    // ...while the cumulative history survives.
    assert_eq!(service.stats().submitted, pre_kill_submitted);

    // The recovered service serves lane 0 exactly — the breaker that was
    // Open pre-kill admits immediately and the answer is fresh.
    let ticket = service
        .submit(ClusterQuery::new(NodeId::new(0), 2, 25.0))
        .expect("recovered breaker admits");
    let resp = service.drain().remove(0);
    assert_eq!(resp.ticket, ticket);
    assert_eq!(resp.tier, Tier::Exact);
    assert!(!resp.cached, "the restart cache is cold");
    assert!(resp.outcome.is_ok());
    assert!(
        resp.ticket >= pre_kill_submitted,
        "tickets are never reissued across a restart"
    );
}

#[test]
fn unrecoverable_storage_surfaces_a_typed_service_error() {
    let (service, bandwidth, sys_cfg) = live_service(6, 4);
    drop(service);
    let store: SnapshotStore<MemStorage> = SnapshotStore::new(MemStorage::new());
    let err = ClusterService::recover_from(&store, &bandwidth, &sys_cfg, ServiceConfig::default())
        .unwrap_err();
    assert_eq!(err, ServiceError::Persist(PersistError::NoValidSnapshot));
    assert_eq!(
        err.to_string(),
        "warm restart failed: no valid snapshot generation to recover from"
    );
}
