//! Churn-nemesis tests: the cache must recompute — never re-serve — after
//! any membership change between two identical queries, and the full
//! serving chaos harness must stay stale-free across seeds.

use bcc_metric::NodeId;
use bcc_service::{
    seeded_service, serve_chaos, ClusterQuery, DegradeArtifact, DegradeChaosConfig,
    ServeChaosConfig, ServiceConfig,
};
use bcc_simnet::ChaosError;

fn verified_service(seed: u64, universe: usize) -> bcc_service::ClusterService {
    let mut service = seeded_service(
        seed,
        universe,
        ServiceConfig {
            verify_cached: true,
            ..ServiceConfig::default()
        },
    );
    for h in 0..universe.min(5) {
        service.join(NodeId::new(h)).expect("join fresh host");
    }
    service
}

/// One drained response for one submitted query.
fn serve_one(
    service: &mut bcc_service::ClusterService,
    query: ClusterQuery,
) -> bcc_service::ServiceResponse {
    service.submit(query).expect("admitted");
    let mut responses = service.drain();
    assert_eq!(responses.len(), 1);
    responses.pop().expect("one response")
}

#[test]
fn crash_between_identical_queries_forces_recompute() {
    let mut service = verified_service(11, 8);
    let query = ClusterQuery::new(NodeId::new(0), 2, 20.0);

    let first = serve_one(&mut service, query);
    assert!(!first.cached, "cold cache computes");
    let warm = serve_one(&mut service, query);
    assert!(warm.cached, "identical query on an unchanged overlay hits");

    // Nemesis: crash a node between two identical queries.
    let epoch_before = service.system().epoch();
    service.crash(NodeId::new(4)).expect("crash an active host");
    assert_eq!(
        service.system().epoch(),
        epoch_before + 1,
        "crash bumps the membership epoch"
    );

    let after = serve_one(&mut service, query);
    assert!(
        !after.cached,
        "the post-crash answer must be recomputed, not served stale"
    );
    assert!(
        service.cache_stats().invalidated >= 1,
        "the stale entry was invalidated on lookup"
    );
    assert_eq!(service.stats().stale_hits, 0, "audited hits never stale");
}

#[test]
fn join_between_identical_queries_forces_recompute() {
    let mut service = verified_service(23, 8);
    let query = ClusterQuery::new(NodeId::new(1), 3, 20.0);

    serve_one(&mut service, query);
    assert!(serve_one(&mut service, query).cached);

    let epoch_before = service.system().epoch();
    service.join(NodeId::new(6)).expect("join a fresh host");
    assert_eq!(service.system().epoch(), epoch_before + 1);

    let after = serve_one(&mut service, query);
    assert!(!after.cached, "a join invalidates cached answers too");
    assert_eq!(service.stats().stale_hits, 0);
}

#[test]
fn fault_disturbance_without_membership_change_still_invalidates() {
    let mut service = verified_service(31, 8);
    let query = ClusterQuery::new(NodeId::new(0), 2, 20.0);

    serve_one(&mut service, query);
    assert!(serve_one(&mut service, query).cached);

    // Disturb gossip state with no membership change: the overlay is at
    // its fixpoint, so poke a node's state through the chaos nemesis. The
    // two batches above left the digest memoised; the nemesis reaches the
    // overlay through `network_mut`, which is what forgets it.
    let before = service.system().live_digest();
    let epoch = service.system().epoch();
    let invalidated = service.cache_stats().invalidated;
    service.with_system_mut(|sys| {
        bcc_simnet::chaos::nemesis_hook("crt-stale").expect("known nemesis")(sys, 0);
    });
    let after_digest = service.system().live_digest();
    assert_ne!(before, after_digest, "nemesis must disturb the digest");
    assert_eq!(service.system().epoch(), epoch, "gossip-only disturbance");

    let after = serve_one(&mut service, query);
    assert!(
        !after.cached,
        "a digest change alone (same epoch) must invalidate the entry"
    );
    assert_eq!(service.cache_stats().invalidated, invalidated + 1);
    assert_eq!(service.stats().stale_hits, 0);
}

#[test]
fn index_stamp_moves_in_lockstep_with_cache_epoch() {
    let mut service = verified_service(17, 8);
    let query = ClusterQuery::new(NodeId::new(0), 2, 20.0);

    serve_one(&mut service, query);
    let (epoch0, digest0) = service.index_stamp();
    assert_eq!(epoch0, service.system().epoch());

    // Churn: any op that invalidates cache entries must also move the
    // index stamp, so callers can adopt the index under the exact same
    // freshness discipline.
    service.crash(NodeId::new(3)).expect("crash active host");
    let (epoch1, digest1) = service.index_stamp();
    assert_eq!(epoch1, service.system().epoch());
    assert!(epoch1 > epoch0);
    assert_ne!(digest1, digest0, "membership change moves the index digest");

    // The post-churn index is still exactly the cold-rebuild state, and
    // was maintained without a hot-path rebuild.
    let sys = service.system();
    assert_eq!(
        sys.cluster_index().digest(),
        sys.rebuild_index_cold().digest()
    );
    assert_eq!(sys.cluster_index().stats().full_builds, 0);

    // Serving still works against the post-churn index epoch.
    let after = serve_one(&mut service, query);
    assert!(!after.cached, "churn invalidated the cached answer");
}

#[test]
fn serving_chaos_stays_stale_free_across_seeds() {
    for seed in [1u64, 2, 3] {
        let report = serve_chaos(
            seed,
            &ServeChaosConfig {
                universe: 8,
                steps: 16,
                queries_per_step: 5,
            },
        )
        .expect("every fault window heals");
        assert!(report.responses > 0, "seed {seed} served nothing");
        assert_eq!(
            report.stale_hits, 0,
            "seed {seed} served a stale answer: {report:?}"
        );
    }
}

#[test]
fn admission_sheds_beyond_queue_capacity() {
    let mut service = seeded_service(
        5,
        6,
        ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    for h in 0..4 {
        service.join(NodeId::new(h)).expect("join");
    }
    let q = ClusterQuery::new(NodeId::new(0), 2, 20.0);
    service.submit(q).expect("first admitted");
    service.submit(q).expect("second admitted");
    let shed = service.submit(q);
    assert!(
        matches!(
            shed,
            Err(bcc_service::ServiceError::Overloaded {
                in_flight: 2,
                capacity: 2,
                retry_after: 1
            })
        ),
        "third submission must shed, got {shed:?}"
    );
    assert_eq!(service.stats().shed, 1);
    // Draining frees capacity again.
    assert_eq!(service.drain().len(), 2);
    service.submit(q).expect("admitted after drain");
}

#[test]
fn invalid_queries_are_rejected_with_typed_errors() {
    let mut service = seeded_service(5, 6, ServiceConfig::default());
    for h in 0..3 {
        service.join(NodeId::new(h)).expect("join");
    }
    let mut reject = |q: ClusterQuery| match service.submit(q) {
        Err(bcc_service::ServiceError::Rejected(e)) => e,
        other => panic!("expected rejection, got {other:?}"),
    };
    assert!(matches!(
        reject(ClusterQuery::new(NodeId::new(0), 1, 20.0)),
        bcc_core::QueryError::InvalidSizeConstraint { k: 1 }
    ));
    assert!(matches!(
        reject(ClusterQuery::new(NodeId::new(0), 2, 0.0)),
        bcc_core::QueryError::InvalidBandwidthConstraint { .. }
    ));
    assert!(matches!(
        reject(ClusterQuery::new(NodeId::new(99), 2, 20.0)),
        bcc_core::QueryError::UnknownNeighbor { neighbor: 99 }
    ));
    assert_eq!(service.stats().rejected, 3);
}

#[test]
fn hostile_degrade_artifacts_fail_typed_at_load_or_at_replay() {
    let json = DegradeArtifact::capture(5, &DegradeChaosConfig::default())
        .unwrap()
        .0
        .to_json();
    let body = json.trim_end().trim_end_matches('}');
    // What the substring scanner this loader replaced would have accepted.
    for bad in [
        json.replace("\"version\": 1", "\"version\": 2"),
        json.replace("\"version\": 1", "\"version\": 4294967297"),
        json.replace("  \"version\": 1,\n", ""),
        json.replace("\"kind\": \"degrade\"", "\"kind\": \"shard\""),
        format!("{json}garbage"),
        format!("{json}{json}"),
        json.replace("  \"seed\"", "  \"steps\": 1,\n  \"seed\""),
        body.to_string(),
        format!("{body}}}}}"),
    ] {
        assert_ne!(bad, json);
        let err = DegradeArtifact::from_json(&bad).unwrap_err();
        assert!(matches!(err, ChaosError::Artifact { .. }), "{bad}: {err}");
    }
    // Well-formed records no capture wrote load, and fail replay typed: an
    // unknown nemesis, an input of the wrong type, a universe nothing could
    // be built for, a `"digest"` that only occurs inside a string value.
    for bad in [
        json.replace("\"slow-lane\"", "\"no-such\""),
        json.replace("\"budget\": 96", "\"budget\": \"96\""),
        json.replace("\"universe\": 8", "\"universe\": 0"),
        json.replace("\"universe\": 8", "\"universe\": 4097"),
        json.replace("\"universe\": 8", &format!("\"universe\": {}", usize::MAX)),
        json.replace(
            "\"slow-lane\"",
            "\"slow-lane\", \"note\": \"\\\"digest\\\": 7\"",
        )
        .replace("  \"digest\"", "  \"other\""),
    ] {
        assert_ne!(bad, json);
        let err = DegradeArtifact::from_json(&bad)
            .expect("still a record")
            .replay()
            .unwrap_err();
        assert!(matches!(err, ChaosError::Artifact { .. }), "{bad}: {err}");
    }
}
