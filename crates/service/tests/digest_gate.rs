//! Logical gate on how often the overlay digest is hashed, read off the
//! process-global `simnet.digest.computes` counter: once per overlay
//! state, however many batches read it. One test in a binary of its own,
//! so no concurrent test moves the counter.

use bcc_metric::NodeId;
use bcc_service::{seeded_service, ClusterQuery, ClusterService, ServiceConfig};

fn digest_computes() -> u64 {
    bcc_obs::registry().counter("simnet.digest.computes").get()
}

/// Serves every `(start, k)` of the pool: first as one burst, then again
/// one query per batch.
fn serve_bursts_and_singles(service: &mut ClusterService) {
    let pool: Vec<ClusterQuery> = (0..6)
        .flat_map(|start| [2, 3].map(|k| ClusterQuery::new(NodeId::new(start), k, 20.0)))
        .collect();
    for &q in &pool {
        service.submit(q).unwrap();
    }
    assert_eq!(service.drain().len(), pool.len());
    for &q in &pool {
        service.submit(q).unwrap();
        assert_eq!(service.drain().len(), 1);
    }
}

#[test]
fn digest_is_hashed_once_per_overlay_state() {
    bcc_obs::set_enabled(true);
    let mut service = seeded_service(2011, 16, ServiceConfig::default());
    for h in 0..12 {
        service.join(NodeId::new(h)).unwrap();
    }

    // Between two churn ops: misses, hits, bursts and singles, one hash.
    let start = digest_computes();
    serve_bursts_and_singles(&mut service);
    serve_bursts_and_singles(&mut service);
    let stats = service.cache_stats();
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    assert!(service.stats().batches > 20);
    assert_eq!(digest_computes() - start, 1);

    // Each churn op forgets the digest and hashes nothing itself; the
    // next batch pays for the new state, once.
    service.leave(NodeId::new(11)).unwrap();
    assert_eq!(digest_computes() - start, 1);
    serve_bursts_and_singles(&mut service);
    assert_eq!(digest_computes() - start, 2);
    service.join(NodeId::new(12)).unwrap();
    service.crash(NodeId::new(7)).unwrap();
    serve_bursts_and_singles(&mut service);
    assert_eq!(digest_computes() - start, 3);

    // Handing out the overlay mutably forgets it too, written to or not.
    service.with_system_mut(|s| {
        s.network_mut();
    });
    serve_bursts_and_singles(&mut service);
    assert_eq!(digest_computes() - start, 4);
}
