//! Served ≡ fresh, through the facade: one universe, one churn schedule
//! (failing ops included) applied through `ClusterService::apply`, and
//! after every op a burst of sixteen queries with repeated keys, submitted
//! twice. Whatever arm of the serving layer answers — a computed miss, a
//! query coalesced onto one, a cache hit — the outcome is the one
//! `query_resilient` gives when asked afresh on the service's own system,
//! error for error, and nothing cached before an op is served after it.

mod common;

use bandwidth_clusters::prelude::*;
use bandwidth_clusters::service::Tier;
use common::{hierarchy, SCHEDULE};

/// Sixteen queries over eight keys, each key twice: the start hosts are
/// the ones the schedule removes, crashes and brings back (so some bursts
/// ask a host that is gone), beside two that never move.
fn burst(classes: &BandwidthClasses) -> Vec<ClusterQuery> {
    let b = classes.bandwidths();
    let keys = [
        (0, 2, b[0]),
        (5, 3, b[1]),
        (17, 4, b[0]),
        (33, 2, b[2]),
        (48, 8, b[0]),
        (60, 2, b[4]),
        (20, 16, b[0]),
        (40, 3, b[3]),
    ];
    (0..16)
        .map(|i| {
            let (start, k, bandwidth) = keys[i % keys.len()];
            ClusterQuery::new(NodeId::new(start), k, bandwidth)
        })
        .collect()
}

#[test]
fn every_served_outcome_equals_a_fresh_query_after_every_op() {
    let classes = BandwidthClasses::linspace(30.0, 110.0, 5, RationalTransform::default());
    let joined: Vec<NodeId> = (0..56).map(NodeId::new).collect();
    let system =
        DynamicSystem::bootstrap(hierarchy(), SystemConfig::new(classes.clone()), &joined).unwrap();
    let config = ServiceConfig::default();
    let retry = config.retry;
    let mut service = ClusterService::new(system, config).unwrap();
    let burst = burst(&classes);

    let (mut found, mut errors, mut refused) = (0usize, 0usize, 0usize);
    let ops = SCHEDULE.iter().map(|&op| Some(op));
    for (done, op) in std::iter::once(None).chain(ops).enumerate() {
        // `None` is the freshly bootstrapped system: the cache is empty, so
        // its first pass must miss just as a pass after a real op must.
        let applied = op.is_none_or(|(op, host)| service.apply(op, NodeId::new(host)).is_ok());
        refused += usize::from(!applied);

        for repeat in [false, true] {
            for q in &burst {
                service.submit(*q).unwrap();
            }
            let responses = service.drain();
            assert_eq!(responses.len(), burst.len(), "op {done}");
            for r in &responses {
                let q = r.query;
                let at = format!(
                    "op {done} repeat={repeat} start={} k={}",
                    q.submit_node, q.k
                );
                let fresh =
                    service
                        .system()
                        .query_resilient(q.submit_node, q.k, q.bandwidth, &retry);
                assert_eq!(r.outcome, fresh, "{at}");
                assert_eq!(r.tier, Tier::Exact, "{at}");
                if fresh.is_err() {
                    assert!(!r.cached, "an error was served from the cache: {at}");
                } else if repeat {
                    assert!(r.cached, "the first pass cached this answer: {at}");
                } else if applied {
                    // The op moved the epoch: nothing cached before it may
                    // be served after it.
                    assert!(!r.cached, "{at}");
                }
                found += usize::from(fresh.as_ref().is_ok_and(|o| o.found()));
                errors += usize::from(fresh.is_err());
            }
        }
    }

    // The fixture must reach the three arms it claims to pin, answers and
    // errors alike.
    let (stats, cache) = (service.stats(), service.cache_stats());
    assert_eq!(refused, 2, "the double join and the recover of a live host");
    assert!(
        stats.executed > 0 && stats.coalesced > 0 && cache.hits > 0,
        "{stats:?} {cache:?}"
    );
    assert_eq!(
        stats.executed + stats.coalesced + cache.hits,
        stats.submitted,
        "every response is a miss, a coalesced rider or a hit"
    );
    assert!(cache.invalidated > 0, "{cache:?}");
    assert!(found > 50 && errors > 0, "{found} {errors}");
}
