//! Property tests pinning the serving layer's headline guarantee: for any
//! random workload, the cached service and the uncached baseline return
//! **bit-identical** responses, and repeated runs are deterministic.

use bcc_metric::NodeId;
use bcc_service::{
    seeded_service, BreakerState, ClusterQuery, ClusterService, ServiceConfig, Tier,
};
use proptest::prelude::*;

/// A raw workload item: (submit host index, k, bandwidth).
type RawQuery = (usize, usize, f64);

fn arb_workload(universe: usize, max_len: usize) -> impl Strategy<Value = Vec<RawQuery>> {
    proptest::collection::vec((0..universe, 2usize..5, 5.0f64..90.0), 1..=max_len)
}

/// Builds a service over the seeded universe with `joined` hosts active.
fn service_with(
    seed: u64,
    universe: usize,
    joined: usize,
    config: ServiceConfig,
) -> ClusterService {
    let mut service = seeded_service(seed, universe, config);
    for h in 0..joined {
        service.join(NodeId::new(h)).expect("join fresh host");
    }
    service
}

/// Runs the whole workload through `service`, returning the comparable
/// parts of every response: admission verdict, then per-ticket outcome.
fn run_workload(
    service: &mut ClusterService,
    workload: &[RawQuery],
) -> Vec<Result<bcc_service::ServiceResponse, bcc_service::ServiceError>> {
    run_with_budget(service, workload, None)
}

/// [`run_workload`] with every query carrying the per-query `budget`.
fn run_with_budget(
    service: &mut ClusterService,
    workload: &[RawQuery],
    budget: Option<u64>,
) -> Vec<Result<bcc_service::ServiceResponse, bcc_service::ServiceError>> {
    let mut out = Vec::with_capacity(workload.len());
    for &(start, k, b) in workload {
        let query = ClusterQuery {
            budget,
            ..ClusterQuery::new(NodeId::new(start), k, b)
        };
        match service.submit(query) {
            Ok(_) => {}
            Err(e) => out.push(Err(e)),
        }
    }
    for resp in service.drain() {
        out.push(Ok(resp));
    }
    out
}

/// Asserts the [`bcc_service::CacheStats`] counter identities the cache
/// maintains by construction (see the `CacheStats` docs).
fn assert_cache_counter_identities(service: &ClusterService) {
    let s = service.cache_stats();
    assert_eq!(
        s.hits + s.misses + s.disabled,
        s.lookups,
        "every lookup is exactly one of hit / miss / disabled: {s:?}"
    );
    assert!(
        s.invalidated <= s.misses,
        "an invalidation is also a miss: {s:?}"
    );
    assert!(s.replaced <= s.inserted, "replacements are inserts: {s:?}");
    assert!(
        s.evicted <= s.inserted,
        "can only evict what was stored: {s:?}"
    );
    assert!(
        s.stale_served <= s.invalidated,
        "the stale tier only holds demoted (invalidated) entries, and \
         serves each at most once: {s:?}"
    );
}

fn assert_same_responses(
    cached: &[Result<bcc_service::ServiceResponse, bcc_service::ServiceError>],
    uncached: &[Result<bcc_service::ServiceResponse, bcc_service::ServiceError>],
) {
    assert_eq!(cached.len(), uncached.len());
    for (c, u) in cached.iter().zip(uncached) {
        match (c, u) {
            (Ok(c), Ok(u)) => {
                assert_eq!(c.ticket, u.ticket);
                assert_eq!(c.query, u.query);
                assert_eq!(c.class_idx, u.class_idx);
                // The guarantee under test: same answer, bit for bit,
                // whether or not it came from the cache.
                assert_eq!(c.outcome, u.outcome);
            }
            (Err(c), Err(u)) => assert_eq!(c, u),
            (c, u) => panic!("verdicts diverged: {c:?} vs {u:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached == uncached for random workloads.
    #[test]
    fn cached_matches_uncached(
        seed in 0u64..1_000,
        workload in arb_workload(10, 24),
    ) {
        let mut cached = service_with(seed, 10, 6, ServiceConfig::default());
        let mut baseline = service_with(seed, 10, 6, ServiceConfig::default().uncached());
        let c = run_workload(&mut cached, &workload);
        let u = run_workload(&mut baseline, &workload);
        assert_same_responses(&c, &u);
        assert_cache_counter_identities(&cached);
        assert_cache_counter_identities(&baseline);
        // The disabled baseline must never report misses as if it were a
        // failing cache.
        let b = baseline.cache_stats();
        prop_assert_eq!(b.misses, 0);
        prop_assert_eq!(b.disabled, b.lookups);
    }

    /// Interleaving churn between workload slices must not break the
    /// equivalence either — the cache invalidates, the baseline recomputes,
    /// both land on the same answers.
    #[test]
    fn cached_matches_uncached_under_churn(
        seed in 0u64..1_000,
        first in arb_workload(10, 10),
        second in arb_workload(10, 10),
        crash_host in 0usize..6,
    ) {
        let mut cached = service_with(seed, 10, 6, ServiceConfig::default());
        let mut baseline = service_with(seed, 10, 6, ServiceConfig::default().uncached());

        let c1 = run_workload(&mut cached, &first);
        let u1 = run_workload(&mut baseline, &first);
        assert_same_responses(&c1, &u1);

        let a = cached.crash(NodeId::new(crash_host));
        let b = baseline.crash(NodeId::new(crash_host));
        prop_assert_eq!(a.is_ok(), b.is_ok());

        let c2 = run_workload(&mut cached, &second);
        let u2 = run_workload(&mut baseline, &second);
        assert_same_responses(&c2, &u2);
        assert_cache_counter_identities(&cached);
        assert_cache_counter_identities(&baseline);
    }

    /// The same (seed, workload) always produces the same responses —
    /// batching and caching add no nondeterminism.
    #[test]
    fn serving_is_deterministic(
        seed in 0u64..1_000,
        workload in arb_workload(8, 16),
    ) {
        let mut a = service_with(seed, 8, 5, ServiceConfig::default());
        let mut b = service_with(seed, 8, 5, ServiceConfig::default());
        let ra = run_workload(&mut a, &workload);
        let rb = run_workload(&mut b, &workload);
        assert_same_responses(&ra, &rb);
    }

    /// A budget generous enough to never exhaust must be invisible: the
    /// budgeted service returns byte-identical responses to the
    /// unbudgeted one, all labeled [`Tier::Exact`]. So does a service
    /// whose config default of zero would starve every query, when each
    /// query carries that generous budget itself: the per-query budget
    /// wins.
    #[test]
    fn budgeted_matches_unbudgeted_when_not_exhausted(
        seed in 0u64..1_000,
        workload in arb_workload(10, 20),
    ) {
        let mut unbudgeted = service_with(seed, 10, 6, ServiceConfig::default());
        let mut budgeted = service_with(
            seed,
            10,
            6,
            ServiceConfig {
                work_budget: Some(u64::MAX / 2),
                ..ServiceConfig::default()
            },
        );
        let mut overridden = service_with(
            seed,
            10,
            6,
            ServiceConfig {
                work_budget: Some(0),
                ..ServiceConfig::default()
            },
        );
        let u = run_workload(&mut unbudgeted, &workload);
        let b = run_workload(&mut budgeted, &workload);
        let o = run_with_budget(&mut overridden, &workload, Some(u64::MAX / 2));
        for b in [&b, &o] {
            prop_assert_eq!(u.len(), b.len());
            for (u, b) in u.iter().zip(b) {
                match (u, b) {
                    (Ok(u), Ok(b)) => {
                        prop_assert_eq!(u.ticket, b.ticket);
                        prop_assert_eq!(u.outcome.clone(), b.outcome.clone());
                        prop_assert_eq!(u.cached, b.cached);
                        prop_assert_eq!(u.tier, Tier::Exact);
                        prop_assert_eq!(b.tier, Tier::Exact);
                    }
                    (Err(u), Err(b)) => prop_assert_eq!(u, b),
                    (u, b) => panic!("verdicts diverged: {u:?} vs {b:?}"),
                }
            }
        }
    }

    /// Degraded serving is deterministic: under a starvation budget and an
    /// inflated work cost, two identical runs produce byte-identical
    /// responses — including tiers and stale-cache labels.
    #[test]
    fn degraded_serving_is_deterministic(
        seed in 0u64..1_000,
        first in arb_workload(8, 12),
        second in arb_workload(8, 12),
    ) {
        let starved = ServiceConfig {
            work_budget: Some(24),
            ..ServiceConfig::default()
        };
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut service = service_with(seed, 8, 6, starved.clone());
            // Warm the cache cheaply, then inflate the work cost so the
            // second slice exhausts and walks the fallback ladder.
            let mut all = run_workload(&mut service, &first);
            service.with_system_mut(|sys| sys.set_work_cost(64));
            all.extend(run_workload(&mut service, &second));
            assert_cache_counter_identities(&service);
            let stats = service.stats();
            prop_assert_eq!(
                stats.degraded_stale + stats.degraded_partial,
                all.iter()
                    .filter(|r| matches!(r, Ok(resp) if resp.tier.is_degraded()))
                    .count() as u64,
                "stats must agree with the labeled responses"
            );
            runs.push(all);
        }
        for pair in runs.windows(2) {
            prop_assert_eq!(pair[0].len(), pair[1].len());
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a.ticket, b.ticket);
                        prop_assert_eq!(a.outcome.clone(), b.outcome.clone());
                        prop_assert_eq!(a.cached, b.cached);
                        prop_assert_eq!(a.tier, b.tier);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => panic!("verdicts diverged across runs: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// Every served answer — executed, coalesced or a cache hit — equals a
    /// fresh [`bcc_simnet::DynamicSystem::query_resilient`] on the
    /// service's own system at response time, including across a
    /// mid-workload crash. Each slice runs twice so the second pass is
    /// served from the cache.
    #[test]
    fn served_matches_fresh_recompute(
        seed in 0u64..1_000,
        first in arb_workload(10, 12),
        second in arb_workload(10, 12),
        crash_host in 0usize..6,
    ) {
        let mut service = service_with(seed, 10, 6, ServiceConfig::default());
        let retry = service.config().retry;
        for (slice, crash_after) in [(&first, true), (&second, false)] {
            let mut answered_first = false;
            let mut hit_second = false;
            for pass in 0..2 {
                for resp in run_workload(&mut service, slice).into_iter().flatten() {
                    let q = resp.query;
                    let fresh = service
                        .system()
                        .query_resilient(q.submit_node, q.k, q.bandwidth, &retry);
                    prop_assert_eq!(&resp.outcome, &fresh, "pass {} {:?}", pass, q);
                    if resp.outcome.is_ok() {
                        answered_first |= pass == 0;
                        hit_second |= pass == 1 && resp.cached;
                    }
                }
            }
            prop_assert_eq!(answered_first, hit_second, "a repeated answer is a cache hit");
            if crash_after {
                // Ok or a typed refusal; either way the epoch story holds.
                let _ = service.crash(NodeId::new(crash_host));
            }
        }
    }

    /// Admission through an open breaker is impossible: every successful
    /// submission leaves its lane in a non-Open state, and every
    /// [`bcc_service::ServiceError::CircuitOpen`] shed really came from a
    /// lane that was refusing traffic.
    #[test]
    fn breaker_never_serves_from_an_open_lane(
        seed in 0u64..1_000,
        // One-class workload (b below the first class bound) so every
        // query rides lane 0 and lane state is observable around each
        // submission.
        workload in proptest::collection::vec((0usize..6, 2usize..5, 5.0f64..24.0), 8..=40),
    ) {
        // A zero budget exhausts every execution at the first node visit,
        // so the lane trips as fast as the breaker config allows.
        let mut service = service_with(
            seed,
            6,
            6,
            ServiceConfig {
                work_budget: Some(0),
                ..ServiceConfig::default()
            },
        );
        let mut sheds = 0u64;
        for &(start, k, b) in &workload {
            let before = service.breaker_state(0).expect("lane 0 exists");
            match service.submit(ClusterQuery::new(NodeId::new(start), k, b)) {
                Ok(_) => {
                    prop_assert_ne!(
                        service.breaker_state(0).expect("lane 0 exists"),
                        BreakerState::Open,
                        "an admitted query may not leave its lane Open"
                    );
                }
                Err(bcc_service::ServiceError::CircuitOpen { lane, retry_after_ticks }) => {
                    sheds += 1;
                    prop_assert_eq!(lane, 0);
                    prop_assert!(retry_after_ticks >= 1);
                    prop_assert_ne!(
                        before,
                        BreakerState::Closed,
                        "a Closed lane never sheds"
                    );
                }
                Err(bcc_service::ServiceError::Rejected(_)) => {}
                Err(other) => panic!("unexpected submit error: {other:?}"),
            }
            // Execute immediately so breaker transitions interleave with
            // admissions as tightly as possible.
            for resp in service.tick() {
                // Everything that did execute must carry a truthful label:
                // a zero budget can never produce an exact uncached answer.
                if !resp.cached {
                    prop_assert!(
                        resp.tier.is_degraded() || resp.outcome.is_err(),
                        "zero-budget execution served as exact: {resp:?}"
                    );
                }
            }
        }
        prop_assert_eq!(service.stats().breaker_shed, sheds);
        assert_cache_counter_identities(&service);
    }
}
