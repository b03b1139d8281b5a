//! Property tests pinning the sharded coordinator's headline guarantee:
//! for any churn schedule and any query workload, [`Coordinator`] answers
//! are **bit-identical** to the unsharded [`DynamicSystem`] at every
//! shard count in {1, 2, 4}, and every error comes back with exactly the
//! baseline's error value.

use bcc_metric::NodeId;
use bcc_service::ServiceConfig;
use bcc_shard::harness::{seeded_coordinator, SHARD_COUNTS};
use bcc_shard::{CoordOutcome, Coordinator, ShardPlan};
use bcc_simnet::chaos::{chaos_classes, seeded_universe};
use bcc_simnet::{DynamicSystem, SystemConfig};
use proptest::prelude::*;

/// A raw churn op: (op selector, universe host).
type RawOp = (u8, usize);

/// A raw region query: (start host, k, bandwidth).
type RawQuery = (usize, usize, f64);

fn arb_schedule(universe: usize, max_len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((0u8..4, 0..universe), 0..=max_len)
}

fn arb_workload(universe: usize, max_len: usize) -> impl Strategy<Value = Vec<RawQuery>> {
    proptest::collection::vec((0..universe, 2usize..5, 5.0f64..90.0), 1..=max_len)
}

/// Applies one raw op to a system, via the trait-free closure pair so the
/// baseline and the coordinators run the identical sequence.
fn apply_baseline(
    sys: &mut DynamicSystem,
    (op, host): RawOp,
) -> Result<(), bcc_simnet::ChurnError> {
    let h = NodeId::new(host);
    match op % 4 {
        0 => sys.join(h),
        1 => sys.leave(h),
        2 => sys.crash(h),
        _ => sys.recover(h),
    }
}

fn apply_coord(coord: &mut Coordinator, (op, host): RawOp) -> Result<(), bcc_simnet::ChurnError> {
    let h = NodeId::new(host);
    match op % 4 {
        0 => coord.join(h),
        1 => coord.leave(h),
        2 => coord.crash(h),
        _ => coord.recover(h),
    }
}

/// Runs the full workload against the baseline and every coordinator,
/// asserting bit-identity (answers and errors) query by query.
fn assert_workload_identical(
    baseline: &DynamicSystem,
    coords: &mut [Coordinator],
    workload: &[RawQuery],
) {
    for &(start, k, b) in workload {
        let want = baseline.cluster_near(NodeId::new(start), k, b);
        for coord in coords.iter_mut() {
            let s = coord.plan().shard_count();
            let got = coord.cluster_near(NodeId::new(start), k, b);
            match (&want, got) {
                (Ok(want), Ok(resp)) => match resp.outcome {
                    CoordOutcome::Exact { cluster } => assert_eq!(
                        &cluster, want,
                        "S={s} start={start} k={k} b={b}: answer diverged \
                         (cached={})",
                        resp.cached
                    ),
                    CoordOutcome::Degraded { .. } => panic!(
                        "S={s} start={start} k={k} b={b}: degraded with every \
                         shard reachable"
                    ),
                },
                (Err(want), Err(got)) => assert_eq!(
                    want, &got,
                    "S={s} start={start} k={k} b={b}: error value diverged"
                ),
                (want, got) => {
                    panic!("S={s} start={start} k={k} b={b}: {want:?} vs {got:?}")
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: arbitrary churn keeps every shard count
    /// bit-identical to the unsharded system. The workload runs twice per
    /// churn round — the second pass serves from the coordinator cache, so
    /// cached answers are pinned too.
    #[test]
    fn sharded_matches_unsharded_across_shard_counts(
        seed in 0u64..1_000,
        schedule in arb_schedule(10, 16),
        workload in arb_workload(10, 8),
    ) {
        let config = SystemConfig::new(chaos_classes());
        let mut baseline = DynamicSystem::new(seeded_universe(seed, 10), config.clone());
        let mut coords: Vec<Coordinator> = SHARD_COUNTS
            .iter()
            .map(|&s| {
                Coordinator::new(
                    seeded_universe(seed, 10),
                    config.clone(),
                    ShardPlan::contiguous(10, s),
                    ServiceConfig::default(),
                )
                .expect("valid sharded deployment")
            })
            .collect();
        for h in 0..10 {
            let want = baseline.join(NodeId::new(h));
            for coord in coords.iter_mut() {
                prop_assert_eq!(&coord.join(NodeId::new(h)), &want);
            }
        }
        for &op in &schedule {
            let want = apply_baseline(&mut baseline, op);
            for coord in coords.iter_mut() {
                prop_assert_eq!(&apply_coord(coord, op), &want, "op {:?}", op);
                prop_assert_eq!(coord.epoch(), baseline.epoch(), "op {:?}", op);
            }
            assert_workload_identical(&baseline, &mut coords, &workload);
            assert_workload_identical(&baseline, &mut coords, &workload);
        }
    }

    /// Repeated runs of the same inputs produce identical responses —
    /// stats, routing metadata and all.
    #[test]
    fn coordinator_runs_are_deterministic(
        seed in 0u64..1_000,
        schedule in arb_schedule(8, 12),
        workload in arb_workload(8, 6),
    ) {
        let run = || {
            let mut coord = seeded_coordinator(seed, 8, 4);
            for h in 0..8 {
                drop(coord.join(NodeId::new(h)));
            }
            let mut log = Vec::new();
            for &op in &schedule {
                drop(apply_coord(&mut coord, op));
                for &(start, k, b) in &workload {
                    log.push(format!("{:?}", coord.cluster_near(NodeId::new(start), k, b)));
                }
            }
            log.push(format!("{:?} {:?}", coord.stats(), coord.cache_stats()));
            log
        };
        prop_assert_eq!(run(), run());
    }
}
