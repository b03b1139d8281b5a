//! Property test: under arbitrary churn schedules the incrementally
//! maintained cluster index stays digest-identical to a from-scratch
//! rebuild of the live membership, without ever taking a full rebuild
//! on the churn hot path.

use bcc_core::BandwidthClasses;
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_simnet::{ChurnOp, DynamicSystem, SystemConfig};
use proptest::prelude::*;

const UNIVERSE: usize = 8;

fn system_from_caps(caps: &[f64]) -> DynamicSystem {
    let bandwidth = BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j]));
    let classes = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
    DynamicSystem::new(bandwidth, SystemConfig::new(classes))
}

fn arb_op() -> impl Strategy<Value = (ChurnOp, usize)> {
    (0usize..4, 0usize..UNIVERSE).prop_map(|(kind, host)| {
        let op = [
            ChurnOp::Join,
            ChurnOp::Leave,
            ChurnOp::Crash,
            ChurnOp::Recover,
        ][kind];
        (op, host)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_index_matches_cold_rebuild_under_churn(
        caps in proptest::collection::vec(10.0f64..100.0, UNIVERSE),
        ops in proptest::collection::vec(arb_op(), 1..24),
    ) {
        let mut sys = system_from_caps(&caps);
        let mut applied = 0u64;
        for op in ops {
            let result = sys.apply(op.0, NodeId::new(op.1));
            // Invalid transitions (double-join, leave of an absent host,
            // recover of a non-crashed host, ...) are rejected and must
            // leave the index untouched; valid ones must keep it exactly
            // at the cold-rebuild state.
            if result.is_ok() {
                applied += 1;
            }
            prop_assert_eq!(
                sys.cluster_index().digest(),
                sys.rebuild_index_cold().digest(),
                "digest diverged after {:?}", op
            );
        }
        let stats = sys.cluster_index().stats();
        prop_assert_eq!(stats.full_builds, 0, "churn path took a full rebuild");
        prop_assert!(
            stats.incremental_updates >= applied,
            "expected at least {} incremental updates, saw {}",
            applied,
            stats.incremental_updates
        );
    }
}
