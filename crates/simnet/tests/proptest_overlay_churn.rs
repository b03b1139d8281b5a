//! Property test: under arbitrary churn schedules the incrementally
//! repaired gossip overlay stays digest-identical to a cold restart of
//! the live membership after every op, without ever rebuilding the
//! overlay from blank on the churn hot path — and the memoised
//! `live_digest()` equals a fresh hash of the overlay before and after
//! every op, rejected ones included.

use bcc_core::BandwidthClasses;
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_simnet::{ChurnOp, DynamicSystem, SimNetwork, SystemConfig};
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
    fn incremental_overlay_matches_cold_restart_under_churn(
        caps in proptest::collection::vec(10.0f64..100.0, UNIVERSE),
        ops in proptest::collection::vec(arb_op(), 1..24),
    ) {
        let mut sys = system_from_caps(&caps);
        let mut applied = 0u64;
        for op in ops {
            // Reading before the op warms the memo, so an op that failed
            // to forget it would serve the previous state's digest below.
            prop_assert_eq!(sys.live_digest(), sys.network().map(SimNetwork::digest));
            let result = sys.apply(op.0, NodeId::new(op.1));
            // Invalid transitions are rejected without touching the
            // overlay; valid ones must leave the focused repair sitting on
            // the exact fixpoint a cold restart of the new membership
            // reaches — bit-identical digest, not approximately equal.
            if result.is_ok() {
                applied += 1;
            }
            prop_assert_eq!(
                sys.live_digest(),
                sys.network().map(SimNetwork::digest),
                "memoised digest is not the overlay's after {:?} -> {:?}", op, result
            );
            let cold = sys.cold_restart_digest().expect("cold reference converges");
            prop_assert_eq!(
                sys.live_digest(),
                cold,
                "live overlay diverged from the cold fixpoint after {:?}", op
            );
        }
        let stats = sys.overlay_stats();
        prop_assert_eq!(
            stats.full_reconvergences, 0,
            "churn path rebuilt the overlay from blank"
        );
        prop_assert_eq!(
            stats.incremental_ops, applied,
            "every applied op must be an incremental repair"
        );
    }
}
