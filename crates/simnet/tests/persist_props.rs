//! Property tests for the durability layer: snapshot → restore is
//! bit-identical under arbitrary churn, recovery from any snapshot point
//! plus journal replay reproduces the live system exactly, and injected
//! snapshot corruption is always detected — a recovery never loads a
//! damaged generation.

use bcc_core::BandwidthClasses;
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_simnet::{
    ChurnOp, DynamicSystem, FaultyStorage, MemStorage, PersistError, SnapshotStore,
    StorageFaultPlan, SystemConfig, SystemSnapshot,
};
use proptest::prelude::*;

const UNIVERSE: usize = 8;

fn system_from_caps(caps: &[f64]) -> (DynamicSystem, BandwidthMatrix, SystemConfig) {
    let bandwidth = BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j]));
    let classes = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
    let config = SystemConfig::new(classes);
    let sys = DynamicSystem::new(bandwidth.clone(), config.clone());
    (sys, bandwidth, config)
}

type Op = (ChurnOp, NodeId);

fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..4, 0usize..UNIVERSE).prop_map(|(kind, host)| {
        let op = [
            ChurnOp::Join,
            ChurnOp::Leave,
            ChurnOp::Crash,
            ChurnOp::Recover,
        ][kind];
        (op, NodeId::new(host))
    })
}

/// A schedule that starts with a few joins so most runs have live hosts.
fn arb_schedule() -> impl Strategy<Value = Vec<Op>> {
    (
        proptest::collection::vec(
            (0usize..UNIVERSE).prop_map(|h| (ChurnOp::Join, NodeId::new(h))),
            2..5,
        ),
        proptest::collection::vec(arb_op(), 0..20),
    )
        .prop_map(|(joins, tail)| {
            let mut ops = joins;
            ops.extend(tail);
            ops
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot → encode → decode → restore reproduces the live system
    /// bit-for-bit (epoch, overlay digest, index stamp), the encoding is
    /// canonical (two captures of the same state are byte-identical), and
    /// the restored system stays in lockstep under further churn.
    #[test]
    fn snapshot_restore_is_bit_identical(
        caps in proptest::collection::vec(10.0f64..100.0, UNIVERSE),
        ops in arb_schedule(),
        tail in proptest::collection::vec(arb_op(), 1..8),
    ) {
        let (mut sys, bandwidth, config) = system_from_caps(&caps);
        for (op, host) in ops {
            let _ = sys.apply(op, host);
        }

        let bytes = SystemSnapshot::capture(&sys).encode();
        prop_assert_eq!(
            &bytes,
            &SystemSnapshot::capture(&sys).encode(),
            "snapshot encoding must be canonical"
        );

        let snap = SystemSnapshot::decode(&bytes).expect("clean bytes decode");
        let mut restored = snap.restore(&bandwidth, &config).expect("clean snapshot restores");
        prop_assert_eq!(restored.epoch(), sys.epoch());
        prop_assert_eq!(restored.live_digest(), sys.live_digest());
        prop_assert_eq!(restored.index_stamp(), sys.index_stamp());
        prop_assert_eq!(restored.cluster_index().stats().full_builds, 0);

        // The restored replica must track the original under identical churn.
        for op in tail {
            let _ = sys.apply(op.0, op.1);
            let _ = restored.apply(op.0, op.1);
            prop_assert_eq!(restored.epoch(), sys.epoch(), "diverged after {:?}", op);
            prop_assert_eq!(restored.live_digest(), sys.live_digest(), "diverged after {:?}", op);
        }
    }

    /// Snapshotting at an arbitrary point of the schedule and journaling
    /// the suffix recovers a system identical to the live one: recovery
    /// from any prefix + replay equals live.
    #[test]
    fn recovery_from_any_prefix_plus_replay_matches_live(
        caps in proptest::collection::vec(10.0f64..100.0, UNIVERSE),
        ops in arb_schedule(),
        cut in 0usize..24,
    ) {
        let (mut sys, bandwidth, config) = system_from_caps(&caps);
        let cut = cut % (ops.len() + 1);
        let mut store = SnapshotStore::new(MemStorage::new());
        let mut logged = 0usize;
        for (i, &(kind, host)) in ops.iter().enumerate() {
            if i == cut {
                store.snapshot(&sys);
            }
            let _ = sys.apply(kind, host);
            if i >= cut {
                // Journal every attempted op (applied or benignly skipped),
                // exactly like the live kill-restart nemesis does.
                store.log(kind, host, sys.epoch());
                logged += 1;
            }
        }
        if cut == ops.len() {
            store.snapshot(&sys);
        }

        let (recovered, report) = store.recover(&bandwidth, &config).expect("clean store recovers");
        prop_assert_eq!(report.replayed_ops, logged);
        prop_assert!(report.skipped_generations.is_empty());
        prop_assert_eq!(recovered.epoch(), sys.epoch());
        prop_assert_eq!(recovered.live_digest(), sys.live_digest());
        prop_assert_eq!(recovered.index_stamp(), sys.index_stamp());
        prop_assert_eq!(recovered.cluster_index().stats().full_builds, 0);
    }

    /// Under arbitrary torn-write and bit-flip rates, recovery never
    /// loads a corrupted generation: every skipped generation carries a
    /// detection error, and the recovered system (the fault interlocks
    /// guarantee at least one valid generation) matches the live one.
    #[test]
    fn corrupted_snapshots_are_always_detected_never_loaded(
        caps in proptest::collection::vec(10.0f64..100.0, UNIVERSE),
        ops in arb_schedule(),
        seed in any::<u64>(),
        torn in 0.0f64..1.0,
        flip in 0.0f64..1.0,
    ) {
        let (mut sys, bandwidth, config) = system_from_caps(&caps);
        let plan = StorageFaultPlan::new(seed).torn_write(torn).bit_flip(flip);
        let mut store = SnapshotStore::with_retain(FaultyStorage::new(plan), 4);
        store.snapshot(&sys);
        for (i, &(kind, host)) in ops.iter().enumerate() {
            let _ = sys.apply(kind, host);
            store.log(kind, host, sys.epoch());
            if i % 3 == 2 {
                store.snapshot(&sys);
            }
        }

        let (recovered, report) = store
            .recover(&bandwidth, &config)
            .expect("interlocks guarantee a valid generation");
        for (gen, err) in &report.skipped_generations {
            prop_assert!(*gen > report.generation, "fell back past the base generation");
            prop_assert!(
                matches!(
                    err,
                    PersistError::ChecksumMismatch { .. }
                        | PersistError::Malformed { .. }
                        | PersistError::VersionSkew { .. }
                ),
                "generation {} skipped without a detection error: {}",
                gen,
                err
            );
        }
        // Every injected corruption within the retained window must be
        // caught by a checksum, never silently restored: the recovered
        // state always equals the live one.
        prop_assert_eq!(recovered.epoch(), sys.epoch());
        prop_assert_eq!(recovered.live_digest(), sys.live_digest());
        prop_assert_eq!(recovered.index_stamp(), sys.index_stamp());
    }
}
