//! Restored ≡ live, through the facade: one universe, one churn schedule
//! (failing ops included) applied through `DynamicSystem::apply` and
//! journalled op by op, a snapshot every fourth op, and a recovery after
//! ops 3, 7 and 12. What comes back from storage must be the system that
//! was running: same epoch, overlay digest, index stamp and cold-restart
//! fixpoint, the same answer or error for every query, and no from-scratch
//! index build on the way.

mod common;

use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::{MemStorage, SnapshotStore};
use common::{hierarchy, HOSTS, SCHEDULE};

#[test]
fn recovered_system_equals_the_live_one_after_ops_3_7_and_12() {
    let classes = BandwidthClasses::linspace(30.0, 110.0, 5, RationalTransform::default());
    let config = SystemConfig::new(classes.clone());
    let joined: Vec<NodeId> = (0..56).map(NodeId::new).collect();
    let mut live = DynamicSystem::bootstrap(hierarchy(), config.clone(), &joined).unwrap();
    let mut store = SnapshotStore::new(MemStorage::new());
    store.snapshot(&live);
    let retry = RetryPolicy::default();

    let (mut refused, mut replayed, mut found, mut errors) = (0usize, 0usize, 0usize, 0usize);
    for (done, &(op, host)) in (1..).zip(&SCHEDULE) {
        let host = NodeId::new(host);
        refused += usize::from(live.apply(op, host).is_err());
        // Refused ops are journalled too: replay refuses them the same way
        // and the recorded post-op epoch pins that.
        store.log(op, host, live.epoch());

        if [3, 7, 12].contains(&done) {
            let (restored, report) = store.recover(&hierarchy(), &config).unwrap();
            assert!(report.skipped_generations.is_empty(), "op {done}");
            replayed += report.replayed_ops;
            assert_eq!(restored.epoch(), live.epoch(), "op {done}");
            assert_eq!(restored.live_digest(), live.live_digest(), "op {done}");
            assert_eq!(restored.index_stamp(), live.index_stamp(), "op {done}");
            assert_eq!(
                restored.cold_restart_digest().unwrap(),
                live.cold_restart_digest().unwrap(),
                "op {done}"
            );
            assert_eq!(restored.cluster_index().stats().full_builds, 0, "op {done}");
            for start in (0..HOSTS).map(NodeId::new) {
                for k in [2, 4, 8, 16] {
                    for &b in classes.bandwidths() {
                        let at = format!("op {done} start={start} k={k} b={b}");
                        let routed = live.query_resilient(start, k, b, &retry);
                        assert_eq!(
                            restored.query_resilient(start, k, b, &retry),
                            routed,
                            "{at}"
                        );
                        let near = live.cluster_near(start, k, b);
                        assert_eq!(restored.cluster_near(start, k, b), near, "{at}");
                        found += usize::from(matches!(near, Ok(Some(_))));
                        errors += usize::from(routed.is_err());
                    }
                }
            }
        }
        if done % 4 == 0 {
            store.snapshot(&live);
        }
    }
    // The fixture must exercise what it claims to pin: refused ops in the
    // journal, a replay behind every recovery, answers and errors compared.
    assert_eq!(refused, 2, "the double join and the recover of a live host");
    assert_eq!(replayed, 3 + 3 + 4, "ops since the snapshots at 0, 4 and 8");
    assert!(found > 100 && errors > 0, "{found} {errors}");
}
