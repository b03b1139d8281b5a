//! Sharded ≡ unsharded, through the facade: on one universe and one churn
//! schedule, `Coordinator::cluster_near` at 1, 2 and 4 shards returns the
//! answer `DynamicSystem::cluster_near` returns, query for query and error
//! for error, after every op. At one shard the coordinator adds nothing to
//! the merge kernel, so its `work_units` must be exactly the distance
//! evaluations the unsharded kernel makes.

mod common;

use bandwidth_clusters::core::find_cluster_among;
use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::fw_label_dist;
use bcc_shard::{CoordOutcome, Coordinator, ShardPlan};
use common::{hierarchy, HOSTS, SCHEDULE};

/// The unsharded kernel run by hand over the baseline's own ball, counting
/// its distance evaluations.
fn unsharded_kernel_evals(sys: &DynamicSystem, start: usize, k: usize, l: f64) -> u64 {
    let index = sys.cluster_index();
    let slot = index.slot(start as u32).expect("start is active");
    let mut ball = index.ball(slot, 2.0 * l).1.to_vec();
    ball.sort_unstable();
    let mut evals = 0u64;
    let _ = find_cluster_among(&ball, k, l, |a, b| {
        evals += 1;
        fw_label_dist(sys.framework(), a, b)
    });
    evals
}

#[test]
fn coordinator_answers_equal_the_unsharded_system_after_every_op() {
    let classes = BandwidthClasses::linspace(30.0, 110.0, 5, RationalTransform::default());
    let config = SystemConfig::new(classes.clone());
    let joined: Vec<NodeId> = (0..56).map(NodeId::new).collect();
    let mut baseline = DynamicSystem::bootstrap(hierarchy(), config.clone(), &joined).unwrap();
    let mut coords: Vec<Coordinator> = [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            Coordinator::bootstrap(
                hierarchy(),
                config.clone(),
                ShardPlan::contiguous(HOSTS, shards),
                ServiceConfig::default(),
                &joined,
            )
            .unwrap()
        })
        .collect();

    let (mut found, mut none, mut refused, mut counted) = (0usize, 0usize, 0usize, 0usize);
    for step in 0..=SCHEDULE.len() {
        if let Some(&(op, host)) = step.checked_sub(1).map(|i| &SCHEDULE[i]) {
            let host = NodeId::new(host);
            let want = baseline.apply(op, host);
            for coord in &mut coords {
                assert_eq!(coord.apply(op, host), want, "op {step}");
                assert_eq!(coord.epoch(), baseline.epoch(), "op {step}");
            }
        }
        for start in (0..HOSTS).step_by(3) {
            for k in [2, 4, 8, 16] {
                for class_idx in [0, 2, 4] {
                    let b = classes.bandwidth_of(class_idx);
                    let want = baseline.cluster_near(NodeId::new(start), k, b);
                    for coord in &mut coords {
                        let shards = coord.plan().shard_count();
                        let at = format!("op {step} S={shards} start={start} k={k} b={b}");
                        let resp = match (coord.cluster_near(NodeId::new(start), k, b), &want) {
                            (Ok(resp), Ok(_)) => resp,
                            (Err(got), Err(want)) => {
                                assert_eq!(&got, want, "{at}");
                                continue;
                            }
                            (got, want) => panic!("{at}: {got:?} against {want:?}"),
                        };
                        let CoordOutcome::Exact { cluster } = &resp.outcome else {
                            panic!("{at}: degraded with every shard reachable");
                        };
                        assert_eq!(Some(cluster), want.as_ref().ok(), "{at}");
                        if shards == 1 && !resp.cached {
                            let l = classes.distance_of(class_idx);
                            let evals = unsharded_kernel_evals(&baseline, start, k, l);
                            assert_eq!(resp.work_units, evals, "{at}");
                            counted += 1;
                        }
                    }
                    match want {
                        Ok(Some(_)) => found += 1,
                        Ok(None) => none += 1,
                        Err(_) => refused += 1,
                    }
                }
            }
        }
    }
    // The fixture must exercise every arm it claims to pin.
    assert!(
        found > 100 && none > 100 && refused > 0,
        "{found} {none} {refused}"
    );
    assert!(counted > 100, "{counted} uncached answers at one shard");
    let four = coords[2].stats();
    assert!(four.pruned > 0 && four.cache_hits > 0, "{four:?}");
    assert!(
        coords[2].shards().iter().any(|sh| sh.stats().forwarded > 0),
        "no ball straddled a shard boundary"
    );
}
