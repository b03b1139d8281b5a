//! Sharded ≡ unsharded, through the facade: on one universe and one churn
//! schedule, `Coordinator::cluster_near` at 1, 2 and 4 shards returns the
//! answer `DynamicSystem::cluster_near` returns, query for query and error
//! for error, after every op. At one shard the coordinator adds nothing to
//! the merge kernel, so its `work_units` must be exactly the distance
//! evaluations the unsharded kernel makes.

use bandwidth_clusters::core::find_cluster_among;
use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::{fw_label_dist, ChurnError};
use bcc_shard::{CoordOutcome, Coordinator, ShardPlan};

const HOSTS: usize = 64;

/// A noise-free capacitated hierarchy, numbered so that contiguous id
/// ranges are subtrees: 64 hosts → 16 sites of 4 → 8 regions → 4 zones,
/// pairwise bandwidth the minimum capacity on the tree path. Zone uplinks
/// are slow, so a tight-class ball stays inside one shard of four (the
/// prune certificate fires) and a wide-class ball straddles them.
fn hierarchy() -> BandwidthMatrix {
    let access = |i: usize| 30.0 + ((i * 37) % 11) as f64 * 22.0;
    let site = |s: usize| 150.0 + ((s * 53) % 7) as f64 * 50.0;
    let region = |r: usize| 40.0 + ((r * 29) % 5) as f64 * 12.0;
    let zone = |z: usize| 6.0 + ((z * 3) % 4) as f64 * 2.5;
    BandwidthMatrix::from_fn(HOSTS, |i, j| {
        let mut bw = access(i).min(access(j));
        let (si, sj) = (i / 4, j / 4);
        if si != sj {
            bw = bw.min(site(si)).min(site(sj));
        }
        let (ri, rj) = (si / 2, sj / 2);
        if ri != rj {
            bw = bw.min(region(ri)).min(region(rj));
        }
        let (zi, zj) = (ri / 2, rj / 2);
        if zi != zj {
            bw = bw.min(zone(zi)).min(zone(zj));
        }
        bw
    })
}

#[derive(Clone, Copy)]
enum Op {
    Join(usize),
    Leave(usize),
    Crash(usize),
    Recover(usize),
}

/// Twelve ops over hosts in every zone; the double join and the recover of
/// a host that never crashed must fail alike on both sides.
const SCHEDULE: [Op; 12] = [
    Op::Leave(5),
    Op::Join(60),
    Op::Crash(17),
    Op::Leave(33),
    Op::Join(61),
    Op::Join(61),
    Op::Recover(17),
    Op::Crash(48),
    Op::Join(5),
    Op::Recover(2),
    Op::Leave(20),
    Op::Recover(48),
];

fn apply_system(sys: &mut DynamicSystem, op: Op) -> Result<(), ChurnError> {
    match op {
        Op::Join(h) => sys.join(NodeId::new(h)),
        Op::Leave(h) => sys.leave(NodeId::new(h)),
        Op::Crash(h) => sys.crash(NodeId::new(h)),
        Op::Recover(h) => sys.recover(NodeId::new(h)),
    }
}

fn apply_coord(coord: &mut Coordinator, op: Op) -> Result<(), ChurnError> {
    match op {
        Op::Join(h) => coord.join(NodeId::new(h)),
        Op::Leave(h) => coord.leave(NodeId::new(h)),
        Op::Crash(h) => coord.crash(NodeId::new(h)),
        Op::Recover(h) => coord.recover(NodeId::new(h)),
    }
}

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
        if let Some(&op) = step.checked_sub(1).map(|i| &SCHEDULE[i]) {
            let want = apply_system(&mut baseline, op);
            for coord in &mut coords {
                assert_eq!(apply_coord(coord, op), want, "op {step}");
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
