//! The node-local kernels through the whole dynamic stack: after every
//! membership op the incrementally repaired gossip state (whose
//! `aggrCRT[x]` rows come from the indexed all-class maxima) must equal a
//! cold restart's fixpoint, and every routed answer (one swept probe per
//! node visit) must be a real cluster of live hosts.

use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::fw_label_dist;
use bcc_datasets::{generate, SynthConfig};

enum Op {
    Join(usize),
    Leave(usize),
    Crash(usize),
    Recover(usize),
}

#[test]
fn gossip_fixpoint_and_served_answers_hold_under_churn() {
    let mut cfg = SynthConfig::small(2011);
    cfg.nodes = 64;
    let bw = generate(&cfg);
    let classes = BandwidthClasses::linspace(10.0, 80.0, 4, RationalTransform::default());
    let joined: Vec<NodeId> = (0..48).map(NodeId::new).collect();
    let mut system =
        DynamicSystem::bootstrap(bw, SystemConfig::new(classes.clone()), &joined).unwrap();
    let retry = RetryPolicy::default();

    use Op::*;
    let schedule = [
        Join(50),
        Leave(3),
        Crash(17),
        Join(63),
        Leave(0), // the overlay root
        Recover(17),
        Crash(50),
        Crash(21),
        Join(3),
        Recover(21),
        Leave(63),
        Recover(50),
    ];
    let mut found = 0usize;
    for (step, op) in schedule.iter().enumerate() {
        match *op {
            Join(h) => system.join(NodeId::new(h)),
            Leave(h) => system.leave(NodeId::new(h)),
            Crash(h) => system.crash(NodeId::new(h)),
            Recover(h) => system.recover(NodeId::new(h)),
        }
        .unwrap_or_else(|e| panic!("step {step}: {e}"));

        assert_eq!(
            system.live_digest(),
            system.cold_restart_digest().unwrap(),
            "step {step}: repaired overlay left the cold-restart fixpoint"
        );

        let live: Vec<NodeId> = system.active().collect();
        let fw = system.framework();
        for &start in &live {
            for k in [2usize, 5, 11] {
                for (class_idx, &b) in classes.bandwidths().iter().enumerate() {
                    let out = system.query_resilient(start, k, b, &retry).unwrap();
                    let Some(cluster) = out.cluster else { continue };
                    found += 1;
                    let at = format!("step {step} start {start} k {k} b {b}");
                    let mut members = cluster.clone();
                    members.sort_unstable();
                    members.dedup();
                    assert_eq!(members.len(), k, "{at}: not k distinct members");
                    let l = classes.distance_of(class_idx);
                    for (i, &u) in cluster.iter().enumerate() {
                        assert!(live.contains(&u), "{at}: {u} is not live");
                        for &v in &cluster[i + 1..] {
                            let d = fw_label_dist(fw, u.index() as u32, v.index() as u32);
                            assert!(d <= l, "{at}: d({u},{v}) = {d} > {l}");
                        }
                    }
                }
            }
        }
    }
    assert!(
        found > 1000,
        "the sweep must not be vacuous: {found} answers"
    );
}
