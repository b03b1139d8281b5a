//! Churn stress test: a long random join/leave/query schedule must keep
//! every invariant intact — valid overlays, label/tree agreement, and
//! clusters that satisfy their predicted constraint.

use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, SynthConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn random_churn_schedule_keeps_invariants() {
    let mut cfg = SynthConfig::small(61);
    cfg.nodes = 24;
    let bw = generate(&cfg);
    let universe = bw.len();
    let classes = BandwidthClasses::linspace(10.0, 80.0, 6, RationalTransform::default());
    let mut system = DynamicSystem::new(bw, SystemConfig::new(classes));
    let mut rng = StdRng::seed_from_u64(99);

    // Bootstrap with half the universe.
    for i in 0..universe / 2 {
        system.join(NodeId::new(i)).expect("fresh host");
    }

    for step in 0..120 {
        let roll: f64 = rng.gen();
        let active: Vec<NodeId> = system.active().collect();
        if roll < 0.25 && active.len() < universe {
            // Join a random absent host.
            let absent: Vec<usize> = (0..universe)
                .filter(|&i| !active.contains(&NodeId::new(i)))
                .collect();
            let pick = absent[rng.gen_range(0..absent.len())];
            system.join(NodeId::new(pick)).expect("absent host joins");
        } else if roll < 0.45 && active.len() > 3 {
            // A random host leaves (possibly the overlay root).
            let pick = active[rng.gen_range(0..active.len())];
            system.leave(pick).expect("active host leaves");
        } else {
            // Query from a random active host.
            let Some(&start) = active.get(rng.gen_range(0..active.len().max(1))) else {
                continue;
            };
            let k = rng.gen_range(2..6);
            let b = rng.gen_range(10.0..80.0);
            let out = system.query(start, k, b).expect("valid query");
            if let Some(cluster) = out.cluster {
                assert_eq!(cluster.len(), k, "step {step}");
                // Members must be active and distinct.
                let mut sorted = cluster.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "step {step}: duplicate members");
                for &m in &cluster {
                    assert!(
                        system.active().any(|h| h == m),
                        "step {step}: returned an inactive host {m}"
                    );
                }
                // Predicted constraint honored.
                let t = RationalTransform::default();
                let fw = system.framework();
                let cls_l = t.distance_constraint(b);
                for (i, &u) in cluster.iter().enumerate() {
                    for &v in &cluster[i + 1..] {
                        let d = fw.distance(u, v).expect("active hosts embedded");
                        // The class snapped up, so the realized predicted
                        // distance is at most the *requested* constraint.
                        assert!(
                            d <= cls_l + 1e-9,
                            "step {step}: predicted d({u},{v}) = {d} > {cls_l}"
                        );
                    }
                }
            }
        }
        // Structural invariants hold continuously.
        system
            .framework()
            .tree()
            .check_invariants()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(system.framework().host_count(), system.len());
        // The memoised digest is the overlay's own, after churn steps
        // (which forget it) and query steps (which must not move it).
        assert_eq!(
            system.live_digest(),
            system.network().map(|n| n.digest()),
            "step {step}: memoised digest diverged from the overlay"
        );
    }
}

#[test]
fn drain_to_empty_and_refill() {
    let mut cfg = SynthConfig::small(62);
    cfg.nodes = 10;
    let bw = generate(&cfg);
    let classes = BandwidthClasses::linspace(10.0, 80.0, 4, RationalTransform::default());
    let mut system = DynamicSystem::new(bw, SystemConfig::new(classes));

    for i in 0..10 {
        system.join(NodeId::new(i)).unwrap();
    }
    for i in 0..10 {
        system.leave(NodeId::new(i)).unwrap();
    }
    assert!(system.is_empty());
    assert!(system.network().is_none());

    // The system is fully reusable afterwards.
    for i in (0..10).rev() {
        system.join(NodeId::new(i)).unwrap();
    }
    assert_eq!(system.len(), 10);
    let out = system.query(NodeId::new(9), 2, 15.0).expect("valid query");
    assert!(out.found() || !out.found()); // must not panic; outcome depends on data
}
