//! Property tests for the fault-injection layer: failure-aware queries
//! stay safe under arbitrary fault plans, loss accounting is monotone,
//! and healthy systems degrade not at all.

use bcc_core::{BandwidthClasses, ProtocolConfig, RetryPolicy, Unmetered};
use bcc_embed::{FrameworkConfig, PredictionFramework};
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_simnet::{DynamicSystem, FaultPlan, SimNetwork, SystemConfig};
use proptest::prelude::*;

/// Random access-link bandwidth matrix with optional multiplicative jitter.
fn arb_bandwidth(max: usize) -> impl Strategy<Value = BandwidthMatrix> {
    (
        proptest::collection::vec(5.0f64..200.0, 5..max),
        proptest::collection::vec(0.8f64..1.2, 512),
        any::<bool>(),
    )
        .prop_map(|(caps, jitter, noisy)| {
            let n = caps.len();
            BandwidthMatrix::from_fn(n, |i, j| {
                let base = caps[i].min(caps[j]);
                if noisy {
                    base * jitter[(i * 31 + j * 17) % jitter.len()]
                } else {
                    base
                }
            })
        })
}

fn classes() -> BandwidthClasses {
    BandwidthClasses::linspace(10.0, 150.0, 8, RationalTransform::default())
}

/// A random mixed fault plan: up to two crash-stops, a transient
/// partition, and background loss.
fn arb_plan(n: usize) -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        proptest::collection::vec(0..n as u32, 0..3),
        0..n as u32,
        0.0f64..0.5,
    )
        .prop_map(move |(seed, crashes, part, loss)| {
            let mut plan = FaultPlan::new(seed).uniform_loss(0.0, loss, Some(30.0));
            for (i, &c) in crashes.iter().enumerate() {
                plan = plan.crash(3.0 + i as f64, NodeId::new(c as usize));
            }
            plan = plan.partition(
                8.0,
                vec![
                    NodeId::new(part as usize),
                    NodeId::new((part as usize + 1) % n),
                ],
                Some(12.0),
            );
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline safety property: under *any* fault plan, an answered
    /// resilient query never hands out a dead host and never violates the
    /// `b` bound on the predicted metric — degraded answers are allowed,
    /// wrong answers are not.
    #[test]
    fn resilient_queries_stay_safe_under_arbitrary_faults(
        (bw, plan) in arb_bandwidth(12).prop_flat_map(|bw| {
            let n = bw.len();
            (Just(bw), arb_plan(n))
        }),
        k in 2usize..5,
        b in 15.0f64..120.0,
        rounds in 10usize..60,
    ) {
        let d = RationalTransform::default().distance_matrix(&bw);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let cls = classes();
        let proto = ProtocolConfig::new(4, cls.clone());
        let mut net = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto);
        net.run_to_convergence(300).expect("fault-free gossip converges");
        net.inject_faults(&plan);
        for _ in 0..rounds {
            net.run_round();
        }
        let class_idx = cls.snap_up(b).expect("b inside the class range");
        let bound = cls.distance_of(class_idx);
        let retry = RetryPolicy::default();
        for start in 0..bw.len() {
            let start = NodeId::new(start);
            if net.is_down(start) {
                continue;
            }
            let Ok(out) = net.query_resilient(start, k, b, &retry, &mut Unmetered) else {
                continue;
            };
            let Some(cluster) = out.into_value().cluster else { continue };
            for &u in &cluster {
                prop_assert!(!net.is_down(u), "dead host {u} in answer {cluster:?}");
            }
            for (i, &u) in cluster.iter().enumerate() {
                for &v in &cluster[i + 1..] {
                    let pred = fw.predicted_matrix().get(u.index(), v.index());
                    prop_assert!(
                        pred <= bound + 1e-9,
                        "members {u}, {v} at predicted distance {pred} exceed \
                         class bound {bound} for b = {b}"
                    );
                }
            }
        }
    }

    /// Loss accounting is pointwise monotone: the injector burns exactly
    /// one RNG draw per message fate, so with the same seed and the same
    /// round count a higher loss probability drops a superset of messages.
    #[test]
    fn dropped_traffic_is_monotone_in_loss(
        bw in arb_bandwidth(10),
        seed in any::<u64>(),
        lo in 0.0f64..0.5,
        delta in 0.0f64..0.5,
        rounds in 5usize..40,
    ) {
        let d = RationalTransform::default().distance_matrix(&bw);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let run = |loss: f64| {
            let proto = ProtocolConfig::new(4, classes());
            let mut net = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto);
            net.inject_faults(&FaultPlan::new(seed).uniform_loss(0.0, loss, None));
            for _ in 0..rounds {
                net.run_round();
            }
            net.traffic().dropped
        };
        let low = run(lo);
        let high = run((lo + delta).min(1.0));
        prop_assert!(
            low <= high,
            "loss {lo} dropped {low} messages, loss {} dropped {high}",
            (lo + delta).min(1.0)
        );
    }

    /// On a fault-free system the resilient path is pure overhead-free
    /// fallback: it reports a clean degradation and agrees with the plain
    /// query.
    #[test]
    fn healthy_systems_report_clean_degradation(
        bw in arb_bandwidth(12),
        k in 2usize..5,
        b in 15.0f64..120.0,
        start_pick in any::<u32>(),
    ) {
        let hosts: Vec<NodeId> = (0..bw.len()).map(NodeId::new).collect();
        let sys = DynamicSystem::bootstrap(bw, SystemConfig::new(classes()), &hosts).unwrap();
        let start = NodeId::new(start_pick as usize % sys.len());
        let plain = sys.query(start, k, b).expect("valid query");
        let out = sys
            .query_resilient(start, k, b, &RetryPolicy::default())
            .expect("valid query");
        prop_assert!(out.clean(), "no faults, yet degraded: {:?}", out.degradation);
        prop_assert_eq!(out.cluster, plain.cluster);
    }
}
