//! Integration test for the fault-injection acceptance scenario: a seeded
//! plan with 30 % uniform message loss plus a 10 % crash-stop wave mid-run
//! must (a) leave every *satisfiable* query answerable within the default
//! retry budget, and (b) be bit-for-bit reproducible from the seed.

use bcc_core::{find_cluster, BandwidthClasses, ProtocolConfig, RetryPolicy, Unmetered};
use bcc_embed::{FrameworkConfig, PredictionFramework};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, NodeId, RationalTransform};
use bcc_simnet::{FaultPlan, SimNetwork};

const HOSTS: usize = 40;
const WARMUP_ROUNDS: usize = 48;
const SEED: u64 = 0xFA17;

/// Deterministic access-link universe: four capacity tiers, perfect tree
/// metric, so predicted and real bandwidth coincide and ground truth is
/// unambiguous.
fn universe() -> BandwidthMatrix {
    let tiers = [100.0f64, 60.0, 30.0, 12.0];
    BandwidthMatrix::from_fn(HOSTS, |i, j| tiers[i % 4].min(tiers[j % 4]))
}

fn classes() -> BandwidthClasses {
    BandwidthClasses::linspace(10.0, 110.0, 12, RationalTransform::default())
}

/// Builds the overlay, injects the acceptance plan, warms up under 30 %
/// loss, lets 10 % of hosts crash-stop, and settles.
fn run_scenario() -> SimNetwork {
    let bw = universe();
    let d = RationalTransform::default().distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let proto = ProtocolConfig::new(8, classes());
    let mut net = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto);
    let plan = FaultPlan::new(SEED)
        .uniform_loss(0.0, 0.3, None)
        .random_crashes(WARMUP_ROUNDS as f64, HOSTS, 0.1);
    net.inject_faults(&plan);
    for _ in 0..WARMUP_ROUNDS {
        net.run_round();
    }
    // Crash wave has hit; let the survivors settle (loss stays on).
    net.run_to_convergence(512).expect("survivors settle");
    net
}

/// Hosts reachable from `start` over the live overlay. Crash-stop on a
/// *tree* overlay cuts it into components — a query walk can only visit
/// the start's component, so that is the honest ground-truth pool.
fn live_component(net: &SimNetwork, start: usize) -> Vec<usize> {
    let mut seen = [false; HOSTS];
    let mut queue = vec![start];
    seen[start] = true;
    while let Some(u) = queue.pop() {
        for &v in net.nodes()[u].neighbors() {
            if !seen[v.index()] && !net.is_down(v) {
                seen[v.index()] = true;
                queue.push(v.index());
            }
        }
    }
    (0..HOSTS).filter(|&i| seen[i]).collect()
}

#[test]
fn satisfiable_queries_survive_loss_and_crashes() {
    let net = run_scenario();
    let bw = universe();
    let d = RationalTransform::default().distance_matrix(&bw);
    let cls = classes();
    let retry = RetryPolicy::default();

    let live: Vec<usize> = (0..HOSTS)
        .filter(|&i| !net.is_down(NodeId::new(i)))
        .collect();
    assert_eq!(live.len(), HOSTS - HOSTS / 10, "10 % crashed");

    let mut satisfiable_seen = 0;
    for k in [2usize, 3, 5, 8] {
        for b in [12.0f64, 30.0, 60.0, 100.0] {
            let l = cls.distance_of(cls.snap_up(b).expect("b in range"));
            // Ground truth over *all* survivors: if even this is
            // unsatisfiable, no honest answer exists anywhere.
            let all_sub = DistanceMatrix::from_fn(live.len(), |a, c| d.get(live[a], live[c]));
            let truth_live = find_cluster(&all_sub, k, l);

            // Every live host must answer within the retry budget.
            for &start in live.iter().step_by(7) {
                // Must-find ground truth is restricted to the start's live
                // component: the walk cannot cross a crashed tree node, but
                // cluster *members* only need to be alive (a reachable
                // node's clustering space may name live hosts anywhere).
                let pool = live_component(&net, start);
                let sub = DistanceMatrix::from_fn(pool.len(), |a, c| d.get(pool[a], pool[c]));
                let truth_reachable = find_cluster(&sub, k, l);

                let out = net
                    .query_resilient(NodeId::new(start), k, b, &retry, &mut Unmetered)
                    .expect("valid query from live host")
                    .into_value();
                assert!(out.hops <= retry.hop_budget, "budget respected");
                if let Some(c) = &out.cluster {
                    // Whatever is returned must be a real, live cluster.
                    assert_eq!(c.len(), k);
                    for (i, &u) in c.iter().enumerate() {
                        assert!(!net.is_down(u), "dead member {u} in answer");
                        for &v in &c[i + 1..] {
                            assert!(
                                bw.get(u.index(), v.index()) >= b - 1e-6,
                                "pair ({u}, {v}) violates b={b}"
                            );
                        }
                    }
                }
                if truth_reachable.is_some() {
                    satisfiable_seen += 1;
                    assert!(
                        out.cluster.is_some(),
                        "satisfiable query (k={k}, b={b}) from n{start} found nothing"
                    );
                }
                if truth_live.is_none() {
                    assert!(
                        out.cluster.is_none(),
                        "unsatisfiable query (k={k}, b={b}) from n{start} \
                         must not invent a cluster"
                    );
                }
            }
        }
    }
    assert!(satisfiable_seen > 0, "scenario must exercise real queries");
}

#[test]
fn scenario_is_bit_for_bit_reproducible() {
    let a = run_scenario();
    let b = run_scenario();
    assert_eq!(a.digest(), b.digest(), "protocol state reproduces");
    assert_eq!(a.traffic(), b.traffic(), "every loss reproduces");
    assert_eq!(a.rounds_run(), b.rounds_run());
    let downs = |net: &SimNetwork| -> Vec<usize> {
        (0..HOSTS)
            .filter(|&i| net.is_down(NodeId::new(i)))
            .collect()
    };
    assert_eq!(downs(&a), downs(&b), "same hosts crash");

    // Queries on the degraded overlay reproduce too, degradation included.
    let retry = RetryPolicy::default();
    let start = NodeId::new(downs(&a).first().map_or(0, |&d| (d + 1) % HOSTS));
    let qa = a.query_resilient(start, 3, 60.0, &retry, &mut Unmetered);
    let qb = b.query_resilient(start, 3, 60.0, &retry, &mut Unmetered);
    assert_eq!(qa.unwrap(), qb.unwrap());
}

#[test]
fn loss_rate_materializes_on_the_wire() {
    let net = run_scenario();
    let t = net.traffic();
    assert!(t.dropped > 0);
    let observed = t.dropped as f64 / t.messages as f64;
    // 30 % background loss plus drops at dead hosts: observed rate must
    // sit in a band around the injected rate.
    assert!(
        (0.2..0.5).contains(&observed),
        "expected ≈30 % loss, observed {observed:.3}"
    );
}
