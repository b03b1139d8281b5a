//! A full gossip round reports a change from what it did: a delivered
//! report that differed from the record held, local maxima that moved, or
//! a delivery still in flight. On random fault-free overlays that must be
//! exactly what hashing the whole network before and after the round
//! would say: `run_round` returns `false` at the first round whose
//! `digest()` did not move, and that round sends nothing.
//!
//! Full rounds and the focused repair run one body, and the repair's seeds
//! are every host whose inputs a disturbance changed. So from the same
//! disturbed state the repair retraces the full rounds: the same messages,
//! bytes, rounds and fixpoint.

use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, SynthConfig};
use bcc_simnet::{OverlayDelta, SimNetwork};
use proptest::prelude::*;

fn network(nodes: usize, seed: u64, n_cut: usize, classes: usize, noise: f64) -> SimNetwork {
    let mut cfg = SynthConfig::small(seed);
    cfg.nodes = nodes;
    cfg.noise_sigma = noise;
    let bw = generate(&cfg);
    let d = RationalTransform::default().distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let classes = BandwidthClasses::linspace(10.0, 90.0, classes, RationalTransform::default());
    SimNetwork::new(
        fw.anchor(),
        fw.predicted_matrix(),
        ProtocolConfig::new(n_cut, classes),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_round_is_unchanged_exactly_when_the_digest_stands_still(
        nodes in 2usize..48,
        seed in 0u64..1_000,
        n_cut in 1usize..8,
        classes in 1usize..6,
        noise in 0.0f64..0.6,
    ) {
        let mut net = network(nodes, seed, n_cut, classes, noise);
        // Gossip on a tree settles within 2 × diameter + 2 rounds.
        let cap = 2 * nodes + 2;
        let mut settled = false;
        for round in 0..cap {
            let digest = net.digest();
            let messages = net.traffic().messages;
            let changed = net.run_round();
            let moved = net.digest() != digest;
            prop_assert_eq!(changed, moved, "round {}", round);
            if !changed {
                prop_assert_eq!(
                    net.traffic().messages,
                    messages,
                    "the round at the fixpoint sent messages"
                );
                settled = true;
                break;
            }
        }
        prop_assert!(settled, "no fixpoint within {} rounds", cap);
    }

    #[test]
    fn a_focused_repair_retraces_the_full_rounds(
        nodes in 2usize..48,
        seed in 0u64..1_000,
        n_cut in 1usize..8,
        classes in 1usize..6,
        resets in proptest::collection::vec(0usize..48, 1..4),
    ) {
        let mut full = network(nodes, seed, n_cut, classes, 0.2);
        let cap = 2 * nodes + 2;
        full.run_to_convergence(cap).expect("a tree overlay converges");
        let delta = OverlayDelta {
            reset: resets.iter().map(|&r| NodeId::new(r % nodes)).collect(),
            neighbors: Vec::new(),
        };
        let everyone: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
        let seeds = full.apply_churn_delta(&delta, &everyone);
        let mut focused = full.clone();
        let before = full.traffic();
        let rounds = full.run_to_convergence(cap);
        prop_assert_eq!(focused.reconverge_focused(&seeds, cap), rounds);
        prop_assert_eq!(focused.traffic(), full.traffic());
        prop_assert!(full.traffic().messages > before.messages, "a reset host has news");
        prop_assert_eq!(focused.digest(), full.digest());
    }
}
