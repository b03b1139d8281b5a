//! The figures' system is the served system, and it answers like the
//! tree metric: on both PlanetLab stand-ins, a system built the way the
//! figures build it (`eval::setup::build_tree_system`, a
//! `DynamicSystem::bootstrap` over the label metric) routes every query to
//! the same cluster in the same number of hops, and spends the same gossip
//! bytes converging, as an overlay over the framework's tree-BFS metric
//! (`PredictionFramework::predicted_matrix`, the metric TREE-CENTRAL runs
//! on). That composition is built only here, as the reference.

use bandwidth_clusters::eval::setup::build_tree_system;
use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, hp_config, umd_config, SynthConfig};
use bcc_simnet::SimNetwork;

/// Query sizes from a pair up to a third of the smaller deployment.
const KS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Asserts served ≡ reference on one deployment, at every class bandwidth,
/// every size in [`KS`] and every 4th start.
fn assert_fold_identity(cfg: &SynthConfig, b_range: (f64, f64)) {
    let bw = generate(cfg);
    let n = bw.len();
    let classes = BandwidthClasses::linspace(b_range.0, b_range.1, 8, RationalTransform::default());
    let served = build_tree_system(bw.clone(), 10, classes.clone(), cfg.seed ^ 0xF00D);

    let config = served.config();
    let d = config.transform.distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, config.framework);
    let mut reference =
        SimNetwork::new(fw.anchor(), fw.predicted_matrix(), config.protocol.clone());
    reference
        .run_to_convergence(config.max_rounds)
        .expect("a tree overlay converges");

    let overlay = served.network().expect("every host joined");
    assert_eq!(overlay.traffic().bytes, reference.traffic().bytes);
    let mut compared = 0;
    for start in (0..n).step_by(4).map(NodeId::new) {
        for k in KS {
            for &b in classes.bandwidths() {
                let got = served.query(start, k, b).unwrap();
                let want = reference.query(start, k, b).unwrap();
                assert_eq!(
                    (&got.cluster, got.hops),
                    (&want.cluster, want.hops),
                    "start {start}, k {k}, b {b}"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, n.div_ceil(4) * KS.len() * classes.len());
}

#[test]
fn hp_routed_answers_and_gossip_bytes_equal_the_tree_metric_overlay() {
    assert_fold_identity(&hp_config(1), (15.0, 75.0));
}

#[test]
fn umd_routed_answers_and_gossip_bytes_equal_the_tree_metric_overlay() {
    assert_fold_identity(&umd_config(1), (30.0, 110.0));
}
