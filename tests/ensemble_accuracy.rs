//! End-to-end check of the prediction-tree ensemble: an overlay whose
//! predicted metric is the median over independently grown trees clusters
//! at least as accurately (WPR) on a noisy dataset as the served
//! single-tree system, at the same query workload.

use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, SynthConfig};
use bcc_embed::{EnsembleConfig, TreeEnsemble};
use bcc_simnet::SimNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 40-host dataset noisy enough that single trees misplace pairs.
fn noisy(seed: u64) -> BandwidthMatrix {
    let mut cfg = SynthConfig::small(seed);
    cfg.nodes = 40;
    cfg.noise_sigma = 0.25;
    generate(&cfg)
}

/// The served single-tree system over every host.
fn single(bw: &BandwidthMatrix, classes: BandwidthClasses) -> DynamicSystem {
    let hosts: Vec<NodeId> = (0..bw.len()).map(NodeId::new).collect();
    DynamicSystem::bootstrap(bw.clone(), SystemConfig::new(classes), &hosts).unwrap()
}

/// The median over five trees grown from the same measurements.
fn ensemble_matrix(bw: &BandwidthMatrix) -> DistanceMatrix {
    let d = RationalTransform::default().distance_matrix(bw);
    let config = EnsembleConfig {
        members: 5,
        ..Default::default()
    };
    TreeEnsemble::build_from_matrix(&d, config).predicted_matrix()
}

/// A converged overlay on the primary framework's anchor tree that
/// predicts with the ensemble median.
fn ensemble_overlay(bw: &BandwidthMatrix, classes: BandwidthClasses) -> SimNetwork {
    let d = RationalTransform::default().distance_matrix(bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let protocol = SystemConfig::new(classes).protocol;
    let mut net = SimNetwork::new(fw.anchor(), ensemble_matrix(bw), protocol);
    net.run_to_convergence(512)
        .expect("a tree overlay converges");
    net
}

/// WPR over `queries` random `(start, b)` queries for 4 hosts, and how
/// many were answered.
fn wpr_of(
    bw: &BandwidthMatrix,
    query: impl Fn(NodeId, f64) -> Result<QueryOutcome, ClusterError>,
    queries: usize,
    seed: u64,
) -> (f64, usize) {
    let n = bw.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut wrong, mut total, mut found) = (0usize, 0usize, 0usize);
    for _ in 0..queries {
        let b = rng.gen_range(20.0..70.0);
        let start = NodeId::new(rng.gen_range(0..n));
        if let Some(cluster) = query(start, b).expect("valid").cluster {
            for (i, u) in cluster.iter().enumerate() {
                for v in &cluster[i + 1..] {
                    total += 1;
                    wrong += usize::from(bw.get(u.index(), v.index()) < b);
                }
            }
            found += 1;
        }
    }
    (wrong as f64 / total.max(1) as f64, found)
}

#[test]
fn ensemble_wpr_not_worse_than_single_tree() {
    let bw = noisy(33);
    let classes = BandwidthClasses::linspace(15.0, 80.0, 10, RationalTransform::default());

    let single = single(&bw, classes.clone());
    let ensemble = ensemble_overlay(&bw, classes);

    let (wpr_single, found_single) = wpr_of(&bw, |s, b| single.query(s, 4, b), 400, 9);
    let (wpr_ens, found_ens) = wpr_of(&bw, |s, b| ensemble.query(s, 4, b), 400, 9);

    assert!(
        found_single > 100 && found_ens > 100,
        "queries must mostly succeed"
    );
    assert!(
        wpr_ens <= wpr_single + 0.02,
        "ensemble WPR {wpr_ens:.3} should not exceed single-tree WPR {wpr_single:.3}"
    );
}

#[test]
fn ensemble_median_prediction_error_improves() {
    let bw = noisy(34);
    let t = RationalTransform::default();
    let classes = BandwidthClasses::linspace(15.0, 80.0, 6, t);

    let single = single(&bw, classes);
    let ensemble = ensemble_matrix(&bw);

    let median_err = |predict: &dyn Fn(usize, usize) -> f64| {
        let mut errs: Vec<f64> = bw
            .iter_pairs()
            .map(|(i, j, real)| (predict(i, j) - real).abs() / real)
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[errs.len() / 2]
    };
    let e_single = median_err(&|i, j| single.predicted_bandwidth(NodeId::new(i), NodeId::new(j)));
    let e_ens = median_err(&|i, j| t.to_bandwidth(ensemble.get(i, j)));
    assert!(
        e_ens <= e_single * 1.02,
        "ensemble error {e_ens:.4} vs single {e_single:.4}"
    );
}
