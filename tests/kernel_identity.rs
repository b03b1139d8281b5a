//! The three node-local kernels that serve — the pair sweep, the indexed
//! scan and the metered sweep with headroom — are one function: same
//! cluster, same member order, same maximum, at every class distance, on a
//! perfect tree metric and on a noisy one the pruning bounds get no help
//! from.

use bandwidth_clusters::core::{
    find_cluster_budgeted, find_cluster_indexed, max_cluster_size_budgeted,
    max_cluster_size_indexed, Budgeted, ClusterIndex, WorkMeter,
};
use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, SynthConfig};

fn check(noise_sigma: f64) {
    let mut cfg = SynthConfig::small(2011);
    cfg.nodes = 64;
    cfg.noise_sigma = noise_sigma;
    let t = RationalTransform::default();
    let d = t.distance_matrix(&generate(&cfg));
    let index = ClusterIndex::from_metric(&d);
    let classes = BandwidthClasses::linspace(10.0, 80.0, 8, t);

    let (mut found, mut missed) = (0usize, 0usize);
    for &l in classes.distances() {
        let max = max_cluster_size(&d, l);
        assert_eq!(max_cluster_size_indexed(&d, &index, l), max, "l={l}");
        assert_eq!(
            max_cluster_size_budgeted(&d, l, &mut WorkMeter::unlimited()),
            Budgeted::Done(max),
            "l={l}"
        );
        // Both sides of the feasibility edge, plus the degenerate sizes.
        for k in [0, 1, 2, max / 2, max, max + 1, d.len(), d.len() + 1] {
            let sweep = find_cluster(&d, k, l);
            assert_eq!(find_cluster_indexed(&d, &index, k, l), sweep, "k={k} l={l}");
            assert_eq!(
                find_cluster_budgeted(&d, k, l, &mut WorkMeter::unlimited()),
                Budgeted::Done(sweep.clone()),
                "k={k} l={l}"
            );
            match sweep {
                Some(_) => found += 1,
                None => missed += 1,
            }
        }
    }
    assert!(found > 0 && missed > 0, "found {found}, missed {missed}");
}

#[test]
fn sweep_indexed_and_metered_agree_on_a_tree_metric() {
    check(0.0);
}

#[test]
fn sweep_indexed_and_metered_agree_on_a_noisy_metric() {
    check(0.12);
}
