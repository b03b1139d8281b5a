//! The three node-local kernels that serve — the pair sweep, the indexed
//! scan and the metered sweep with headroom — are one function: same
//! cluster, same member order, same maximum, at every class distance, on a
//! perfect tree metric and on a noisy one the pruning bounds get no help
//! from. So is the all-class form of the indexed scan behind
//! `ClusterNode::recompute_own_max`, whatever the class list looks like.

use bandwidth_clusters::core::{
    find_cluster_budgeted, find_cluster_indexed, max_cluster_size_budgeted,
    max_cluster_size_indexed, Budgeted, ClusterIndex, WorkMeter,
};
use bandwidth_clusters::prelude::*;
use bcc_datasets::{generate, SynthConfig};

/// A node whose clustering space is all of `d` computes, in one all-class
/// pass, the maximum the pair sweep finds for each class on its own.
fn check_own_max(d: &DistanceMatrix, classes: &BandwidthClasses) {
    let mut node = ClusterNode::new(NodeId::new(0), vec![NodeId::new(1)], classes.len());
    node.receive_node_info(NodeId::new(1), (1..d.len()).map(NodeId::new).collect())
        .unwrap();
    assert_eq!(node.clustering_space().len(), d.len());
    node.recompute_own_max(classes, |a, b| d.get(a.index(), b.index()));
    for (c, &l) in classes.distances().iter().enumerate() {
        assert_eq!(node.own_max()[c], max_cluster_size(d, l), "class {c} l={l}");
    }
}

fn check(noise_sigma: f64) {
    let mut cfg = SynthConfig::small(2011);
    cfg.nodes = 64;
    cfg.noise_sigma = noise_sigma;
    let t = RationalTransform::default();
    let d = t.distance_matrix(&generate(&cfg));
    let index = ClusterIndex::from_metric(&d);
    let classes = BandwidthClasses::linspace(10.0, 80.0, 8, t);

    // Two distinct bandwidths one float apart share a distance constraint.
    let above_46 = f64::from_bits(46.0f64.to_bits() + 1);
    let duplicated = BandwidthClasses::new(vec![20.0, 46.0, above_46, 70.0], t);
    assert_eq!(duplicated.len(), 4);
    assert_eq!(duplicated.distance_of(1), duplicated.distance_of(2));
    for class_list in [
        classes.clone(),
        duplicated,
        BandwidthClasses::new(vec![35.0], t),
        BandwidthClasses::linspace(5.0, 200.0, 8, t),
    ] {
        check_own_max(&d, &class_list);
    }

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
