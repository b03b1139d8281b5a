//! Property test pinning [`ClusterNode::recompute_own_max`] — one index
//! build per space, one all-class pass over it — to its oracle: the
//! un-pruned [`max_cluster_size`] sweep run once per class over the same
//! local metric.

use bcc_core::{max_cluster_size, BandwidthClasses, ClusterNode};
use bcc_metric::{DistanceMatrix, NodeId, RationalTransform};
use proptest::prelude::*;

const C: f64 = 100.0;

/// Pairwise distances are drawn from this pool, so ties are the norm, some
/// pairs coincide (`0`), some are unreachable (`∞`), and several values sit
/// exactly on a class boundary (`C / b` for a pooled `b`).
const DISTANCES: [f64; 9] = [0.0, 0.5, 1.0, C / 97.0, 2.0, 4.0, 8.0, 9.0, f64::INFINITY];

/// Class bandwidths are drawn (with repetition) from this pool. `97` and
/// the next float above it are distinct classes with the *same* distance
/// constraint.
fn bandwidth_pool() -> [f64; 7] {
    let above_97 = f64::from_bits(97.0f64.to_bits() + 1);
    assert_eq!(C / 97.0, C / above_97, "the duplicate-distance pair");
    [12.5, 25.0, 50.0, 97.0, above_97, 100.0, 200.0]
}

/// A space of `1..=max` hosts (host 0 is the node itself) with its pairwise
/// distance picks, and 1–6 class picks.
fn arb_space_and_classes(max: usize) -> impl Strategy<Value = (usize, Vec<usize>, Vec<usize>)> {
    (1usize..=max).prop_flat_map(|m| {
        (
            Just(m),
            proptest::collection::vec(0..DISTANCES.len(), m * (m - 1) / 2),
            proptest::collection::vec(0usize..7, 1..=6),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recompute_own_max_equals_per_class_sweep(
        (m, picks, class_picks) in arb_space_and_classes(9),
    ) {
        let mut picks = picks.into_iter();
        let metric = DistanceMatrix::from_fn(m, |_, _| DISTANCES[picks.next().unwrap()]);
        let pool = bandwidth_pool();
        let classes = BandwidthClasses::new(
            class_picks.iter().map(|&i| pool[i]).collect(),
            RationalTransform::new(C),
        );

        let mut node = ClusterNode::new(NodeId::new(0), vec![NodeId::new(1)], classes.len());
        if m > 1 {
            node.receive_node_info(NodeId::new(1), (1..m).map(NodeId::new).collect())
                .unwrap();
        }
        prop_assert_eq!(node.clustering_space().len(), m);
        node.recompute_own_max(&classes, |a: NodeId, b: NodeId| metric.get(a.index(), b.index()));

        let oracle: Vec<usize> = classes
            .distances()
            .iter()
            .map(|&l| max_cluster_size(&metric, l))
            .collect();
        prop_assert_eq!(node.own_max(), oracle.as_slice(), "classes {:?}", classes.distances());
    }
}
