//! Property tests for the clustering algorithms.

use bcc_core::{
    diameter, exists_cluster_brute_force, find_cluster, find_cluster_among, find_cluster_euclidean,
    find_cluster_ordered, max_cluster_size, max_cluster_size_binary_search, PairOrder,
};
use bcc_metric::{DistanceMatrix, EuclideanPoints, FiniteMetric, SubsetMetric};
use proptest::prelude::*;

/// Random tree metric from a random parent array + edge weights.
fn tree_metric(parents: &[usize], weights: &[f64]) -> DistanceMatrix {
    let n = parents.len() + 1;
    let mut dist_to_root = vec![0.0; n];
    let mut depth = vec![0usize; n];
    for i in 1..n {
        dist_to_root[i] = dist_to_root[parents[i - 1]] + weights[i - 1];
        depth[i] = depth[parents[i - 1]] + 1;
    }
    let parent_of = |i: usize| if i == 0 { None } else { Some(parents[i - 1]) };
    DistanceMatrix::from_fn(n, |a, b| {
        let (mut x, mut y) = (a, b);
        while depth[x] > depth[y] {
            x = parent_of(x).unwrap();
        }
        while depth[y] > depth[x] {
            y = parent_of(y).unwrap();
        }
        while x != y {
            x = parent_of(x).unwrap();
            y = parent_of(y).unwrap();
        }
        dist_to_root[a] + dist_to_root[b] - 2.0 * dist_to_root[x]
    })
}

fn arb_tree_metric(max: usize) -> impl Strategy<Value = DistanceMatrix> {
    (4usize..=max)
        .prop_flat_map(|n| {
            let parents = (1..n).map(|i| 0..i).collect::<Vec<_>>();
            let weights = proptest::collection::vec(0.1f64..10.0, n - 1);
            (parents, weights)
        })
        .prop_map(|(parents, weights)| tree_metric(&parents, &weights))
}

/// Any symmetric "metric-ish" matrix (may violate triangle inequality).
fn arb_any_metric(max: usize) -> impl Strategy<Value = DistanceMatrix> {
    (2usize..=max)
        .prop_flat_map(|n| proptest::collection::vec(0.01f64..100.0, n * (n - 1) / 2))
        .prop_map(|values| {
            let n = (1.0 + (1.0 + 8.0 * values.len() as f64).sqrt()) as usize / 2 + 1;
            // Recover n from the triangular count.
            let mut n_fit = 2;
            while n_fit * (n_fit - 1) / 2 < values.len() {
                n_fit += 1;
            }
            let _ = n;
            let mut it = values.into_iter();
            DistanceMatrix::from_fn(n_fit, |_, _| it.next().unwrap_or(1.0))
        })
}

fn arb_points(max: usize) -> impl Strategy<Value = EuclideanPoints> {
    (2usize..=max)
        .prop_flat_map(|n| proptest::collection::vec(-50.0f64..50.0, n * 2))
        .prop_map(|coords| EuclideanPoints::new(2, coords))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn find_cluster_result_satisfies_constraints_on_any_metric(
        d in arb_any_metric(12),
        k in 2usize..6,
        l in 1.0f64..150.0,
    ) {
        // On arbitrary (non-tree) metrics the *pair-bounded* guarantee
        // still holds: every returned member is within d(p,q) <= l of the
        // defining pair, so diameter is at most... only on tree metrics.
        // What must hold universally: the result has exactly k members,
        // all distinct and in range.
        if let Some(x) = find_cluster(&d, k, l) {
            prop_assert_eq!(x.len(), k);
            let mut sorted = x.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k, "duplicate members");
            prop_assert!(x.iter().all(|&u| u < d.len()));
        }
    }

    #[test]
    fn find_cluster_complete_on_tree_metrics(d in arb_tree_metric(9), k in 2usize..5) {
        let values = d.pair_values();
        for &l in values.iter().take(6) {
            let ours = find_cluster(&d, k, l).is_some();
            let brute = exists_cluster_brute_force(&d, k, l);
            prop_assert_eq!(ours, brute, "k={}, l={}", k, l);
        }
    }

    #[test]
    fn tree_metric_results_meet_diameter(d in arb_tree_metric(12), k in 2usize..6, l in 0.5f64..40.0) {
        if let Some(x) = find_cluster(&d, k, l) {
            prop_assert!(diameter(&d, &x) <= l + 1e-9);
        }
    }

    #[test]
    fn pair_orders_agree_on_feasibility(d in arb_tree_metric(10), k in 2usize..5, l in 0.5f64..40.0) {
        let row = find_cluster_ordered(&d, k, l, PairOrder::RowMajor).is_some();
        let asc = find_cluster_ordered(&d, k, l, PairOrder::AscendingDiameter).is_some();
        prop_assert_eq!(row, asc);
    }

    #[test]
    fn find_cluster_among_is_find_cluster_on_the_id_subspace(
        d in arb_any_metric(12),
        picks in proptest::collection::vec(any::<bool>(), 12),
        l in 1.0f64..150.0,
    ) {
        // Ascending, usually non-contiguous ids; the oracle is the sweep
        // over a renumbering *view* of the same ids, mapped back.
        let nodes: Vec<usize> = (0..d.len()).filter(|&i| picks[i]).collect();
        let ids: Vec<u32> = nodes.iter().map(|&i| i as u32).collect();
        let view = SubsetMetric::new(&d, nodes);
        for k in [0, 1, 2, 3, ids.len(), ids.len() + 1] {
            let expect = find_cluster(&view, k, l)
                .map(|x| x.into_iter().map(|i| ids[i]).collect::<Vec<_>>());
            let got = find_cluster_among(&ids, k, l, |a, b| d.get(a as usize, b as usize));
            prop_assert_eq!(got, expect, "ids={:?} k={}", ids, k);
        }
    }

    #[test]
    fn max_cluster_size_consistent(d in arb_any_metric(10), l in 0.5f64..120.0) {
        let m = max_cluster_size(&d, l);
        prop_assert_eq!(m, max_cluster_size_binary_search(&d, l));
        prop_assert!(m >= 1);
        if m >= 2 {
            prop_assert!(find_cluster(&d, m, l).is_some());
        }
        if m < d.len() {
            prop_assert!(find_cluster(&d, m + 1, l).is_none());
        }
    }

    #[test]
    fn euclidean_clustering_exact(pts in arb_points(8), k in 2usize..5, l in 1.0f64..80.0) {
        let d = DistanceMatrix::from_fn(pts.len(), |i, j| pts.distance(i, j));
        let ours = find_cluster_euclidean(&pts, k, l);
        let brute = exists_cluster_brute_force(&d, k, l);
        prop_assert_eq!(ours.is_some(), brute);
        if let Some(x) = ours {
            prop_assert_eq!(x.len(), k);
            prop_assert!(diameter(&d, &x) <= l + 1e-9, "diam {} > {}", diameter(&d, &x), l);
        }
    }
}
