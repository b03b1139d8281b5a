//! Property tests for the clustering algorithms.

use bcc_core::{
    diameter, exists_cluster_brute_force, find_cluster, find_cluster_among, find_cluster_budgeted,
    find_cluster_euclidean, find_cluster_ordered, max_cluster_size, max_cluster_size_binary_search,
    max_cluster_size_budgeted, BandwidthClasses, Budgeted, ClusterNode, Meter, PairOrder,
    Unmetered, WorkMeter,
};
use bcc_metric::{DistanceMatrix, EuclideanPoints, FiniteMetric, NodeId, RationalTransform};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Constraint values that land on, between and beyond the integer entries
/// of [`arb_tied_space`].
const LS: [f64; 8] = [0.0, 1.0, 2.0, 3.0, 4.0, 7.0, 100.0, f64::INFINITY];

/// `0..=40` hosts with integer distances, nowhere near a tree metric (a
/// star with per-pair integer noise, or the noise alone), so ties are the
/// norm; about one pair in ten is `∞` and one in ten NaN.
fn arb_tied_space() -> impl Strategy<Value = DistanceMatrix> {
    (0usize..=40)
        .prop_flat_map(|m| {
            (
                proptest::collection::vec(0u8..3, m),
                proptest::collection::vec(0u8..10, m * m.saturating_sub(1) / 2),
                any::<bool>(),
            )
        })
        .prop_map(|(radii, noise, star)| {
            let mut noise = noise.into_iter();
            DistanceMatrix::from_fn(radii.len(), |i, j| match noise.next().unwrap() {
                8 => f64::INFINITY,
                9 => f64::NAN,
                e if star => f64::from(radii[i] + radii[j] + e),
                e => f64::from(e),
            })
        })
}

/// The evaluation contract of every lazily read search: each unordered
/// pair asked at most once, only as `(lower, higher)`, never the diagonal.
fn assert_evaluation_contract(asked: &[(usize, usize)], what: &str) {
    let mut sorted = asked.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        assert_ne!(w[0], w[1], "{what}: pair {:?} evaluated twice", w[0]);
    }
    for &(a, b) in asked {
        assert!(a < b, "{what}: asked ({a}, {b}), not (lower, higher)");
    }
}

/// Calls of `find_cluster_among_cases` in which the kernel's ball gate
/// skipped a row, by outcome: nothing found, and found in a later row.
static GATED_NONE: AtomicUsize = AtomicUsize::new(0);
static GATED_THEN_FOUND: AtomicUsize = AtomicUsize::new(0);

#[test]
fn find_cluster_among_is_find_cluster_on_the_id_subspace() {
    find_cluster_among_cases();
    let (none, found) = (
        GATED_NONE.load(Ordering::Relaxed),
        GATED_THEN_FOUND.load(Ordering::Relaxed),
    );
    assert!(
        none > 0 && found > 0,
        "the ball gate must fire on both outcomes: {none} unanswered, {found} answered later"
    );
}

/// `0..=14` hosts with integer distances in `0..6`, so ties sit on every
/// ball radius; about one pair in eleven is NaN, one `∞` and one `-0.0`.
fn arb_gate_space() -> impl Strategy<Value = DistanceMatrix> {
    (0usize..=14)
        .prop_flat_map(|m| {
            (
                Just(m),
                proptest::collection::vec(0u8..11, m * m.saturating_sub(1) / 2),
            )
        })
        .prop_map(|(m, entries)| {
            let mut entries = entries.into_iter();
            DistanceMatrix::from_fn(m, |_, _| match entries.next().unwrap() {
                e @ 0..=5 => f64::from(e),
                e @ 6..=7 => f64::from(e - 5),
                8 => f64::NAN,
                9 => f64::INFINITY,
                _ => -0.0,
            })
        })
}

/// `|B(p, d)|`: the hosts within `d` of `p`, `p` itself included.
fn ball(d: &DistanceMatrix, p: usize, r: f64) -> usize {
    (0..d.len()).filter(|&x| d.get(p, x) <= r).count()
}

/// The metered sweep as it ran before the ball gate, over a dense matrix:
/// every pair within `l` gets its membership test. Also counts the pairs
/// the gate would have skipped before the sweep returned: those within `l`
/// whose ball `B(p, d(p, q))` holds fewer than `min(k, |best| + 1)` hosts,
/// `best` read at row start.
fn ungated_sweep(
    d: &DistanceMatrix,
    k: usize,
    l: f64,
    meter: &mut WorkMeter,
    gateable: &mut usize,
) -> Budgeted<Option<Vec<usize>>> {
    let n = d.len();
    if k > n || k == 0 {
        return Budgeted::Done(None);
    }
    if k == 1 {
        return Budgeted::Done(Some(vec![0]));
    }
    if meter.exhausted() {
        return Budgeted::Exhausted {
            pairs_done: meter.used(),
            best_partial: None,
        };
    }
    let mut best: Vec<usize> = Vec::new();
    let mut block = 0;
    for p in 0..n {
        let g = k.min(best.len() + 1);
        for q in (p + 1)..n {
            let dpq = d.get(p, q);
            if dpq <= l {
                if ball(d, p, dpq) < g {
                    *gateable += 1;
                }
                let members: Vec<usize> = (0..n)
                    .filter(|&x| d.get(x, p) <= dpq && d.get(x, q) <= dpq)
                    .take(k)
                    .collect();
                if members.len() == k {
                    meter.charge(block + 1);
                    return Budgeted::Done(Some(members));
                }
                if members.len() > best.len() && members.len() >= 2 {
                    best = members;
                }
            }
            block += 1;
            if block == 16 {
                block = 0;
                if !meter.charge(16) {
                    return Budgeted::Exhausted {
                        pairs_done: meter.used(),
                        best_partial: (!best.is_empty()).then_some(best),
                    };
                }
            }
        }
    }
    meter.charge(block);
    Budgeted::Done(None)
}

/// The metered maximum as it ran before the ball gate, over a dense
/// matrix; counts, like [`ungated_sweep`], the pairs a gate floored at
/// `best + 1` would have skipped.
fn ungated_max(
    d: &DistanceMatrix,
    l: f64,
    meter: &mut WorkMeter,
    gateable: &mut usize,
) -> Budgeted<usize> {
    let n = d.len();
    if n == 0 {
        return Budgeted::Done(0);
    }
    if meter.exhausted() {
        return Budgeted::Exhausted {
            pairs_done: meter.used(),
            best_partial: 1,
        };
    }
    let mut best = 1;
    let mut block = 0;
    for p in 0..n {
        let g = best + 1;
        for q in (p + 1)..n {
            let dpq = d.get(p, q);
            if dpq <= l {
                if ball(d, p, dpq) < g {
                    *gateable += 1;
                }
                let size = (0..n)
                    .filter(|&x| d.get(x, p) <= dpq && d.get(x, q) <= dpq)
                    .count();
                best = best.max(size);
            }
            block += 1;
            if block == 16 {
                block = 0;
                if !meter.charge(16) {
                    return Budgeted::Exhausted {
                        pairs_done: meter.used(),
                        best_partial: best,
                    };
                }
            }
        }
    }
    meter.charge(block);
    Budgeted::Done(best)
}

/// Searches of `gated_sweeps_cut_where_the_ungated_ones_cut` in which the
/// ball gate skipped a pair before the sweep ran dry, and before it
/// answered.
static GATED_THEN_EXHAUSTED: AtomicUsize = AtomicUsize::new(0);
static GATED_THEN_ANSWERED: AtomicUsize = AtomicUsize::new(0);

fn count_gated<T>(gateable: usize, result: &Budgeted<Option<T>>) {
    if gateable == 0 {
        return;
    }
    match result {
        Budgeted::Exhausted { .. } => GATED_THEN_EXHAUSTED.fetch_add(1, Ordering::Relaxed),
        Budgeted::Done(Some(_)) => GATED_THEN_ANSWERED.fetch_add(1, Ordering::Relaxed),
        Budgeted::Done(None) => 0,
    };
}

#[test]
fn gated_sweeps_cut_where_the_ungated_ones_cut() {
    gated_sweeps_cut_where_the_ungated_ones_cut_cases();
    let (exhausted, answered) = (
        GATED_THEN_EXHAUSTED.load(Ordering::Relaxed),
        GATED_THEN_ANSWERED.load(Ordering::Relaxed),
    );
    assert!(
        exhausted > 0 && answered > 0,
        "the gate must skip a pair ahead of both outcomes: {exhausted} exhausted, {answered} answered"
    );
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

    // No `#[test]`: the wrapper of the same name below runs the cases and
    // then checks what they covered.
    fn find_cluster_among_cases(
        d in arb_tied_space(),
        picks in proptest::collection::vec(any::<bool>(), 40),
        l_pick in 0..LS.len(),
        p_pick in 0usize..40,
    ) {
        // Ascending, usually non-contiguous ids; the oracle is the sweep
        // over the materialised sub-matrix of the same ids, mapped back.
        let l = LS[l_pick];
        let ids: Vec<u32> = (0..d.len()).filter(|&i| picks[i]).map(|i| i as u32).collect();
        let m = ids.len();
        let sub = DistanceMatrix::from_fn(m, |i, j| d.get(ids[i] as usize, ids[j] as usize));
        // |B(p, l)| over the candidates, `p` included: the kernel skips row
        // `p` exactly when this is below `k`.
        let reach: Vec<usize> = (0..m)
            .map(|p| (0..m).filter(|&x| sub.get(p, x) <= l).count())
            .collect();
        // The gate's boundary: the smallest `k` that gates a drawn row, and
        // the largest that does not.
        let boundary = reach.get(p_pick % m.max(1)).copied().unwrap_or(0);
        for k in [0, 1, 2, 3, m, m + 1, boundary, boundary + 1] {
            let expect = find_cluster(&sub, k, l)
                .map(|x| x.into_iter().map(|i| ids[i]).collect::<Vec<_>>());
            let mut asked = Vec::new();
            let got = find_cluster_among(&ids, k, l, |a, b| {
                asked.push((a as usize, b as usize));
                d.get(a as usize, b as usize)
            });
            prop_assert_eq!(&got, &expect, "ids={:?} k={} l={}", ids, k, l);
            assert_evaluation_contract(&asked, "find_cluster_among");
            if k <= 1 || k > m {
                prop_assert!(asked.is_empty(), "k={} of {} evaluated {:?}", k, m, asked);
                continue;
            }
            // Every row is entered when nothing is found, and row 0 always:
            // a gated row 0 beside an answer is an answer from a later row.
            if got.is_none() && reach.iter().any(|&r| r < k) {
                GATED_NONE.fetch_add(1, Ordering::Relaxed);
            } else if got.is_some() && reach[0] < k {
                GATED_THEN_FOUND.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // No `#[test]`: the wrapper of the same name without `_cases` runs
    // them and then checks what they covered.
    fn gated_sweeps_cut_where_the_ungated_ones_cut_cases(d in arb_gate_space()) {
        // Every budget from an empty one to past the last block, at unit
        // and inflated cost: the gated sweeps return the ungated sweep's
        // answer, charge, cut point and partial, and leave the meter where
        // it left it.
        let m = d.len();
        let pairs = (m * m.saturating_sub(1) / 2) as u64;
        let classes = BandwidthClasses::new(
            vec![10.0, 25.0, 50.0, 100.0],
            RationalTransform::new(100.0),
        );
        let neighbor = NodeId::new(1000);
        let mut node = ClusterNode::new(NodeId::new(0), vec![neighbor], 4);
        node.receive_node_info(neighbor, (1..m.max(1)).map(NodeId::new).collect()).unwrap();
        let dist = |a: NodeId, b: NodeId| d.get(a.index(), b.index());
        let hosts = |idxs: Vec<usize>| idxs.into_iter().map(NodeId::new).collect::<Vec<_>>();
        for cost in [1, 3] {
            for budget in 0..=pairs * cost + 16 {
                let meter = || WorkMeter::with_cost(budget, cost);
                for l in [0.0, 1.0, 2.0, 3.0, 5.0, f64::INFINITY] {
                    for k in [2, 3, 4, m / 2, m, m + 1] {
                        let (mut want_meter, mut got_meter, mut gateable) = (meter(), meter(), 0);
                        let want = ungated_sweep(&d, k, l, &mut want_meter, &mut gateable);
                        let got = find_cluster_budgeted(&d, k, l, &mut got_meter);
                        prop_assert_eq!(
                            &got, &want, "find m={} k={} l={} budget={} cost={}", m, k, l, budget, cost
                        );
                        prop_assert_eq!(got_meter.used(), want_meter.used());
                        count_gated(gateable, &got);
                    }
                    let (mut want_meter, mut got_meter, mut gateable) = (meter(), meter(), 0);
                    prop_assert_eq!(
                        max_cluster_size_budgeted(&d, l, &mut got_meter),
                        ungated_max(&d, l, &mut want_meter, &mut gateable),
                        "max m={} l={} budget={} cost={}", m, l, budget, cost
                    );
                    prop_assert_eq!(got_meter.used(), want_meter.used());
                }
                if m < 2 {
                    continue;
                }
                // The partial of a node visit: the sizing pass and then the
                // member search at the size it found, on one meter.
                for class_idx in 0..classes.len() {
                    let l = classes.distance_of(class_idx);
                    let (mut want_meter, mut got_meter, mut gateable) = (meter(), meter(), 0);
                    let want = match ungated_max(&d, l, &mut want_meter, &mut gateable) {
                        Budgeted::Exhausted { pairs_done, .. } => Budgeted::Exhausted {
                            pairs_done,
                            best_partial: None,
                        },
                        Budgeted::Done(size) if size < 2 => Budgeted::Done(None),
                        Budgeted::Done(size) => {
                            match ungated_sweep(&d, size, l, &mut want_meter, &mut gateable) {
                                Budgeted::Done(x) => Budgeted::Done(x.map(hosts)),
                                Budgeted::Exhausted { pairs_done, best_partial } => {
                                    Budgeted::Exhausted {
                                        pairs_done,
                                        best_partial: best_partial.map(hosts),
                                    }
                                }
                            }
                        }
                    };
                    let got = node.best_partial_budgeted(class_idx, &classes, dist, |_| true, &mut got_meter);
                    prop_assert_eq!(
                        &got, &want, "partial m={} class={} budget={} cost={}", m, class_idx, budget, cost
                    );
                    prop_assert_eq!(got_meter.used(), want_meter.used());
                    count_gated(gateable, &got);
                }
            }
        }
    }

    #[test]
    fn metered_sweep_with_headroom_is_the_plain_sweep(
        d in arb_tied_space(),
        l_pick in 0..LS.len(),
    ) {
        let (m, l) = (d.len(), LS[l_pick]);
        for k in [0, 1, 2, 3, m, m + 1] {
            let want = Budgeted::Done(find_cluster(&d, k, l));
            prop_assert_eq!(
                find_cluster_budgeted(&d, k, l, &mut WorkMeter::new(u64::MAX)),
                want.clone(),
                "k={} l={}", k, l
            );
            prop_assert_eq!(find_cluster_budgeted(&d, k, l, &mut Unmetered), want);
        }
        let want = Budgeted::Done(max_cluster_size(&d, l));
        prop_assert_eq!(max_cluster_size_budgeted(&d, l, &mut WorkMeter::new(u64::MAX)), want.clone());
        prop_assert_eq!(max_cluster_size_budgeted(&d, l, &mut Unmetered), want);
    }

    #[test]
    fn node_local_searches_read_each_pair_once_and_match_the_dense_sweep(
        d in arb_tied_space(),
        every_third_dead in any::<bool>(),
    ) {
        // A node whose clustering space is the whole matrix, its CRT gate
        // opened by hand so that every k up to m reaches the search.
        let m = d.len();
        if m == 0 {
            return;
        }
        let classes = BandwidthClasses::new(
            vec![10.0, 25.0, 50.0, 100.0],
            RationalTransform::new(100.0),
        );
        let neighbor = NodeId::new(1000);
        let mut node = ClusterNode::new(NodeId::new(0), vec![neighbor], 4);
        node.receive_node_info(neighbor, (1..m).map(NodeId::new).collect()).unwrap();
        node.restore_own_max(vec![m; 4]).unwrap();
        let alive = |u: NodeId| !(every_third_dead && u.index() % 3 == 2);
        let live: Vec<NodeId> = (0..m).map(NodeId::new).filter(|&u| alive(u)).collect();
        let dense = DistanceMatrix::from_fn(live.len(), |i, j| {
            d.get(live[i].index(), live[j].index())
        });
        let hosts = |idxs: Vec<usize>| idxs.into_iter().map(|i| live[i]).collect::<Vec<_>>();
        for class_idx in 0..4 {
            let l = classes.distance_of(class_idx);
            for k in [0, 1, 2, 3, live.len(), live.len() + 1, m + 1] {
                let expect = if k > m { None } else { find_cluster(&dense, k, l).map(hosts) };
                let mut asked = Vec::new();
                let got = node.answer_locally_filtered(
                    k,
                    class_idx,
                    &classes,
                    |a: NodeId, b: NodeId| {
                        asked.push((a.index(), b.index()));
                        d.get(a.index(), b.index())
                    },
                    alive,
                );
                prop_assert_eq!(&got, &expect, "k={} class={}", k, class_idx);
                assert_evaluation_contract(&asked, "answer_locally_filtered");
                if k <= 1 || k > live.len() {
                    prop_assert!(asked.is_empty(), "k={} evaluated {:?}", k, asked);
                }
                let mut asked = Vec::new();
                let metered = node.answer_locally_filtered_budgeted(
                    k,
                    class_idx,
                    &classes,
                    |a: NodeId, b: NodeId| {
                        asked.push((a.index(), b.index()));
                        d.get(a.index(), b.index())
                    },
                    alive,
                    &mut WorkMeter::new(u64::MAX),
                );
                prop_assert_eq!(metered, Budgeted::Done(expect));
                assert_evaluation_contract(&asked, "answer_locally_filtered_budgeted");
            }
            // The sizing pass and the member search share one store.
            let best = max_cluster_size(&dense, l);
            let expect = if live.len() < 2 || best < 2 {
                None
            } else {
                find_cluster(&dense, best, l).map(hosts)
            };
            let mut asked = Vec::new();
            let partial = node.best_partial_budgeted(
                class_idx,
                &classes,
                |a: NodeId, b: NodeId| {
                    asked.push((a.index(), b.index()));
                    d.get(a.index(), b.index())
                },
                alive,
                &mut WorkMeter::new(u64::MAX),
            );
            prop_assert_eq!(partial, Budgeted::Done(expect), "class={}", class_idx);
            assert_evaluation_contract(&asked, "best_partial_budgeted");
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
