//! The three node-local kernels that serve — the pair sweep, the indexed
//! scan and the metered sweep, unmetered or with headroom — are one
//! function: same
//! cluster, same member order, same maximum, at every class distance, on a
//! perfect tree metric and on a noisy one the pruning bounds get no help
//! from. So is the all-class form of the indexed scan behind
//! `ClusterNode::recompute_own_max`, whatever the class list looks like.
//! And so are the searches that read their space through lazily filled
//! rows instead of a matrix: a node visit (`answer_locally_filtered`, and
//! its `_budgeted` body under `Unmetered` and under a `WorkMeter`, with and
//! without dead hosts) and the merge kernel `find_cluster_among` over a
//! `2l` ball.

use bandwidth_clusters::core::{
    find_cluster_among, find_cluster_budgeted, find_cluster_indexed, max_cluster_size_budgeted,
    max_cluster_size_indexed, Budgeted, ClusterIndex, Unmetered, WorkMeter,
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
    node.recompute_own_max(classes, |a: NodeId, b: NodeId| d.get(a.index(), b.index()));
    for (c, &l) in classes.distances().iter().enumerate() {
        assert_eq!(node.own_max()[c], max_cluster_size(d, l), "class {c} l={l}");
    }
}

/// The pairs the sweep's ball gate skips under `Unmetered`, read off the
/// dense rows: those within `l`, up to the first pair whose `S*_pq`
/// reaches `k` (or all of them), whose ball `B(p, d(p, q))` holds fewer
/// than `k` hosts.
fn gated_pairs(dense: &DistanceMatrix, k: usize, l: f64) -> usize {
    let n = dense.len();
    let within = |p: usize, r: f64| (0..n).filter(|&x| dense.get(p, x) <= r).count();
    let mut gated = 0;
    for p in 0..n {
        for q in (p + 1)..n {
            let dpq = dense.get(p, q);
            if dpq > l {
                continue;
            }
            if within(p, dpq) < k {
                gated += 1;
            } else if (0..n)
                .filter(|&x| dense.get(x, p) <= dpq && dense.get(x, q) <= dpq)
                .count()
                >= k
            {
                return gated;
            }
        }
    }
    gated
}

/// A node fed the whole space answers every `(k, class)` with the cluster
/// the sweep finds in the dense matrix of the hosts `alive` admits, through
/// the plain entry point and the one body under either meter alike. At
/// `k = own_max` and `own_max − 1`, where the ball gate binds hardest, the
/// gate must skip pairs, or the pin is vacuous.
fn check_node_visits(d: &DistanceMatrix, classes: &BandwidthClasses) {
    let mut node = ClusterNode::new(NodeId::new(0), vec![NodeId::new(1)], classes.len());
    node.receive_node_info(NodeId::new(1), (1..d.len()).map(NodeId::new).collect())
        .unwrap();
    let dist = |a: NodeId, b: NodeId| d.get(a.index(), b.index());
    node.recompute_own_max(classes, dist);
    let filters: [&dyn Fn(NodeId) -> bool; 2] = [&|_| true, &|u| u.index() % 3 != 2];
    let (mut found, mut missed, mut gated) = (0usize, 0usize, 0usize);
    for alive in filters {
        let live: Vec<NodeId> = (0..d.len())
            .map(NodeId::new)
            .filter(|&u| alive(u))
            .collect();
        let dense = DistanceMatrix::from_fn(live.len(), |i, j| dist(live[i], live[j]));
        for (c, &l) in classes.distances().iter().enumerate() {
            let max = node.own_max()[c];
            let below = max.saturating_sub(1);
            for k in [0, 1, 2, max / 2, below, max, max + 1, d.len(), d.len() + 1] {
                // Any k the CRT gate refuses is also infeasible in the
                // (smaller) live space, so the dense call needs no gate.
                let want = find_cluster(&dense, k, l)
                    .map(|idxs| idxs.into_iter().map(|i| live[i]).collect::<Vec<_>>());
                assert_eq!(
                    node.answer_locally_filtered(k, c, classes, dist, alive),
                    want,
                    "k={k} class={c}"
                );
                let want_done = Budgeted::Done(want.clone());
                let mut meter = WorkMeter::new(u64::MAX);
                assert_eq!(
                    node.answer_locally_filtered_budgeted(k, c, classes, dist, alive, &mut meter),
                    want_done,
                    "k={k} class={c}"
                );
                assert_eq!(
                    node.answer_locally_filtered_budgeted(
                        k,
                        c,
                        classes,
                        dist,
                        alive,
                        &mut Unmetered
                    ),
                    want_done,
                    "k={k} class={c}"
                );
                match want {
                    Some(_) => found += 1,
                    None => missed += 1,
                }
                if k >= 2 && (k == below || k == max) {
                    gated += gated_pairs(&dense, k, l);
                }
            }
        }
    }
    assert!(found > 0 && missed > 0, "found {found}, missed {missed}");
    assert!(
        gated > 0,
        "the ball gate skipped no pair at k = own_max or own_max − 1"
    );
}

/// The merge kernel over the `2l` ball of a start host equals the sweep
/// over that ball's dense sub-matrix, ids mapped back, and its ball gate
/// (a row with fewer than `k` candidates within `l` is skipped) fires both
/// where nothing is found and ahead of an answer from a later row.
fn check_merge_kernel(d: &DistanceMatrix, classes: &BandwidthClasses) {
    let (mut gated_none, mut gated_then_found) = (0usize, 0usize);
    for &l in classes.distances() {
        for start in (0..d.len()).step_by(7) {
            let ball: Vec<u32> = (0..d.len())
                .filter(|&x| d.get(start, x) <= 2.0 * l)
                .map(|x| x as u32)
                .collect();
            let at = |i: usize| ball[i] as usize;
            let dense = DistanceMatrix::from_fn(ball.len(), |i, j| d.get(at(i), at(j)));
            let reach = |p: usize| (0..ball.len()).filter(|&x| dense.get(p, x) <= l).count();
            for k in [0, 1, 2, 5, ball.len() / 2, ball.len(), ball.len() + 1] {
                let want = find_cluster(&dense, k, l)
                    .map(|idxs| idxs.into_iter().map(|i| ball[i]).collect::<Vec<_>>());
                let got = find_cluster_among(&ball, k, l, |a, b| d.get(a as usize, b as usize));
                assert_eq!(got, want, "start={start} k={k} l={l}");
                if k < 2 || k > ball.len() {
                    continue;
                }
                // Row 0 is always entered, every row when nothing is found.
                match want {
                    None if (0..ball.len()).any(|p| reach(p) < k) => gated_none += 1,
                    Some(_) if reach(0) < k => gated_then_found += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(
        gated_none > 0 && gated_then_found > 0,
        "gated with no answer {gated_none}, gated before an answer {gated_then_found}"
    );
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
    check_node_visits(&d, &classes);
    check_merge_kernel(&d, &classes);

    let (mut found, mut missed) = (0usize, 0usize);
    for &l in classes.distances() {
        let max = max_cluster_size(&d, l);
        assert_eq!(max_cluster_size_indexed(&d, &index, l), max, "l={l}");
        assert_eq!(
            max_cluster_size_budgeted(&d, l, &mut WorkMeter::new(u64::MAX)),
            Budgeted::Done(max),
            "l={l}"
        );
        assert_eq!(
            max_cluster_size_budgeted(&d, l, &mut Unmetered),
            Budgeted::Done(max)
        );
        // Both sides of the feasibility edge, plus the degenerate sizes.
        for k in [0, 1, 2, max / 2, max, max + 1, d.len(), d.len() + 1] {
            let sweep = find_cluster(&d, k, l);
            assert_eq!(find_cluster_indexed(&d, &index, k, l), sweep, "k={k} l={l}");
            assert_eq!(
                find_cluster_budgeted(&d, k, l, &mut WorkMeter::new(u64::MAX)),
                Budgeted::Done(sweep.clone()),
                "k={k} l={l}"
            );
            assert_eq!(
                find_cluster_budgeted(&d, k, l, &mut Unmetered),
                Budgeted::Done(sweep.clone())
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
