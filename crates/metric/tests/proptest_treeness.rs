//! Property tests: each exact treeness statistic equals, to the bit, a
//! plain per-quartet loop over [`quartet_epsilon`] / [`quartet_sums`] on
//! random symmetric matrices with ties, zero distances, duplicated points
//! (degenerate quartets, `ε = ∞`) and fewer than four points.

use bcc_metric::fourpoint::{
    epsilon_avg_exact, epsilon_max_exact, quartet_epsilon, quartet_sums, satisfies_four_point,
};
use bcc_metric::gromov::delta_hyperbolicity_exact;
use bcc_metric::DistanceMatrix;
use proptest::prelude::*;

/// Every quartet `w < x < y < z` in lexicographic order.
fn quartets(n: usize) -> impl Iterator<Item = [usize; 4]> {
    (0..n).flat_map(move |w| {
        ((w + 1)..n).flat_map(move |x| {
            ((x + 1)..n).flat_map(move |y| ((y + 1)..n).map(move |z| [w, x, y, z]))
        })
    })
}

/// Reference `ε_avg`: one partial sum per outer index `w`, folded in index
/// order, over the per-element `quartet_epsilon`.
fn reference_epsilon_avg(d: &DistanceMatrix) -> f64 {
    let n = d.len();
    if n < 4 {
        return 0.0;
    }
    let mut partials = vec![(0.0, 0u64); n];
    for [w, x, y, z] in quartets(n) {
        let e = quartet_epsilon(d, w, x, y, z);
        if e.is_finite() {
            partials[w].0 += e;
            partials[w].1 += 1;
        }
    }
    let (total, count) = partials
        .into_iter()
        .fold((0.0, 0u64), |(t, c), (pt, pc)| (t + pt, c + pc));
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn reference_epsilon_max(d: &DistanceMatrix) -> f64 {
    let mut max = 0.0f64;
    for [w, x, y, z] in quartets(d.len()) {
        let e = quartet_epsilon(d, w, x, y, z);
        if e.is_finite() {
            max = max.max(e);
        }
    }
    max
}

fn reference_delta(d: &DistanceMatrix) -> f64 {
    let mut delta = 0.0f64;
    for [w, x, y, z] in quartets(d.len()) {
        let q = quartet_sums(d, w, x, y, z);
        delta = delta.max(0.5 * (q.sums[0] - q.sums[1]));
    }
    delta
}

fn reference_four_point(d: &DistanceMatrix, tol: f64) -> bool {
    !quartets(d.len()).any(|[w, x, y, z]| {
        let q = quartet_sums(d, w, x, y, z);
        q.sums[0] - q.sums[1] > tol
    })
}

/// A distance drawn so that ties and zeros are common.
fn arb_distance() -> impl Strategy<Value = f64> {
    (0u8..5, 0.01f64..50.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => 2.0,
        _ => x,
    })
}

/// A symmetric matrix on 0..=9 points; each `(src, dst)` copy makes `dst`
/// a duplicate of `src` (zero apart, same distance to everyone else).
fn arb_matrix() -> impl Strategy<Value = DistanceMatrix> {
    (0usize..=9)
        .prop_flat_map(|n| {
            let pairs = n * n.saturating_sub(1) / 2;
            let point = 0..n.max(1);
            (
                Just(n),
                proptest::collection::vec(arb_distance(), pairs),
                proptest::collection::vec((point.clone(), point), 0..3),
            )
        })
        .prop_map(|(n, values, copies)| {
            let mut it = values.into_iter();
            let mut d = DistanceMatrix::from_fn(n, |_, _| it.next().expect("one value a pair"));
            for (src, dst) in copies {
                if src == dst {
                    continue;
                }
                for k in (0..n).filter(|&k| k != dst) {
                    let v = if k == src { 0.0 } else { d.get(src, k) };
                    d.set(dst, k, v);
                }
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn each_scan_equals_the_per_quartet_loop(d in arb_matrix(), tol in 0.0f64..3.0) {
        prop_assert_eq!(epsilon_avg_exact(&d).to_bits(), reference_epsilon_avg(&d).to_bits());
        prop_assert_eq!(epsilon_max_exact(&d).to_bits(), reference_epsilon_max(&d).to_bits());
        prop_assert_eq!(
            delta_hyperbolicity_exact(&d).to_bits(),
            reference_delta(&d).to_bits()
        );
        prop_assert_eq!(satisfies_four_point(&d, tol), reference_four_point(&d, tol));
        prop_assert_eq!(satisfies_four_point(&d, 0.0), reference_four_point(&d, 0.0));
    }
}
