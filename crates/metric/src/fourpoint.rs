//! The four-point condition and quartet-based treeness statistics.
//!
//! A metric space `(V, d)` satisfies the *four-point condition* (4PC) when for
//! every quartet `{w, x, y, z}` the two largest of the three pairing sums
//!
//! ```text
//! d(w,x) + d(y,z),   d(w,y) + d(x,z),   d(w,z) + d(x,y)
//! ```
//!
//! are equal. Buneman's theorem states that 4PC holds exactly when some
//! edge-weighted tree induces the metric, which is what makes the paper's
//! polynomial-time clustering possible.
//!
//! Real bandwidth data only satisfies 4PC approximately. Abraham et al.
//! quantify the violation per quartet with a relative slack `ε`; the paper
//! uses the average `ε_avg` over quartets as the *treeness* of a dataset
//! (Sec. IV-C). This module computes the per-quartet `ε`, exact and sampled
//! `ε_avg`, and exact/sampled maxima.

use rand::Rng;

use crate::matrix::DistanceMatrix;
use crate::space::FiniteMetric;

/// The three pairing sums of a quartet, sorted descending.
///
/// `sums[0] >= sums[1] >= sums[2]`; `min_pair` is the smaller distance of the
/// two pairs forming the *smallest* sum, which Abraham et al. use as the
/// normalizer for `ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuartetSums {
    /// Pairing sums in descending order.
    pub sums: [f64; 3],
    /// `min` of the two pair distances that make up `sums[2]`.
    pub min_pair: f64,
}

/// Computes the sorted pairing sums of the quartet `(w, x, y, z)`.
///
/// # Panics
///
/// Panics if any index is out of bounds for `metric`.
pub fn quartet_sums<M: FiniteMetric>(
    metric: &M,
    w: usize,
    x: usize,
    y: usize,
    z: usize,
) -> QuartetSums {
    sums_of(
        metric.distance(w, x),
        metric.distance(y, z),
        metric.distance(w, y),
        metric.distance(x, z),
        metric.distance(w, z),
        metric.distance(x, y),
    )
}

/// The shared quartet kernel: pairing sums from the six pair distances.
///
/// Both the per-quartet [`quartet_sums`] and the exact scans' row kernel
/// ([`scan_quartets`]) funnel through this function, so a scan's quartet
/// values are the per-quartet values bit for bit.
#[inline]
fn sums_of(d_wx: f64, d_yz: f64, d_wy: f64, d_xz: f64, d_wz: f64, d_xy: f64) -> QuartetSums {
    // Each candidate: (sum, min of its two pair distances).
    let mut cands = [
        (d_wx + d_yz, d_wx.min(d_yz)),
        (d_wy + d_xz, d_wy.min(d_xz)),
        (d_wz + d_xy, d_wz.min(d_xy)),
    ];
    cands.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("pairing sums are comparable"));
    QuartetSums {
        sums: [cands[0].0, cands[1].0, cands[2].0],
        min_pair: cands[2].1,
    }
}

/// `ε` of a quartet given its pairing sums — the other half of the shared
/// kernel (see [`sums_of`]).
#[inline]
fn epsilon_of(q: QuartetSums) -> f64 {
    let gap = q.sums[0] - q.sums[1];
    if gap <= 0.0 {
        0.0
    } else if q.min_pair <= 0.0 {
        f64::INFINITY
    } else {
        gap / (2.0 * q.min_pair)
    }
}

/// Per-quartet treeness slack `ε` of Abraham et al.
///
/// With the pairing sums sorted `s1 ≥ s2 ≥ s3` and `m` the smaller pair
/// distance inside the smallest sum, `ε = (s1 − s2) / (2 m)`. A perfect tree
/// metric gives `ε = 0` for every quartet.
///
/// Degenerate quartets (where `m = 0`, e.g. duplicated points) return `0`
/// when the 4PC gap is also zero and `+∞` otherwise.
pub fn quartet_epsilon<M: FiniteMetric>(metric: &M, w: usize, x: usize, y: usize, z: usize) -> f64 {
    epsilon_of(quartet_sums(metric, w, x, y, z))
}

/// Calls `hit` with the pairing sums of every quartet `w < x < y < z` whose
/// smallest member is `w`, in lexicographic order, and stops at the first
/// quartet `hit` returns `true` for (returning `true`).
///
/// This is the row kernel every exact scan runs once per outer index `w`:
/// the three active matrix rows stay resident while the innermost loop
/// streams three contiguous slices, with no per-element bounds assertion.
#[inline]
pub(crate) fn scan_quartets(
    d: &DistanceMatrix,
    w: usize,
    mut hit: impl FnMut(QuartetSums) -> bool,
) -> bool {
    let n = d.len();
    let row_w = &d.row(w)[..n];
    for x in (w + 1)..n {
        let row_x = &d.row(x)[..n];
        let d_wx = row_w[x];
        for y in (x + 1)..n {
            let row_y = &d.row(y)[..n];
            let (d_wy, d_xy) = (row_w[y], row_x[y]);
            for z in (y + 1)..n {
                if hit(sums_of(d_wx, row_y[z], d_wy, row_x[z], row_w[z], d_xy)) {
                    return true;
                }
            }
        }
    }
    false
}

/// Checks whether `metric` satisfies 4PC on every quartet within an additive
/// tolerance `tol` on the gap `s1 − s2`, stopping at the first violation.
///
/// Runs in `O(n⁴)`; intended for tests and small fixtures.
pub fn satisfies_four_point<M: FiniteMetric>(metric: &M, tol: f64) -> bool {
    let d = metric.to_matrix();
    !(0..d.len()).any(|w| scan_quartets(&d, w, |q| q.sums[0] - q.sums[1] > tol))
}

/// Exact average quartet `ε` over all `C(n, 4)` quartets.
///
/// Infinite per-quartet values (degenerate quartets) are excluded from the
/// average. Returns `0` for spaces with fewer than four points (they are
/// trivially tree metrics).
///
/// Runs in `O(n⁴)` — fine up to a few hundred nodes; use
/// [`epsilon_avg_sampled`] beyond that.
pub fn epsilon_avg_exact<M: FiniteMetric>(metric: &M) -> f64 {
    let d = metric.to_matrix();
    // One partial sum per outer index, folded in index order: the
    // floating-point reduction tree is fixed by `n` alone.
    let (total, count) = (0..d.len())
        .map(|w| {
            let (mut total, mut count) = (0.0, 0u64);
            scan_quartets(&d, w, |q| {
                let e = epsilon_of(q);
                if e.is_finite() {
                    total += e;
                    count += 1;
                }
                false
            });
            (total, count)
        })
        .fold((0.0, 0u64), |(t, c), (pt, pc)| (t + pt, c + pc));
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Monte-Carlo estimate of the average quartet `ε` from `samples` random
/// quartets.
///
/// This is how `ε_avg` is evaluated for full-size datasets, where the exact
/// `C(n, 4)` enumeration (≈ 410 M quartets at `n = 317`) is wasteful: the
/// estimator converges to two decimal places within a few tens of thousands
/// of samples.
///
/// # Panics
///
/// Panics if `metric` has fewer than four points.
pub fn epsilon_avg_sampled<M: FiniteMetric, R: Rng>(
    metric: &M,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let n = metric.len();
    assert!(n >= 4, "sampled epsilon needs at least four points");
    let mut total = 0.0;
    let mut count = 0u64;
    for _ in 0..samples {
        let q = sample_quartet(n, rng);
        let e = quartet_epsilon(metric, q[0], q[1], q[2], q[3]);
        if e.is_finite() {
            total += e;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Exact maximum quartet `ε` (ignoring degenerate infinite quartets).
pub fn epsilon_max_exact<M: FiniteMetric>(metric: &M) -> f64 {
    let d = metric.to_matrix();
    let mut max = 0.0f64;
    for w in 0..d.len() {
        scan_quartets(&d, w, |q| {
            let e = epsilon_of(q);
            if e.is_finite() {
                max = max.max(e);
            }
            false
        });
    }
    max
}

/// Transforms an unbounded `ε_avg ∈ [0, ∞)` to the paper's bounded treeness
/// variable `ε*_avg = 1 − 1 / (1 + ε_avg) ∈ [0, 1)`.
pub fn epsilon_star(epsilon_avg: f64) -> f64 {
    assert!(epsilon_avg >= 0.0, "epsilon_avg must be non-negative");
    1.0 - 1.0 / (1.0 + epsilon_avg)
}

fn sample_quartet<R: Rng>(n: usize, rng: &mut R) -> [usize; 4] {
    // Rejection-sample four distinct indices; for n >= 4 this terminates
    // quickly (collision probability is tiny for the n used in practice).
    loop {
        let q = [
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..n),
        ];
        if q[0] != q[1]
            && q[0] != q[2]
            && q[0] != q[3]
            && q[1] != q[2]
            && q[1] != q[3]
            && q[2] != q[3]
        {
            return q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistanceMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Star metric: d(i, j) = w[i] + w[j]. Induced by a star tree, so a
    /// perfect tree metric.
    fn star_metric(weights: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(weights.len(), |i, j| weights[i] + weights[j])
    }

    /// Points on a line: also a tree metric (path graph).
    fn line_metric(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn star_metric_is_tree_metric() {
        let d = star_metric(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(satisfies_four_point(&d, 1e-12));
        assert_eq!(epsilon_avg_exact(&d), 0.0);
        assert_eq!(epsilon_max_exact(&d), 0.0);
    }

    #[test]
    fn line_metric_is_tree_metric() {
        let d = line_metric(&[0.0, 1.5, 4.0, 9.0, 11.0]);
        assert!(satisfies_four_point(&d, 1e-12));
        assert!(epsilon_avg_exact(&d) < 1e-12);
    }

    #[test]
    fn unit_square_violates_four_point() {
        // Corners of a unit square with Euclidean distances: the classic
        // non-tree metric (s1 = 2√2 diagonal sum vs s2 = 2 side sum).
        let d = DistanceMatrix::from_fn(4, |i, j| {
            let p = [(0.0f64, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
            let (xi, yi) = p[i];
            let (xj, yj) = p[j];
            (xi - xj).hypot(yi - yj)
        });
        assert!(!satisfies_four_point(&d, 1e-9));
        let e = quartet_epsilon(&d, 0, 1, 2, 3);
        // gap = 2√2 − 2, min pair distance in smallest sum... all side sums
        // are 2, diagonal sum is 2√2: sorted sums are [2√2, 2, 2].
        let expected = (2.0 * 2f64.sqrt() - 2.0) / 2.0;
        assert!((e - expected).abs() < 1e-9, "e = {e}, expected {expected}");
    }

    #[test]
    fn quartet_sums_sorted() {
        let d = star_metric(&[1.0, 2.0, 3.0, 4.0]);
        let q = quartet_sums(&d, 0, 1, 2, 3);
        assert!(q.sums[0] >= q.sums[1] && q.sums[1] >= q.sums[2]);
    }

    #[test]
    fn epsilon_is_permutation_invariant() {
        let d = DistanceMatrix::from_fn(4, |i, j| ((i + 1) * (j + 2)) as f64);
        let base = quartet_epsilon(&d, 0, 1, 2, 3);
        for perm in [[1, 0, 2, 3], [2, 3, 0, 1], [3, 1, 2, 0], [0, 2, 1, 3]] {
            let e = quartet_epsilon(&d, perm[0], perm[1], perm[2], perm[3]);
            assert!((e - base).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_quartet_with_gap_is_infinite() {
        // Two coincident points (distance 0) but a 4PC gap.
        let mut d = DistanceMatrix::new(4);
        d.set(0, 1, 0.0);
        d.set(2, 3, 0.0);
        d.set(0, 2, 1.0);
        d.set(0, 3, 5.0);
        d.set(1, 2, 9.0);
        d.set(1, 3, 2.0);
        let e = quartet_epsilon(&d, 0, 1, 2, 3);
        assert!(e.is_infinite());
        // ...and it must be excluded from the exact average.
        assert!(epsilon_avg_exact(&d).is_finite());
    }

    #[test]
    fn fewer_than_four_points_is_trivially_tree() {
        let d = DistanceMatrix::from_fn(3, |i, j| (i + j) as f64);
        assert_eq!(epsilon_avg_exact(&d), 0.0);
        assert!(satisfies_four_point(&d, 0.0));
    }

    #[test]
    fn sampled_epsilon_close_to_exact() {
        // A noisy metric where epsilon is strictly positive.
        let mut rng = StdRng::seed_from_u64(7);
        let d = DistanceMatrix::from_fn(12, |i, j| 1.0 + ((i * 31 + j * 17) % 13) as f64 / 3.0);
        let exact = epsilon_avg_exact(&d);
        let sampled = epsilon_avg_sampled(&d, 40_000, &mut rng);
        assert!(exact > 0.0);
        assert!(
            (sampled - exact).abs() / exact < 0.1,
            "sampled {sampled} too far from exact {exact}"
        );
    }

    #[test]
    #[should_panic(expected = "at least four")]
    fn sampled_epsilon_needs_four_points() {
        let d = DistanceMatrix::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        epsilon_avg_sampled(&d, 10, &mut rng);
    }

    #[test]
    fn epsilon_star_bounds() {
        assert_eq!(epsilon_star(0.0), 0.0);
        assert!((epsilon_star(1.0) - 0.5).abs() < 1e-12);
        assert!(epsilon_star(1e9) < 1.0);
        // Monotone.
        assert!(epsilon_star(0.2) < epsilon_star(0.4));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn epsilon_star_rejects_negative() {
        epsilon_star(-0.1);
    }
}
