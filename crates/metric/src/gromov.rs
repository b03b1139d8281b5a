//! Gromov products and δ-hyperbolicity.
//!
//! The Gromov product `(x|y)_z = ½ (d(z,x) + d(z,y) − d(x,y))` measures how
//! long the paths `z→x` and `z→y` travel together before splitting — in a
//! tree it is exactly the distance from `z` to the branch point of `x` and
//! `y`. Prediction-tree growth (Sec. II-D of the paper) places each new node
//! by *maximizing* a Gromov product, so this module is the numeric heart of
//! the embedding substrate.

use rand::Rng;

use crate::space::FiniteMetric;

/// The Gromov product `(x|y)_z` of `x` and `y` at base `z`.
///
/// ```
/// use bcc_metric::{gromov::gromov_product, DistanceMatrix};
/// // Path a—b—c with unit edges: (a|c)_b = 0 (paths split immediately at b).
/// let d = DistanceMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs());
/// assert_eq!(gromov_product(&d, 0, 2, 1), 0.0);
/// // (b|c)_a = 1: from a, the routes to b and c share the a—b edge.
/// assert_eq!(gromov_product(&d, 1, 2, 0), 1.0);
/// ```
#[inline]
pub fn gromov_product<M: FiniteMetric>(metric: &M, x: usize, y: usize, z: usize) -> f64 {
    0.5 * (metric.distance(z, x) + metric.distance(z, y) - metric.distance(x, y))
}

/// Finds the `y` (taken from `candidates`, excluding `x` and `z`) that
/// maximizes `(x|y)_z`, returning `(y, product)`.
///
/// Ties are broken toward the earliest candidate, which keeps tree growth
/// deterministic. Returns `None` when no eligible candidate exists.
pub fn max_gromov_product<M: FiniteMetric>(
    metric: &M,
    x: usize,
    z: usize,
    candidates: impl IntoIterator<Item = usize>,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for y in candidates {
        if y == x || y == z {
            continue;
        }
        let p = gromov_product(metric, x, y, z);
        match best {
            Some((_, bp)) if bp >= p => {}
            _ => best = Some((y, p)),
        }
    }
    best
}

/// Exact four-point δ-hyperbolicity: `max` over quartets of `(s1 − s2) / 2`
/// where `s1 ≥ s2 ≥ s3` are the pairing sums.
///
/// A tree metric has `δ = 0`. Runs in `O(n⁴)`; use
/// [`delta_hyperbolicity_sampled`] for large spaces.
pub fn delta_hyperbolicity_exact<M: FiniteMetric>(metric: &M) -> f64 {
    let d = metric.to_matrix();
    let mut delta = 0.0f64;
    for w in 0..d.len() {
        crate::fourpoint::scan_quartets(&d, w, |q| {
            delta = delta.max(0.5 * (q.sums[0] - q.sums[1]));
            false
        });
    }
    delta
}

/// Monte-Carlo lower bound on δ-hyperbolicity from `samples` random quartets.
///
/// # Panics
///
/// Panics if `metric` has fewer than four points.
pub fn delta_hyperbolicity_sampled<M: FiniteMetric, R: Rng>(
    metric: &M,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let n = metric.len();
    assert!(n >= 4, "delta needs at least four points");
    let mut delta = 0.0f64;
    for _ in 0..samples {
        let mut q = [0usize; 4];
        loop {
            for slot in &mut q {
                *slot = rng.gen_range(0..n);
            }
            if q[0] != q[1]
                && q[0] != q[2]
                && q[0] != q[3]
                && q[1] != q[2]
                && q[1] != q[3]
                && q[2] != q[3]
            {
                break;
            }
        }
        let s = crate::fourpoint::quartet_sums(metric, q[0], q[1], q[2], q[3]);
        delta = delta.max(0.5 * (s.sums[0] - s.sums[1]));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistanceMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn gromov_product_on_line() {
        let d = line(&[0.0, 2.0, 5.0]);
        // (1|2)_0: routes from 0 to both 1 and 2 share the segment [0, 2].
        assert_eq!(gromov_product(&d, 1, 2, 0), 2.0);
        // (0|2)_1: they split immediately at 1.
        assert_eq!(gromov_product(&d, 0, 2, 1), 0.0);
    }

    #[test]
    fn gromov_product_symmetry_in_xy() {
        let d = line(&[0.0, 1.0, 3.0, 7.0]);
        assert_eq!(gromov_product(&d, 1, 3, 0), gromov_product(&d, 3, 1, 0));
    }

    #[test]
    fn gromov_nonnegative_for_metric() {
        // For a true metric the triangle inequality makes (x|y)_z >= 0.
        let d = line(&[0.0, 1.0, 4.0, 6.0]);
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    assert!(gromov_product(&d, x, y, z) >= -1e-12);
                }
            }
        }
    }

    #[test]
    fn max_gromov_picks_closest_branch() {
        // Star with center weights: leaves 0,1,2,3 at radii 1,1,5,5.
        let w = [1.0, 1.0, 5.0, 5.0];
        let d = DistanceMatrix::from_fn(4, |i, j| w[i] + w[j]);
        // From base z=0, adding x=2: every other leaf's branch point with 2
        // is the center, (2|y)_0 = w[0] = 1 for all y.
        let (y, p) = max_gromov_product(&d, 2, 0, 0..4).unwrap();
        assert_eq!(p, 1.0);
        assert_eq!(y, 1, "tie broken toward earliest candidate");
    }

    #[test]
    fn max_gromov_excludes_x_and_z() {
        let d = line(&[0.0, 1.0, 2.0]);
        assert_eq!(max_gromov_product(&d, 0, 1, [0, 1].into_iter()), None);
        let got = max_gromov_product(&d, 0, 1, [0, 1, 2]);
        assert_eq!(got.map(|(y, _)| y), Some(2));
    }

    #[test]
    fn delta_zero_on_tree_metric() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        let d = DistanceMatrix::from_fn(5, |i, j| w[i] + w[j]);
        assert_eq!(delta_hyperbolicity_exact(&d), 0.0);
    }

    #[test]
    fn delta_positive_on_square() {
        let p = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        let d = DistanceMatrix::from_fn(4, |i, j| {
            let (xi, yi): (f64, f64) = p[i];
            let (xj, yj) = p[j];
            (xi - xj).hypot(yi - yj)
        });
        let delta = delta_hyperbolicity_exact(&d);
        assert!((delta - (2f64.sqrt() - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn sampled_delta_bounded_by_exact() {
        let d = DistanceMatrix::from_fn(10, |i, j| 1.0 + ((i * 7 + j * 3) % 5) as f64);
        let exact = delta_hyperbolicity_exact(&d);
        let mut rng = StdRng::seed_from_u64(3);
        let sampled = delta_hyperbolicity_sampled(&d, 5_000, &mut rng);
        assert!(sampled <= exact + 1e-12);
        assert!(sampled > 0.0);
    }
}
