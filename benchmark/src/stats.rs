//! Sample statistics and the answer-stream digest.

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into the FNV-1a state `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one `u64` (little-endian) into the FNV-1a state `h`.
pub fn fnv1a_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and the figure is one or two outliers, not a tail.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n > 0` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of an ascending sample, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    debug_assert!((0.0..1.0).contains(&q));
    let n = sorted.len();
    if n == 0 || n - rank(n, q) < MIN_TAIL {
        return None;
    }
    Some(sorted[rank(n, q) - 1])
}

/// [`percentile`] at the highest supported quantile not above `q`, never
/// below the median: returns `(quantile used, value)`. Full-size runs
/// always support the requested quantile; smoke runs degrade and the
/// caller prints the quantile it got. An empty sample yields `(q, 0.0)`.
pub fn tail_percentile(sorted: &[f64], q: f64) -> (f64, f64) {
    if let Some(v) = percentile(sorted, q) {
        return (q, v);
    }
    if sorted.is_empty() {
        return (q, 0.0);
    }
    let n = sorted.len();
    let supported = 1.0 - MIN_TAIL as f64 / n as f64;
    let used = supported.min(q).max(0.5);
    (used, sorted[rank(n, used) - 1])
}

/// Sorts ascending. Latencies are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
}

/// Median of a small set of per-pass figures (mean of the middle two for
/// an even count). `0.0` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `num / den`, `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond it; 999 has nine.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p50 needs twenty samples.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_degrades_to_what_the_sample_supports() {
        assert_eq!(tail_percentile(&ramp(1000), 0.99), (0.99, 990.0));
        // 200 samples support p95 at most.
        let (q, v) = tail_percentile(&ramp(200), 0.99);
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(v, 190.0);
        // Too few for any tail: the median, flagged by the returned quantile.
        assert_eq!(tail_percentile(&ramp(8), 0.99), (0.5, 4.0));
    }

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") from the reference test suite.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
    }
}
