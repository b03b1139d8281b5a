//! The lazily filled row store every metered sweep reads its space
//! through.
//!
//! Algorithm 1 stops at the first pair whose `S*_pq` reaches `k`, so a
//! search usually reads a handful of rows of its space. [`LazyRows`] asks
//! the distance oracle for row `p` the first time a sweep touches it and
//! keeps it; nothing is evaluated for a row no sweep opens.

/// Marks a row that has not been filled yet in [`LazyRows::at`].
const UNFILLED: usize = usize::MAX;

/// Rows of an `len × len` search space, filled on first touch from `dist`.
///
/// Each unordered pair is evaluated at most once and always as
/// `dist(lower, higher)` — the orientation `DistanceMatrix::from_fn` uses —
/// because an entry whose transpose row is already filled is copied from
/// it. The diagonal is `0.0` and never evaluated.
///
/// Rows are appended to one growing arena in the order they are opened, so
/// a sweep that opens few rows allocates little; the price is that
/// [`LazyRows::ensure`] may move the arena, so a caller ensures every row
/// it is about to read before borrowing any of them.
pub(crate) struct LazyRows<F> {
    len: usize,
    dist: F,
    /// Arena offset of each row, [`UNFILLED`] until it is opened.
    at: Vec<usize>,
    arena: Vec<f64>,
}

impl<F: FnMut(usize, usize) -> f64> LazyRows<F> {
    /// A store over positions `0..len` with no row filled. `dist` is only
    /// ever called as `dist(i, j)` with `i < j < len`.
    pub(crate) fn new(len: usize, dist: F) -> Self {
        LazyRows {
            len,
            dist,
            at: vec![UNFILLED; len],
            arena: Vec::new(),
        }
    }

    /// Number of positions in the space.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Fills row `p` unless it is filled already.
    pub(crate) fn ensure(&mut self, p: usize) {
        if self.at[p] != UNFILLED {
            return;
        }
        if self.arena.is_empty() {
            // `pairs` is what materialising the space would have evaluated:
            // the denominator `evals` is read against.
            bcc_obs::inc!("core.rows.spaces");
            bcc_obs::add!("core.rows.pairs", (self.len * (self.len - 1) / 2) as u64);
        }
        let start = self.arena.len();
        self.arena.resize(start + self.len, 0.0);
        let mut evals = 0u64;
        for x in 0..self.len {
            if x == p {
                continue;
            }
            self.arena[start + x] = match self.at[x] {
                UNFILLED => {
                    evals += 1;
                    (self.dist)(x.min(p), x.max(p))
                }
                row_x => self.arena[row_x + p],
            };
        }
        self.at[p] = start;
        bcc_obs::inc!("core.rows.filled");
        bcc_obs::add!("core.rows.evals", evals);
    }

    /// Row `p`: the distance from `p` to every position, `0.0` at `p`.
    ///
    /// # Panics
    ///
    /// Panics if the row has not been [`LazyRows::ensure`]d.
    pub(crate) fn row(&self, p: usize) -> &[f64] {
        let start = self.at[p];
        assert!(start != UNFILLED, "row {p} read before it was ensured");
        &self.arena[start..start + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rows_equal_the_dense_matrix_and_each_pair_is_asked_once() {
        let n = 7;
        let f = |i: usize, j: usize| (i * 10 + j) as f64;
        let mut asked: Vec<(usize, usize)> = Vec::new();
        let mut rows = LazyRows::new(n, |i, j| {
            asked.push((i, j));
            f(i, j)
        });
        assert_eq!(rows.len(), n);
        // Open rows out of order, some twice.
        for p in [4, 1, 4, 6, 0, 1] {
            rows.ensure(p);
            let row = rows.row(p).to_vec();
            for (x, &d) in row.iter().enumerate() {
                let want = if x == p { 0.0 } else { f(x.min(p), x.max(p)) };
                assert_eq!(d, want, "row {p} entry {x}");
            }
        }
        drop(rows);
        assert!(asked.iter().all(|&(i, j)| i < j && j < n));
        let distinct: BTreeSet<_> = asked.iter().copied().collect();
        assert_eq!(distinct.len(), asked.len(), "a pair was evaluated twice");
        // Four distinct rows of a 7-space: 6 + 5 + 4 + 3 fresh entries.
        assert_eq!(asked.len(), 18);
    }

    #[test]
    fn empty_and_untouched_spaces_evaluate_nothing() {
        let mut calls = 0;
        let rows = LazyRows::new(0, |_, _| {
            calls += 1;
            0.0
        });
        assert_eq!(rows.len(), 0);
        drop(rows);
        let rows = LazyRows::new(5, |_, _| {
            calls += 1;
            0.0
        });
        drop(rows);
        assert_eq!(calls, 0);
    }

    #[test]
    #[should_panic(expected = "read before it was ensured")]
    fn reading_an_unfilled_row_panics() {
        let rows = LazyRows::new(3, |_, _| 1.0);
        let _ = rows.row(1);
    }
}
