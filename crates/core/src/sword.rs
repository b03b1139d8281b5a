//! A SWORD-style budgeted exhaustive search (related-work baseline).
//!
//! SWORD (Oppenheimer et al., HPDC 2005) discovers wide-area resource
//! groups by exhaustive search over candidate combinations and "stops
//! searching when timeout expires" — the limitation the paper contrasts its
//! polynomial tree-metric algorithm against. This module models that
//! behaviour: a backtracking `k`-clique search on the threshold graph
//! (`edge(u, v) ⇔ d(u, v) ≤ l`) that charges one unit of *budget* per node
//! expansion and gives up when the budget runs out.
//!
//! With unlimited budget the search is exact (it *is* `k`-Clique, so
//! exponential in the worst case); with a bounded budget it may miss
//! clusters that exist. The `ablations` bench compares its success rate
//! against Algorithm 1's guaranteed polynomial search.

use bcc_metric::FiniteMetric;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The outcome of a budgeted search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedOutcome {
    /// The cluster found, if any.
    pub cluster: Option<Vec<usize>>,
    /// Node expansions performed.
    pub expansions: u64,
    /// `true` if the search ran out of budget (a `None` cluster is then
    /// inconclusive rather than a proof of absence).
    pub exhausted: bool,
}

/// Backtracking `k`-clique search with an expansion budget.
///
/// Candidates are shuffled by `seed` (SWORD's search order depends on
/// arrival order; shuffling models that nondeterminism reproducibly), then
/// greedily ordered by degree to find cliques faster.
pub fn exhaustive_search<M: FiniteMetric>(
    metric: &M,
    k: usize,
    l: f64,
    budget: u64,
    seed: u64,
) -> BudgetedOutcome {
    let n = metric.len();
    if k == 0 || k > n {
        return BudgetedOutcome {
            cluster: None,
            expansions: 0,
            exhausted: false,
        };
    }
    if k == 1 {
        return BudgetedOutcome {
            cluster: Some(vec![0]),
            expansions: 1,
            exhausted: false,
        };
    }
    // Threshold graph adjacency.
    let adj: Vec<Vec<bool>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| i != j && metric.distance(i, j) <= l)
                .collect()
        })
        .collect();
    let degree: Vec<usize> = adj
        .iter()
        .map(|row| row.iter().filter(|&&b| b).count())
        .collect();

    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    // Stable by descending degree after the shuffle: dense nodes first,
    // random tie-breaks.
    order.sort_by(|&a, &b| degree[b].cmp(&degree[a]));

    struct Search<'a> {
        adj: &'a [Vec<bool>],
        k: usize,
        budget: u64,
        expansions: u64,
        exhausted: bool,
    }
    impl Search<'_> {
        fn extend(&mut self, clique: &mut Vec<usize>, cand: &[usize]) -> bool {
            if clique.len() == self.k {
                return true;
            }
            if clique.len() + cand.len() < self.k {
                return false;
            }
            for (idx, &v) in cand.iter().enumerate() {
                if self.expansions >= self.budget {
                    self.exhausted = true;
                    return false;
                }
                self.expansions += 1;
                clique.push(v);
                let next: Vec<usize> = cand[idx + 1..]
                    .iter()
                    .copied()
                    .filter(|&u| self.adj[v][u])
                    .collect();
                if self.extend(clique, &next) {
                    return true;
                }
                clique.pop();
                if self.exhausted {
                    return false;
                }
            }
            false
        }
    }

    let mut search = Search {
        adj: &adj,
        k,
        budget,
        expansions: 0,
        exhausted: false,
    };
    let mut clique = Vec::new();
    let found = search.extend(&mut clique, &order);
    BudgetedOutcome {
        cluster: if found {
            clique.sort_unstable();
            Some(clique)
        } else {
            None
        },
        expansions: search.expansions,
        exhausted: search.exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metric::DistanceMatrix;

    fn line(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn unlimited_budget_is_exact() {
        let d = line(&[0.0, 1.0, 2.0, 3.0, 10.0, 11.0]);
        for k in 2..=6 {
            for l in [0.5, 1.0, 2.0, 3.0, 12.0] {
                let out = exhaustive_search(&d, k, l, u64::MAX, 1);
                let expected = crate::find_cluster::exists_cluster_brute_force(&d, k, l);
                assert_eq!(out.cluster.is_some(), expected, "k={k} l={l}");
                assert!(!out.exhausted);
                if let Some(c) = out.cluster {
                    assert_eq!(c.len(), k);
                    assert!(crate::find_cluster::diameter(&d, &c) <= l + 1e-12);
                }
            }
        }
    }

    #[test]
    fn tiny_budget_gives_up_honestly() {
        // A cluster exists, but one expansion cannot find k = 3.
        let d = line(&[0.0, 0.1, 0.2, 9.0]);
        let out = exhaustive_search(&d, 3, 0.5, 1, 7);
        assert_eq!(out.cluster, None);
        assert!(out.exhausted, "must admit the search was cut short");
        // With a roomy budget it succeeds.
        let out = exhaustive_search(&d, 3, 0.5, 1000, 7);
        assert_eq!(out.cluster, Some(vec![0, 1, 2]));
    }

    #[test]
    fn absence_proof_when_not_exhausted() {
        // No cluster exists and the space is tiny: search completes within
        // budget, so None is a proof.
        let d = line(&[0.0, 10.0, 20.0]);
        let out = exhaustive_search(&d, 2, 1.0, 1000, 3);
        assert_eq!(out.cluster, None);
        assert!(!out.exhausted);
    }

    #[test]
    fn expansions_counted() {
        let d = line(&[0.0, 0.1, 0.2, 0.3]);
        let out = exhaustive_search(&d, 4, 1.0, u64::MAX, 5);
        assert!(out.cluster.is_some());
        assert!(
            out.expansions >= 4,
            "at least k expansions: {}",
            out.expansions
        );
    }

    #[test]
    fn degenerate_inputs() {
        let d = line(&[0.0, 1.0]);
        assert_eq!(exhaustive_search(&d, 0, 1.0, 10, 0).cluster, None);
        assert_eq!(exhaustive_search(&d, 3, 1.0, 10, 0).cluster, None);
        assert_eq!(exhaustive_search(&d, 1, 1.0, 10, 0).cluster, Some(vec![0]));
    }

    #[test]
    fn seed_changes_search_order_not_correctness() {
        let d = line(&[0.0, 0.5, 1.0, 5.0, 5.5, 6.0]);
        for seed in 0..10 {
            let out = exhaustive_search(&d, 3, 1.0, u64::MAX, seed);
            let c = out.cluster.expect("always exists");
            assert!(crate::find_cluster::diameter(&d, &c) <= 1.0 + 1e-12);
        }
    }
}
