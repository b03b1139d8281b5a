//! Bipartite maximum matching and maximum independent set.
//!
//! The Euclidean baseline clustering (see [`crate::find_cluster_euclidean`])
//! reduces each
//! candidate lune to a bipartite *conflict* graph and needs its maximum
//! independent set. By König's theorem, in a bipartite graph
//! `|MIS| = |V| − |maximum matching|`, and the MIS itself is recovered from
//! the alternating-path structure of a maximum matching. The matching is
//! computed with Hopcroft–Karp in `O(E √V)`.

/// A bipartite graph with `left` and `right` vertex sets and edges from left
/// to right.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    left: usize,
    right: usize,
    adj: Vec<Vec<usize>>, // adj[l] = right neighbors of left vertex l
}

/// Result of [`BipartiteGraph::max_independent_set`]: the chosen vertices on
/// each side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndependentSet {
    /// Indices of chosen left vertices.
    pub left: Vec<usize>,
    /// Indices of chosen right vertices.
    pub right: Vec<usize>,
}

impl IndependentSet {
    /// Total number of chosen vertices.
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Returns `true` when no vertex was chosen.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }
}

const NIL: usize = usize::MAX;

impl BipartiteGraph {
    /// Creates an empty bipartite graph with the given side sizes.
    pub fn new(left: usize, right: usize) -> Self {
        BipartiteGraph {
            left,
            right,
            adj: vec![Vec::new(); left],
        }
    }

    /// Adds an edge between left vertex `l` and right vertex `r`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.left, "left index out of bounds");
        assert!(r < self.right, "right index out of bounds");
        self.adj[l].push(r);
    }

    /// Size of a maximum matching (Hopcroft–Karp).
    pub fn max_matching(&self) -> usize {
        self.hopcroft_karp().0
    }

    /// Hopcroft–Karp: returns `(matching size, match_l, match_r)` where
    /// `match_l[l]` is the right partner of `l` (or `NIL`).
    fn hopcroft_karp(&self) -> (usize, Vec<usize>, Vec<usize>) {
        let mut match_l = vec![NIL; self.left];
        let mut match_r = vec![NIL; self.right];
        let mut dist = vec![0usize; self.left];
        let mut matching = 0;

        loop {
            // BFS layers from free left vertices.
            let mut queue = std::collections::VecDeque::new();
            for l in 0..self.left {
                if match_l[l] == NIL {
                    dist[l] = 0;
                    queue.push_back(l);
                } else {
                    dist[l] = usize::MAX;
                }
            }
            let mut found_augmenting = false;
            while let Some(l) = queue.pop_front() {
                for &r in &self.adj[l] {
                    let next = match_r[r];
                    if next == NIL {
                        found_augmenting = true;
                    } else if dist[next] == usize::MAX {
                        dist[next] = dist[l] + 1;
                        queue.push_back(next);
                    }
                }
            }
            if !found_augmenting {
                break;
            }
            // DFS for vertex-disjoint shortest augmenting paths.
            fn dfs(
                l: usize,
                adj: &[Vec<usize>],
                dist: &mut [usize],
                match_l: &mut [usize],
                match_r: &mut [usize],
            ) -> bool {
                for i in 0..adj[l].len() {
                    let r = adj[l][i];
                    let next = match_r[r];
                    if next == NIL
                        || (dist[next] == dist[l] + 1 && dfs(next, adj, dist, match_l, match_r))
                    {
                        match_l[l] = r;
                        match_r[r] = l;
                        return true;
                    }
                }
                dist[l] = usize::MAX;
                false
            }
            for l in 0..self.left {
                if match_l[l] == NIL && dfs(l, &self.adj, &mut dist, &mut match_l, &mut match_r) {
                    matching += 1;
                }
            }
        }
        (matching, match_l, match_r)
    }

    /// Maximum independent set via König's theorem.
    ///
    /// Build a maximum matching; let `Z` be the left-free vertices plus
    /// everything reachable from them by alternating paths (unmatched edge
    /// left→right, matched edge right→left). The minimum vertex cover is
    /// `(L \ Z) ∪ (R ∩ Z)`, and the MIS is its complement:
    /// `(L ∩ Z) ∪ (R \ Z)`.
    pub fn max_independent_set(&self) -> IndependentSet {
        let (_, match_l, match_r) = self.hopcroft_karp();
        let mut in_z_left = vec![false; self.left];
        let mut in_z_right = vec![false; self.right];
        let mut queue = std::collections::VecDeque::new();
        for l in 0..self.left {
            if match_l[l] == NIL {
                in_z_left[l] = true;
                queue.push_back(l);
            }
        }
        while let Some(l) = queue.pop_front() {
            for &r in &self.adj[l] {
                if !in_z_right[r] && match_l[l] != r {
                    in_z_right[r] = true;
                    let back = match_r[r];
                    if back != NIL && !in_z_left[back] {
                        in_z_left[back] = true;
                        queue.push_back(back);
                    }
                }
            }
        }
        IndependentSet {
            left: (0..self.left).filter(|&l| in_z_left[l]).collect(),
            right: (0..self.right).filter(|&r| !in_z_right[r]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(left: usize, right: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(left, right);
        for &(l, r) in edges {
            g.add_edge(l, r);
        }
        g
    }

    /// Verify an independent set is actually independent.
    fn assert_independent(g: &BipartiteGraph, s: &IndependentSet) {
        for &l in &s.left {
            for &r in &g.adj[l] {
                assert!(
                    !s.right.contains(&r),
                    "edge ({l},{r}) inside independent set"
                );
            }
        }
    }

    #[test]
    fn empty_graph_mis_is_everything() {
        let g = graph(3, 4, &[]);
        let s = g.max_independent_set();
        assert_eq!(s.len(), 7);
        assert_eq!(g.max_matching(), 0);
    }

    #[test]
    fn single_edge() {
        let g = graph(1, 1, &[(0, 0)]);
        assert_eq!(g.max_matching(), 1);
        let s = g.max_independent_set();
        assert_eq!(s.len(), 1);
        assert_independent(&g, &s);
    }

    #[test]
    fn perfect_matching_path() {
        // Path l0-r0, l1-r0, l1-r1: matching 2, MIS 2.
        let g = graph(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        assert_eq!(g.max_matching(), 2);
        let s = g.max_independent_set();
        assert_eq!(s.len(), 2);
        assert_independent(&g, &s);
    }

    #[test]
    fn complete_bipartite() {
        // K_{3,4}: matching 3, MIS = max(3, 4) = 4.
        let mut g = BipartiteGraph::new(3, 4);
        for l in 0..3 {
            for r in 0..4 {
                g.add_edge(l, r);
            }
        }
        assert_eq!(g.max_matching(), 3);
        let s = g.max_independent_set();
        assert_eq!(s.len(), 4);
        assert_independent(&g, &s);
    }

    #[test]
    fn koenig_identity_holds() {
        // |MIS| = |V| − |max matching| on a few graphs.
        type Case = (usize, usize, Vec<(usize, usize)>);
        let cases: Vec<Case> = vec![
            (4, 4, vec![(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (3, 0)]),
            (5, 3, vec![(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]),
            (3, 5, vec![(0, 0), (0, 1), (0, 2), (1, 3), (2, 4), (2, 3)]),
        ];
        for (l, r, edges) in cases {
            let g = graph(l, r, &edges);
            let s = g.max_independent_set();
            assert_eq!(s.len(), l + r - g.max_matching());
            assert_independent(&g, &s);
        }
    }

    #[test]
    fn augmenting_path_needed() {
        // Greedy would match l0-r0 and block l1; Hopcroft–Karp augments.
        let g = graph(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(g.max_matching(), 2);
    }

    #[test]
    fn duplicate_edges_harmless() {
        let g = graph(1, 1, &[(0, 0), (0, 0)]);
        assert_eq!(g.max_matching(), 1);
        assert_eq!(g.max_independent_set().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_bounds_checked() {
        BipartiteGraph::new(1, 1).add_edge(0, 1);
    }

    #[test]
    fn mis_on_random_graphs_verified() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let l = rng.gen_range(1..8);
            let r = rng.gen_range(1..8);
            let mut g = BipartiteGraph::new(l, r);
            for li in 0..l {
                for ri in 0..r {
                    if rng.gen_bool(0.3) {
                        g.add_edge(li, ri);
                    }
                }
            }
            let s = g.max_independent_set();
            assert_independent(&g, &s);
            assert_eq!(s.len(), l + r - g.max_matching());
            // MIS at least max(l, r) minus... sanity: at least the larger
            // side can't be beaten by an empty answer.
            assert!(s.len() >= l.max(r).saturating_sub(g.max_matching()));
        }
    }
}
