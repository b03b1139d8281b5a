//! The answer checker: every cluster a workload gets back is validated
//! against the system's own membership and label metric.

use bcc_metric::NodeId;

/// Why a returned cluster is not a valid answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Not exactly `k` hosts.
    WrongSize { want: usize, got: usize },
    /// The same host twice.
    Duplicate(NodeId),
    /// A host that is not joined, or is crashed.
    DeadHost(NodeId),
    /// A pair further apart than the class allows.
    OverDiameter {
        a: NodeId,
        b: NodeId,
        d: f64,
        l: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::WrongSize { want, got } => {
                write!(f, "cluster has {got} hosts, query asked {want}")
            }
            Violation::Duplicate(h) => write!(f, "host {h} returned twice"),
            Violation::DeadHost(h) => write!(f, "host {h} is not live"),
            Violation::OverDiameter { a, b, d, l } => {
                write!(f, "hosts {a} and {b} are {d} apart, class allows {l}")
            }
        }
    }
}

/// Checks one answer: exactly `k` distinct live hosts with pairwise
/// distance at most `l`.
pub fn check_cluster(
    cluster: &[NodeId],
    k: usize,
    l: f64,
    mut live: impl FnMut(NodeId) -> bool,
    mut dist: impl FnMut(NodeId, NodeId) -> f64,
) -> Result<(), Violation> {
    if cluster.len() != k {
        return Err(Violation::WrongSize {
            want: k,
            got: cluster.len(),
        });
    }
    let mut sorted = cluster.to_vec();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(Violation::Duplicate(w[0]));
    }
    if let Some(&h) = cluster.iter().find(|&&h| !live(h)) {
        return Err(Violation::DeadHost(h));
    }
    for (i, &a) in cluster.iter().enumerate() {
        for &b in &cluster[i + 1..] {
            let d = dist(a, b);
            if d.is_nan() || d > l {
                return Err(Violation::OverDiameter { a, b, d, l });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Hosts on a line, one unit apart; host 9 is dead.
    fn check(cluster: &[usize], k: usize, l: f64) -> Result<(), Violation> {
        let cluster: Vec<NodeId> = cluster.iter().map(|&i| n(i)).collect();
        check_cluster(
            &cluster,
            k,
            l,
            |h| h.index() != 9,
            |a, b| (a.index() as f64 - b.index() as f64).abs(),
        )
    }

    #[test]
    fn accepts_a_valid_cluster() {
        assert_eq!(check(&[3, 1, 2], 3, 2.0), Ok(()));
    }

    #[test]
    fn rejects_wrong_k() {
        assert_eq!(
            check(&[1, 2], 3, 2.0),
            Err(Violation::WrongSize { want: 3, got: 2 })
        );
        assert_eq!(check(&[1, 2, 2], 3, 2.0), Err(Violation::Duplicate(n(2))));
    }

    #[test]
    fn rejects_a_planted_dead_host() {
        assert_eq!(check(&[8, 9, 10], 3, 2.0), Err(Violation::DeadHost(n(9))));
    }

    #[test]
    fn rejects_an_over_diameter_pair() {
        assert_eq!(
            check(&[1, 2, 4], 3, 2.0),
            Err(Violation::OverDiameter {
                a: n(1),
                b: n(4),
                d: 3.0,
                l: 2.0
            })
        );
    }
}
