use std::fmt;

/// Errors produced by clustering queries and protocol state updates.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The query's size constraint was below the problem's minimum
    /// (`k >= 2` per the paper's problem statement).
    InvalidSizeConstraint {
        /// The offending `k`.
        k: usize,
    },
    /// The query's diameter/bandwidth constraint was not positive and finite.
    InvalidDiameterConstraint {
        /// The offending `l` (distance domain).
        l: f64,
    },
    /// The query's bandwidth constraint was not positive and finite
    /// (bandwidth domain — `b <= 0`, NaN or infinite).
    InvalidBandwidthConstraint {
        /// The offending `b` (bandwidth domain).
        bandwidth: f64,
    },
    /// A bandwidth constraint was above every configured bandwidth class, so
    /// no routing-table column can answer it.
    NoMatchingClass {
        /// The requested minimum bandwidth.
        bandwidth: f64,
    },
    /// A protocol message referenced a neighbor this node does not have.
    UnknownNeighbor {
        /// The claimed neighbor index.
        neighbor: usize,
    },
    /// The host a query was submitted at is crashed or unreachable.
    NodeUnavailable {
        /// The unavailable host index.
        node: usize,
    },
    /// A routing-table row (received or restored) does not have one entry
    /// per configured bandwidth class.
    ClassCountMismatch {
        /// The node's class count.
        expected: usize,
        /// The row's length.
        got: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidSizeConstraint { k } => {
                write!(f, "cluster size constraint must be at least 2, got {k}")
            }
            ClusterError::InvalidDiameterConstraint { l } => {
                write!(
                    f,
                    "diameter constraint must be positive and finite, got {l}"
                )
            }
            ClusterError::InvalidBandwidthConstraint { bandwidth } => {
                write!(
                    f,
                    "bandwidth constraint must be positive and finite, got {bandwidth}"
                )
            }
            ClusterError::NoMatchingClass { bandwidth } => {
                write!(f, "no bandwidth class at or above {bandwidth}")
            }
            ClusterError::UnknownNeighbor { neighbor } => {
                write!(f, "unknown neighbor n{neighbor}")
            }
            ClusterError::NodeUnavailable { node } => {
                write!(f, "host n{node} is unavailable (crashed or unreachable)")
            }
            ClusterError::ClassCountMismatch { expected, got } => {
                write!(
                    f,
                    "routing-table row has {got} bandwidth classes, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The typed rejection a query entry point returns for invalid inputs
/// (`k < 2`, non-positive `b`, unknown submit node, …) — an alias naming
/// [`ClusterError`]'s role at the library boundary, mirroring the
/// `ConfigError` pattern used at construction boundaries.
pub type QueryError = ClusterError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(ClusterError::InvalidSizeConstraint { k: 1 }
            .to_string()
            .contains("at least 2"));
        assert!(ClusterError::InvalidDiameterConstraint { l: -1.0 }
            .to_string()
            .contains("-1"));
        assert!(ClusterError::InvalidBandwidthConstraint { bandwidth: -2.0 }
            .to_string()
            .contains("-2"));
        assert!(ClusterError::NoMatchingClass { bandwidth: 500.0 }
            .to_string()
            .contains("500"));
        assert!(ClusterError::UnknownNeighbor { neighbor: 3 }
            .to_string()
            .contains("n3"));
        assert!(ClusterError::NodeUnavailable { node: 4 }
            .to_string()
            .contains("n4"));
        let e = ClusterError::ClassCountMismatch {
            expected: 2,
            got: 3,
        };
        assert_eq!(e, e.clone());
        assert_eq!(
            e.to_string(),
            "routing-table row has 3 bandwidth classes, expected 2"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterError>();
    }
}
