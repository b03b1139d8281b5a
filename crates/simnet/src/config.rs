//! Typed validation errors for simulator configurations.
//!
//! Bad config values used to surface as panics deep inside the RNG (e.g.
//! `gen_bool` rejecting a loss probability of 1.7 mid-simulation). The
//! `try_`-constructors on [`crate::AsyncNetwork`], [`crate::ClusterSystem`]
//! and [`crate::DynamicSystem`] validate up front and return a
//! [`ConfigError`] instead.

use std::fmt;

/// A rejected simulator configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `loss` must be a probability in `[0, 1]`.
    LossOutOfRange {
        /// The offending value.
        loss: f64,
    },
    /// The latency range must be finite, non-negative and ordered
    /// (`low <= high`).
    InvalidLatencyRange {
        /// Lower bound supplied.
        low: f64,
        /// Upper bound supplied.
        high: f64,
    },
    /// The gossip period must be positive and finite.
    NonPositiveGossipPeriod {
        /// The offending value.
        period: f64,
    },
    /// Timer jitter must be in `[0, 1)` — a full period of jitter would
    /// allow zero-length timer intervals.
    JitterOutOfRange {
        /// The offending value.
        jitter: f64,
    },
    /// The convergence round cap must be positive.
    ZeroMaxRounds,
    /// A prediction-tree ensemble needs at least one member.
    ZeroEnsembleMembers,
    /// The per-neighbor record budget `n_cut` must be positive.
    ZeroNCut,
    /// Gossip failed to reach a fixpoint within the configured round cap —
    /// on a fault-free tree overlay this means `max_rounds` is too small
    /// for the overlay diameter.
    ConvergenceTimeout {
        /// The round cap that was exhausted.
        max_rounds: usize,
    },
    /// A shared universe's bandwidth and real-distance matrices must cover
    /// the same hosts.
    UniverseMismatch {
        /// Hosts in the bandwidth matrix.
        bandwidth: usize,
        /// Hosts in the distance matrix.
        distance: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LossOutOfRange { loss } => {
                write!(
                    f,
                    "message loss must be a probability in [0, 1], got {loss}"
                )
            }
            ConfigError::InvalidLatencyRange { low, high } => {
                write!(
                    f,
                    "latency range must be finite, non-negative and ordered, got ({low}, {high})"
                )
            }
            ConfigError::NonPositiveGossipPeriod { period } => {
                write!(f, "gossip period must be positive and finite, got {period}")
            }
            ConfigError::JitterOutOfRange { jitter } => {
                write!(f, "timer jitter must be in [0, 1), got {jitter}")
            }
            ConfigError::ZeroMaxRounds => write!(f, "max_rounds must be positive"),
            ConfigError::ZeroEnsembleMembers => {
                write!(f, "ensemble_members must be at least 1")
            }
            ConfigError::ZeroNCut => write!(f, "n_cut must be positive"),
            ConfigError::ConvergenceTimeout { max_rounds } => {
                write!(
                    f,
                    "gossip did not reach a fixpoint within {max_rounds} rounds"
                )
            }
            ConfigError::UniverseMismatch {
                bandwidth,
                distance,
            } => {
                write!(
                    f,
                    "universe has {bandwidth} hosts by bandwidth but {distance} by distance"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_offending_values() {
        assert!(ConfigError::LossOutOfRange { loss: 1.7 }
            .to_string()
            .contains("1.7"));
        assert!(ConfigError::InvalidLatencyRange {
            low: 5.0,
            high: 1.0
        }
        .to_string()
        .contains("(5, 1)"));
        assert!(ConfigError::NonPositiveGossipPeriod { period: 0.0 }
            .to_string()
            .contains("0"));
        assert!(ConfigError::JitterOutOfRange { jitter: 2.0 }
            .to_string()
            .contains("2"));
        assert!(ConfigError::ZeroMaxRounds
            .to_string()
            .contains("max_rounds"));
        assert!(ConfigError::ZeroEnsembleMembers
            .to_string()
            .contains("ensemble"));
        assert!(ConfigError::ZeroNCut.to_string().contains("n_cut"));
        assert!(ConfigError::ConvergenceTimeout { max_rounds: 512 }
            .to_string()
            .contains("512"));
        assert!(ConfigError::UniverseMismatch {
            bandwidth: 6,
            distance: 5
        }
        .to_string()
        .contains("6 hosts by bandwidth but 5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
