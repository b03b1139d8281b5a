//! System configuration and its typed validation errors.
//!
//! Bad config values used to surface as panics deep inside the RNG (e.g.
//! `gen_bool` rejecting a loss probability of 1.7 mid-simulation). The
//! `try_`-constructors on [`crate::AsyncNetwork`] and
//! [`crate::DynamicSystem`] validate up front and return a
//! [`ConfigError`] instead.

use std::fmt;

use bcc_core::{BandwidthClasses, ProtocolConfig};
use bcc_embed::FrameworkConfig;
use bcc_metric::RationalTransform;

/// Configuration for building a [`crate::DynamicSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Transform between bandwidth and distance.
    pub transform: RationalTransform,
    /// Prediction framework growth options.
    pub framework: FrameworkConfig,
    /// Overlay protocol options (`n_cut`, bandwidth classes).
    pub protocol: ProtocolConfig,
    /// Gossip-round cap for convergence (a tree overlay needs about twice
    /// its diameter).
    pub max_rounds: usize,
}

impl SystemConfig {
    /// A reasonable default: `C = 100`, exact-global growth, `n_cut = 10`
    /// and the given bandwidth classes.
    pub fn new(classes: BandwidthClasses) -> Self {
        SystemConfig {
            transform: RationalTransform::default(),
            framework: FrameworkConfig::default(),
            protocol: ProtocolConfig::new(10, classes),
            max_rounds: 512,
        }
    }

    /// Checks structural fields up front, so a bad value surfaces as a
    /// typed error at construction instead of a panic mid-build.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_rounds == 0 {
            return Err(ConfigError::ZeroMaxRounds);
        }
        // `ProtocolConfig::new` asserts this, but the fields are public so a
        // literal construction can bypass it; re-check here for a typed
        // error instead of a downstream panic.
        if self.protocol.n_cut == 0 {
            return Err(ConfigError::ZeroNCut);
        }
        Ok(())
    }
}

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
    /// The per-neighbor record budget `n_cut` must be positive.
    ZeroNCut,
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
            ConfigError::ZeroNCut => write!(f, "n_cut must be positive"),
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
        assert!(ConfigError::ZeroNCut.to_string().contains("n_cut"));
        assert!(ConfigError::UniverseMismatch {
            bandwidth: 6,
            distance: 5
        }
        .to_string()
        .contains("6 hosts by bandwidth but 5"));
    }

    #[test]
    fn invalid_system_configs_are_rejected() {
        use bcc_metric::BandwidthMatrix;
        let cls = BandwidthClasses::new(vec![40.0], RationalTransform::default());
        let bw = BandwidthMatrix::from_fn(2, |_, _| 50.0);
        let try_new = |cfg| crate::DynamicSystem::try_new(bw.clone(), cfg).map(|_| ());
        let mut cfg = SystemConfig::new(cls.clone());
        cfg.max_rounds = 0;
        assert_eq!(try_new(cfg), Err(ConfigError::ZeroMaxRounds));
        let mut cfg = SystemConfig::new(cls.clone());
        cfg.protocol.n_cut = 0;
        assert_eq!(try_new(cfg), Err(ConfigError::ZeroNCut));
        assert_eq!(try_new(SystemConfig::new(cls)), Ok(()));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
