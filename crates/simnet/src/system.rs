//! End-to-end system assembly: measurements → prediction framework →
//! clustering overlay → queries.
//!
//! [`ClusterSystem`] is the one-stop entry point used by the examples and
//! the evaluation harness. It owns the bandwidth ground truth, the
//! prediction framework built from it, and the converged protocol overlay,
//! and answers queries three ways:
//!
//! - [`ClusterSystem::query`] — the paper's decentralized algorithm
//!   (`TREE-DECENTRAL`),
//! - [`ClusterSystem::centralized_query`] — Algorithm 1 over the *whole*
//!   predicted metric (`TREE-CENTRAL`),
//! - ground-truth helpers for scoring results against real bandwidth.

use bcc_core::{
    find_cluster, BandwidthClasses, Budgeted, ClusterError, ProtocolConfig, QueryOutcome,
    RetryPolicy, Unmetered,
};
use bcc_embed::{EnsembleConfig, FrameworkConfig, PredictionFramework, TreeEnsemble};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, NodeId, RationalTransform};

use crate::config::ConfigError;
use crate::engine::SimNetwork;

/// Configuration for building a [`ClusterSystem`].
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
    /// Prediction-tree ensemble size (1 = single tree). With more members,
    /// pairwise predictions are the median over independently grown trees
    /// — more probes, better accuracy (see ablation 7); the overlay itself
    /// always comes from the primary framework.
    pub ensemble_members: usize,
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
            ensemble_members: 1,
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
        if self.ensemble_members == 0 {
            return Err(ConfigError::ZeroEnsembleMembers);
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

/// A complete simulated deployment.
#[derive(Debug, Clone)]
pub struct ClusterSystem {
    bandwidth: BandwidthMatrix,
    real_distance: DistanceMatrix,
    framework: PredictionFramework,
    predicted: DistanceMatrix,
    network: SimNetwork,
    config: SystemConfig,
}

impl ClusterSystem {
    /// Builds the full stack from ground-truth bandwidth measurements:
    /// joins every host into the prediction framework, constructs the
    /// overlay, and runs gossip to convergence.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (use [`ClusterSystem::try_build`]
    /// for a typed error) or if gossip fails to converge within
    /// `config.max_rounds` (impossible on a healthy tree overlay; indicates
    /// misconfiguration).
    pub fn build(bandwidth: BandwidthMatrix, config: SystemConfig) -> Self {
        Self::try_build(bandwidth, config).expect("valid SystemConfig and converging overlay")
    }

    /// [`ClusterSystem::build`] with up-front configuration validation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when a field is invalid (see
    /// [`SystemConfig::validate`]), or
    /// [`ConfigError::ConvergenceTimeout`] if gossip fails to reach a
    /// fixpoint within `config.max_rounds`.
    pub fn try_build(
        bandwidth: BandwidthMatrix,
        config: SystemConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let real_distance = config.transform.distance_matrix(&bandwidth);
        let framework = PredictionFramework::build_from_matrix(&real_distance, config.framework);
        let predicted = if config.ensemble_members > 1 {
            TreeEnsemble::build_from_matrix(
                &real_distance,
                EnsembleConfig {
                    members: config.ensemble_members,
                    member_config: config.framework,
                    seed: config.framework.seed,
                    ..Default::default()
                },
            )
            .predicted_matrix()
        } else {
            framework.predicted_matrix()
        };
        let mut network = SimNetwork::new(
            framework.anchor(),
            predicted.clone(),
            config.protocol.clone(),
        );
        network
            .run_to_convergence(config.max_rounds)
            .ok_or(ConfigError::ConvergenceTimeout {
                max_rounds: config.max_rounds,
            })?;
        Ok(ClusterSystem {
            bandwidth,
            real_distance,
            framework,
            predicted,
            network,
            config,
        })
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.bandwidth.len()
    }

    /// Returns `true` for an empty system.
    pub fn is_empty(&self) -> bool {
        self.bandwidth.is_empty()
    }

    /// Ground-truth bandwidth between two hosts.
    pub fn real_bandwidth(&self, u: NodeId, v: NodeId) -> f64 {
        self.bandwidth.get(u.index(), v.index())
    }

    /// Predicted bandwidth between two hosts (ensemble-aggregated when
    /// `ensemble_members > 1`).
    pub fn predicted_bandwidth(&self, u: NodeId, v: NodeId) -> f64 {
        self.config
            .transform
            .to_bandwidth(self.predicted.get(u.index(), v.index()))
    }

    /// The predicted metric every query in this system runs on.
    pub fn predicted_matrix(&self) -> &DistanceMatrix {
        &self.predicted
    }

    /// The underlying prediction framework.
    pub fn framework(&self) -> &PredictionFramework {
        &self.framework
    }

    /// The converged protocol overlay.
    pub fn network(&self) -> &SimNetwork {
        &self.network
    }

    /// The ground-truth bandwidth matrix.
    pub fn bandwidth_matrix(&self) -> &BandwidthMatrix {
        &self.bandwidth
    }

    /// The rational-transformed ground-truth distances.
    pub fn real_distance_matrix(&self) -> &DistanceMatrix {
        &self.real_distance
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Decentralized query (Algorithm 4): submitted at `start`, routed along
    /// the overlay.
    ///
    /// # Errors
    ///
    /// See [`bcc_core::process_query`].
    pub fn query(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<QueryOutcome, ClusterError> {
        self.network.query(start, k, bandwidth)
    }

    /// Failure-aware decentralized query: retries with backoff and reroutes
    /// around hosts the overlay's fault injector reports dead (see
    /// [`SimNetwork::query_resilient`]).
    ///
    /// # Errors
    ///
    /// See [`bcc_core::process_query_resilient`].
    pub fn query_resilient(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
    ) -> Result<QueryOutcome, ClusterError> {
        self.network
            .query_resilient(start, k, bandwidth, retry, &mut Unmetered)
            .map(Budgeted::into_value)
    }

    /// Centralized query (`TREE-CENTRAL`): Algorithm 1 over the entire
    /// predicted metric, same bandwidth-class snapping as the overlay.
    ///
    /// # Errors
    ///
    /// - [`ClusterError::InvalidSizeConstraint`] when `k < 2`,
    /// - [`ClusterError::NoMatchingClass`] when `bandwidth` exceeds every
    ///   class.
    pub fn centralized_query(
        &self,
        k: usize,
        bandwidth: f64,
    ) -> Result<Option<Vec<NodeId>>, ClusterError> {
        if k < 2 {
            return Err(ClusterError::InvalidSizeConstraint { k });
        }
        let classes = &self.config.protocol.classes;
        let idx = classes.snap_up(bandwidth)?;
        let l = classes.distance_of(idx);
        Ok(find_cluster(&self.predicted, k, l).map(|v| v.into_iter().map(NodeId::new).collect()))
    }

    /// Hub search (the paper's future-work extension): a host predicted to
    /// have bandwidth at least `bandwidth` to *every* member of `targets`.
    ///
    /// Runs on the predicted metric like every other query; no tree-metric
    /// assumption is needed for this one.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidDiameterConstraint`] when `bandwidth`
    /// is not positive and finite.
    pub fn find_hub(
        &self,
        targets: &[NodeId],
        bandwidth: f64,
    ) -> Result<Option<NodeId>, ClusterError> {
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(ClusterError::InvalidDiameterConstraint { l: bandwidth });
        }
        let l = self.config.transform.distance_constraint(bandwidth);
        let idx: Vec<usize> = targets.iter().map(|t| t.index()).collect();
        Ok(bcc_core::hub::find_hub(&self.predicted, &idx, l).map(NodeId::new))
    }

    /// Scores a returned cluster against ground truth: the number of pairs
    /// whose *real* bandwidth is below `b`, and the total number of pairs.
    pub fn score_cluster(&self, cluster: &[NodeId], b: f64) -> (usize, usize) {
        let mut wrong = 0;
        let mut total = 0;
        for (i, &u) in cluster.iter().enumerate() {
            for &v in &cluster[i + 1..] {
                total += 1;
                if self.real_bandwidth(u, v) < b {
                    wrong += 1;
                }
            }
        }
        (wrong, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Access-link bottleneck model: BW = min of endpoint capacities — a
    /// perfect tree metric, so predictions are exact and clustering is
    /// perfect.
    fn access_link(caps: &[f64]) -> BandwidthMatrix {
        BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j]))
    }

    fn sys(caps: &[f64], classes: Vec<f64>) -> ClusterSystem {
        let cls = BandwidthClasses::new(classes, RationalTransform::default());
        ClusterSystem::build(access_link(caps), SystemConfig::new(cls))
    }

    #[test]
    fn build_and_predict_exactly() {
        let s = sys(&[100.0, 100.0, 50.0, 20.0], vec![40.0, 80.0]);
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let real = s.real_bandwidth(n(i), n(j));
                let pred = s.predicted_bandwidth(n(i), n(j));
                assert!((real - pred).abs() < 1e-6, "({i},{j}): {pred} vs {real}");
            }
        }
    }

    #[test]
    fn decentralized_query_is_correct_on_tree_metric() {
        // Hosts 0-2 at 100 Mbps, 3-4 at 30, 5 at 10.
        let s = sys(&[100.0, 100.0, 100.0, 30.0, 30.0, 10.0], vec![40.0, 80.0]);
        let out = s.query(n(5), 3, 80.0).unwrap();
        assert!(out.found());
        let c = out.cluster.unwrap();
        let (wrong, total) = s.score_cluster(&c, 80.0);
        assert_eq!(wrong, 0, "all pairs must satisfy the constraint");
        assert_eq!(total, 3);
        assert_eq!(c, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn centralized_matches_decentralized_on_easy_queries() {
        let s = sys(&[100.0, 100.0, 100.0, 30.0, 30.0, 10.0], vec![40.0, 80.0]);
        for k in 2..=3 {
            let cen = s.centralized_query(k, 80.0).unwrap();
            let dec = s.query(n(0), k, 80.0).unwrap();
            assert_eq!(cen.is_some(), dec.found(), "k = {k}");
        }
        // k=4 at 80 Mbps is impossible: only three 100 Mbps hosts.
        assert!(s.centralized_query(4, 80.0).unwrap().is_none());
        assert!(!s.query(n(0), 4, 80.0).unwrap().found());
    }

    #[test]
    fn cluster_for_lower_class_is_larger() {
        let s = sys(&[100.0, 100.0, 100.0, 30.0, 30.0, 10.0], vec![20.0, 80.0]);
        // b=20 (class 20): everyone but host 5 qualifies together.
        let out = s.query(n(2), 5, 20.0).unwrap();
        assert!(out.found());
        let (wrong, _) = s.score_cluster(&out.cluster.unwrap(), 20.0);
        assert_eq!(wrong, 0);
    }

    #[test]
    fn errors_propagate() {
        let s = sys(&[50.0, 50.0], vec![40.0]);
        assert!(s.query(n(0), 1, 40.0).is_err());
        assert!(s.query(n(0), 2, 99.0).is_err());
        assert!(s.centralized_query(1, 40.0).is_err());
        assert!(s.centralized_query(2, 99.0).is_err());
    }

    #[test]
    fn ensemble_system_works_end_to_end() {
        let caps = [100.0f64, 100.0, 100.0, 30.0, 30.0, 10.0];
        let bw = access_link(&caps);
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        let mut config = SystemConfig::new(cls);
        config.ensemble_members = 3;
        let s = ClusterSystem::build(bw, config);
        // Perfect tree metric: ensemble predictions are still exact.
        for i in 0..6 {
            for j in (i + 1)..6 {
                let real = s.real_bandwidth(n(i), n(j));
                assert!((s.predicted_bandwidth(n(i), n(j)) - real).abs() < 1e-6);
            }
        }
        let out = s.query(n(5), 3, 80.0).unwrap();
        assert_eq!(out.cluster, Some(vec![n(0), n(1), n(2)]));
    }

    #[test]
    fn hub_search_extension() {
        // Hosts 0-2 fast, 3 medium, 4 slow; the hub for {1, 2} at 80 Mbps
        // must be host 0 (the only other fast one).
        let s = sys(&[100.0, 100.0, 100.0, 30.0, 10.0], vec![40.0, 80.0]);
        let hub = s.find_hub(&[n(1), n(2)], 80.0).unwrap();
        assert_eq!(hub, Some(n(0)));
        // No host reaches the slow one at 80 Mbps.
        assert_eq!(s.find_hub(&[n(4)], 80.0).unwrap(), None);
        // Invalid constraint rejected.
        assert!(s.find_hub(&[n(1)], f64::NAN).is_err());
    }

    #[test]
    fn latency_constrained_clustering_works_unchanged() {
        // The paper's third future-work item: latency is also near-tree, and
        // the machinery is metric-generic. Model latency directly as a
        // distance matrix (no rational transform) and run Algorithm 1.
        use bcc_core::find_cluster;
        use bcc_metric::DistanceMatrix;
        // Two data centers 1 ms apart internally, 50 ms across.
        let lat = DistanceMatrix::from_fn(6, |i, j| if (i < 3) == (j < 3) { 1.0 } else { 50.0 });
        let x = find_cluster(&lat, 3, 2.0).expect("one DC forms a latency cluster");
        assert_eq!(x, vec![0, 1, 2]);
        assert_eq!(find_cluster(&lat, 4, 2.0), None);
    }

    #[test]
    fn invalid_system_configs_are_rejected() {
        let cls = BandwidthClasses::new(vec![40.0], RationalTransform::default());
        let mut cfg = SystemConfig::new(cls.clone());
        cfg.max_rounds = 0;
        assert_eq!(
            ClusterSystem::try_build(access_link(&[50.0, 50.0]), cfg).unwrap_err(),
            crate::ConfigError::ZeroMaxRounds
        );
        let mut cfg = SystemConfig::new(cls.clone());
        cfg.ensemble_members = 0;
        assert_eq!(
            ClusterSystem::try_build(access_link(&[50.0, 50.0]), cfg).unwrap_err(),
            crate::ConfigError::ZeroEnsembleMembers
        );
        let mut cfg = SystemConfig::new(cls.clone());
        cfg.protocol.n_cut = 0;
        assert_eq!(
            ClusterSystem::try_build(access_link(&[50.0, 50.0]), cfg).unwrap_err(),
            crate::ConfigError::ZeroNCut
        );
        assert!(
            ClusterSystem::try_build(access_link(&[50.0, 50.0]), SystemConfig::new(cls)).is_ok()
        );
    }

    #[test]
    fn score_cluster_counts_wrong_pairs() {
        let s = sys(&[100.0, 100.0, 10.0], vec![50.0]);
        let (wrong, total) = s.score_cluster(&[n(0), n(1), n(2)], 50.0);
        assert_eq!(total, 3);
        assert_eq!(wrong, 2, "pairs (0,2) and (1,2) are below 50");
    }
}
