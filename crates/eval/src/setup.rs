//! Shared experiment plumbing: dataset selection and approach builders.

use bcc_core::{BandwidthClasses, ProtocolConfig};
use bcc_datasets::{generate, hp_config, umd_config, SynthConfig};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, EuclideanPoints, NodeId, RationalTransform};
use bcc_simnet::{DynamicSystem, SystemConfig};
use bcc_vivaldi::{VivaldiConfig, VivaldiSystem};
use serde::{Deserialize, Serialize};

/// Which dataset an experiment runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// The HP-PlanetLab stand-in (190 hosts, 15–75 Mbps band).
    Hp,
    /// The UMD-PlanetLab stand-in (317 hosts, 30–110 Mbps band).
    Umd,
    /// Any custom generator configuration (its `seed` field is overridden
    /// per experiment round).
    Custom(SynthConfig),
}

impl DatasetKind {
    /// Generates the dataset for one experiment round.
    pub fn generate(&self, seed: u64) -> BandwidthMatrix {
        match self {
            DatasetKind::Hp => generate(&hp_config(seed)),
            DatasetKind::Umd => generate(&umd_config(seed)),
            DatasetKind::Custom(cfg) => {
                let mut cfg = cfg.clone();
                cfg.seed = seed;
                generate(&cfg)
            }
        }
    }

    /// Display prefix used in result tables (`HP`, `UMD`, `CUSTOM`).
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Hp => "HP",
            DatasetKind::Umd => "UMD",
            DatasetKind::Custom(_) => "CUSTOM",
        }
    }

    /// The paper's query bandwidth range for this dataset.
    pub fn default_b_range(&self) -> (f64, f64) {
        match self {
            DatasetKind::Hp => (15.0, 75.0),
            DatasetKind::Umd => (30.0, 110.0),
            DatasetKind::Custom(_) => (5.0, 100.0),
        }
    }

    /// The paper's fixed `k` for the accuracy experiment (≈ 5% of nodes).
    pub fn default_k(&self) -> usize {
        match self {
            DatasetKind::Hp => 10,
            DatasetKind::Umd => 16,
            DatasetKind::Custom(cfg) => (cfg.nodes / 20).max(2),
        }
    }
}

/// Builds the served system (prediction framework + converged overlay)
/// for one round: every host joins in id order and the overlay converges
/// once.
pub fn build_tree_system(
    bandwidth: BandwidthMatrix,
    n_cut: usize,
    classes: BandwidthClasses,
    framework_seed: u64,
) -> DynamicSystem {
    let mut config = SystemConfig::new(classes);
    config.protocol = ProtocolConfig::new(n_cut, config.protocol.classes.clone());
    config.framework.seed = framework_seed;
    config.framework.base = bcc_embed::BaseStrategy::Random;
    let all_hosts: Vec<NodeId> = (0..bandwidth.len()).map(NodeId::new).collect();
    DynamicSystem::bootstrap(bandwidth, config, &all_hosts)
        .expect("every id is in the universe once and a tree overlay converges")
}

/// Builds the Vivaldi baseline embedding for one round.
pub fn build_vivaldi_points(
    real_distance: &DistanceMatrix,
    rounds: usize,
    seed: u64,
) -> EuclideanPoints {
    let cfg = VivaldiConfig {
        rounds,
        seed,
        ..VivaldiConfig::default()
    };
    VivaldiSystem::embed(real_distance.clone(), cfg)
}

/// The transform every experiment uses (`C = 100`, the paper's example
/// constant; WPR only depends on order so the choice is immaterial).
pub fn transform() -> RationalTransform {
    RationalTransform::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_kinds_generate() {
        let hp = DatasetKind::Hp.generate(1);
        assert_eq!(hp.len(), 190);
        let custom = DatasetKind::Custom(SynthConfig::small(0)).generate(2);
        assert_eq!(custom.len(), 40);
        assert_eq!(DatasetKind::Hp.label(), "HP");
        assert_eq!(DatasetKind::Umd.default_k(), 16);
        assert_eq!(DatasetKind::Hp.default_b_range(), (15.0, 75.0));
    }

    #[test]
    fn custom_seed_overridden_per_round() {
        let kind = DatasetKind::Custom(SynthConfig::small(7));
        assert_ne!(kind.generate(1), kind.generate(2));
        assert_eq!(kind.generate(3), kind.generate(3));
    }

    #[test]
    fn tree_system_builder_works() {
        let bw = DatasetKind::Custom(SynthConfig::small(3)).generate(3);
        let classes = BandwidthClasses::linspace(10.0, 80.0, 8, transform());
        let sys = build_tree_system(bw, 5, classes, 9);
        assert_eq!(sys.len(), 40);
        // Queries run end-to-end.
        let out = sys.query(NodeId::new(0), 2, 20.0).unwrap();
        let _ = out.found();
    }

    #[test]
    fn vivaldi_builder_works() {
        let bw = DatasetKind::Custom(SynthConfig::small(4)).generate(4);
        let d = transform().distance_matrix(&bw);
        let pts = build_vivaldi_points(&d, 30, 5);
        assert_eq!(bcc_metric::FiniteMetric::len(&pts), 40);
    }
}
