//! Extension experiment (not in the paper): construction and convergence
//! cost of the decentralized state, synchronous and asynchronous.
//!
//! The paper argues scalability from query hop counts (Fig. 6); this
//! experiment quantifies the *background* cost the protocol pays first —
//! gossip rounds / simulated seconds to convergence and bytes per host —
//! as the system grows, under both engines.

use bcc_core::{BandwidthClasses, ProtocolConfig};
use bcc_embed::{FrameworkConfig, PredictionFramework};
use bcc_simnet::{AsyncConfig, AsyncNetwork, SimNetwork};

use crate::metrics::MeanAccumulator;
use crate::report::{Series, Table};
use crate::setup::{transform, DatasetKind};

/// Configuration of the convergence-cost experiment.
#[derive(Debug, Clone)]
pub struct ConvergenceConfig {
    /// Dataset the subsets are drawn from.
    pub dataset: DatasetKind,
    /// System sizes to evaluate.
    pub sizes: Vec<usize>,
    /// Frameworks per size.
    pub rounds: usize,
    /// Close-node aggregation cap.
    pub n_cut: usize,
    /// Number of bandwidth classes.
    pub class_count: usize,
    /// Async gossip period (seconds).
    pub gossip_period: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ConvergenceConfig {
    /// Default extension parameters.
    pub fn standard() -> Self {
        ConvergenceConfig {
            dataset: DatasetKind::Umd,
            sizes: vec![50, 100, 200, 300],
            rounds: 3,
            n_cut: 10,
            class_count: 16,
            gossip_period: 1.0,
            seed: 17,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn fast() -> Self {
        ConvergenceConfig {
            dataset: DatasetKind::Custom(bcc_datasets::SynthConfig::small(2)),
            sizes: vec![12, 24],
            rounds: 1,
            n_cut: 5,
            class_count: 6,
            gossip_period: 1.0,
            seed: 18,
        }
    }
}

/// Result of the convergence-cost experiment.
#[derive(Debug, Clone)]
pub struct ConvergenceResult {
    /// System sizes.
    pub sizes: Vec<usize>,
    /// Mean synchronous rounds to convergence.
    pub sync_rounds: Vec<Option<f64>>,
    /// Mean gossip bytes per host (synchronous engine).
    pub sync_bytes_per_host: Vec<Option<f64>>,
    /// Mean simulated seconds to convergence (asynchronous engine).
    pub async_seconds: Vec<Option<f64>>,
    /// Mean delivered messages per host (asynchronous engine).
    pub async_msgs_per_host: Vec<Option<f64>>,
}

/// Runs the experiment, the flattened (size, round) grid parallelized on
/// the `bcc-par` pool and merged in task order (deterministic for any
/// thread count).
pub fn run_convergence(cfg: &ConvergenceConfig) -> ConvergenceResult {
    let t = transform();
    type Slot = (
        MeanAccumulator,
        MeanAccumulator,
        MeanAccumulator,
        MeanAccumulator,
    );

    let n_tasks = cfg.sizes.len() * cfg.rounds;
    let locals = bcc_par::par_map(n_tasks, |task| {
        let (si, round) = (task / cfg.rounds, task % cfg.rounds);
        let n = cfg.sizes[si];
        let seed = cfg
            .seed
            .wrapping_add(si as u64 * 0x51_7CC1)
            .wrapping_add(round as u64 * 0x9E37_79B9);
        let full = cfg.dataset.generate(seed);
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let bw = bcc_datasets::random_subset(&full, n.min(full.len()), &mut rng);
        let d = t.distance_matrix(&bw);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let classes = BandwidthClasses::linspace(10.0, 120.0, cfg.class_count, t);
        let proto = ProtocolConfig::new(cfg.n_cut, classes);

        // Synchronous engine.
        let mut sync = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto.clone());
        let rounds = sync.run_to_convergence(1000).expect("sync converges") as f64;
        let bytes_per_host = sync.traffic().bytes as f64 / n as f64;

        // Asynchronous engine.
        let mut acfg = AsyncConfig::new(proto);
        acfg.gossip_period = cfg.gossip_period;
        acfg.seed = seed ^ 0xA5;
        let mut asynch = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), acfg);
        let secs = asynch.run_to_quiescence(10_000.0).expect("async converges");
        let msgs_per_host = asynch.delivered() as f64 / n as f64;

        (rounds, bytes_per_host, secs, msgs_per_host)
    });

    let mut m: Vec<Slot> = vec![Default::default(); cfg.sizes.len()];
    for (task, (rounds, bytes_per_host, secs, msgs_per_host)) in locals.into_iter().enumerate() {
        let si = task / cfg.rounds;
        m[si].0.record(rounds);
        m[si].1.record(bytes_per_host);
        m[si].2.record(secs);
        m[si].3.record(msgs_per_host);
    }
    ConvergenceResult {
        sizes: cfg.sizes.clone(),
        sync_rounds: m.iter().map(|s| s.0.mean()).collect(),
        sync_bytes_per_host: m.iter().map(|s| s.1.mean()).collect(),
        async_seconds: m.iter().map(|s| s.2.mean()).collect(),
        async_msgs_per_host: m.iter().map(|s| s.3.mean()).collect(),
    }
}

impl ConvergenceResult {
    /// Renders the extension table.
    pub fn table(&self) -> Table {
        Table::new(
            "Extension — convergence cost vs system size (sync + async engines)",
            "n (nodes)",
            self.sizes.iter().map(|&n| n as f64).collect(),
            vec![
                Series::new("SYNC-ROUNDS", self.sync_rounds.clone()),
                Series::new("SYNC-B/HOST", self.sync_bytes_per_host.clone()),
                Series::new("ASYNC-SECS", self.async_seconds.clone()),
                Series::new("ASYNC-MSG/HOST", self.async_msgs_per_host.clone()),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_scales() {
        let r = run_convergence(&ConvergenceConfig::fast());
        assert_eq!(r.sizes, vec![12, 24]);
        for v in r.sync_rounds.iter().chain(&r.async_seconds) {
            assert!(v.unwrap() > 0.0);
        }
        // Bytes per host grow sublinearly-ish but must be positive.
        assert!(r.sync_bytes_per_host.iter().all(|v| v.unwrap() > 0.0));
        let s = r.table().render();
        assert!(s.contains("ASYNC-SECS"));
    }

    #[test]
    fn deterministic() {
        let a = run_convergence(&ConvergenceConfig::fast());
        let b = run_convergence(&ConvergenceConfig::fast());
        assert_eq!(a.sync_rounds, b.sync_rounds);
        assert_eq!(a.async_msgs_per_host, b.async_msgs_per_host);
    }
}
