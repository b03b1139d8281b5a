//! Robustness experiment (not in the paper): query success under message
//! loss and host crashes.
//!
//! The paper evaluates a fault-free simulator. This experiment sweeps a
//! grid of (uniform message-loss rate × crashed-host fraction) scenarios
//! over the cycle engine with a seeded [`FaultPlan`]: the overlay warms up
//! under loss, a batch of hosts crash-stops mid-run, and failure-aware
//! queries ([`bcc_simnet::SimNetwork::query_resilient`]) are scored against
//! the *live ground truth* — what Algorithm 1 finds on the predicted metric
//! restricted to surviving hosts. Reported per cell:
//!
//! - **success rate** — satisfiable queries answered with a valid cluster,
//! - **mean dead hops** — the degradation the walk absorbed
//!   ([`bcc_core::Degradation`]),
//! - **re-convergence rounds** — gossip rounds until the survivors'
//!   protocol state settles again after the crash wave,
//! - **observed loss** — dropped / sent messages, as a sanity check that
//!   the injected rate actually materialized.
//!
//! Everything is deterministic per seed; the `robustness` binary in
//! `crates/bench` renders tables and figure-style JSON.

use bcc_core::{find_cluster, BandwidthClasses, ProtocolConfig, RetryPolicy, Unmetered};
use bcc_embed::{FrameworkConfig, PredictionFramework};
use bcc_metric::{DistanceMatrix, NodeId};
use bcc_simnet::{FaultPlan, SimNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{MeanAccumulator, RrAccumulator};
use crate::report::{Series, Table};
use crate::setup::{transform, DatasetKind};

/// Configuration of the robustness experiment.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Dataset the host subsets are drawn from.
    pub dataset: DatasetKind,
    /// Hosts per trial.
    pub size: usize,
    /// Uniform message-loss rates to sweep (x-axis).
    pub loss_rates: Vec<f64>,
    /// Fractions of hosts crash-stopped mid-run (one curve each).
    pub crash_fracs: Vec<f64>,
    /// Independent trials per grid cell.
    pub trials: usize,
    /// Gossip rounds before the crash wave hits.
    pub warmup_rounds: usize,
    /// Post-crash convergence cap (rounds).
    pub max_rounds: usize,
    /// Queries issued per trial (from random live hosts).
    pub queries_per_trial: usize,
    /// Cluster size constraint `k` for every query.
    pub k: usize,
    /// Close-node aggregation cap.
    pub n_cut: usize,
    /// Number of bandwidth classes.
    pub class_count: usize,
    /// Hop budget of the failure-aware queries.
    pub retry: RetryPolicy,
    /// Base RNG seed.
    pub seed: u64,
}

impl RobustnessConfig {
    /// Default sweep: UMD-like hosts, loss up to 50 %, crashes up to 20 %.
    pub fn standard() -> Self {
        RobustnessConfig {
            dataset: DatasetKind::Umd,
            size: 100,
            loss_rates: vec![0.0, 0.1, 0.3, 0.5],
            crash_fracs: vec![0.0, 0.05, 0.1, 0.2],
            trials: 3,
            warmup_rounds: 48,
            max_rounds: 512,
            queries_per_trial: 32,
            k: 8,
            n_cut: 10,
            class_count: 16,
            retry: RetryPolicy::default(),
            seed: 0xB0B,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn fast() -> Self {
        RobustnessConfig {
            dataset: DatasetKind::Custom(bcc_datasets::SynthConfig::small(5)),
            size: 24,
            loss_rates: vec![0.0, 0.3],
            crash_fracs: vec![0.0, 0.1],
            trials: 1,
            warmup_rounds: 24,
            max_rounds: 256,
            queries_per_trial: 8,
            k: 3,
            n_cut: 6,
            class_count: 8,
            retry: RetryPolicy::default(),
            seed: 77,
        }
    }
}

/// Aggregated measurements for one (loss, crash-fraction) grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessCell {
    /// Injected uniform message-loss rate.
    pub loss: f64,
    /// Fraction of hosts crash-stopped mid-run.
    pub crash_frac: f64,
    /// Queries issued.
    pub queries: u64,
    /// Queries whose live ground truth was satisfiable.
    pub satisfiable: u64,
    /// Satisfiable queries answered with a valid live cluster.
    pub succeeded: u64,
    /// Mean dead next-hops encountered per query.
    pub mean_dead_encountered: Option<f64>,
    /// Fraction of queries that observed stale CRT state.
    pub stale_rate: Option<f64>,
    /// Mean gossip rounds for survivors to re-converge after the crash
    /// wave (`max_rounds` when a trial never settled).
    pub mean_reconvergence_rounds: Option<f64>,
    /// Dropped / sent messages actually observed.
    pub observed_loss: Option<f64>,
}

impl RobustnessCell {
    /// Satisfiable-query success rate, or `None` when nothing was
    /// satisfiable in this cell.
    pub fn success_rate(&self) -> Option<f64> {
        if self.satisfiable == 0 {
            None
        } else {
            Some(self.succeeded as f64 / self.satisfiable as f64)
        }
    }
}

/// Result of the robustness sweep, one cell per grid point.
#[derive(Debug, Clone)]
pub struct RobustnessResult {
    /// Swept loss rates (x-axis of every table).
    pub loss_rates: Vec<f64>,
    /// Swept crash fractions (one series each).
    pub crash_fracs: Vec<f64>,
    /// Cluster size constraint used by every query.
    pub k: usize,
    /// Grid cells in `crash_fracs`-major, `loss_rates`-minor order.
    pub cells: Vec<RobustnessCell>,
}

#[derive(Default, Clone)]
struct CellAccum {
    success: RrAccumulator,
    all_queries: u64,
    dead: MeanAccumulator,
    stale: RrAccumulator,
    reconv: MeanAccumulator,
    observed_loss: MeanAccumulator,
}

/// Runs the sweep, the flattened (cell, trial) grid parallelized on the
/// `bcc-par` pool and merged in task order (deterministic for any thread
/// count).
pub fn run_robustness(cfg: &RobustnessConfig) -> RobustnessResult {
    let n_cells = cfg.loss_rates.len() * cfg.crash_fracs.len();

    let trials = bcc_par::par_map(n_cells * cfg.trials, |task| {
        let (cell, trial) = (task / cfg.trials, task % cfg.trials);
        let (ci, li) = (cell / cfg.loss_rates.len(), cell % cfg.loss_rates.len());
        let crash_frac = cfg.crash_fracs[ci];
        let loss = cfg.loss_rates[li];
        let seed = cfg
            .seed
            .wrapping_add(cell as u64 * 0x51_7CC1)
            .wrapping_add(trial as u64 * 0x9E37_79B9);
        run_trial(cfg, loss, crash_frac, seed)
    });

    let mut m: Vec<CellAccum> = vec![CellAccum::default(); n_cells];
    for (task, stats) in trials.into_iter().enumerate() {
        let acc = &mut m[task / cfg.trials];
        acc.success.merge(stats.success);
        acc.all_queries += stats.all_queries;
        acc.dead.merge(stats.dead);
        acc.stale.merge(stats.stale);
        acc.reconv.merge(stats.reconv);
        acc.observed_loss.merge(stats.observed_loss);
    }
    let mut cells = Vec::with_capacity(n_cells);
    for (ci, &crash_frac) in cfg.crash_fracs.iter().enumerate() {
        for (li, &loss) in cfg.loss_rates.iter().enumerate() {
            let acc = &m[ci * cfg.loss_rates.len() + li];
            cells.push(RobustnessCell {
                loss,
                crash_frac,
                queries: acc.all_queries,
                satisfiable: acc.success.queries(),
                succeeded: acc.success.found(),
                mean_dead_encountered: acc.dead.mean(),
                stale_rate: acc.stale.rate(),
                mean_reconvergence_rounds: acc.reconv.mean(),
                observed_loss: acc.observed_loss.mean(),
            });
        }
    }
    RobustnessResult {
        loss_rates: cfg.loss_rates.clone(),
        crash_fracs: cfg.crash_fracs.clone(),
        k: cfg.k,
        cells,
    }
}

struct TrialStats {
    success: RrAccumulator,
    all_queries: u64,
    dead: MeanAccumulator,
    stale: RrAccumulator,
    reconv: MeanAccumulator,
    observed_loss: MeanAccumulator,
}

fn run_trial(cfg: &RobustnessConfig, loss: f64, crash_frac: f64, seed: u64) -> TrialStats {
    let t = transform();
    let full = cfg.dataset.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let bw = bcc_datasets::random_subset(&full, cfg.size.min(full.len()), &mut rng);
    let n = bw.len();
    let d = t.distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let predicted = fw.predicted_matrix();
    let (b_lo, b_hi) = cfg.dataset.default_b_range();
    let classes = BandwidthClasses::linspace(b_lo, b_hi, cfg.class_count, t);
    let proto = ProtocolConfig::new(cfg.n_cut, classes.clone());

    let mut net = SimNetwork::new(fw.anchor(), predicted.clone(), proto);
    let plan = FaultPlan::new(seed)
        .uniform_loss(0.0, loss, None)
        .random_crashes(cfg.warmup_rounds as f64, n, crash_frac);
    net.inject_faults(&plan);

    // Warm up under loss, let the crash wave hit, then measure how long
    // the survivors take to settle again.
    for _ in 0..cfg.warmup_rounds {
        net.run_round();
    }
    let mut stats = TrialStats {
        success: RrAccumulator::new(),
        all_queries: 0,
        dead: MeanAccumulator::new(),
        stale: RrAccumulator::new(),
        reconv: MeanAccumulator::new(),
        observed_loss: MeanAccumulator::new(),
    };
    let reconv = net
        .run_to_convergence(cfg.max_rounds)
        .unwrap_or(cfg.max_rounds);
    stats.reconv.record(reconv as f64);

    let live: Vec<usize> = (0..n).filter(|&i| !net.is_down(NodeId::new(i))).collect();
    if live.len() < 2 {
        return stats;
    }

    for _ in 0..cfg.queries_per_trial {
        let b = rng.gen_range(b_lo..=b_hi);
        let start = NodeId::new(live[rng.gen_range(0..live.len())]);
        let class_idx = classes.snap_up(b).expect("b within class range");
        let l = classes.distance_of(class_idx);
        // Live ground truth: Algorithm 1 over the predicted metric
        // restricted to surviving hosts.
        let sub = DistanceMatrix::from_fn(live.len(), |a, c| predicted.get(live[a], live[c]));
        let satisfiable = find_cluster(&sub, cfg.k, l).is_some();

        let out = net
            .query_resilient(start, cfg.k, b, &cfg.retry, &mut Unmetered)
            .expect("live start and valid query")
            .into_value();
        stats.all_queries += 1;
        stats.dead.record(out.degradation.dead_encountered as f64);
        stats.stale.record(out.degradation.stale_state);
        if satisfiable {
            let valid = out
                .cluster
                .as_ref()
                .is_some_and(|c| c.len() == cfg.k && c.iter().all(|m| !net.is_down(*m)));
            stats.success.record(valid);
        }
    }

    let traffic = net.traffic();
    if traffic.messages > 0 {
        stats
            .observed_loss
            .record(traffic.dropped as f64 / traffic.messages as f64);
    }
    stats
}

impl RobustnessResult {
    fn cell(&self, ci: usize, li: usize) -> &RobustnessCell {
        &self.cells[ci * self.loss_rates.len() + li]
    }

    fn series_over_loss(&self, value: impl Fn(&RobustnessCell) -> Option<f64>) -> Vec<Series> {
        self.crash_fracs
            .iter()
            .enumerate()
            .map(|(ci, &frac)| {
                Series::new(
                    format!("CRASH={:.0}%", frac * 100.0),
                    (0..self.loss_rates.len())
                        .map(|li| value(self.cell(ci, li)))
                        .collect(),
                )
            })
            .collect()
    }

    /// Renders the figure-style tables: success rate and re-convergence
    /// cost, each vs loss rate with one curve per crash fraction.
    pub fn tables(&self) -> Vec<Table> {
        vec![
            Table::new(
                format!(
                    "Robustness — satisfiable-query success rate vs loss (k = {})",
                    self.k
                ),
                "loss rate",
                self.loss_rates.clone(),
                self.series_over_loss(|c| c.success_rate()),
            ),
            Table::new(
                "Robustness — re-convergence rounds after crash wave vs loss",
                "loss rate",
                self.loss_rates.clone(),
                self.series_over_loss(|c| c.mean_reconvergence_rounds),
            ),
        ]
    }

    /// Serializes the full grid as figure-style JSON (hand-rolled: the
    /// vendored serde stack has no serializer).
    pub fn to_json(&self) -> String {
        fn num(v: Option<f64>) -> String {
            match v {
                Some(x) if x.is_finite() => format!("{x:.6}"),
                _ => "null".to_string(),
            }
        }
        let mut out = String::from("{\n  \"experiment\": \"robustness\",\n");
        out.push_str(&format!("  \"k\": {},\n", self.k));
        let join = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "  \"loss_rates\": [{}],\n",
            join(&self.loss_rates)
        ));
        out.push_str(&format!(
            "  \"crash_fracs\": [{}],\n",
            join(&self.crash_fracs)
        ));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"loss\": {}, \"crash_frac\": {}, \"queries\": {}, \
                 \"satisfiable\": {}, \"succeeded\": {}, \"success_rate\": {}, \
                 \"mean_dead_encountered\": {}, \
                 \"stale_rate\": {}, \"mean_reconvergence_rounds\": {}, \
                 \"observed_loss\": {}}}{}\n",
                c.loss,
                c.crash_frac,
                c.queries,
                c.satisfiable,
                c.succeeded,
                num(c.success_rate()),
                num(c.mean_dead_encountered),
                num(c.stale_rate),
                num(c.mean_reconvergence_rounds),
                num(c.observed_loss),
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_the_fast_grid() {
        let r = run_robustness(&RobustnessConfig::fast());
        assert_eq!(r.cells.len(), 4);
        // The fault-free cell answers every satisfiable query.
        let clean = r.cell(0, 0);
        assert_eq!(clean.loss, 0.0);
        assert_eq!(clean.crash_frac, 0.0);
        assert!(clean.satisfiable > 0, "some queries must be satisfiable");
        assert_eq!(clean.success_rate(), Some(1.0));
        assert_eq!(clean.mean_dead_encountered, Some(0.0));
        // The lossy cell actually observed loss near the injected rate.
        let lossy = r.cell(0, 1);
        let obs = lossy.observed_loss.unwrap();
        assert!((0.15..0.45).contains(&obs), "≈30 % loss, got {obs}");
        // The crashy cell reports the degradation machinery at work.
        let crashy = r.cell(1, 1);
        assert!(crashy.queries > 0);
    }

    #[test]
    fn deterministic() {
        let a = run_robustness(&RobustnessConfig::fast());
        let b = run_robustness(&RobustnessConfig::fast());
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn renders_tables_and_json() {
        let r = run_robustness(&RobustnessConfig::fast());
        let tables = r.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].render().contains("CRASH=10%"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"robustness\""));
        assert!(json.contains("\"success_rate\""));
        // Crude structural sanity: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
