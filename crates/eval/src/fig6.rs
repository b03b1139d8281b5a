//! Fig. 6 — scalability: mean query routing hops vs system size.
//!
//! Random subsets of the UMD stand-in at several sizes; queries with `k`
//! proportional to `n`. The paper reports ~2–3 hops on average, growing
//! slowly and concavely with `n`.

use bcc_core::BandwidthClasses;
use bcc_metric::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bcc_datasets::random_subset;

use crate::metrics::{MeanAccumulator, RrAccumulator};
use crate::report::{Series, Table};
use crate::setup::{build_tree_system, transform, DatasetKind};

/// Configuration of the scalability experiment.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Dataset the subsets are drawn from.
    pub dataset: DatasetKind,
    /// System sizes to evaluate.
    pub sizes: Vec<usize>,
    /// Random subsets per size.
    pub subsets_per_size: usize,
    /// Frameworks (rounds) per subset.
    pub rounds_per_subset: usize,
    /// Queries per round.
    pub queries_per_round: usize,
    /// `k` is uniform in `[k_frac.0 × n, k_frac.1 × n]`.
    pub k_frac: (f64, f64),
    /// Bandwidth-constraint range (uniform).
    pub b_range: (f64, f64),
    /// Close-node aggregation cap.
    pub n_cut: usize,
    /// Number of bandwidth classes covering `b_range`.
    pub class_count: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Fig6Config {
    /// The paper's parameters: n ∈ {50…300} (10 subsets each), 1000
    /// queries × 10 rounds, k ∈ [0.05 n, 0.30 n], b ∈ [30, 110].
    pub fn paper() -> Self {
        Fig6Config {
            dataset: DatasetKind::Umd,
            sizes: vec![50, 100, 150, 200, 250, 300],
            subsets_per_size: 10,
            rounds_per_subset: 10,
            queries_per_round: 100,
            k_frac: (0.05, 0.30),
            b_range: (30.0, 110.0),
            n_cut: 10,
            class_count: 16,
            seed: 6,
        }
    }

    /// A scaled-down configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Fig6Config {
            dataset: DatasetKind::Custom(bcc_datasets::SynthConfig::small(1)),
            sizes: vec![15, 30],
            subsets_per_size: 2,
            rounds_per_subset: 1,
            queries_per_round: 30,
            k_frac: (0.05, 0.30),
            b_range: (10.0, 60.0),
            n_cut: 5,
            class_count: 6,
            seed: 8,
        }
    }
}

/// Result: hop statistics per system size.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// System sizes.
    pub sizes: Vec<usize>,
    /// Mean routing hops per size (all queries).
    pub mean_hops: Vec<Option<f64>>,
    /// Mean routing hops per size over *found* queries only.
    pub mean_hops_found: Vec<Option<f64>>,
    /// Return rate per size.
    pub rr: Vec<Option<f64>>,
    /// Mean gossip bytes per host to converge one framework — the
    /// construction-cost side of scalability.
    pub gossip_bytes_per_host: Vec<Option<f64>>,
}

/// Runs the experiment, the flattened (size, subset) grid parallelized on
/// the `bcc-par` pool and merged in task order (deterministic for any
/// thread count).
pub fn run_fig6(cfg: &Fig6Config) -> Fig6Result {
    assert!(!cfg.sizes.is_empty(), "need at least one size");
    let t = transform();

    type Slot = (
        MeanAccumulator,
        MeanAccumulator,
        RrAccumulator,
        MeanAccumulator,
    );

    let n_tasks = cfg.sizes.len() * cfg.subsets_per_size;
    let locals = bcc_par::par_map(n_tasks, |task| {
        let (si, subset_idx) = (task / cfg.subsets_per_size, task % cfg.subsets_per_size);
        let n = cfg.sizes[si];
        let subset_seed = cfg
            .seed
            .wrapping_add(si as u64 * 0x1234_5678)
            .wrapping_add(subset_idx as u64 * 0x9E37_79B9);
        let mut rng = StdRng::seed_from_u64(subset_seed);
        let full = cfg.dataset.generate(subset_seed);
        assert!(n <= full.len(), "subset larger than dataset");
        let bw = random_subset(&full, n, &mut rng);

        let mut local: Slot = Default::default();
        for round in 0..cfg.rounds_per_subset {
            let classes =
                BandwidthClasses::linspace(cfg.b_range.0, cfg.b_range.1, cfg.class_count, t);
            let system = build_tree_system(
                bw.clone(),
                cfg.n_cut,
                classes,
                subset_seed ^ (round as u64 + 1),
            );
            local
                .3
                .record(system.network().expect("bootstrapped").traffic().bytes as f64 / n as f64);
            for _ in 0..cfg.queries_per_round {
                let k_lo = ((cfg.k_frac.0 * n as f64).round() as usize).max(2);
                let k_hi = ((cfg.k_frac.1 * n as f64).round() as usize).max(k_lo);
                let k = rng.gen_range(k_lo..=k_hi);
                let b = rng.gen_range(cfg.b_range.0..=cfg.b_range.1);
                let start = NodeId::new(rng.gen_range(0..n));
                let out = system.query(start, k, b).expect("valid query");
                local.0.record(out.hops as f64);
                if out.found() {
                    local.1.record(out.hops as f64);
                }
                local.2.record(out.found());
            }
        }
        local
    });

    let mut m: Vec<Slot> = vec![Default::default(); cfg.sizes.len()];
    for (task, local) in locals.into_iter().enumerate() {
        let si = task / cfg.subsets_per_size;
        m[si].0.merge(local.0);
        m[si].1.merge(local.1);
        m[si].2.merge(local.2);
        m[si].3.merge(local.3);
    }
    Fig6Result {
        sizes: cfg.sizes.clone(),
        mean_hops: m.iter().map(|s| s.0.mean()).collect(),
        mean_hops_found: m.iter().map(|s| s.1.mean()).collect(),
        rr: m.iter().map(|s| s.2.rate()).collect(),
        gossip_bytes_per_host: m.iter().map(|s| s.3.mean()).collect(),
    }
}

impl Fig6Result {
    /// Renders the paper panel (mean hops vs `n`).
    pub fn table(&self) -> Table {
        Table::new(
            "Fig. 6 — mean query routing hops vs system size",
            "n (nodes)",
            self.sizes.iter().map(|&n| n as f64).collect(),
            vec![
                Series::new("HOPS-ALL", self.mean_hops.clone()),
                Series::new("HOPS-FOUND", self.mean_hops_found.clone()),
                Series::new("RR", self.rr.clone()),
                Series::new("GOSSIP-B/HOST", self.gossip_bytes_per_host.clone()),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_reports_small_hop_counts() {
        let r = run_fig6(&Fig6Config::fast());
        assert_eq!(r.sizes, vec![15, 30]);
        for h in r.mean_hops.iter().flatten() {
            assert!((0.0..=10.0).contains(h), "hops {h} out of plausible range");
        }
        // Some queries must have been answered.
        assert!(r.rr.iter().flatten().any(|&rr| rr > 0.0));
    }

    #[test]
    fn table_renders() {
        let r = run_fig6(&Fig6Config::fast());
        let s = r.table().render();
        assert!(s.contains("HOPS-ALL"));
    }

    #[test]
    fn deterministic() {
        let a = run_fig6(&Fig6Config::fast());
        let b = run_fig6(&Fig6Config::fast());
        assert_eq!(a.mean_hops, b.mean_hops);
    }
}
