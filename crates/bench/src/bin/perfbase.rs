//! `perfbase` — the pair-sweep-vs-indexed baseline for the clustering hot
//! paths, checked in as `BENCH_clustering.json` so perf regressions show up
//! as a diff.
//!
//! ```sh
//! cargo run --release -p bcc-bench --bin perfbase
//! cargo run --release -p bcc-bench --bin perfbase -- --smoke
//! cargo run --release -p bcc-bench --bin perfbase -- --smoke --stable --json run.json
//! cargo run --release -p bcc-bench --bin perfbase -- --large 8192 --probe-budget-ms 60000
//! ```
//!
//! Seeded workloads over the synthetic dataset family:
//!
//! - Algorithm 1 (`find_cluster`) with a satisfiable query (early exit) and
//!   an unsatisfiable one (`k = n`, forces the full `O(n³)` scan), plus
//!   `max_cluster_size`, at n ∈ {128, 256, 512, 1024} — each as the
//!   pair-sweep kernel *and* the `ClusterIndex` range-scan kernel;
//! - an indexed-only probe at `--large N` (default 8192 in full mode),
//!   where the pair sweep is no longer affordable;
//! - the exact `O(n⁴)` treeness statistics at n = 128.
//!
//! Every kernel is serial (the only parallelism is per run, in the figure
//! harness), so each row carries one wall time. Indexed rows also record
//! `sweep_ms`/`gain` — the pair-sweep time at the same n and the resulting
//! indexed speedup — and the binary asserts the indexed result equals the
//! pair-sweep oracle bit-for-bit (at n ≤ 1024).
//!
//! `--stable` zeroes every wall-time field after the identity checks so
//! two runs emit byte-identical JSON (the CI determinism gate).
//! `--probe-budget-ms M` asserts each large-n indexed probe finished
//! within M ms (the CI time-budget gate).

use std::time::Instant;

use bcc_core::{
    find_cluster, find_cluster_indexed, max_cluster_size, max_cluster_size_indexed, ClusterIndex,
};
use bcc_datasets::{generate, SynthConfig};
use bcc_metric::fourpoint::{epsilon_avg_exact, epsilon_max_exact, satisfies_four_point};
use bcc_metric::gromov::delta_hyperbolicity_exact;
use bcc_metric::{DistanceMatrix, RationalTransform};

const SEED: u64 = 123;

fn dataset(n: usize) -> DistanceMatrix {
    let mut cfg = SynthConfig::small(SEED);
    cfg.nodes = n;
    RationalTransform::default().distance_matrix(&generate(&cfg))
}

/// One measured kernel: serial wall time, an agreement flag (for indexed
/// kernels at oracle-affordable n, bit-identical to the pair-sweep oracle),
/// and the oracle's own wall time when measured.
struct Entry {
    kernel: String,
    n: usize,
    serial_ms: f64,
    identical: bool,
    sweep_ms: Option<f64>,
}

impl Entry {
    /// Pair-sweep serial time / indexed serial time, when the sweep ran.
    fn gain(&self) -> Option<f64> {
        let sweep = self.sweep_ms?;
        if self.serial_ms > 0.0 {
            Some(sweep / self.serial_ms)
        } else {
            Some(0.0)
        }
    }

    fn zero_times(&mut self) {
        self.serial_ms = 0.0;
        if self.sweep_ms.is_some() {
            self.sweep_ms = Some(0.0);
        }
    }
}

/// Best-of-`reps` wall time in milliseconds, plus the last result.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

/// Measures a serial `kernel` (best-of-`reps`), checking its result against
/// a pre-measured pair-sweep oracle `(ms, value)` when given.
fn measure<T: PartialEq>(
    kernel: &str,
    n: usize,
    reps: usize,
    serial: impl FnMut() -> T,
    oracle: Option<(f64, T)>,
) -> Entry {
    let (serial_ms, s) = time(reps, serial);
    let (sweep_ms, identical) = match oracle {
        Some((ms, value)) => (Some(ms), value == s),
        None => (None, true),
    };
    Entry {
        kernel: kernel.to_string(),
        n,
        serial_ms,
        identical,
        sweep_ms,
    }
}

fn to_json(entries: &[Entry], smoke: bool, stable: bool) -> String {
    let mut out = String::from("{\n  \"bench\": \"perfbase\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"stable\": {stable},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sweep = match (e.sweep_ms, e.gain()) {
            (Some(ms), Some(gain)) => {
                format!(", \"sweep_ms\": {ms:.3}, \"gain\": {gain:.3}")
            }
            _ => String::new(),
        };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"serial_ms\": {:.3}, \
             \"identical\": {}{}}}{}\n",
            e.kernel,
            e.n,
            e.serial_ms,
            e.identical,
            sweep,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = bcc_bench::BenchArgs::from_env();
    args.expect_known(
        &["--smoke", "--stable"],
        &["--json", "--large", "--probe-budget-ms"],
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let smoke = args.flag("--smoke");
    let stable = args.flag("--stable");
    let json_path = args
        .value("--json")
        .unwrap_or("BENCH_clustering.json")
        .to_string();
    let large: usize = args
        .parsed_or("--large", if smoke { 0 } else { 8192 })
        .unwrap_or_else(|e| panic!("{e}"));
    let probe_budget_ms: f64 = args
        .parsed_or("--probe-budget-ms", 0.0)
        .unwrap_or_else(|e| panic!("{e}"));

    let (sizes, treeness_n, reps): (&[usize], usize, usize) = if smoke {
        (&[64, 128], 48, 1)
    } else {
        (&[128, 256, 512, 1024], 128, 3)
    };

    println!("=== perfbase — pair-sweep vs indexed clustering kernels ===");
    println!("smoke = {smoke}, stable = {stable}, reps = {reps} (best-of), large = {large}",);
    println!();

    let t = RationalTransform::default();
    let mut entries: Vec<Entry> = Vec::new();

    for &n in sizes {
        let d = dataset(n);
        let k_sat = (n / 20).max(2);
        let l_sat = t.distance_constraint(20.0);
        let l_unsat = t.distance_constraint(30.0);

        // Pair-sweep kernels: satisfiable (early exit), unsatisfiable
        // (k = n, the full O(n³) scan), and the maximization variant.
        let sat = measure(
            "find_cluster_sat",
            n,
            reps,
            || find_cluster(&d, k_sat, l_sat),
            None,
        );
        let unsat = measure(
            "find_cluster_unsat",
            n,
            reps,
            || find_cluster(&d, n, l_unsat),
            None,
        );
        let mcs = measure(
            "max_cluster_size",
            n,
            reps,
            || max_cluster_size(&d, l_unsat),
            None,
        );
        let (sat_sweep, unsat_sweep, mcs_sweep) = (sat.serial_ms, unsat.serial_ms, mcs.serial_ms);
        entries.extend([sat, unsat, mcs]);

        // The indexed kernels answer the same probes from sorted
        // distance labels. Build once, probe many.
        let (build_ms, index) = time(reps, || ClusterIndex::from_metric(&d));
        entries.push(Entry {
            kernel: "index_build".to_string(),
            n,
            serial_ms: build_ms,
            identical: index.digest() == ClusterIndex::from_metric(&d).digest(),
            sweep_ms: None,
        });
        entries.push(measure(
            "find_cluster_sat_indexed",
            n,
            reps,
            || find_cluster_indexed(&d, &index, k_sat, l_sat),
            Some((sat_sweep, find_cluster(&d, k_sat, l_sat))),
        ));
        entries.push(measure(
            "find_cluster_unsat_indexed",
            n,
            reps,
            || find_cluster_indexed(&d, &index, n, l_unsat),
            Some((unsat_sweep, find_cluster(&d, n, l_unsat))),
        ));
        entries.push(measure(
            "max_cluster_size_indexed",
            n,
            reps,
            || max_cluster_size_indexed(&d, &index, l_unsat),
            Some((mcs_sweep, max_cluster_size(&d, l_unsat))),
        ));
    }

    // Indexed-only probes beyond the pair-sweep horizon: no oracle, wall
    // time only (the `--probe-budget-ms` gate).
    let mut large_probe_ms: Vec<(String, f64)> = Vec::new();
    if large > 0 {
        let d = dataset(large);
        let k_sat = (large / 20).max(2);
        let l_sat = t.distance_constraint(20.0);
        let l_unsat = t.distance_constraint(30.0);
        let (build_ms, index) = time(1, || ClusterIndex::from_metric(&d));
        entries.push(Entry {
            kernel: "index_build".to_string(),
            n: large,
            serial_ms: build_ms,
            identical: true,
            sweep_ms: None,
        });
        for entry in [
            measure(
                "find_cluster_sat_indexed",
                large,
                1,
                || find_cluster_indexed(&d, &index, k_sat, l_sat),
                None,
            ),
            measure(
                "find_cluster_unsat_indexed",
                large,
                1,
                || find_cluster_indexed(&d, &index, large, l_unsat),
                None,
            ),
            measure(
                "max_cluster_size_indexed",
                large,
                1,
                || max_cluster_size_indexed(&d, &index, l_unsat),
                None,
            ),
        ] {
            large_probe_ms.push((entry.kernel.clone(), entry.serial_ms));
            entries.push(entry);
        }
    }

    // Exact O(n⁴) treeness statistics, one serial scan each.
    let d = dataset(treeness_n);
    entries.extend([
        measure(
            "epsilon_avg_exact",
            treeness_n,
            reps,
            || epsilon_avg_exact(&d),
            None,
        ),
        measure(
            "epsilon_max_exact",
            treeness_n,
            reps,
            || epsilon_max_exact(&d),
            None,
        ),
        measure(
            "delta_hyperbolicity",
            treeness_n,
            reps,
            || delta_hyperbolicity_exact(&d),
            None,
        ),
        // Huge tolerance: no quartet violates, so the scan cannot early-exit.
        measure(
            "satisfies_four_point",
            treeness_n,
            reps,
            || satisfies_four_point(&d, 1e9),
            None,
        ),
    ]);

    println!(
        "{:<28} {:>6} {:>12} {:>9} {:>10}",
        "kernel", "n", "serial (ms)", "gain", "identical"
    );
    let mut all_identical = true;
    for e in &entries {
        all_identical &= e.identical;
        let gain = e
            .gain()
            .map(|g| format!("{g:>8.2}x"))
            .unwrap_or_else(|| format!("{:>9}", "-"));
        println!(
            "{:<28} {:>6} {:>12.3} {gain} {:>10}",
            e.kernel, e.n, e.serial_ms, e.identical
        );
    }
    println!();

    // Perf gate — only meaningful on a timed run: past the smallest sizes
    // the index must beat the pair sweep by an order of magnitude on the
    // probes it exists for (the checked-in gains are 1844–87546).
    if !stable {
        for e in entries.iter().filter(|e| {
            e.n >= 256
                && ["find_cluster_unsat_indexed", "max_cluster_size_indexed"]
                    .contains(&e.kernel.as_str())
        }) {
            if let Some(gain) = e.gain() {
                assert!(
                    gain >= 10.0,
                    "{} n={} gain {gain:.2}x < 10x over the pair sweep",
                    e.kernel,
                    e.n
                );
            }
        }
    }
    if probe_budget_ms > 0.0 {
        for (kernel, ms) in &large_probe_ms {
            assert!(
                *ms <= probe_budget_ms,
                "{kernel} n={large} took {ms:.1} ms > budget {probe_budget_ms:.1} ms"
            );
        }
    }

    if stable {
        for e in &mut entries {
            e.zero_times();
        }
    }
    let json = to_json(&entries, smoke, stable);
    if json_path == "-" {
        println!("{json}");
    } else {
        std::fs::write(&json_path, json).expect("write JSON output");
        println!("wrote {json_path}");
    }

    assert!(
        all_identical,
        "an indexed kernel diverged from the pair sweep"
    );
}
