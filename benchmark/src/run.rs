//! One benchmark run: set-up, warm-up, measured passes, output checks.

use std::time::Instant;

use crate::gen::{self, Generator, Spec, Stack, REFERENCE_SECONDS};
use crate::metrics::{self, TraceData, END_TO_END, PER_LAYER};
use crate::pass::{run_pass, Checker, Pass};
use crate::routed::Routed;
use crate::sharded::Sharded;
use crate::spans::{aggregate, is_reference, is_root, Tracer};
use crate::stats::{median, sort, tail_percentile};
use crate::target::{Counters, Target};

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Measured passes per end-to-end run.
const PASSES: usize = 3;

/// Where traced runs write their spans, relative to the working directory
/// (the repository root).
const TRACE_DIR: &str = "benchmark/out";

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a run produced.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub answers_digest: u64,
    /// Human-readable remarks: sample counts behind percentiles, failures,
    /// the self-time ranking of a traced run.
    pub notes: Vec<String>,
}

/// Worker threads for `bcc-par`: the container has two cores, and a run
/// must not change character on a bigger machine.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload `opts` names.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = gen::specs()
        .into_iter()
        .find(|s| s.name == opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let spec = if opts.smoke { gen::smoke(&spec) } else { spec };
    bcc_par::set_threads(threads());
    Ok(match spec.stack {
        Stack::Sharded { .. } => run_on::<Sharded>(&spec, opts),
        Stack::Routed | Stack::Durable { .. } => run_on::<Routed>(&spec, opts),
    })
}

fn run_on<T: Target>(spec: &Spec, opts: &Options) -> Report {
    let cycles =
        ((spec.cycles_per_pass as u64 * opts.seconds).div_ceil(REFERENCE_SECONDS) as usize).max(1);
    let mut report = Report {
        workload: spec.name.to_string(),
        seed: opts.seed,
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        answers_digest: 0,
        notes: Vec::new(),
    };
    if opts.trace {
        traced_run::<T>(spec, opts, cycles, &mut report);
    } else {
        end_to_end_run::<T>(spec, opts, cycles, &mut report);
    }
    report.correct = report.failed == 0 && report.correct;
    report
}

/// Folds a measured pass into the report's totals.
fn account(report: &mut Report, pass: &Pass) {
    report.attempted += pass.ops;
    report.failed += pass.failed;
    for e in &pass.errors {
        report.notes.push(format!("FAILED: {e}"));
    }
}

fn finish<T: Target>(target: &T, checker: &Checker, report: &mut Report) {
    if let Err(e) = target.invariants() {
        report.correct = false;
        report.notes.push(format!("INVARIANT BROKEN: {e}"));
    }
    report.answers_digest = checker.digest;
}

/// The discarded warm-up pass: a quarter of a measured one. Its failures
/// still count against the run.
fn warm_up<T: Target>(
    target: &mut T,
    gen: &mut Generator,
    spec: &Spec,
    cycles: usize,
    checker: &mut Checker,
    report: &mut Report,
) {
    let warm = run_pass(
        target,
        gen,
        spec,
        (cycles / 4).max(1),
        &mut Tracer::new(false),
        checker,
    );
    report.failed += warm.failed;
}

/// `values` on one line, `digits` decimals each.
fn listed(values: &[f64], digits: usize) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    items.join(" ")
}

/// A tail percentile over the samples of every measured pass together: a
/// pass alone holds too few churn ops for a median and too few queries for
/// a steady p99.
fn pooled_percentile(
    passes: &[Pass],
    samples: impl Fn(&Pass) -> &[f64],
    q: f64,
    what: &str,
    notes: &mut Vec<String>,
) -> f64 {
    let mut all: Vec<f64> = passes
        .iter()
        .flat_map(|p| samples(p).iter().copied())
        .collect();
    sort(&mut all);
    let (used, value) = tail_percentile(&all, q);
    let degraded = if used < q {
        format!(
            " — too few for p{:.1}, reporting p{:.1}",
            q * 100.0,
            used * 100.0
        )
    } else {
        String::new()
    };
    notes.push(format!(
        "{what}: {} samples over {} passes{degraded}",
        all.len(),
        passes.len()
    ));
    value
}

fn end_to_end_run<T: Target>(spec: &Spec, opts: &Options, cycles: usize, report: &mut Report) {
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut target = None;
    for _ in 0..SETUPS {
        // One system alive at a time, so peak memory is one system's.
        drop(target.take());
        let joined = Generator::new(spec, opts.seed).joined_hosts();
        let start = Instant::now();
        target = Some(T::setup(spec, &joined, &mut off));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut target = target.expect("at least one set-up");
    let mut gen = Generator::new(spec, opts.seed);
    let mut checker = Checker::default();

    warm_up(&mut target, &mut gen, spec, cycles, &mut checker, report);
    let passes: Vec<Pass> = (0..PASSES)
        .map(|_| run_pass(&mut target, &mut gen, spec, cycles, &mut off, &mut checker))
        .collect();
    for p in &passes {
        account(report, p);
    }
    finish(&target, &checker, report);

    let notes = &mut report.notes;
    let ops_per_s: Vec<f64> = passes.iter().map(Pass::ops_per_s).collect();
    let values = [
        median(&setup_s),
        median(&ops_per_s),
        pooled_percentile(&passes, |p| &p.query_us, 0.50, "query_p50_us", notes),
        pooled_percentile(&passes, |p| &p.query_us, 0.99, "query_p99_us", notes),
        pooled_percentile(&passes, |p| &p.churn_ms, 0.50, "churn_p50_ms", notes),
        peak_rss_mb(),
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    notes.push(format!("ops_per_s a pass: {}", listed(&ops_per_s, 1)));
    notes.push(format!("set-up seconds: {}", listed(&setup_s, 3)));
    let found: u64 = passes.iter().map(|p| p.found).sum();
    let queries: u64 = passes.iter().map(|p| p.queries).sum();
    notes.push(format!(
        "found_share {:.4} ({found} of {queries} queries answered with a cluster)",
        crate::stats::ratio(found as f64, queries as f64)
    ));
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(&k, &v)| (k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

fn traced_run<T: Target>(spec: &Spec, opts: &Options, cycles: usize, report: &mut Report) {
    let mut off = Tracer::new(false);
    let mut setup_tr = Tracer::new(true);
    let mut gen = Generator::new(spec, opts.seed);
    let mut target = T::setup(spec, &gen.joined_hosts(), &mut setup_tr);
    let mut checker = Checker::default();
    warm_up(&mut target, &mut gen, spec, cycles, &mut checker, report);

    // Counts come from an untraced pass: replays would inflate the
    // process-global obs counters.
    let before = target.counters();
    let counted = run_pass(&mut target, &mut gen, spec, cycles, &mut off, &mut checker);
    let mid = target.counters();
    let mut tr = Tracer::new(true);
    let traced = run_pass(&mut target, &mut gen, spec, cycles, &mut tr, &mut checker);
    let after = target.counters();
    bcc_obs::set_enabled(false);
    let obs_off = run_pass(&mut target, &mut gen, spec, cycles, &mut off, &mut checker);
    bcc_obs::set_enabled(true);
    for p in [&counted, &traced, &obs_off] {
        account(report, p);
    }
    finish(&target, &checker, report);

    let setup = aggregate(setup_tr.spans());
    let layers = aggregate(tr.spans());
    let mut churn_ms = counted.churn_ms.clone();
    sort(&mut churn_ms);
    let (churn_q, churn_p95_ms) = tail_percentile(&churn_ms, 0.95);
    report.notes.push(format!(
        "churn.p95_ms: {} samples, reporting p{:.1}",
        churn_ms.len(),
        churn_q * 100.0
    ));
    let values = metrics::per_layer(&TraceData {
        setup: &setup,
        layers: &layers,
        counts: &delta(&mid, &before),
        replay_counts: &delta(&after, &mid),
        counted: &counted,
        traced: &traced,
        obs_off: &obs_off,
        label_dist_ns: target.label_dist_ns(),
        snapshot_bytes: target.snapshot_size(),
        live_hosts: target.live(),
        threads: threads(),
        churn_p95_ms,
    });
    report.metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();

    // Layers ranked by their share of the pass's time, estimated from the
    // replayed ops weighted by their sampling strides.
    let roots = layers.iter().filter(|(n, _)| is_root(n));
    let total: u64 = roots.clone().map(|(_, t)| t.weighted_total_ns).sum();
    let mut ranked: Vec<(&str, u64)> = layers
        .iter()
        .filter(|(n, _)| !is_root(n) && !is_reference(n))
        .map(|(&n, t)| (n, t.weighted_self_ns))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    report.notes.push(format!(
        "self time by layer, from {} replayed ops standing for {:.2} s of calls:",
        roots.map(|(_, t)| t.sampled).sum::<u64>(),
        total as f64 / 1e9
    ));
    for (name, self_ns) in ranked {
        report.notes.push(format!(
            "  {name:<28} {:>6.1} %",
            100.0 * crate::stats::ratio(self_ns as f64, total as f64)
        ));
    }

    let path = format!("{TRACE_DIR}/trace-{}.json", spec.name);
    let body = format!(
        "{{\"setup\": {}, \"pass\": {}}}\n",
        setup_tr.to_json(spec.name).trim_end(),
        tr.to_json(spec.name).trim_end()
    );
    match std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => report.notes.push(format!("spans written to {path}")),
        Err(e) => report
            .notes
            .push(format!("spans not written to {path}: {e}")),
    }
}
