//! `shard` — scaling study of the `bcc-shard` sharded serving layer,
//! checked in as `BENCH_shard.json`.
//!
//! ```sh
//! # Full study:
//! cargo run --release -p bcc-bench --bin shard
//!
//! # CI smoke study (byte-stable BENCH_shard.json):
//! cargo run --release -p bcc-bench --bin shard -- --smoke
//!
//! # One seed of the differential chaos run, saving its replay artifact:
//! cargo run --release -p bcc-bench --bin shard -- --seed 3 \
//!     --save tests/chaos_corpus/differential/seed3.json
//! ```
//!
//! A hierarchical block universe (fast inside a group, medium across
//! sibling groups, slow across super-groups: an exact anchor-tree
//! hierarchy, so contiguous shard plans align with subtrees at every shard
//! count) serves an identical churn + query stream at S ∈ {1, 2, 4}. Costs
//! are *logical* (label-distance evaluations), so the study is exactly
//! reproducible: coordinator overhead on a shard-local query is the prune
//! certificates it pays on top of the unsharded kernel work, at most
//! `S − 1` evaluations (one per other shard); the merge kernel evaluates
//! what it reads, at most half the pairs of its candidate sets; and churn
//! must stay region-local (a churn op touches the owning shard's region
//! and only rarely any other).
//!
//! That sharded answers equal unsharded ones under chaos — cached or not,
//! errors and epochs included, through partition windows — is checked by
//! the coordinator columns of the differential run
//! ([`bcc_shard::harness::differential`], swept by `bcc-bench chaos`).
//!
//! The JSON report contains only deterministic counters — never
//! wall-clock — so two runs at the same arguments produce byte-identical
//! files.

use std::process::ExitCode;

use bcc_bench::BenchArgs;
use bcc_core::{fnv1a, FNV_OFFSET};
use bcc_metric::{BandwidthMatrix, NodeId};
use bcc_service::ServiceConfig;
use bcc_shard::harness::{DifferentialArtifact, SHARD_COUNTS};
use bcc_shard::{CoordOutcome, Coordinator, ShardPlan};
use bcc_simnet::chaos::{chaos_classes, render_region, ChaosConfig};
use bcc_simnet::{ChurnOp, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 2011;

/// Expands a seed into `steps` churn events, `(op, universe host)` pairs,
/// over `universe` hosts. The generator tracks membership so most events
/// are applicable, but keeps a deliberate slice of invalid ones (double
/// joins, absent recovers), which the study skips.
fn generate_shard_schedule(seed: u64, universe: usize, steps: usize) -> Vec<(ChurnOp, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD_5EED);
    let mut active: Vec<usize> = (0..universe).collect();
    let mut crashed: Vec<usize> = Vec::new();
    let mut schedule = Vec::with_capacity(steps);
    for _ in 0..steps {
        let roll = rng.gen_range(0..100);
        let event = if roll < 30 || active.len() <= 3 {
            // Join: usually a departed host, sometimes a deliberately
            // invalid double join.
            let host = if rng.gen_range(0..4) == 0 || active.len() == universe {
                rng.gen_range(0..universe)
            } else {
                let mut h = rng.gen_range(0..universe);
                while active.contains(&h) {
                    h = (h + 1) % universe;
                }
                h
            };
            if !active.contains(&host) {
                active.push(host);
                crashed.retain(|&c| c != host);
            }
            (ChurnOp::Join, host)
        } else if roll < 55 {
            let host = active[rng.gen_range(0..active.len())];
            active.retain(|&a| a != host);
            (ChurnOp::Leave, host)
        } else if roll < 80 {
            let host = active[rng.gen_range(0..active.len())];
            active.retain(|&a| a != host);
            crashed.push(host);
            (ChurnOp::Crash, host)
        } else if let Some(&host) = crashed.last() {
            crashed.pop();
            active.push(host);
            (ChurnOp::Recover, host)
        } else {
            // Nothing to recover: an absent-host recover.
            (ChurnOp::Recover, rng.gen_range(0..universe))
        };
        schedule.push(event);
    }
    schedule
}

// ---------------------------------------------------------------------------
// Scaling study
// ---------------------------------------------------------------------------

/// One shard count's scaling measurements over the shared stream.
struct Scaling {
    shards: usize,
    /// Per-query (consulted, work_units) of the uncached measurement pass.
    costs: Vec<(usize, u64)>,
    /// `Σ m(m − 1)/2` over the measurement pass's candidate sets: what a
    /// kernel that materialised each sub-metric would evaluate.
    candidate_pairs: u64,
    /// Digest over the ordered answer stream — must match across shard
    /// counts.
    answers_digest: u64,
    cache_hits: u64,
    pruned: u64,
    forwarded: u64,
    merge_candidates: u64,
    /// Churn ops applied and how many shard regions each touched.
    churn_ops: u64,
    region_touches: u64,
}

/// The scaling universe: four equal groups of contiguous ids arranged as
/// a two-level hierarchy — 100 Mbps inside a group, 15 Mbps between
/// sibling groups of a super-group, 5 Mbps across super-groups. The
/// distance matrix is an exact tree metric, so the anchor tree recovers
/// the hierarchy and [`ShardPlan::contiguous`] aligns shards with anchor
/// subtrees at every shard count in {1, 2, 4}: a b = 59 query ball
/// (radius 2·100/60 ≈ 3.3) stays inside one group — shard-local at both
/// S = 2 and S = 4, every other shard pruned — while a b = 24 ball
/// (radius 8) spans one super-group (sibling distance 100/15 ≈ 6.7):
/// shard-local at S = 2, a genuine two-shard scatter–merge at S = 4.
/// Nothing crosses super-groups (distance 20).
fn block_bandwidth(universe: usize) -> BandwidthMatrix {
    let group = universe / 4;
    BandwidthMatrix::from_fn(universe, |i, j| {
        if i == j || i / group == j / group {
            100.0
        } else if i / (2 * group) == j / (2 * group) {
            15.0
        } else {
            5.0
        }
    })
}

/// Runs the shared churn + query stream at one shard count. Everything is
/// derived from `SEED`, so every shard count sees the identical stream.
fn scaling_run(universe: usize, shards: usize, churn_steps: usize, queries: usize) -> Scaling {
    let mut coord = Coordinator::new(
        block_bandwidth(universe),
        SystemConfig::new(chaos_classes()),
        ShardPlan::contiguous(universe, shards),
        ServiceConfig::default(),
    )
    .expect("valid scaling deployment");
    for h in 0..universe {
        coord.join(NodeId::new(h)).expect("join fresh host");
    }

    let mut out = Scaling {
        shards,
        costs: Vec::with_capacity(queries),
        candidate_pairs: 0,
        answers_digest: FNV_OFFSET,
        cache_hits: 0,
        pruned: 0,
        forwarded: 0,
        merge_candidates: 0,
        churn_ops: 0,
        region_touches: 0,
    };

    // Churn phase: the shared schedule, counting how many shard regions
    // each op touches (digest moved) — the locality measurement.
    let schedule = generate_shard_schedule(SEED, universe, churn_steps);
    for (op, host) in schedule {
        let before: Vec<u64> = coord.shards().iter().map(|s| s.region().digest()).collect();
        if coord.apply(op, NodeId::new(host)).is_err() {
            continue; // benign skip
        }
        out.churn_ops += 1;
        out.region_touches += coord
            .shards()
            .iter()
            .zip(&before)
            .filter(|(s, &b)| s.region().digest() != b)
            .count() as u64;
    }

    // Query phase. Two passes per query: a cached serve (real traffic —
    // feeds hit-rate and per-shard gauges) and an uncached measurement
    // pass whose work_units are the logical cost the overhead comparison
    // uses (cache hits would otherwise hide the scatter cost).
    let live: Vec<NodeId> = coord.active().collect();
    let mut qrng = StdRng::seed_from_u64(SEED ^ 0x0DD5_CA1E);
    for _ in 0..queries {
        let start = live[qrng.gen_range(0..live.len())];
        let k = [2usize, 3, 4][qrng.gen_range(0..3usize)];
        let b = [24.0f64, 59.0][qrng.gen_range(0..2usize)];
        let _ = coord.cluster_near(start, k, b).expect("live start");
        let resp = coord
            .cluster_near_uncached(start, k, b)
            .expect("live start");
        out.costs.push((resp.consulted, resp.work_units));
        let m = resp.candidates as u64;
        out.candidate_pairs += m * m.saturating_sub(1) / 2;
        let line = format!(
            "{}|{k}|{b}|{}\n",
            start.index(),
            render_region(&Ok(resp.outcome.cluster().cloned()))
        );
        out.answers_digest = fnv1a(out.answers_digest, line.as_bytes());
        if let CoordOutcome::Degraded { .. } = resp.outcome {
            panic!("scaling stream degraded with every shard reachable");
        }
    }

    out.cache_hits = coord.cache_stats().hits;
    let stats = coord.stats();
    out.pruned = stats.pruned;
    for sh in coord.shards() {
        out.forwarded += sh.stats().forwarded;
        out.merge_candidates += sh.stats().merge_candidates;
    }
    out
}

/// Coordinator overhead on shard-local queries: for queries the sharded
/// run answered from a single shard (`consulted == 1`), compare its total
/// work against the unsharded (S = 1) work on the very same queries. The
/// difference is pure coordination: the boundary prune certificates, one
/// evaluation per other shard. The percentage is reported, not gated: its
/// base is the kernel's cost, which moves whenever the kernel does.
fn local_overhead_percent(sharded: &Scaling, unsharded: &Scaling) -> (u64, u64, u64, f64) {
    let mut local = 0u64;
    let mut local_work = 0u64;
    let mut base_work = 0u64;
    for (i, &(consulted, work)) in sharded.costs.iter().enumerate() {
        if consulted == 1 {
            local += 1;
            local_work += work;
            base_work += unsharded.costs[i].1;
        }
    }
    let overhead = if base_work == 0 {
        0.0
    } else {
        100.0 * (local_work as f64 - base_work as f64) / base_work as f64
    };
    (local, local_work, base_work, overhead)
}

fn run() -> Result<ExitCode, String> {
    let args = BenchArgs::from_env();
    args.expect_known(&["--smoke"], &["--json", "--seed", "--save"])?;
    let smoke = args.flag("--smoke");
    let json_path = args
        .value("--json")
        .unwrap_or("BENCH_shard.json")
        .to_string();

    // Single-seed mode: one seed of the differential chaos run, and
    // optionally its replay artifact.
    if let Some(seed) = args.parsed::<u64>("--seed")? {
        let (artifact, report) = DifferentialArtifact::capture(seed, &ChaosConfig::default());
        for (name, count) in report.counters() {
            println!("  {name:<24} {count:>6}");
        }
        if let Some(v) = report.violation {
            return Err(format!("seed {seed}: {v}"));
        }
        if let Some(path) = args.value("--save") {
            std::fs::write(path, artifact.to_json()).map_err(|e| format!("write {path}: {e}"))?;
            println!("saved differential artifact to {path}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Deterministic logical time for span durations: the obs layer never
    // contributes wall-clock to anything this binary writes.
    bcc_obs::set_logical_time(1_000);

    let (universe, churn_steps, queries) = if smoke { (40, 24, 48) } else { (64, 48, 128) };

    println!("=== shard — scatter–gather coordination over anchor-tree regions ===");
    println!("smoke = {smoke}, scaling universe = {universe}");
    println!();

    let start = std::time::Instant::now();
    // Scaling study over the identical stream per shard count.
    let runs: Vec<Scaling> = SHARD_COUNTS
        .iter()
        .map(|&shards| scaling_run(universe, shards, churn_steps, queries))
        .collect();
    for r in &runs[1..] {
        if r.answers_digest != runs[0].answers_digest {
            return Err(format!(
                "scaling answers diverged: S={} digest {:016x}, S=1 digest {:016x}",
                r.shards, r.answers_digest, runs[0].answers_digest
            ));
        }
    }

    let mut scaling_json = Vec::new();
    let mut worst_overhead = 0.0f64;
    for r in &runs {
        let (local, local_work, base_work, overhead) = local_overhead_percent(r, &runs[0]);
        let total_work: u64 = r.costs.iter().map(|&(_, w)| w).sum();
        let certificates = (r.shards as u64 - 1) * local;
        let paid = local_work.saturating_sub(base_work);
        if paid > certificates {
            return Err(format!(
                "S={}: {local} shard-local queries paid {paid} evaluations over the unsharded \
                 kernel (bound: S − 1 prune certificates a query = {certificates})",
                r.shards,
            ));
        }
        if r.shards == 1 && 2 * total_work > r.candidate_pairs {
            return Err(format!(
                "the merge kernel evaluated {total_work} of the {} pairs of its candidate \
                 sets (bound: half)",
                r.candidate_pairs
            ));
        }
        let locality = r.region_touches as f64 / r.churn_ops.max(1) as f64;
        println!(
            "S={}: work {total_work} evals over {} queries ({local} shard-local, \
             overhead {overhead:.2}%), {} cache hits, {} pruned, {} forwarded, \
             churn touches {locality:.2} regions/op",
            r.shards,
            r.costs.len(),
            r.cache_hits,
            r.pruned,
            r.forwarded,
        );
        if r.shards > 1 {
            worst_overhead = worst_overhead.max(overhead);
            if local == 0 {
                return Err(format!(
                    "S={}: no shard-local queries — the overhead bound is vacuous",
                    r.shards
                ));
            }
        }
        scaling_json.push(format!(
            "{{\"shards\": {}, \"queries\": {}, \"work_units\": {total_work}, \
             \"local_queries\": {local}, \"local_work_units\": {local_work}, \
             \"unsharded_local_work_units\": {base_work}, \
             \"local_overhead_percent\": {overhead:.2}, \"cache_hits\": {}, \
             \"pruned\": {}, \"forwarded\": {}, \"merge_candidates\": {}, \
             \"churn_ops\": {}, \"region_touches\": {}, \
             \"regions_per_churn_op\": {locality:.3}}}",
            r.shards,
            r.costs.len(),
            r.cache_hits,
            r.pruned,
            r.forwarded,
            r.merge_candidates,
            r.churn_ops,
            r.region_touches,
        ));
    }
    println!("study finished in {:.1?}", start.elapsed());
    println!();

    let json = format!(
        "{{\n  \"bench\": \"shard\",\n  \"smoke\": {smoke},\n  \
         \"scaling\": {{\"universe\": {universe}, \"churn_steps\": {churn_steps}, \
         \"shard_counts\": [\n    {}\n  ]}}\n}}\n",
        scaling_json.join(",\n    "),
    );
    if json_path == "-" {
        println!("{json}");
    } else {
        std::fs::write(&json_path, &json).map_err(|e| format!("write {json_path}: {e}"))?;
        println!("wrote {json_path}");
    }
    println!("worst shard-local overhead {worst_overhead:.2}%");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shard: {e}");
            ExitCode::FAILURE
        }
    }
}
