//! Deterministic chaos runner: schedule exploration, shrinking and replay
//! for the decentralized clustering stack (see `bcc_simnet::chaos`), every
//! tier riding the run as a column (`bcc_shard::harness::differential`).
//!
//! ```sh
//! # Explore 1000 seeds (the default), stop at the first violation:
//! cargo run --release -p bcc-bench --bin chaos
//!
//! # CI smoke sweep (200 schedules):
//! cargo run --release -p bcc-bench --bin chaos -- --smoke
//!
//! # One seed:
//! cargo run --release -p bcc-bench --bin chaos -- --seed 42
//!
//! # Re-execute a failure artifact bit-identically:
//! cargo run --release -p bcc-bench --bin chaos -- --replay chaos-failure-42.json
//!
//! # Record a passing seed as a regression artifact:
//! cargo run --release -p bcc-bench --bin chaos -- --seed 7 --save tests/chaos_corpus/seed7.json
//! ```
//!
//! The sweep prints every column's counts. On a violation the schedule is
//! shrunk to a minimal failing prefix and written as
//! `chaos-failure-<seed>.json` (override the directory with `--out <dir>`);
//! the process exits with status 1. `--nemesis <name>` enables a deliberate
//! state-corruption hook (e.g. `crt-stale`) to prove the oracles catch
//! broken builds; it and `--save` run the simnet reference alone, so a pin
//! under `tests/chaos_corpus/` is a simnet artifact (`bcc-bench shard
//! --seed <seed> --save <file>` records the `differential/` ones).

use std::process::ExitCode;

use bcc_bench::BenchArgs;
use bcc_shard::harness::DifferentialArtifact;
use bcc_simnet::chaos::{capture, ChaosConfig, ReplayArtifact, ReplayRecord};

struct Args {
    seeds: u64,
    seed: Option<u64>,
    steps: usize,
    universe: usize,
    replay: Option<String>,
    nemesis: Option<String>,
    save: Option<String>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let argv = BenchArgs::from_env();
    argv.expect_known(
        &["--smoke"],
        &[
            "--seeds",
            "--seed",
            "--steps",
            "--universe",
            "--replay",
            "--nemesis",
            "--save",
            "--out",
        ],
    )?;
    Ok(Args {
        seeds: argv.parsed_or("--seeds", if argv.flag("--smoke") { 200 } else { 1000 })?,
        seed: argv.parsed("--seed")?,
        steps: argv.parsed_or("--steps", ChaosConfig::default().steps)?,
        universe: argv.parsed_or("--universe", ChaosConfig::default().universe)?,
        replay: argv.value("--replay").map(str::to_string),
        nemesis: argv.value("--nemesis").map(str::to_string),
        save: argv.value("--save").map(str::to_string),
        out: argv.value("--out").unwrap_or(".").to_string(),
    })
}

fn replay_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let (violation, final_digest) =
        if ReplayRecord::from_json(&text, None)?.opt_str("kind")? == Some("differential") {
            let report = DifferentialArtifact::from_json(&text)?.replay()?;
            (report.violation, report.final_digest)
        } else {
            let artifact = ReplayArtifact::from_json(&text)?;
            artifact.replay()?;
            (artifact.violation, artifact.final_digest)
        };
    match violation {
        Some(v) => println!("{path} reproduced bit-identically: {v}"),
        None => {
            println!("{path} reproduced bit-identically: passed, final digest {final_digest:?}")
        }
    }
    Ok(())
}

/// Runs one seed — the simnet reference alone under `--nemesis` or for
/// `--save`, else through every tier, adding its counters to `totals` —
/// and writes its shrunk replay artifact if it failed.
fn run_seed(seed: u64, args: &Args, totals: &mut Vec<(String, u64)>) -> Result<bool, String> {
    let cfg = ChaosConfig {
        universe: args.universe,
        steps: args.steps,
    };
    let (json, violation) = if args.nemesis.is_some() || args.save.is_some() {
        let artifact = capture(seed, &cfg, args.nemesis.as_deref())?;
        (artifact.to_json(), artifact.violation)
    } else {
        let (artifact, report) = DifferentialArtifact::capture(seed, &cfg);
        let counters = report.counters();
        totals.resize(counters.len(), (String::new(), 0));
        for (total, (name, count)) in totals.iter_mut().zip(counters) {
            *total = (name, total.1 + count);
        }
        if report.passed() && report.probes == 0 {
            return Err(format!("seed {seed}: no rejected-op probe ran"));
        }
        (artifact.to_json(), report.violation)
    };
    if let Some(path) = &args.save {
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        println!("saved seed {seed} artifact to {path}");
    }
    let Some(v) = violation else {
        return Ok(true);
    };
    let path = format!("{}/chaos-failure-{seed}.json", args.out);
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("seed {seed} VIOLATION: {v}");
    eprintln!("shrunk; replay artifact written to {path}");
    eprintln!("re-execute with: bcc-bench chaos --replay {path}");
    Ok(false)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some(path) = &args.replay {
        replay_file(path)?;
        return Ok(ExitCode::SUCCESS);
    }
    let start = std::time::Instant::now();
    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (0..args.seeds).collect(),
    };
    println!(
        "chaos: {} schedule(s), universe {}, {} steps each, {}",
        seeds.len(),
        args.universe,
        args.steps,
        match (&args.nemesis, &args.save) {
            (None, None) => "through every tier",
            _ => "the simnet reference alone",
        }
    );
    let mut totals = Vec::new();
    for (done, &seed) in seeds.iter().enumerate() {
        if !run_seed(seed, &args, &mut totals)? {
            return Ok(ExitCode::FAILURE);
        }
        if (done + 1) % 100 == 0 {
            println!("  {} / {} seeds clean", done + 1, seeds.len());
        }
    }
    // Every column's totals; the stale, divergence, failure counters are
    // the oracles and read 0.
    for (name, total) in &totals {
        let mean = *total as f64 / seeds.len() as f64;
        println!("  {name:<24} {total:>8}  ({mean:.1} per seed)");
    }
    let total = |name: &str| totals.iter().find(|(n, _)| n == name).map_or(1, |t| t.1);
    if [
        "coordinator_degraded",
        "coordinator_cache_hits",
        "coordinator_pruned",
        "service_cache_hits",
    ]
    .iter()
    .any(|&name| total(name) == 0)
    {
        return Err("the sweep never exercised the whole serving surface".to_string());
    }
    println!(
        "all {} schedule(s) passed every oracle in {:.1?}",
        seeds.len(),
        start.elapsed()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("chaos: {e}");
            ExitCode::from(2)
        }
    }
}
