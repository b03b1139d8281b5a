//! `recovery` — kill-restart validation of the durability layer, checked
//! in as `BENCH_recovery.json`.
//!
//! ```sh
//! # Full sweep: 340 clean + 160 corrupted-storage seeds, replay spot
//! # checks, warm-vs-cold restore scaling at n ∈ {256, 1024, 8192}:
//! cargo run --release -p bcc-bench --bin recovery
//!
//! # CI smoke sweep (byte-stable JSON, no wall-clock section):
//! cargo run --release -p bcc-bench --bin recovery -- --smoke --json run1.json
//!
//! # One seed, saving its kill-restart artifact for the corpus:
//! cargo run --release -p bcc-bench --bin recovery -- --seed 11 \
//!     --torn 0.5 --flip 0.5 --save tests/chaos_corpus/recovery/faulty-seed11.json
//! ```
//!
//! Every seed runs [`bcc_simnet::run_recovery_schedule`]: an ordinary
//! chaos schedule during which the nemesis snapshots the live
//! [`DynamicSystem`] on one cadence and, on another, *kills* it and
//! recovers a replacement from (optionally fault-injecting) storage. The
//! binary enforces the recovery oracles over the whole sweep and exits
//! non-zero on any violation:
//!
//! - every recovered system is bit-identical to the killed one (same
//!   epoch, live overlay digest, cold-restart fixpoint and index stamp)
//!   with zero from-scratch index rebuilds;
//! - in the corrupted tier, injected torn writes and bit flips are always
//!   detected by the snapshot checksums and recovered from a previous
//!   generation — the sweep must actually exercise that fallback path;
//! - captured [`RecoveryArtifact`]s survive a JSON round trip and replay
//!   bit-identically.
//!
//! A failing seed is shrunk (smallest schedule length that still fails)
//! and saved as `recovery-failure-seed<seed>.json` under `--out` so CI
//! can upload it.
//!
//! The sweep sections of the JSON report contain only deterministic
//! counters; the full (non-smoke) report appends a `restore_scaling`
//! section timing warm (snapshot decode + restore) against cold
//! (from-scratch bootstrap) restarts — the acceptance bar is warm ≥ 10×
//! faster at n = 1024.
//!
//! [`DynamicSystem`]: bcc_simnet::DynamicSystem

use std::process::ExitCode;
use std::time::Instant;

use bcc_bench::BenchArgs;
use bcc_core::{fnv1a, FNV_OFFSET};
use bcc_metric::{BandwidthMatrix, NodeId};
use bcc_simnet::chaos::chaos_classes;
use bcc_simnet::{
    run_recovery_schedule, ChaosConfig, DynamicSystem, RecoveryArtifact, RecoveryConfig,
    StorageFaultPlan, SystemConfig, SystemSnapshot,
};

/// Fault probabilities of the corrupted tier: high enough that most
/// sweeps hit the fallback path, low enough that torn-then-flipped
/// double corruption stays plausible rather than certain.
const TORN_WRITE: f64 = 0.45;
const BIT_FLIP: f64 = 0.45;

/// Aggregated counters for one sweep tier.
#[derive(Default)]
struct Sweep {
    seeds: u64,
    kills: u64,
    snapshots: u64,
    fallback_recoveries: u64,
    corruption_detected: u64,
    corrupted_writes: u64,
    replayed_ops: u64,
    cold_hits: u64,
    cold_misses: u64,
    digest: u64,
    failed_seeds: Vec<u64>,
}

fn tier_config(faulty: bool, seed: u64) -> RecoveryConfig {
    RecoveryConfig {
        storage_faults: faulty.then(|| {
            StorageFaultPlan::new(seed)
                .torn_write(TORN_WRITE)
                .bit_flip(BIT_FLIP)
        }),
        ..RecoveryConfig::default()
    }
}

fn sweep(name: &str, faulty: bool, seeds: u64, cfg: &ChaosConfig, out_dir: &str) -> Sweep {
    let mut s = Sweep {
        digest: FNV_OFFSET,
        ..Sweep::default()
    };
    for seed in 0..seeds {
        let rcfg = tier_config(faulty, seed);
        let out = run_recovery_schedule(seed, cfg, &rcfg);
        s.seeds += 1;
        s.kills += out.kills;
        s.snapshots += out.snapshots;
        s.fallback_recoveries += out.fallback_recoveries;
        s.corruption_detected += out.corruption_detected;
        s.corrupted_writes += out.corrupted_writes;
        s.replayed_ops += out.replayed_ops;
        s.cold_hits += out.oracle_stats.cold_hits;
        s.cold_misses += out.oracle_stats.cold_misses;
        // FNV-1a over the per-seed final digests, the discipline the other
        // sweep binaries use.
        s.digest = fnv1a(s.digest, &out.final_digest().unwrap_or(0).to_le_bytes());
        if !out.passed() {
            s.failed_seeds.push(seed);
            save_shrunk_failure(seed, faulty, cfg, out_dir);
        }
        if (seed + 1) % 100 == 0 {
            println!("  {name} {} / {seeds} seeds", seed + 1);
        }
    }
    s
}

/// Re-runs a failing seed at shrinking schedule lengths and saves the
/// smallest configuration that still fails, so the pinned reproducer is
/// as short as the failure allows.
fn save_shrunk_failure(seed: u64, faulty: bool, cfg: &ChaosConfig, out_dir: &str) {
    let rcfg = tier_config(faulty, seed);
    let mut shrunk = cfg.steps;
    let mut failures = Vec::new();
    for steps in 1..=cfg.steps {
        let out = run_recovery_schedule(seed, &ChaosConfig { steps, ..*cfg }, &rcfg);
        if !out.passed() {
            shrunk = steps;
            failures = out.failures;
            break;
        }
    }
    let (torn, flip) = if faulty {
        (TORN_WRITE, BIT_FLIP)
    } else {
        (0.0, 0.0)
    };
    let body = format!(
        "{{\"seed\": {seed}, \"universe\": {}, \"steps\": {shrunk}, \
         \"snapshot_every\": {}, \"kill_every\": {}, \"torn_write\": {torn}, \
         \"bit_flip\": {flip}, \"failures\": {:?}}}\n",
        cfg.universe, rcfg.snapshot_every, rcfg.kill_every, failures,
    );
    let path = format!("{out_dir}/recovery-failure-seed{seed}.json");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("recovery: could not save failure artifact {path}: {e}");
    } else {
        eprintln!("recovery: seed {seed} failed; shrunk reproducer saved to {path}");
    }
}

fn sweep_json(s: &Sweep) -> String {
    format!(
        "{{\"seeds\": {}, \"kills\": {}, \"snapshots\": {}, \
         \"fallback_recoveries\": {}, \"corruption_detected\": {}, \
         \"corrupted_writes\": {}, \"replayed_ops\": {}, \"cold_hits\": {}, \
         \"cold_misses\": {}, \"failed\": {}, \"digest\": \"{:016x}\"}}",
        s.seeds,
        s.kills,
        s.snapshots,
        s.fallback_recoveries,
        s.corruption_detected,
        s.corrupted_writes,
        s.replayed_ops,
        s.cold_hits,
        s.cold_misses,
        s.failed_seeds.len(),
        s.digest,
    )
}

/// Captures `seeds` artifacts per tier and replays each — the
/// bit-identity acceptance check for kill-restart runs.
fn replay_artifacts(seeds: u64, cfg: &ChaosConfig) -> Result<(), String> {
    for faulty in [false, true] {
        for seed in 0..seeds {
            let rcfg = tier_config(faulty, seed);
            let tier = if faulty { "corrupted" } else { "clean" };
            let artifact = RecoveryArtifact::capture(seed, cfg, &rcfg)
                .map_err(|e| format!("{tier} seed {seed}: capture failed: {e}"))?;
            let parsed = RecoveryArtifact::from_json(&artifact.to_json())
                .map_err(|e| format!("{tier} seed {seed}: JSON round trip failed: {e}"))?;
            if parsed != artifact {
                return Err(format!("{tier} seed {seed}: JSON round trip diverged"));
            }
            parsed
                .replay()
                .map_err(|e| format!("{tier} seed {seed}: {e}"))?;
        }
    }
    Ok(())
}

/// One warm-vs-cold restore measurement.
struct ScalePoint {
    n: usize,
    snapshot_bytes: usize,
    cold_ms: f64,
    decode_ms: f64,
    warm_ms: f64,
}

impl ScalePoint {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-9)
    }
}

/// Tiered access-link universe, the same shape the perf baselines use.
fn scale_universe(n: usize) -> (BandwidthMatrix, SystemConfig) {
    let tiers = [100.0f64, 60.0, 30.0, 12.0];
    let bandwidth = BandwidthMatrix::from_fn(n, |i, j| tiers[i % 4].min(tiers[j % 4]));
    (bandwidth, SystemConfig::new(chaos_classes()))
}

/// Times a cold bootstrap of `n` hosts against a warm restore (snapshot
/// decode + reassembly) of the same membership, verifying the warm
/// replica is bit-identical before trusting its timing.
fn measure_restore(n: usize) -> Result<ScalePoint, String> {
    let (bandwidth, config) = scale_universe(n);
    let hosts: Vec<NodeId> = (0..n).map(NodeId::new).collect();

    let cold_start = Instant::now();
    let sys = DynamicSystem::bootstrap(bandwidth.clone(), config.clone(), &hosts)
        .map_err(|e| format!("n={n}: cold bootstrap failed: {e}"))?;
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;

    let bytes = SystemSnapshot::capture(&sys).encode();
    let snapshot_bytes = bytes.len();

    let mut warm_ms = f64::INFINITY;
    let mut decode_ms = f64::INFINITY;
    for _ in 0..3 {
        let warm_start = Instant::now();
        let snap =
            SystemSnapshot::decode(&bytes).map_err(|e| format!("n={n}: decode failed: {e}"))?;
        decode_ms = decode_ms.min(warm_start.elapsed().as_secs_f64() * 1e3);
        let restored = snap
            .restore(&bandwidth, &config)
            .map_err(|e| format!("n={n}: warm restore failed: {e}"))?;
        warm_ms = warm_ms.min(warm_start.elapsed().as_secs_f64() * 1e3);
        if restored.live_digest() != sys.live_digest()
            || restored.epoch() != sys.epoch()
            || restored.index_stamp() != sys.index_stamp()
        {
            return Err(format!("n={n}: warm restore is not bit-identical"));
        }
        if restored.cluster_index().stats().full_builds != 0 {
            return Err(format!(
                "n={n}: warm restore rebuilt the index from scratch"
            ));
        }
    }
    Ok(ScalePoint {
        n,
        snapshot_bytes,
        cold_ms,
        decode_ms,
        warm_ms,
    })
}

fn run() -> Result<ExitCode, String> {
    let args = BenchArgs::from_env();
    args.expect_known(
        &["--smoke"],
        &[
            "--json", "--out", "--seed", "--torn", "--flip", "--save", "--sizes",
        ],
    )?;
    let smoke = args.flag("--smoke");
    let json_path = args
        .value("--json")
        .unwrap_or("BENCH_recovery.json")
        .to_string();
    let out_dir = args.value("--out").unwrap_or(".").to_string();

    let cfg = ChaosConfig::default();

    // Single-seed mode: capture (and optionally save) one artifact.
    if let Some(seed) = args.parsed::<u64>("--seed")? {
        let torn = args.parsed_or::<f64>("--torn", 0.0)?;
        let flip = args.parsed_or::<f64>("--flip", 0.0)?;
        let rcfg = RecoveryConfig {
            storage_faults: (torn > 0.0 || flip > 0.0)
                .then(|| StorageFaultPlan::new(seed).torn_write(torn).bit_flip(flip)),
            ..RecoveryConfig::default()
        };
        let artifact = RecoveryArtifact::capture(seed, &cfg, &rcfg)
            .map_err(|e| format!("seed {seed}: {e}"))?;
        print!(
            "seed {seed}: passed every recovery oracle\n{}",
            artifact.to_json()
        );
        if let Some(path) = args.value("--save") {
            std::fs::write(path, artifact.to_json()).map_err(|e| format!("write {path}: {e}"))?;
            println!("saved kill-restart artifact to {path}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let (clean_seeds, faulty_seeds, replay_seeds) = if smoke { (16, 8, 2) } else { (340, 160, 6) };

    println!("=== recovery — kill-restart durability under chaos schedules ===");
    println!(
        "smoke = {smoke}, universe = {}, steps = {}, snapshot_every = {}, \
         kill_every = {}, corrupted tier at torn {TORN_WRITE} / flip {BIT_FLIP}",
        cfg.universe,
        cfg.steps,
        RecoveryConfig::default().snapshot_every,
        RecoveryConfig::default().kill_every,
    );
    println!();

    let start = Instant::now();
    let clean = sweep("clean", false, clean_seeds, &cfg, &out_dir);
    let faulty = sweep("corrupted", true, faulty_seeds, &cfg, &out_dir);
    for (name, s) in [("clean", &clean), ("corrupted", &faulty)] {
        println!(
            "{name}: {} seeds, {} kills / {} snapshots, {} fallback recoveries \
             ({} generations skipped, {} writes corrupted), {} ops replayed",
            s.seeds,
            s.kills,
            s.snapshots,
            s.fallback_recoveries,
            s.corruption_detected,
            s.corrupted_writes,
            s.replayed_ops,
        );
    }

    replay_artifacts(replay_seeds, &cfg)?;
    println!("replayed {replay_seeds} artifact(s) per tier bit-identically");
    println!("sweep finished in {:.1?}", start.elapsed());
    println!();

    // Warm-vs-cold restore scaling: wall-clock, so full mode only — the
    // smoke report must stay byte-identical across runs.
    let mut scaling: Vec<ScalePoint> = Vec::new();
    if !smoke {
        let sizes: Vec<usize> = match args.value("--sizes") {
            Some(list) => list
                .split(',')
                .map(|t| t.trim().parse().map_err(|e| format!("bad --sizes: {e}")))
                .collect::<Result<_, _>>()?,
            None => vec![256, 1024, 8192],
        };
        for n in sizes {
            let p = measure_restore(n)?;
            println!(
                "n = {:>5}: cold {:>10.1} ms, warm {:>8.1} ms (decode {:.1} ms, {:>6.1}x), snapshot {} bytes",
                p.n,
                p.cold_ms,
                p.warm_ms,
                p.decode_ms,
                p.speedup(),
                p.snapshot_bytes,
            );
            scaling.push(p);
        }
        println!();
    }

    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|p| {
            format!(
                "{{\"n\": {}, \"snapshot_bytes\": {}, \"cold_ms\": {:.3}, \
                 \"decode_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.1}}}",
                p.n,
                p.snapshot_bytes,
                p.cold_ms,
                p.decode_ms,
                p.warm_ms,
                p.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"smoke\": {smoke},\n  \"universe\": {},\n  \
         \"steps\": {},\n  \"snapshot_every\": {},\n  \"kill_every\": {},\n  \
         \"torn_write\": {TORN_WRITE},\n  \"bit_flip\": {BIT_FLIP},\n  \
         \"clean\": {},\n  \"corrupted\": {},\n  \"replayed_per_tier\": {replay_seeds},\n  \
         \"restore_scaling\": [{}]\n}}\n",
        cfg.universe,
        cfg.steps,
        RecoveryConfig::default().snapshot_every,
        RecoveryConfig::default().kill_every,
        sweep_json(&clean),
        sweep_json(&faulty),
        scaling_json.join(", "),
    );
    if json_path == "-" {
        println!("{json}");
    } else {
        std::fs::write(&json_path, &json).map_err(|e| format!("write {json_path}: {e}"))?;
        println!("wrote {json_path}");
    }

    for (name, s) in [("clean", &clean), ("corrupted", &faulty)] {
        if !s.failed_seeds.is_empty() {
            return Err(format!(
                "{name}: {} seed(s) violated a recovery oracle: {:?}",
                s.failed_seeds.len(),
                s.failed_seeds
            ));
        }
    }
    // The tiers must behave like their names: a clean sweep never sees
    // corruption; the corrupted sweep must actually exercise detection
    // and fallback, or its oracles pass vacuously.
    if clean.corrupted_writes != 0 || clean.fallback_recoveries != 0 {
        return Err(format!(
            "clean tier saw corruption: {} writes, {} fallbacks",
            clean.corrupted_writes, clean.fallback_recoveries
        ));
    }
    if faulty.corrupted_writes == 0
        || faulty.fallback_recoveries == 0
        || faulty.corruption_detected == 0
    {
        return Err(format!(
            "corrupted tier never exercised the fallback path: {} writes corrupted, \
             {} detected, {} fallbacks",
            faulty.corrupted_writes, faulty.corruption_detected, faulty.fallback_recoveries
        ));
    }
    for p in &scaling {
        if p.n >= 1024 && p.speedup() < 10.0 {
            return Err(format!(
                "n={}: warm restore only {:.1}x faster than cold (acceptance bar is 10x)",
                p.n,
                p.speedup()
            ));
        }
    }
    println!(
        "all recovery oracles held across {} seeds",
        clean.seeds + faulty.seeds
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("recovery: {e}");
            ExitCode::FAILURE
        }
    }
}
