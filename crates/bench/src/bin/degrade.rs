//! `degrade` — graceful-degradation validation of the budgeted
//! `bcc-service` serving layer, checked in as `BENCH_degrade.json`.
//!
//! ```sh
//! # Full sweep: 1000 slow-lane seeds + 200 stall seeds, replay spot checks:
//! cargo run --release -p bcc-bench --bin degrade
//!
//! # CI smoke sweep (byte-stable BENCH_degrade.json):
//! cargo run --release -p bcc-bench --bin degrade -- --smoke
//!
//! # One seed, saving its replay artifact:
//! cargo run --release -p bcc-bench --bin degrade -- --seed 3 \
//!     --nemesis slow-lane --save tests/chaos_corpus/degrade/slow-lane-seed3.json
//! ```
//!
//! Every seed runs [`bcc_service::degrade_chaos`]: a churn-and-fault
//! schedule executes under a work-cost nemesis (`slow-lane` inflates the
//! per-pair cost 8–128×, `stall` saturates it) while a budgeted repeated
//! workload hammers the service. The binary enforces the degradation
//! oracles over the whole sweep and exits non-zero on any violation:
//!
//! - zero unlabeled degraded responses (every non-exact answer carries its
//!   [`bcc_service::Tier`], and every `Exact` answer bit-matches a fresh
//!   unbudgeted recomputation — so no stale answer is ever served as
//!   exact);
//! - zero stuck-open breakers (every lane re-closes within the bounded
//!   recovery window once the nemesis ends);
//! - replay spot checks: captured artifacts re-execute bit-identically
//!   under 1, 2 and 8 `bcc-par` threads.
//!
//! The JSON report contains only deterministic counters (tier mix,
//! breaker transitions, shed rates, digest-of-digests) — never wall-clock
//! — so two runs at the same arguments produce byte-identical files.

use std::process::ExitCode;

use bcc_bench::BenchArgs;
use bcc_core::{fnv1a, FNV_OFFSET};
use bcc_service::{degrade_chaos, DegradeArtifact, DegradeChaosConfig, DegradeNemesis};

/// Aggregated sweep counters for one nemesis.
#[derive(Default)]
struct Sweep {
    seeds: u64,
    responses: u64,
    exact: u64,
    stale_cache: u64,
    partial: u64,
    submitted: u64,
    breaker_opened: u64,
    breaker_closed: u64,
    breaker_shed: u64,
    unlabeled_degraded: u64,
    stuck_open: u64,
    digest: u64,
}

fn sweep(nemesis: DegradeNemesis, seeds: u64, cfg: &DegradeChaosConfig) -> Result<Sweep, String> {
    let cfg = DegradeChaosConfig { nemesis, ..*cfg };
    let mut s = Sweep {
        digest: FNV_OFFSET,
        ..Sweep::default()
    };
    for seed in 0..seeds {
        let r = degrade_chaos(seed, &cfg)
            .map_err(|e| format!("{} seed {seed}: {e}", cfg.nemesis.as_str()))?;
        s.seeds += 1;
        s.responses += r.responses;
        s.exact += r.exact;
        s.stale_cache += r.stale_cache;
        s.partial += r.partial;
        s.submitted += r.service.submitted;
        s.breaker_opened += r.breaker.opened;
        s.breaker_closed += r.breaker.closed;
        s.breaker_shed += r.breaker.shed;
        s.unlabeled_degraded += r.unlabeled_degraded;
        s.stuck_open += r.stuck_open;
        // FNV-1a over the per-seed run digests, the discipline the harness
        // uses for response streams.
        s.digest = fnv1a(s.digest, &r.digest.to_le_bytes());
        if (seed + 1) % 200 == 0 {
            println!("  {} {} / {seeds} seeds", cfg.nemesis.as_str(), seed + 1);
        }
    }
    Ok(s)
}

fn sweep_json(s: &Sweep) -> String {
    // Shed rate relative to admission attempts the breakers saw: the
    // counters are integers, so the fixed-precision rendering is
    // byte-stable.
    let attempts = s.submitted + s.breaker_shed;
    let shed_rate = s.breaker_shed as f64 / attempts.max(1) as f64;
    format!(
        "{{\"seeds\": {}, \"responses\": {}, \"exact\": {}, \"stale_cache\": {}, \
         \"partial\": {}, \"breaker_opened\": {}, \"breaker_closed\": {}, \
         \"breaker_shed\": {}, \"shed_rate\": {shed_rate:.4}, \
         \"unlabeled_degraded\": {}, \"stuck_open\": {}, \"digest\": \"{:016x}\"}}",
        s.seeds,
        s.responses,
        s.exact,
        s.stale_cache,
        s.partial,
        s.breaker_opened,
        s.breaker_closed,
        s.breaker_shed,
        s.unlabeled_degraded,
        s.stuck_open,
        s.digest,
    )
}

/// Captures `seeds` artifacts and replays each under 1, 2 and 8 threads —
/// the bit-identity acceptance check for degraded runs.
fn replay_across_threads(
    seeds: u64,
    cfg: &DegradeChaosConfig,
    nemesis: DegradeNemesis,
) -> Result<(), String> {
    let cfg = DegradeChaosConfig { nemesis, ..*cfg };
    for seed in 0..seeds {
        let (artifact, _) = DegradeArtifact::capture(seed, &cfg)?;
        let json = artifact.to_json();
        let parsed = DegradeArtifact::from_json(&json)?;
        if parsed != artifact {
            return Err(format!(
                "{} seed {seed}: JSON round trip diverged",
                nemesis.as_str()
            ));
        }
        for threads in [1usize, 2, 8] {
            bcc_par::set_threads(threads);
            parsed.replay().map_err(|e| {
                format!(
                    "{} seed {seed} under {threads} thread(s): {e}",
                    nemesis.as_str()
                )
            })?;
        }
        bcc_par::set_threads(0);
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let args = BenchArgs::from_env();
    args.expect_known(&["--smoke"], &["--json", "--seed", "--nemesis", "--save"])?;
    let smoke = args.flag("--smoke");
    let json_path = args
        .value("--json")
        .unwrap_or("BENCH_degrade.json")
        .to_string();

    let cfg = DegradeChaosConfig::default();

    // Single-seed mode: run (and optionally save) one replay artifact.
    if let Some(seed) = args.parsed::<u64>("--seed")? {
        let nemesis = match args.value("--nemesis") {
            Some(name) => DegradeNemesis::from_name(name)
                .ok_or_else(|| format!("unknown nemesis {name:?}"))?,
            None => cfg.nemesis,
        };
        let cfg = DegradeChaosConfig { nemesis, ..cfg };
        let (artifact, report) = DegradeArtifact::capture(seed, &cfg)?;
        println!(
            "seed {seed} ({}): {} responses ({} exact, {} stale-cache, {} partial), \
             breakers opened {} closed {}, digest {:016x}",
            nemesis.as_str(),
            report.responses,
            report.exact,
            report.stale_cache,
            report.partial,
            report.breaker.opened,
            report.breaker.closed,
            report.digest,
        );
        if report.unlabeled_degraded != 0 || report.stuck_open != 0 {
            return Err(format!(
                "seed {seed} violated a degradation oracle: {report:?}"
            ));
        }
        if let Some(path) = args.value("--save") {
            std::fs::write(path, artifact.to_json()).map_err(|e| format!("write {path}: {e}"))?;
            println!("saved degradation artifact to {path}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Deterministic logical time for span durations: the obs layer never
    // contributes wall-clock to anything this binary writes.
    bcc_obs::set_logical_time(1_000);

    let (slow_seeds, stall_seeds, replay_seeds) = if smoke { (24, 12, 2) } else { (1000, 200, 8) };

    println!("=== degrade — budgeted serving under slow/stall nemeses ===");
    println!(
        "threads = {}, smoke = {smoke}, universe = {}, steps = {}, budget = {}",
        bcc_par::current_threads(),
        cfg.universe,
        cfg.steps,
        cfg.budget,
    );
    println!();

    let start = std::time::Instant::now();
    let slow = sweep(DegradeNemesis::SlowLane, slow_seeds, &cfg)?;
    let stall = sweep(DegradeNemesis::Stall, stall_seeds, &cfg)?;
    println!(
        "slow-lane: {} seeds, {} responses ({} exact / {} stale-cache / {} partial), \
         breakers opened {} closed {} shed {}",
        slow.seeds,
        slow.responses,
        slow.exact,
        slow.stale_cache,
        slow.partial,
        slow.breaker_opened,
        slow.breaker_closed,
        slow.breaker_shed,
    );
    println!(
        "stall:     {} seeds, {} responses ({} exact / {} stale-cache / {} partial), \
         breakers opened {} closed {} shed {}",
        stall.seeds,
        stall.responses,
        stall.exact,
        stall.stale_cache,
        stall.partial,
        stall.breaker_opened,
        stall.breaker_closed,
        stall.breaker_shed,
    );

    replay_across_threads(replay_seeds, &cfg, DegradeNemesis::SlowLane)?;
    replay_across_threads(replay_seeds, &cfg, DegradeNemesis::Stall)?;
    println!("replayed {replay_seeds} artifact(s) per nemesis bit-identically under 1/2/8 threads");
    println!("sweep finished in {:.1?}", start.elapsed());
    println!();

    let json = format!(
        "{{\n  \"bench\": \"degrade\",\n  \"smoke\": {smoke},\n  \"universe\": {},\n  \
         \"steps\": {},\n  \"queries_per_step\": {},\n  \"budget\": {},\n  \
         \"slow_lane\": {},\n  \"stall\": {},\n  \"replayed_per_nemesis\": {replay_seeds}\n}}\n",
        cfg.universe,
        cfg.steps,
        cfg.queries_per_step,
        cfg.budget,
        sweep_json(&slow),
        sweep_json(&stall),
    );
    if json_path == "-" {
        println!("{json}");
    } else {
        std::fs::write(&json_path, &json).map_err(|e| format!("write {json_path}: {e}"))?;
        println!("wrote {json_path}");
    }

    for (name, s) in [("slow-lane", &slow), ("stall", &stall)] {
        if s.unlabeled_degraded != 0 {
            return Err(format!(
                "{name}: {} degraded response(s) served unlabeled",
                s.unlabeled_degraded
            ));
        }
        if s.stuck_open != 0 {
            return Err(format!(
                "{name}: {} breaker lane(s) failed to re-close",
                s.stuck_open
            ));
        }
    }
    // The sweeps must actually exercise the ladder, or the oracles above
    // pass vacuously.
    for (name, s) in [("slow-lane", &slow), ("stall", &stall)] {
        if s.stale_cache == 0 || s.partial == 0 || s.breaker_opened == 0 {
            return Err(format!(
                "{name}: sweep never exercised the full degradation ladder: \
                 stale_cache {}, partial {}, breaker_opened {}",
                s.stale_cache, s.partial, s.breaker_opened
            ));
        }
    }
    println!(
        "all degradation oracles held across {} seeds",
        slow.seeds + stall.seeds
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("degrade: {e}");
            ExitCode::FAILURE
        }
    }
}
