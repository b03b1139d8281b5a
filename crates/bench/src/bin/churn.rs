//! `churn` — per-op cost of incremental overlay maintenance vs the full
//! rebuild it replaced, checked in as `BENCH_churn.json`.
//!
//! ```sh
//! # Full sweep (64 / 256 / 1024 hosts, 200 ops each):
//! cargo run --release -p bcc-bench --bin churn
//!
//! # CI smoke sweep (byte-stable BENCH_churn.json):
//! cargo run --release -p bcc-bench --bin churn -- --smoke
//! ```
//!
//! Each size bootstraps a fully-joined [`bcc_simnet::DynamicSystem`] and
//! drives a deterministic join/leave/crash/recover schedule through it,
//! recording the overlay's own work counters ([`bcc_simnet::OverlayStats`])
//! per op. The rebuild baseline is measured, not assumed:
//! [`DynamicSystem::rebuild_cost_probe`] converges a blank overlay of the
//! same membership and reports its rounds, messages and predicted-matrix
//! entries — the cost every single churn op paid before incremental
//! maintenance.
//!
//! The binary enforces the maintenance oracles over the whole sweep and
//! exits non-zero on any violation:
//!
//! - zero full reconvergences after bootstrap (every op repaired the
//!   overlay in place);
//! - the live digest equals the cold-restart digest after every schedule
//!   (the incremental fixpoint is bit-identical to a rebuild's);
//! - at 1024 hosts the mean per-op work is at least 10x below the
//!   rebuild baseline, and a focused repair sends at most 1000 messages
//!   an op on average (a host re-sends only what its neighbor does not
//!   already hold).
//!
//! The JSON report contains only deterministic counters — never
//! wall-clock — so two runs at the same arguments produce byte-identical
//! files.

use std::process::ExitCode;

use bcc_bench::BenchArgs;
use bcc_core::BandwidthClasses;
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_simnet::{DynamicSystem, SystemConfig};

/// Deterministic splitmix64 step — the schedule and bandwidth generator.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Access-link bandwidth model: every host gets a deterministic capacity
/// tier and a pair's bandwidth is the min of its endpoints' tiers.
fn universe(n: usize, seed: u64) -> BandwidthMatrix {
    let mut state = seed;
    let caps: Vec<f64> = (0..n)
        .map(|_| match mix(&mut state) % 4 {
            0 => 100.0,
            1 => 80.0,
            2 => 30.0,
            _ => 10.0,
        })
        .collect();
    BandwidthMatrix::from_fn(n, |i, j| caps[i].min(caps[j]))
}

/// Per-op maxima and totals accumulated over one schedule.
#[derive(Default)]
struct OpCosts {
    ops: u64,
    joins: u64,
    leaves: u64,
    crashes: u64,
    recovers: u64,
    messages: u64,
    messages_max: u64,
    rounds_max: u64,
    region_max: u64,
    predicted_entries: u64,
}

impl OpCosts {
    fn mean_messages(&self) -> f64 {
        self.messages as f64 / self.ops.max(1) as f64
    }
}

struct SizeReport {
    universe: usize,
    costs: OpCosts,
    rebuild_rounds: u64,
    rebuild_messages: u64,
    rebuild_entries: u64,
    speedup: f64,
    live_digest: u64,
}

/// Runs the deterministic churn schedule at one universe size and
/// measures incremental per-op cost against the rebuild baseline.
fn run_size(n: usize, ops: u64, seed: u64) -> Result<SizeReport, String> {
    let bw = universe(n, seed);
    let classes = BandwidthClasses::new(vec![25.0, 75.0], RationalTransform::default());
    let hosts: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut sys = DynamicSystem::bootstrap(bw, SystemConfig::new(classes), &hosts)
        .map_err(|e| format!("n={n}: bootstrap failed: {e}"))?;

    let mut state = seed ^ 0xC0FF_EE00_DEAD_BEEF;
    let mut costs = OpCosts::default();
    let mut out: Vec<NodeId> = Vec::new(); // left or crashed, crashed flagged below
    let mut crashed: Vec<NodeId> = Vec::new();
    for _ in 0..ops {
        let r = mix(&mut state);
        let kind = r % 4;
        let result = match kind {
            0 if !out.is_empty() => {
                let h = out.swap_remove((r >> 8) as usize % out.len());
                costs.joins += 1;
                sys.join(h)
            }
            1 if !crashed.is_empty() => {
                let h = crashed.swap_remove((r >> 8) as usize % crashed.len());
                costs.recovers += 1;
                sys.recover(h)
            }
            k => {
                // Departures dominate the generator's fallbacks, so cap
                // them at half the universe to keep the system busy.
                let active: Vec<NodeId> = sys.active().collect();
                if active.len() <= n / 2 {
                    let h = if out.is_empty() {
                        continue;
                    } else {
                        out.swap_remove((r >> 8) as usize % out.len())
                    };
                    costs.joins += 1;
                    sys.join(h)
                } else {
                    let h = active[(r >> 8) as usize % active.len()];
                    if k == 2 {
                        costs.crashes += 1;
                        crashed.push(h);
                        sys.crash(h)
                    } else {
                        costs.leaves += 1;
                        out.push(h);
                        sys.leave(h)
                    }
                }
            }
        };
        result.map_err(|e| format!("n={n}: churn op failed: {e}"))?;
        costs.ops += 1;
        let st = sys.overlay_stats();
        costs.messages += st.last_messages;
        costs.messages_max = costs.messages_max.max(st.last_messages);
        costs.rounds_max = costs.rounds_max.max(st.last_rounds);
        costs.region_max = costs.region_max.max(st.last_region);
        costs.predicted_entries += st.last_predicted_entries;
    }

    let stats = sys.overlay_stats();
    if stats.full_reconvergences != 1 {
        return Err(format!(
            "n={n}: {} full reconvergence(s) — only the bootstrap may pay one",
            stats.full_reconvergences
        ));
    }
    if stats.incremental_ops != costs.ops {
        return Err(format!(
            "n={n}: {} incremental op(s) recorded for {} applied",
            stats.incremental_ops, costs.ops
        ));
    }
    let live = sys
        .live_digest()
        .ok_or_else(|| format!("n={n}: schedule drained the membership"))?;
    let cold = sys
        .cold_restart_digest()
        .map_err(|e| format!("n={n}: cold reference failed: {e}"))?;
    if cold != Some(live) {
        return Err(format!(
            "n={n}: live digest {live:016x} differs from the cold-restart fixpoint {cold:?}"
        ));
    }

    let probe = sys
        .rebuild_cost_probe()
        .map_err(|e| format!("n={n}: rebuild probe failed: {e}"))?
        .expect("membership is non-empty");
    // Work = gossip messages + predicted-matrix entries computed; both
    // paths are measured in the same units.
    let op_work = (costs.messages + costs.predicted_entries) as f64 / costs.ops.max(1) as f64;
    let rebuild_work = (probe.messages + probe.predicted_entries) as f64;
    let speedup = rebuild_work / op_work.max(1.0);

    Ok(SizeReport {
        universe: n,
        costs,
        rebuild_rounds: probe.rounds,
        rebuild_messages: probe.messages,
        rebuild_entries: probe.predicted_entries,
        speedup,
        live_digest: live,
    })
}

fn size_json(r: &SizeReport) -> String {
    let c = &r.costs;
    let mean_messages = c.mean_messages();
    format!(
        "{{\"universe\": {}, \"ops\": {}, \"joins\": {}, \"leaves\": {}, \
         \"crashes\": {}, \"recovers\": {}, \
         \"op_messages_mean\": {mean_messages:.1}, \"op_messages_max\": {}, \
         \"op_rounds_max\": {}, \"op_region_max\": {}, \
         \"op_predicted_entries_total\": {}, \
         \"rebuild_rounds\": {}, \"rebuild_messages\": {}, \
         \"rebuild_predicted_entries\": {}, \
         \"per_op_speedup\": {:.1}, \"live_digest\": \"{:016x}\"}}",
        r.universe,
        c.ops,
        c.joins,
        c.leaves,
        c.crashes,
        c.recovers,
        c.messages_max,
        c.rounds_max,
        c.region_max,
        c.predicted_entries,
        r.rebuild_rounds,
        r.rebuild_messages,
        r.rebuild_entries,
        r.speedup,
        r.live_digest,
    )
}

fn run() -> Result<ExitCode, String> {
    let args = BenchArgs::from_env();
    args.expect_known(&["--smoke"], &["--json"])?;
    let smoke = args.flag("--smoke");
    let json_path = args
        .value("--json")
        .unwrap_or("BENCH_churn.json")
        .to_string();

    bcc_obs::set_logical_time(1_000);
    let ops = if smoke { 40 } else { 200 };
    let sizes = [64usize, 256, 1024];

    println!("=== churn — incremental overlay maintenance vs full rebuild ===");
    println!("smoke = {smoke}, sizes = {sizes:?}, ops per size = {ops}");
    println!();

    let start = std::time::Instant::now();
    let mut reports = Vec::new();
    for &n in &sizes {
        let r = run_size(n, ops, 0x5EED_0001 + n as u64)?;
        println!(
            "n = {:4}: {} ops ({} join / {} leave / {} crash / {} recover), \
             mean {:.1} msgs/op (max {}), rebuild {} msgs -> {:.1}x per-op speedup",
            r.universe,
            r.costs.ops,
            r.costs.joins,
            r.costs.leaves,
            r.costs.crashes,
            r.costs.recovers,
            r.costs.mean_messages(),
            r.costs.messages_max,
            r.rebuild_messages,
            r.speedup,
        );
        reports.push(r);
    }
    println!("sweep finished in {:.1?}", start.elapsed());
    println!();

    let json = format!(
        "{{\n  \"bench\": \"churn\",\n  \"smoke\": {smoke},\n  \"ops_per_size\": {ops},\n  \
         \"sizes\": [\n    {}\n  ]\n}}\n",
        reports
            .iter()
            .map(size_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    if json_path == "-" {
        println!("{json}");
    } else {
        std::fs::write(&json_path, &json).map_err(|e| format!("write {json_path}: {e}"))?;
        println!("wrote {json_path}");
    }

    // The headline acceptance bar: at 1024 hosts a churn op must cost at
    // least 10x less than the full rebuild it replaced.
    let big = reports
        .iter()
        .find(|r| r.universe == 1024)
        .expect("1024 is in the sweep");
    if big.speedup < 10.0 {
        return Err(format!(
            "per-op speedup at n=1024 is {:.1}x, below the 10x bar",
            big.speedup
        ));
    }
    // Suppressed sends keep a repair's traffic near the records that
    // moved: 709.0 messages an op here, 5038.2 when every disturbed host
    // re-sent everything.
    let mean_messages = big.costs.mean_messages();
    if mean_messages > 1000.0 {
        return Err(format!(
            "mean messages per op at n=1024 is {mean_messages:.1}, above the 1000 bar"
        ));
    }
    println!(
        "all maintenance oracles held; n=1024 per-op speedup {:.1}x, {mean_messages:.1} msgs/op",
        big.speedup
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("churn: {e}");
            ExitCode::FAILURE
        }
    }
}
