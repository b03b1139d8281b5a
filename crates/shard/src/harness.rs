//! Chaos harness for the sharded serving layer: one seeded churn
//! schedule drives an unsharded baseline [`DynamicSystem`] and a fleet of
//! [`Coordinator`]s at shard counts {1, 2, 4} in lockstep, while a
//! repeated region-query workload checks the headline oracle after every
//! event — **every Exact coordinator answer is bit-identical to the
//! unsharded answer, at every shard count, cached or not**.
//!
//! Deterministic partition windows additionally take one shard offline on
//! a fixed cadence: queries whose ball needs the missing shard must come
//! back *labeled* Degraded (never cached), everything else must stay
//! Exact and bit-identical, and after the window heals the fleet must
//! re-align immediately. Error parity rides along: every churn op and
//! every query must fail with exactly the baseline's error value.

use bcc_core::{fnv1a, FNV_OFFSET};
use bcc_metric::NodeId;
use bcc_service::ServiceConfig;
use bcc_simnet::chaos::{chaos_classes, expect, universe_bandwidth, ReplayRecord, CLASS_BOUNDS};
use bcc_simnet::{ChaosError, ChurnOp, DynamicSystem, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coordinator::{CoordOutcome, Coordinator};
use crate::plan::ShardPlan;

/// XOR salt of the sharded tier's seeded universes
/// (`bcc_simnet::chaos::universe_bandwidth`); the pinned `shard/` corpus
/// digests hang off it.
const UNIVERSE_SALT: u64 = 0x5AAD_BA5E;

/// Cluster sizes the repeated workload cycles through.
const WORKLOAD_KS: [usize; 3] = [2, 3, 4];

/// Shard counts every run compares (1 = the trivial sharding, pinned
/// against the same baseline as the real splits).
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Partition cadence: the first [`PARTITION_WINDOW`] steps of every
/// `PARTITION_PERIOD`-step block run with one shard unreachable.
pub const PARTITION_PERIOD: usize = 8;

/// Steps per period a shard stays unreachable.
pub const PARTITION_WINDOW: usize = 3;

/// Builds the unsharded baseline system over a fresh seeded universe.
///
/// # Panics
///
/// Panics when `universe == 0` (a caller bug).
pub fn seeded_baseline(seed: u64, universe: usize) -> DynamicSystem {
    assert!(universe > 0, "universe must have at least one host");
    DynamicSystem::try_new(
        universe_bandwidth(seed, UNIVERSE_SALT, universe),
        SystemConfig::new(chaos_classes()),
    )
    .expect("default system config is valid")
}

/// Builds a coordinator over the *same* seeded universe as
/// [`seeded_baseline`], contiguously sharded `shard_count` ways.
///
/// # Panics
///
/// Panics when `universe == 0` or `shard_count == 0` (caller bugs).
pub fn seeded_coordinator(seed: u64, universe: usize, shard_count: usize) -> Coordinator {
    assert!(universe > 0, "universe must have at least one host");
    Coordinator::new(
        universe_bandwidth(seed, UNIVERSE_SALT, universe),
        SystemConfig::new(chaos_classes()),
        ShardPlan::contiguous(universe, shard_count),
        ServiceConfig::default(),
    )
    .expect("default shard config is valid")
}

/// Expands a seed into `steps` churn events, `(op, universe host)` pairs,
/// over `universe` hosts. Queries are not scheduled events: the repeated
/// workload supplies them after every event. The generator tracks
/// membership so most events are applicable, but keeps a deliberate slice
/// of invalid ones (double joins, absent recovers; queries at departed
/// hosts come from the workload) — error parity is part of the oracle and
/// needs failing ops to bite on.
pub fn generate_shard_schedule(seed: u64, universe: usize, steps: usize) -> Vec<(ChurnOp, usize)> {
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
            // Nothing to recover: an absent-host recover, exercising the
            // error path on baseline and coordinators alike.
            (ChurnOp::Recover, rng.gen_range(0..universe))
        };
        schedule.push(event);
    }
    schedule
}

/// Tunables for [`shard_chaos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChaosConfig {
    /// Hosts in the measurement universe.
    pub universe: usize,
    /// Churn events after the initial full-universe join.
    pub steps: usize,
    /// Workload queries after every event (each compared across every
    /// shard count).
    pub queries_per_step: usize,
}

impl Default for ShardChaosConfig {
    fn default() -> Self {
        ShardChaosConfig {
            universe: 12,
            steps: 24,
            queries_per_step: 4,
        }
    }
}

/// What one [`shard_chaos`] run did and proved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardChaosReport {
    /// Churn events applied (initial joins excluded).
    pub events: usize,
    /// Workload queries issued (each runs on the baseline and on every
    /// shard count).
    pub queries: u64,
    /// Exact coordinator responses, summed over shard counts — every one
    /// compared bit-for-bit against the baseline answer.
    pub exact: u64,
    /// Labeled Degraded responses (partition windows only), summed.
    pub degraded: u64,
    /// Coordinator cache hits, summed over shard counts — every hit is an
    /// Exact response, so every one was baseline-audited.
    pub cache_hits: u64,
    /// Shard consultations skipped by the boundary prune test, summed.
    pub pruned: u64,
    /// **Oracle (must be 0):** cached responses whose answer differed
    /// from the baseline — a stale serve.
    pub stale_hits: u64,
    /// **Oracle (must be 0):** any other disagreement with the baseline —
    /// a non-cached Exact answer with different bytes, an error-value
    /// mismatch, a Degraded response outside a partition window or
    /// claiming to be cached, or an epoch drift.
    pub divergences: u64,
    /// FNV-1a digest over the ordered baseline query/answer stream — the
    /// replay fingerprint.
    pub digest: u64,
}

/// Applies one churn event to the baseline and every coordinator,
/// checking error parity. Returns the divergences observed.
fn apply_event(
    baseline: &mut DynamicSystem,
    coords: &mut [Coordinator],
    (op, host): (ChurnOp, usize),
) -> u64 {
    let host = NodeId::new(host);
    let base = baseline.apply(op, host);
    let mut divergences = 0;
    for coord in coords.iter_mut() {
        if coord.apply(op, host) != base {
            divergences += 1;
        }
        if coord.epoch() != baseline.epoch() {
            divergences += 1;
        }
    }
    divergences
}

/// Runs one workload query everywhere and scores every coordinator
/// response against the baseline.
fn run_query(
    baseline: &DynamicSystem,
    coords: &mut [Coordinator],
    start: NodeId,
    k: usize,
    bandwidth: f64,
    in_window: bool,
    report: &mut ShardChaosReport,
) {
    let base = baseline.cluster_near(start, k, bandwidth);
    report.queries += 1;
    let line = format!("{}|{}|{}|{:?}\n", start.index(), k, bandwidth, base);
    report.digest = fnv1a(report.digest, line.as_bytes());
    for coord in coords.iter_mut() {
        match (&base, coord.cluster_near(start, k, bandwidth)) {
            (Err(want), Err(got)) => {
                if *want != got {
                    report.divergences += 1;
                }
            }
            (Ok(want), Ok(resp)) => match &resp.outcome {
                CoordOutcome::Exact { cluster } => {
                    report.exact += 1;
                    if cluster != want {
                        if resp.cached {
                            report.stale_hits += 1;
                        } else {
                            report.divergences += 1;
                        }
                    }
                }
                CoordOutcome::Degraded { .. } => {
                    report.degraded += 1;
                    // Degraded answers only exist inside partition
                    // windows, and are never served from (or into) the
                    // cache.
                    if !in_window || resp.cached {
                        report.divergences += 1;
                    }
                }
            },
            _ => report.divergences += 1,
        }
    }
}

/// Runs the sharded chaos harness for one seed: the same churn schedule
/// drives the baseline and a coordinator per shard count, deterministic
/// partition windows take shards offline on a fixed cadence, and a
/// repeated workload cross-checks every answer after every event.
///
/// Deterministic: the same `(seed, cfg)` produces the same report.
pub fn shard_chaos(seed: u64, cfg: &ShardChaosConfig) -> ShardChaosReport {
    let schedule = generate_shard_schedule(seed, cfg.universe, cfg.steps);
    let mut baseline = seeded_baseline(seed, cfg.universe);
    let mut coords: Vec<Coordinator> = SHARD_COUNTS
        .iter()
        .map(|&s| seeded_coordinator(seed, cfg.universe, s))
        .collect();
    let mut report = ShardChaosReport {
        digest: FNV_OFFSET,
        ..ShardChaosReport::default()
    };

    // Bring the whole universe up everywhere (parity-checked like any
    // other event, not counted as a step).
    for host in 0..cfg.universe {
        report.divergences += apply_event(&mut baseline, &mut coords, (ChurnOp::Join, host));
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD_C0DE);
    for (step, &event) in schedule.iter().enumerate() {
        // Deterministic partition cadence: the first PARTITION_WINDOW
        // steps of every period run with one shard unreachable (a
        // different shard each period, per coordinator).
        let in_window = step % PARTITION_PERIOD < PARTITION_WINDOW;
        for coord in coords.iter_mut() {
            let shard_count = coord.plan().shard_count();
            for s in 0..shard_count {
                coord.set_reachable(s, true);
            }
            if in_window && shard_count > 1 {
                coord.set_reachable((step / PARTITION_PERIOD) % shard_count, false);
            }
        }

        report.divergences += apply_event(&mut baseline, &mut coords, event);
        report.events += 1;

        let live: Vec<NodeId> = baseline.active().collect();
        if live.is_empty() {
            continue;
        }
        for _ in 0..cfg.queries_per_step {
            // Mostly live starts; an occasional arbitrary universe id
            // exercises the crashed/unknown-start error paths.
            let start = if rng.gen_range(0..8) == 0 {
                NodeId::new(rng.gen_range(0..cfg.universe))
            } else {
                live[rng.gen_range(0..live.len())]
            };
            let k = WORKLOAD_KS[rng.gen_range(0..WORKLOAD_KS.len())];
            let bandwidth = CLASS_BOUNDS[rng.gen_range(0..CLASS_BOUNDS.len())] - 1.0;
            run_query(
                &baseline,
                &mut coords,
                start,
                k,
                bandwidth,
                in_window,
                &mut report,
            );
        }
    }

    // Heal every partition and prove the fleet re-aligns: one final
    // workload sweep in which nothing may degrade.
    for coord in coords.iter_mut() {
        for s in 0..coord.plan().shard_count() {
            coord.set_reachable(s, true);
        }
    }
    let live: Vec<NodeId> = baseline.active().collect();
    for (i, &start) in live.iter().enumerate() {
        let k = WORKLOAD_KS[i % WORKLOAD_KS.len()];
        let bandwidth = CLASS_BOUNDS[i % CLASS_BOUNDS.len()] - 1.0;
        run_query(
            &baseline,
            &mut coords,
            start,
            k,
            bandwidth,
            false,
            &mut report,
        );
    }

    for coord in &coords {
        let stats = coord.stats();
        report.cache_hits += stats.cache_hits;
        report.pruned += stats.pruned;
    }
    report
}

/// A replayable JSON record of one [`shard_chaos`] run, as one
/// [`ReplayRecord`] of kind `"shard"`: the full input (seed + config), then
/// the output fingerprint (counters summed over shard counts, baseline
/// answer-stream digest). Stored under `tests/chaos_corpus/shard/` and in
/// bench artifacts; replaying re-runs the harness from the inputs and
/// demands a bit-identical record.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArtifact(ReplayRecord);

impl ShardArtifact {
    /// Captures a run as a replayable artifact.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] when the run violates an oracle (stale
    /// serve or baseline divergence): a corpus entry must never freeze a
    /// broken run.
    pub fn capture(
        seed: u64,
        cfg: &ShardChaosConfig,
    ) -> Result<(Self, ShardChaosReport), ChaosError> {
        Self::from_report(seed, cfg, shard_chaos(seed, cfg))
    }

    /// [`ShardArtifact::capture`] of a run that has already been made.
    fn from_report(
        seed: u64,
        cfg: &ShardChaosConfig,
        report: ShardChaosReport,
    ) -> Result<(Self, ShardChaosReport), ChaosError> {
        expect("stale_hits", 0, report.stale_hits)?;
        expect("divergences", 0, report.divergences)?;
        let record = ReplayRecord::new(Some("shard"))
            .with_u64("seed", seed)
            .with_u64("universe", cfg.universe as u64)
            .with_u64("steps", cfg.steps as u64)
            .with_u64("queries_per_step", cfg.queries_per_step as u64)
            .with_u64("queries", report.queries)
            .with_u64("exact", report.exact)
            .with_u64("degraded", report.degraded)
            .with_u64("cache_hits", report.cache_hits)
            .with_u64("pruned", report.pruned)
            .with_digest("digest", report.digest);
        Ok((ShardArtifact(record), report))
    }

    /// Re-runs the harness from the artifact's inputs and checks every
    /// recorded field plus the zero-valued oracles.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] naming a missing or ill-typed input, a
    /// violated oracle or the first field the re-run moved.
    pub fn replay(&self) -> Result<ShardChaosReport, ChaosError> {
        let cfg = ShardChaosConfig {
            universe: self.0.universe()?,
            steps: self.0.usize("steps")?,
            queries_per_step: self.0.usize("queries_per_step")?,
        };
        let (rerun, report) = Self::capture(self.0.u64("seed")?, &cfg)?;
        self.0.expect_same(&rerun.0)?;
        Ok(report)
    }

    /// Serializes to the corpus JSON format (see [`ReplayRecord`]).
    pub fn to_json(&self) -> String {
        self.0.to_json()
    }

    /// Parses the corpus JSON format written by
    /// [`to_json`](ShardArtifact::to_json).
    ///
    /// # Errors
    ///
    /// Those of [`ReplayRecord::from_json`] for kind `"shard"`.
    pub fn from_json(src: &str) -> Result<Self, ChaosError> {
        ReplayRecord::from_json(src, Some("shard")).map(ShardArtifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_chaos_is_deterministic_and_oracle_clean() {
        let cfg = ShardChaosConfig::default();
        let a = shard_chaos(7, &cfg);
        let b = shard_chaos(7, &cfg);
        assert_eq!(a, b, "same seed must reproduce the same report");
        assert!(a.queries > 0, "workload must actually run");
        assert_eq!(a.stale_hits, 0, "no cached answer may be stale");
        assert_eq!(a.divergences, 0, "no answer may diverge from baseline");
    }

    #[test]
    fn partition_windows_actually_degrade_and_heal() {
        // Aggregated over a few seeds the windows must produce labeled
        // degraded answers (otherwise the prune test is covering every
        // partition and the degradation path is untested) and the cache
        // must actually serve.
        let cfg = ShardChaosConfig::default();
        let mut degraded = 0;
        let mut cache_hits = 0;
        let mut pruned = 0;
        for seed in 0..6 {
            let r = shard_chaos(seed, &cfg);
            assert_eq!(r.stale_hits, 0, "seed {seed}: stale serve");
            assert_eq!(r.divergences, 0, "seed {seed}: divergence");
            degraded += r.degraded;
            cache_hits += r.cache_hits;
            pruned += r.pruned;
        }
        assert!(degraded > 0, "partition windows must force degradation");
        assert!(cache_hits > 0, "repeated workload must hit the cache");
        assert!(pruned > 0, "boundary certificates must prune some shards");
    }

    #[test]
    fn shard_artifact_round_trips_and_replays() {
        let cfg = ShardChaosConfig {
            universe: 10,
            steps: 16,
            queries_per_step: 3,
        };
        let (artifact, report) = ShardArtifact::capture(5, &cfg).expect("oracle-clean run");
        let json = artifact.to_json();
        let parsed = ShardArtifact::from_json(&json).expect("parse own output");
        assert_eq!(parsed, artifact, "JSON round trip");
        assert_eq!(parsed.to_json(), json, "serialization fixpoint");
        let replayed = parsed.replay().expect("replay must match");
        assert_eq!(replayed, report, "replay reproduces the full report");
        let bad = json.replace(&report.digest.to_string(), &(report.digest ^ 1).to_string());
        let bad = ShardArtifact::from_json(&bad).expect("still a record");
        assert!(bad.replay().is_err(), "digest divergence must be caught");
    }

    #[test]
    fn a_divergent_run_is_a_typed_capture_error() {
        let report = ShardChaosReport {
            divergences: 1,
            ..ShardChaosReport::default()
        };
        let err = ShardArtifact::from_report(7, &ShardChaosConfig::default(), report).unwrap_err();
        assert!(matches!(err, ChaosError::Artifact { .. }), "{err:?}");
        assert!(err.to_string().contains("divergences"), "{err}");
    }

    #[test]
    fn schedule_generation_is_deterministic() {
        let a = generate_shard_schedule(9, 12, 30);
        let b = generate_shard_schedule(9, 12, 30);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
    }
}
