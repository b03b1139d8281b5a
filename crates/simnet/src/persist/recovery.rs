//! Kill-restart chaos tier: crash the process, recover from storage,
//! keep running the schedule.
//!
//! [`KillRestart`], a column of the chaos run ([`run_schedule_with_stats`]),
//! journals every churn event, snapshots periodically, and — on a fixed
//! cadence — *kills* the [`DynamicSystem`] and replaces it with one
//! recovered from the (optionally fault-injecting) storage;
//! [`run_recovery_schedule`] is the run with that column. The recovery
//! oracles require the recovered system to be bit-identical to the one
//! that was killed: same epoch, same live overlay digest, same
//! cold-restart fixpoint, same index stamp, and zero from-scratch index
//! builds. The per-step chaos oracles then keep running against the
//! recovered system, so any post-restart drift is caught on the very
//! next step.
//!
//! Runs are fully deterministic (seeded schedules, seeded storage
//! faults), so a [`RecoveryArtifact`] pins a run's counters and final
//! digest the same way chaos [`ReplayArtifact`]s pin schedules.
//!
//! [`ReplayArtifact`]: crate::chaos::ReplayArtifact

use super::error::PersistError;
use super::storage::{FaultyStorage, StorageFaultPlan};
use super::store::SnapshotStore;
use bcc_metric::{BandwidthMatrix, NodeId};

use crate::chaos::{
    chaos_classes, generate_schedule, run_schedule_with_stats, seeded_universe, ChaosConfig,
    ChaosError, ChaosOutcome, ChaosStep, OracleStats, ReplayRecord,
};
use crate::churn::{ChurnOp, DynamicSystem};
use crate::config::SystemConfig;

/// Cadences and fault plan for the kill-restart tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// A snapshot is taken every this many steps (step 0 included, so a
    /// recovery base always exists before the first kill).
    pub snapshot_every: usize,
    /// The live system is killed and recovered every this many steps.
    pub kill_every: usize,
    /// Storage corruption to inject, if any.
    pub storage_faults: Option<StorageFaultPlan>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            snapshot_every: 4,
            kill_every: 7,
            storage_faults: None,
        }
    }
}

/// Everything one kill-restart run produced: the underlying chaos
/// outcome, the oracle-work counters, and the recovery bookkeeping.
#[derive(Debug, Default)]
pub struct RecoveryOutcome {
    /// Outcome of the schedule itself (per-step chaos oracles).
    pub outcome: ChaosOutcome,
    /// Cold-reference memo counters from the per-step oracles.
    pub oracle_stats: OracleStats,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Kill-restart cycles performed.
    pub kills: u64,
    /// Recoveries that had to fall back past a corrupted newest
    /// generation.
    pub fallback_recoveries: u64,
    /// Snapshot generations skipped because their bytes failed
    /// verification (summed across all recoveries).
    pub corruption_detected: u64,
    /// Snapshot writes the fault plan actually corrupted.
    pub corrupted_writes: u64,
    /// Journal records replayed across all recoveries.
    pub replayed_ops: u64,
    /// Recovery-oracle failures (empty on a clean run).
    pub failures: Vec<String>,
    /// A recovery that failed outright, if one did.
    pub persist_error: Option<PersistError>,
}

impl RecoveryOutcome {
    /// `true` when the schedule passed every oracle, every recovery
    /// oracle held, and no recovery failed.
    pub fn passed(&self) -> bool {
        matches!(self.outcome, ChaosOutcome::Passed { .. })
            && self.failures.is_empty()
            && self.persist_error.is_none()
    }

    /// The final overlay digest, for passing runs.
    pub fn final_digest(&self) -> Option<u64> {
        match self.outcome {
            ChaosOutcome::Passed { final_digest } => final_digest,
            ChaosOutcome::Violated(_) => None,
        }
    }
}

/// The kill-restart column: journals, snapshots, kills and recovers the
/// reference system of a chaos run, and checks that every recovered
/// system equals the one that was killed.
///
/// Attach [`step`](KillRestart::step) as (part of) the hook of
/// [`run_schedule_with_stats`].
#[derive(Debug)]
pub struct KillRestart {
    bandwidth: BandwidthMatrix,
    sys_cfg: SystemConfig,
    rcfg: RecoveryConfig,
    store: SnapshotStore<FaultyStorage>,
    out: RecoveryOutcome,
}

impl KillRestart {
    /// The column for the run of `seed` over `universe` hosts, at the
    /// cadences and over the storage faults of `rcfg`.
    ///
    /// # Panics
    ///
    /// Panics if either cadence in `rcfg` is zero.
    pub fn new(seed: u64, universe: usize, rcfg: &RecoveryConfig) -> Self {
        assert!(
            rcfg.snapshot_every > 0 && rcfg.kill_every > 0,
            "recovery cadences must be positive"
        );
        // Always run through the fault-injecting storage; a plan with zero
        // probabilities never corrupts, so the clean tier is the same code.
        let plan = rcfg
            .storage_faults
            .unwrap_or_else(|| StorageFaultPlan::new(seed));
        KillRestart {
            bandwidth: seeded_universe(seed, universe),
            sys_cfg: SystemConfig::new(chaos_classes()),
            rcfg: *rcfg,
            store: SnapshotStore::new(FaultyStorage::new(plan)),
            out: RecoveryOutcome::default(),
        }
    }

    /// The bookkeeping so far (`outcome` and `oracle_stats` stay default).
    pub fn outcome(&self) -> &RecoveryOutcome {
        &self.out
    }

    /// Journals an op applied to the system outside the schedule, with the
    /// system's epoch after it: the next recovery replays it too.
    pub fn log(&mut self, op: ChurnOp, host: NodeId, epoch: u64) {
        self.store.log(op, host, epoch);
    }

    /// After one applied step: journal its churn event, snapshot and kill on
    /// cadence, and replace `sys` with the system recovered from storage.
    pub fn step(&mut self, sys: &mut DynamicSystem, step: &ChaosStep<'_>) {
        let (out, index) = (&mut self.out, step.index);
        if out.persist_error.is_some() {
            return; // a failed recovery already ended the experiment
        }
        if let Some((op, host)) = step.event.as_churn() {
            // Journal the op even when the live system skipped it
            // benignly (e.g. a double join): replay skips it the same
            // way, and the recorded post-op epoch pins that equivalence.
            self.store.log(op, host, sys.epoch());
        }
        if index.is_multiple_of(self.rcfg.snapshot_every) {
            self.store.snapshot(sys);
            out.snapshots += 1;
        }
        if index % self.rcfg.kill_every != self.rcfg.kill_every - 1 {
            return;
        }
        out.kills += 1;
        let pre_epoch = sys.epoch();
        let pre_digest = sys.live_digest();
        let pre_stamp = sys.index_stamp();
        let (recovered, report) = match self.store.recover(&self.bandwidth, &self.sys_cfg) {
            Ok(recovered) => recovered,
            Err(e) => {
                out.failures
                    .push(format!("step {index}: recovery failed: {e}"));
                out.persist_error = Some(e);
                return;
            }
        };
        out.replayed_ops += report.replayed_ops as u64;
        if !report.skipped_generations.is_empty() {
            out.fallback_recoveries += 1;
            out.corruption_detected += report.skipped_generations.len() as u64;
        }
        let mut fail = |detail: String| out.failures.push(format!("step {index}: {detail}"));
        if recovered.epoch() != pre_epoch {
            fail(format!(
                "recovered epoch {} != pre-kill epoch {pre_epoch}",
                recovered.epoch()
            ));
        }
        if recovered.live_digest() != pre_digest {
            fail(format!(
                "recovered digest {:?} != pre-kill digest {pre_digest:?}",
                recovered.live_digest()
            ));
        }
        match recovered.cold_restart_digest() {
            Ok(cold) if cold == pre_digest => {}
            Ok(cold) => fail(format!(
                "cold-restart digest {cold:?} != pre-kill digest {pre_digest:?}"
            )),
            Err(e) => fail(format!("cold-restart reference failed: {e}")),
        }
        if recovered.index_stamp() != pre_stamp {
            fail(format!(
                "recovered index stamp {:?} != pre-kill stamp {pre_stamp:?}",
                recovered.index_stamp()
            ));
        }
        let full_builds = recovered.cluster_index().stats().full_builds;
        if full_builds != 0 {
            fail(format!(
                "warm recovery took {full_builds} from-scratch index build(s)"
            ));
        }
        *sys = recovered;
    }
}

/// Runs `seed`'s chaos schedule with the [`KillRestart`] column attached.
///
/// # Panics
///
/// Panics if either cadence in `rcfg` is zero.
pub fn run_recovery_schedule(
    seed: u64,
    cfg: &ChaosConfig,
    rcfg: &RecoveryConfig,
) -> RecoveryOutcome {
    let schedule = generate_schedule(seed, cfg);
    let mut column = KillRestart::new(seed, cfg.universe, rcfg);
    let (outcome, oracle_stats) =
        run_schedule_with_stats(seed, cfg, &schedule, |sys, step| column.step(sys, step));
    let mut out = column.out;
    out.outcome = outcome;
    out.oracle_stats = oracle_stats;
    out.corrupted_writes = column.store.storage().injected();

    // Satellite oracle: the cold-reference memo must actually be
    // memoizing — misses are bounded by the schedule's churn steps.
    let churn_steps = schedule.iter().filter(|e| e.as_churn().is_some()).count() as u64;
    if oracle_stats.cold_misses > churn_steps + 1 {
        out.failures.push(format!(
            "cold-reference memo missed {} times for {churn_steps} churn steps",
            oracle_stats.cold_misses
        ));
    }
    out
}

/// A pinned, re-runnable record of one kill-restart run, as one
/// [`ReplayRecord`]: the inputs (seed, sizes, cadences, storage-fault
/// probabilities when faults were injected; the plan's seed is the run
/// seed) and the outputs the rerun must reproduce exactly (counters and
/// final digest).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryArtifact(ReplayRecord);

impl RecoveryArtifact {
    /// Captures a run of `seed` under the given configs as an artifact.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Persist`] if a recovery failed outright;
    /// [`ChaosError::Artifact`] if the run violated a chaos or recovery
    /// oracle (kill-restart pins are for passing runs).
    pub fn capture(
        seed: u64,
        cfg: &ChaosConfig,
        rcfg: &RecoveryConfig,
    ) -> Result<Self, ChaosError> {
        let out = run_recovery_schedule(seed, cfg, rcfg);
        if let Some(e) = out.persist_error {
            return Err(ChaosError::Persist(e));
        }
        if !out.passed() {
            return Err(ChaosError::Artifact {
                detail: format!(
                    "run did not pass: outcome {:?}, failures {:?}",
                    out.outcome, out.failures
                ),
            });
        }
        // `steps` records the whole schedule, initial joins included.
        let mut rec = ReplayRecord::new(None)
            .with_u64("seed", seed)
            .with_u64("universe", cfg.universe as u64)
            .with_u64("steps", (cfg.steps + cfg.universe.min(4)) as u64)
            .with_u64("snapshot_every", rcfg.snapshot_every as u64)
            .with_u64("kill_every", rcfg.kill_every as u64);
        if let Some(plan) = rcfg.storage_faults {
            rec = rec
                .with_f64("torn_write", plan.torn_write)
                .with_f64("bit_flip", plan.bit_flip);
        }
        rec = rec
            .with_u64("kills", out.kills)
            .with_u64("fallback_recoveries", out.fallback_recoveries)
            .with_u64("corrupted_writes", out.corrupted_writes)
            .with_u64("replayed_ops", out.replayed_ops);
        if let Some(d) = out.final_digest() {
            rec = rec.with_digest("final_digest", d);
        }
        Ok(RecoveryArtifact(rec))
    }

    /// Re-runs the pinned configuration and verifies every recorded
    /// counter and the final digest reproduce exactly.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Persist`] if a recovery failed;
    /// [`ChaosError::Artifact`] naming a missing or ill-typed input or
    /// the first field the re-run moved.
    pub fn replay(&self) -> Result<(), ChaosError> {
        let rec = &self.0;
        let (seed, universe) = (rec.u64("seed")?, rec.universe()?);
        let storage_faults = match (rec.opt_f64("torn_write")?, rec.opt_f64("bit_flip")?) {
            (None, None) => None,
            (Some(torn), Some(flip)) => {
                Some(StorageFaultPlan::new(seed).torn_write(torn).bit_flip(flip))
            }
            _ => return Err("recovery artifact fault fields must be paired".into()),
        };
        let cfg = ChaosConfig {
            universe,
            steps: rec.usize("steps")?.saturating_sub(universe.min(4)),
        };
        let rcfg = RecoveryConfig {
            snapshot_every: rec.usize("snapshot_every")?,
            kill_every: rec.usize("kill_every")?,
            storage_faults,
        };
        if rcfg.snapshot_every == 0 || rcfg.kill_every == 0 {
            return Err("recovery artifact cadences must be positive".into());
        }
        rec.expect_same(&Self::capture(seed, &cfg, &rcfg)?.0)
    }

    /// Serializes to deterministic, diff-friendly JSON.
    pub fn to_json(&self) -> String {
        self.0.to_json()
    }

    /// Parses an artifact produced by [`RecoveryArtifact::to_json`].
    ///
    /// # Errors
    ///
    /// Those of [`ReplayRecord::from_json`].
    pub fn from_json(text: &str) -> Result<Self, ChaosError> {
        ReplayRecord::from_json(text, None).map(RecoveryArtifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(steps: usize) -> ChaosConfig {
        ChaosConfig { universe: 6, steps }
    }

    #[test]
    fn clean_kill_restart_runs_pass_deterministically() {
        let rcfg = RecoveryConfig::default();
        for seed in 0..4u64 {
            let out = run_recovery_schedule(seed, &cfg(14), &rcfg);
            assert!(
                out.passed(),
                "seed {seed}: {:?} {:?}",
                out.outcome,
                out.failures
            );
            assert!(out.kills >= 2, "seed {seed} must kill at least twice");
            assert_eq!(out.corrupted_writes, 0);
            assert_eq!(out.fallback_recoveries, 0);
            let again = run_recovery_schedule(seed, &cfg(14), &rcfg);
            assert_eq!(out.final_digest(), again.final_digest());
            assert_eq!(out.replayed_ops, again.replayed_ops);
        }
    }

    #[test]
    fn corrupted_snapshots_are_detected_and_fallen_back_from() {
        // High fault probabilities: most eligible snapshot writes are
        // corrupted, yet the interlock guarantees a valid generation, so
        // every run must still pass — recovering through fallback.
        let mut saw_fallback = false;
        for seed in 0..8u64 {
            let rcfg = RecoveryConfig {
                storage_faults: Some(StorageFaultPlan::new(seed).torn_write(0.6).bit_flip(0.6)),
                ..RecoveryConfig::default()
            };
            let out = run_recovery_schedule(seed, &cfg(14), &rcfg);
            assert!(
                out.passed(),
                "seed {seed}: {:?} {:?}",
                out.outcome,
                out.failures
            );
            assert_eq!(
                out.fallback_recoveries > 0,
                out.corruption_detected > 0,
                "fallbacks and detections move together"
            );
            saw_fallback |= out.fallback_recoveries > 0;
        }
        assert!(
            saw_fallback,
            "8 seeds at 60% corruption must exercise fallback at least once"
        );
    }

    #[test]
    fn artifacts_round_trip_and_replay() {
        let rcfg = RecoveryConfig {
            storage_faults: Some(StorageFaultPlan::new(5).torn_write(0.5).bit_flip(0.5)),
            ..RecoveryConfig::default()
        };
        let artifact = RecoveryArtifact::capture(5, &cfg(14), &rcfg).unwrap();
        let text = artifact.to_json();
        let back = RecoveryArtifact::from_json(&text).unwrap();
        assert_eq!(back, artifact);
        back.replay().unwrap();

        // Tampering any pinned counter must make replay diverge.
        let ops = artifact.0.u64("replayed_ops").unwrap();
        let tampered = text.replace(
            &format!("\"replayed_ops\": {ops}"),
            &format!("\"replayed_ops\": {}", ops + 1),
        );
        let err = RecoveryArtifact::from_json(&tampered)
            .unwrap()
            .replay()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "replay diverged on replayed_ops: recorded {}, got {ops}",
                ops + 1
            )
        );
    }

    #[test]
    fn malformed_recovery_artifacts_are_rejected() {
        for bad in ["{}", r#"{"seed": 1, "universe": 6}"#, "nope"] {
            assert!(
                RecoveryArtifact::from_json(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}
