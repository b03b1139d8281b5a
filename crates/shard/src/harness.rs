//! The differential chaos run: one simnet schedule through every tier.
//!
//! [`differential`] runs seed `s`'s simnet schedule as `bcc-bench chaos`
//! does ([`run_schedule_with_stats`]: the reference [`DynamicSystem`] and
//! every simnet oracle) and attaches a column per tier to the run's hook.
//! After every step each column repeats the step on its own tier and is
//! compared with the reference using `==`:
//!
//! - **kill-restart** ([`KillRestart`], default cadence, clean storage);
//! - **service**: a [`ClusterService`] on its own system over the same
//!   universe gets the churn, the fault windows, the schedule's queries and
//!   a repeated workload ([`submit_workload`]);
//! - **coordinators** at [`SHARD_COUNTS`] get the churn and a region
//!   workload, with one shard unreachable for the first
//!   [`PARTITION_WINDOW`] steps of every [`PARTITION_PERIOD`]; region
//!   answers depend on membership and labels alone, so fault windows
//!   leave them alone;
//! - **rejected-op probe**: each step applies one op that must be rejected
//!   (a join of an active host, a recover of a live one) everywhere.
//!
//! DESIGN.md §9 lists every oracle. A failing run shrinks
//! ([`shrink_schedule`]) into a [`DifferentialArtifact`] that
//! `bcc-bench chaos --replay` re-runs.

use bcc_core::{fnv1a, FNV_OFFSET};
use bcc_metric::{BandwidthMatrix, NodeId};
use bcc_service::{
    submit_workload, ClusterQuery, ClusterService, ServiceConfig, ServiceError, Tier,
};
use bcc_simnet::chaos::{
    chaos_classes, plan_seed, render_answer, render_region, run_fault_window,
    run_schedule_with_stats, seeded_universe, universe_bandwidth, ReplayRecord, CLASS_BOUNDS,
    WORKLOAD_KS,
};
use bcc_simnet::{
    generate_schedule, shrink_schedule, ChaosConfig, ChaosError, ChaosEvent, ChaosOutcome,
    ChaosStep, ChurnOp, DynamicSystem, KillRestart, RecoveryConfig, ReplayArtifact, SystemConfig,
    Violation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coordinator::{CoordOutcome, Coordinator};
use crate::plan::ShardPlan;

/// XOR salt of [`seeded_coordinator`]'s universes; the shard gauges of
/// `bcc-bench serve` hang off it.
const UNIVERSE_SALT: u64 = 0x5AAD_BA5E;

/// Shard counts every run compares (1 = the trivial sharding).
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Partition cadence: the first [`PARTITION_WINDOW`] steps of every
/// `PARTITION_PERIOD`-step block run with one shard unreachable.
pub const PARTITION_PERIOD: usize = 8;

/// Steps per period a shard stays unreachable.
pub const PARTITION_WINDOW: usize = 3;

/// Queries each repeated workload issues after every step.
const QUERIES_PER_STEP: usize = 4;

/// Builds a coordinator over a fresh seeded universe, contiguously sharded
/// `shard_count` ways.
///
/// # Panics
///
/// Panics when `universe == 0` or `shard_count == 0` (caller bugs).
pub fn seeded_coordinator(seed: u64, universe: usize, shard_count: usize) -> Coordinator {
    assert!(universe > 0, "universe must have at least one host");
    let bandwidth = universe_bandwidth(seed, UNIVERSE_SALT, universe);
    coordinator(bandwidth, shard_count)
}

fn coordinator(bandwidth: BandwidthMatrix, shard_count: usize) -> Coordinator {
    let plan = ShardPlan::contiguous(bandwidth.len(), shard_count);
    let config = SystemConfig::new(chaos_classes());
    Coordinator::new(bandwidth, config, plan, ServiceConfig::default())
        .expect("default shard config is valid")
}

/// What a column answered in a differential run, and how it compared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnCounts {
    /// Answers compared with the reference's, errors included.
    pub answers: u64,
    /// Answers labelled exact.
    pub exact: u64,
    /// Answers labelled degraded.
    pub degraded: u64,
    /// Answers served from the column's cache.
    pub cache_hits: u64,
    /// Shard consultations skipped by the prune test (coordinators only).
    pub pruned: u64,
    /// **Oracle (must be 0):** cached answers unlike the reference's.
    pub stale_hits: u64,
    /// **Oracle (must be 0):** every other disagreement with the reference.
    pub divergences: u64,
}

/// What one [`differential`] run did and proved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DifferentialReport {
    /// The first oracle failure of any tier (`None`: every oracle held).
    pub violation: Option<Violation>,
    /// The reference's final digest — the simnet run's, since the
    /// reference *is* that run (`None` after a violation or with no host).
    pub final_digest: Option<u64>,
    /// The service column.
    pub service: ColumnCounts,
    /// The coordinator columns, summed over [`SHARD_COUNTS`].
    pub coordinators: ColumnCounts,
    /// Kill-restart cycles of the reference.
    pub kills: u64,
    /// Journal records replayed across those recoveries.
    pub replayed_ops: u64,
    /// **Oracle (must be 0):** recovered systems unlike the killed ones.
    pub recovery_failures: u64,
    /// Rejected-op probes applied.
    pub probes: u64,
    /// **Oracle (must be 0):** probes the reference accepted or some
    /// column answered with another value.
    pub probe_divergences: u64,
    /// FNV-1a over the reference's answer lines (the query, then
    /// [`render_answer`] or [`render_region`]): the replay fingerprint.
    pub digest: u64,
}

impl DifferentialReport {
    /// `true` when every oracle of every tier held.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// Every counter by its record name, in record order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut counters = Vec::new();
        let columns = [
            ("service", self.service),
            ("coordinator", self.coordinators),
        ];
        for (column, c) in columns {
            for (name, value) in [
                ("answers", c.answers),
                ("exact", c.exact),
                ("degraded", c.degraded),
                ("cache_hits", c.cache_hits),
                ("pruned", c.pruned),
                ("stale_hits", c.stale_hits),
                ("divergences", c.divergences),
            ] {
                counters.push((format!("{column}_{name}"), value));
            }
        }
        for (name, value) in [
            ("kills", self.kills),
            ("replayed_ops", self.replayed_ops),
            ("recovery_failures", self.recovery_failures),
            ("probes", self.probes),
            ("probe_divergences", self.probe_divergences),
        ] {
            counters.push((name.to_string(), value));
        }
        counters
    }
}

/// Folds one answer line into a run digest.
fn digest_line(h: u64, start: NodeId, k: usize, bandwidth: f64, answer: &str) -> u64 {
    let line = format!("{}|{k}|{bandwidth}|{answer}\n", start.index());
    fnv1a(h, line.as_bytes())
}

/// Every column of one differential run, driven by the run's hook.
struct Columns {
    seed: u64,
    kill_restart: KillRestart,
    service: ClusterService,
    service_rng: StdRng,
    coords: Vec<Coordinator>,
    region_rng: StdRng,
    report: DifferentialReport,
}

impl Columns {
    fn new(seed: u64, universe: usize) -> Self {
        let config = SystemConfig::new(chaos_classes());
        let system = DynamicSystem::new(seeded_universe(seed, universe), config);
        let service = ClusterService::new(system, ServiceConfig::default());
        let coordinator = |s| coordinator(seeded_universe(seed, universe), s);
        Columns {
            seed,
            kill_restart: KillRestart::new(seed, universe, &RecoveryConfig::default()),
            service: service.expect("default service config is valid"),
            service_rng: StdRng::seed_from_u64(seed ^ 0x0B5E_55ED),
            coords: SHARD_COUNTS.iter().map(|&s| coordinator(s)).collect(),
            region_rng: StdRng::seed_from_u64(seed ^ 0x5AAD_C0DE),
            report: DifferentialReport {
                digest: FNV_OFFSET,
                ..DifferentialReport::default()
            },
        }
    }

    /// Keeps the first oracle failure as the run's violation.
    fn note(&mut self, step: usize, oracle: &str, detail: String) {
        let oracle = oracle.to_string();
        self.report.violation.get_or_insert(Violation {
            step,
            oracle,
            detail,
        });
    }

    /// The hook body: every column, after the reference applied `step`.
    fn step(&mut self, reference: &mut DynamicSystem, step: &ChaosStep<'_>, last: bool) {
        let failures = self.kill_restart.outcome().failures.len();
        self.kill_restart.step(reference, step);
        if let Some(failure) = self.kill_restart.outcome().failures.get(failures) {
            self.note(step.index, "recovery", failure.clone());
        }
        self.service_step(reference, step);
        self.coordinator_step(reference, step);
        self.probe(reference, step.index);
        if last {
            // Heal every partition: nothing may degrade any more.
            for coord in &mut self.coords {
                for s in 0..coord.plan().shard_count() {
                    coord.set_reachable(s, true);
                }
            }
            let live: Vec<NodeId> = reference.active().collect();
            for (i, &start) in live.iter().enumerate() {
                let k = WORKLOAD_KS[i % WORKLOAD_KS.len()];
                let bandwidth = CLASS_BOUNDS[i % CLASS_BOUNDS.len()] - 1.0;
                self.region_query(reference, step.index, (start, k, bandwidth), false);
            }
        }
    }

    fn service_step(&mut self, reference: &DynamicSystem, step: &ChaosStep<'_>) {
        let (i, service) = (step.index, &mut self.service);
        let churn = step
            .event
            .as_churn()
            .map(|(op, host)| service.apply(op, host));
        let plan_seed = plan_seed(self.seed, i);
        let applied = match *step.event {
            _ if churn.is_some() => Ok(()),
            ChaosEvent::Query {
                start,
                k,
                bandwidth,
            } => {
                let start = NodeId::new(start);
                let retry = service.config().retry;
                let want = reference.query_resilient(start, k, bandwidth, &retry).err();
                // A query refused at admission is one the reference refuses.
                match service.submit(ClusterQuery::new(start, k, bandwidth)) {
                    Err(ServiceError::Rejected(e)) if want == Some(e.clone()) => Ok(()),
                    got => got.map(drop).map_err(|e| e.to_string()),
                }
            }
            _ => service
                .with_system_mut(|sys| run_fault_window(sys, step.event, plan_seed))
                .map_err(|e| e.to_string()),
        };
        let sys = service.system();
        let got = (
            churn,
            applied,
            sys.epoch(),
            sys.live_digest(),
            sys.index_stamp(),
        );
        let want = (
            step.churn.clone(),
            Ok(()),
            reference.epoch(),
            reference.live_digest(),
            reference.index_stamp(),
        );
        if got != want {
            self.report.service.divergences += 1;
            self.note(i, "service", format!("{got:?}, the reference {want:?}"));
        }

        submit_workload(&mut self.service, &mut self.service_rng, QUERIES_PER_STEP);
        for response in self.service.drain() {
            let q = response.query;
            let retry = &self.service.config().retry;
            let want = reference.query_resilient(q.submit_node, q.k, q.bandwidth, retry);
            let line = render_answer(&want);
            let digest = &mut self.report.digest;
            *digest = digest_line(*digest, q.submit_node, q.k, q.bandwidth, &line);
            // Unbudgeted, the service never degrades.
            let (exact, cached) = (response.tier == Tier::Exact, response.cached);
            let agrees = exact && response.outcome == want;
            let c = &mut self.report.service;
            c.answers += 1;
            c.exact += u64::from(exact);
            c.degraded += u64::from(!exact);
            c.cache_hits += u64::from(cached);
            c.stale_hits += u64::from(!agrees && cached);
            c.divergences += u64::from(!agrees && !cached);
            if !agrees {
                let got = (response.tier, response.outcome);
                self.note(
                    i,
                    "service",
                    format!("{q:?}: {got:?}, the reference {want:?}"),
                );
            }
        }
    }

    fn coordinator_step(&mut self, reference: &DynamicSystem, step: &ChaosStep<'_>) {
        let i = step.index;
        let in_window = i % PARTITION_PERIOD < PARTITION_WINDOW;
        for c in 0..self.coords.len() {
            let coord = &mut self.coords[c];
            let shards = coord.plan().shard_count();
            // One shard unreachable in a window, a different one each period.
            for s in 0..shards {
                let cut = in_window && shards > 1 && s == (i / PARTITION_PERIOD) % shards;
                coord.set_reachable(s, !cut);
            }
            let churn = step
                .event
                .as_churn()
                .map(|(op, host)| coord.apply(op, host));
            let got = (churn, coord.epoch());
            let want = (step.churn.clone(), reference.epoch());
            if got != want {
                self.report.coordinators.divergences += 1;
                self.note(
                    i,
                    "coordinator",
                    format!("S={shards}: {got:?}, not {want:?}"),
                );
            }
        }

        let live: Vec<NodeId> = reference.active().collect();
        if live.is_empty() {
            return;
        }
        for _ in 0..QUERIES_PER_STEP {
            // Mostly live starts; one in eight is any universe id, for the
            // crashed and unknown-start error paths.
            let rng = &mut self.region_rng;
            let start = if rng.gen_range(0..8) == 0 {
                NodeId::new(rng.gen_range(0..reference.universe_size()))
            } else {
                live[rng.gen_range(0..live.len())]
            };
            let k = WORKLOAD_KS[rng.gen_range(0..WORKLOAD_KS.len())];
            let bandwidth = CLASS_BOUNDS[rng.gen_range(0..CLASS_BOUNDS.len())] - 1.0;
            self.region_query(reference, i, (start, k, bandwidth), in_window);
        }
    }

    /// One region query on the reference and on every coordinator.
    fn region_query(
        &mut self,
        reference: &DynamicSystem,
        i: usize,
        (start, k, bandwidth): (NodeId, usize, f64),
        in_window: bool,
    ) {
        let want = reference.cluster_near(start, k, bandwidth);
        let line = render_region(&want);
        self.report.digest = digest_line(self.report.digest, start, k, bandwidth, &line);
        for c in 0..self.coords.len() {
            let coord = &mut self.coords[c];
            let shards = coord.plan().shard_count();
            let inserted = coord.cache_stats().inserted;
            let got = coord.cluster_near(start, k, bandwidth);
            let counts = &mut self.report.coordinators;
            counts.answers += 1;
            let agrees = match (&got, &want) {
                (Err(got), Err(want)) => got == want,
                (Ok(resp), Ok(want)) => match &resp.outcome {
                    CoordOutcome::Exact { cluster } => {
                        counts.exact += 1;
                        cluster == want
                    }
                    // Only inside a window, and never cached: neither
                    // served from the cache nor stored in it.
                    CoordOutcome::Degraded { .. } => {
                        counts.degraded += 1;
                        in_window && !resp.cached && coord.cache_stats().inserted == inserted
                    }
                },
                _ => false,
            };
            let cached = got.as_ref().is_ok_and(|resp| resp.cached);
            counts.cache_hits += u64::from(cached);
            counts.stale_hits += u64::from(!agrees && cached);
            counts.divergences += u64::from(!agrees && !cached);
            if !agrees {
                let detail = format!("S={shards} ({start}, {k}, {bandwidth}): {got:?}");
                self.note(i, "coordinator", format!("{detail}, not {want:?}"));
            }
        }
    }

    /// One op the reference must reject, applied everywhere.
    fn probe(&mut self, reference: &mut DynamicSystem, i: usize) {
        let live: Vec<NodeId> = reference.active().collect();
        let Some(&host) = live.get(i % live.len().max(1)) else {
            return;
        };
        let op = [ChurnOp::Join, ChurnOp::Recover][i % 2];
        self.report.probes += 1;
        let want = reference.apply(op, host);
        self.kill_restart.log(op, host, reference.epoch());
        let mut got = vec![self.service.apply(op, host)];
        got.extend(self.coords.iter_mut().map(|coord| coord.apply(op, host)));
        if want.is_ok() || got.iter().any(|got| *got != want) {
            self.report.probe_divergences += 1;
            self.note(i, "probe", format!("{op:?} {host}: {got:?}, not {want:?}"));
        }
    }
}

/// Drives seed `seed`'s simnet schedule through the reference and every
/// column (see the module docs). The same `(seed, cfg)` gives the same
/// report.
pub fn differential(seed: u64, cfg: &ChaosConfig) -> DifferentialReport {
    run_differential(seed, cfg.universe, &generate_schedule(seed, cfg))
}

fn run_differential(seed: u64, universe: usize, events: &[ChaosEvent]) -> DifferentialReport {
    let mut columns = Columns::new(seed, universe);
    let cfg = ChaosConfig {
        universe,
        steps: events.len(),
    };
    let (outcome, _) = run_schedule_with_stats(seed, &cfg, events, |reference, step| {
        columns.step(reference, step, step.index + 1 == events.len());
    });
    let mut report = columns.report;
    let kill_restart = columns.kill_restart.outcome();
    report.kills = kill_restart.kills;
    report.replayed_ops = kill_restart.replayed_ops;
    report.recovery_failures = kill_restart.failures.len() as u64;
    report.coordinators.pruned = columns.coords.iter().map(|c| c.stats().pruned).sum();
    match outcome {
        _ if report.violation.is_some() => {}
        ChaosOutcome::Violated(v) => report.violation = Some(v),
        ChaosOutcome::Passed { final_digest } => report.final_digest = final_digest,
    }
    report
}

/// A replayable record of one [`differential`] run, of kind
/// `"differential"`: its reference's [`ReplayArtifact`] (seed, universe,
/// explicit schedule, then the violation or the final digest), then the
/// [`counters`](DifferentialReport::counters) and the answer digest.
/// Stored under `tests/chaos_corpus/differential/` and written for every
/// failing run; replay re-runs the schedule and demands the same record.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialArtifact(ReplayRecord);

impl DifferentialArtifact {
    /// Runs seed `seed`'s schedule through every tier and records it; a
    /// failing run is shrunk ([`shrink_schedule`]) first.
    pub fn capture(seed: u64, cfg: &ChaosConfig) -> (Self, DifferentialReport) {
        let mut schedule = generate_schedule(seed, cfg);
        let mut report = run_differential(seed, cfg.universe, &schedule);
        if !report.passed() {
            let run = |events: &[ChaosEvent]| run_differential(seed, cfg.universe, events);
            schedule = shrink_schedule(&schedule, |events| run(events).violation).0;
            report = run(&schedule);
        }
        (Self::record(seed, cfg.universe, schedule, &report), report)
    }

    fn record(
        seed: u64,
        universe: usize,
        schedule: Vec<ChaosEvent>,
        report: &DifferentialReport,
    ) -> Self {
        let reference = ReplayArtifact {
            seed,
            universe,
            schedule,
            nemesis: None,
            violation: report.violation.clone(),
            final_digest: report.final_digest,
        };
        let record = report.counters().into_iter().fold(
            reference.record(Some("differential")),
            |record, (name, value)| record.with_u64(&name, value),
        );
        DifferentialArtifact(record.with_digest("digest", report.digest))
    }

    /// Re-runs the recorded schedule and checks every recorded field.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] naming a missing or ill-typed input or the
    /// first field the re-run moved.
    pub fn replay(&self) -> Result<DifferentialReport, ChaosError> {
        let reference = ReplayArtifact::from_record(&self.0)?;
        let (seed, universe) = (reference.seed, reference.universe);
        let report = run_differential(seed, universe, &reference.schedule);
        let rerun = Self::record(seed, universe, reference.schedule, &report);
        self.0.expect_same(&rerun.0)?;
        Ok(report)
    }

    /// Serializes to the corpus JSON format (see [`ReplayRecord`]).
    pub fn to_json(&self) -> String {
        self.0.to_json()
    }

    /// Parses the corpus JSON format written by
    /// [`to_json`](DifferentialArtifact::to_json).
    ///
    /// # Errors
    ///
    /// Those of [`ReplayRecord::from_json`] for kind `"differential"`.
    pub fn from_json(src: &str) -> Result<Self, ChaosError> {
        ReplayRecord::from_json(src, Some("differential")).map(DifferentialArtifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_embed::EmbedError;
    use bcc_simnet::chaos::run_schedule;
    use bcc_simnet::ChurnError;

    fn cfg(steps: usize) -> ChaosConfig {
        ChaosConfig { universe: 8, steps }
    }

    /// The columns of seed `seed`'s run and a reference over the same
    /// universe, every host joined on both.
    fn joined(seed: u64) -> (Columns, DynamicSystem) {
        let mut columns = Columns::new(seed, 8);
        let mut reference =
            DynamicSystem::new(seeded_universe(seed, 8), SystemConfig::new(chaos_classes()));
        for host in 0..8 {
            let event = ChaosEvent::Join { host };
            let step = ChaosStep {
                index: host,
                event: &event,
                churn: Some(reference.apply(ChurnOp::Join, NodeId::new(host))),
            };
            columns.service_step(&reference, &step);
            columns.coordinator_step(&reference, &step);
        }
        (columns, reference)
    }

    #[test]
    fn a_cached_answer_the_reference_no_longer_gives_is_a_stale_hit() {
        let (mut columns, mut reference) = joined(3);
        // A partition of nobody changes nothing: the workload warms the
        // service's cache.
        let idle = ChaosEvent::Partition {
            group: Vec::new(),
            rounds: 1,
        };
        let idle_step = |index| ChaosStep {
            index,
            event: &idle,
            churn: None,
        };
        for index in 8..16 {
            columns.service_step(&reference, &idle_step(index));
        }
        let service = columns.report.service;
        assert!(service.cache_hits > 0, "{service:?}");
        assert_eq!((service.stale_hits, service.divergences), (0, 0));
        // The reference moves on alone, so the service's cached answers are
        // stale against it.
        for host in 2..8 {
            reference.leave(NodeId::new(host)).expect("leave");
        }
        for index in 16..24 {
            columns.service_step(&reference, &idle_step(index));
        }
        assert!(
            columns.report.service.stale_hits > 0,
            "{:?}",
            columns.report.service
        );
    }

    #[test]
    fn a_churn_error_of_another_value_is_a_divergence() {
        let (mut columns, mut reference) = joined(3);
        assert_eq!(columns.report.coordinators.divergences, 0);
        let event = ChaosEvent::Join { host: 0 };
        let rejected = reference.apply(ChurnOp::Join, NodeId::new(0));
        assert_eq!(
            rejected,
            Err(ChurnError::Embed(EmbedError::HostExists(NodeId::new(0))))
        );
        let step = |churn| ChaosStep {
            index: 8,
            event: &event,
            churn: Some(churn),
        };
        columns.coordinator_step(&reference, &step(rejected));
        assert_eq!(columns.report.coordinators.divergences, 0);
        // Every coordinator rejects the join as the reference did, but the
        // step says the reference rejected it for another reason.
        let other = Err(ChurnError::Embed(EmbedError::UnknownHost(NodeId::new(0))));
        columns.coordinator_step(&reference, &step(other));
        assert_eq!(
            columns.report.coordinators.divergences,
            SHARD_COUNTS.len() as u64
        );
    }

    #[test]
    fn the_reference_is_the_simnet_run() {
        for seed in 0..4 {
            let report = differential(seed, &cfg(24));
            assert_eq!(report.violation, None, "seed {seed}");
            let simnet = run_schedule(seed, &cfg(24), &generate_schedule(seed, &cfg(24)));
            let final_digest = report.final_digest;
            assert_eq!(ChaosOutcome::Passed { final_digest }, simnet, "seed {seed}");
            assert_eq!(report, differential(seed, &cfg(24)), "seed {seed}");
        }
    }

    #[test]
    fn every_column_does_work_and_agrees() {
        let mut service = ColumnCounts::default();
        let mut coordinators = ColumnCounts::default();
        let (mut kills, mut probes) = (0, 0);
        for seed in 0..6 {
            let r = differential(seed, &cfg(24));
            assert_eq!(r.violation, None, "seed {seed}");
            assert!(r.probes > 0, "seed {seed}: no rejected-op probe");
            assert_eq!((r.probe_divergences, r.recovery_failures), (0, 0));
            for (sum, c) in [
                (&mut service, r.service),
                (&mut coordinators, r.coordinators),
            ] {
                assert_eq!((c.stale_hits, c.divergences), (0, 0), "seed {seed}");
                sum.exact += c.exact;
                sum.degraded += c.degraded;
                sum.cache_hits += c.cache_hits;
                sum.pruned += c.pruned;
            }
            kills += r.kills;
            probes += r.probes;
        }
        assert!(service.exact > 0 && service.cache_hits > 0, "{service:?}");
        assert!(
            coordinators.degraded > 0 && coordinators.cache_hits > 0 && coordinators.pruned > 0,
            "{coordinators:?}"
        );
        assert!(kills > 0 && probes > 0);
    }

    #[test]
    fn an_artifact_round_trips_and_replays() {
        let (artifact, report) = DifferentialArtifact::capture(5, &cfg(12));
        assert_eq!(report.violation, None);
        let json = artifact.to_json();
        let parsed = DifferentialArtifact::from_json(&json).expect("parse own output");
        assert_eq!(parsed, artifact, "JSON round trip");
        assert_eq!(parsed.to_json(), json, "serialization fixpoint");
        assert_eq!(parsed.replay(), Ok(report.clone()));
        let bad = json.replace(&report.digest.to_string(), &(report.digest ^ 1).to_string());
        let bad = DifferentialArtifact::from_json(&bad).expect("still a record");
        assert!(bad.replay().is_err(), "digest divergence must be caught");
    }
}
