//! Chaos harness for the serving layer: drives a [`ClusterService`]
//! through a seeded churn-and-fault schedule while a repeated query
//! workload hammers the cache, auditing **every** cached answer against a
//! fresh recomputation.
//!
//! This is the serving-layer extension of the simnet chaos harness
//! (`bcc_simnet::chaos`): the same deterministic schedules
//! ([`generate_schedule`]), applied through the service's churn wrappers
//! and [`ClusterService::with_system_mut`] fault windows, plus one extra
//! oracle the simnet harness cannot express — **no stale answer is ever
//! served from the cache**. The audit runs with
//! [`ServiceConfig::verify_cached`] on, so a single stale serve anywhere
//! in the run shows up in [`ServeChaosReport::stale_hits`].

use bcc_core::{fnv1a, FNV_OFFSET};
use bcc_metric::NodeId;
use bcc_simnet::chaos::{
    chaos_classes, plan_seed, resolve_nemesis, run_fault_window, universe_bandwidth, ReplayRecord,
    CLASS_BOUNDS,
};
use bcc_simnet::{
    generate_schedule, ChaosConfig, ChaosError, ChaosEvent, DynamicSystem, SystemConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::breaker::{BreakerState, BreakerStats};
use crate::cache::CacheStats;
use crate::degrade::Tier;
use crate::service::{ClusterQuery, ClusterService, ServiceConfig, ServiceStats};

/// XOR salt of the serving tier's seeded universes
/// (`bcc_simnet::chaos::universe_bandwidth`); the pinned `degrade/` corpus
/// digests hang off it.
const UNIVERSE_SALT: u64 = 0x5E7E_CAB5;

/// Cluster sizes the repeated workload cycles through.
const WORKLOAD_KS: [usize; 3] = [2, 3, 4];

/// Tunables for [`serve_chaos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeChaosConfig {
    /// Hosts in the measurement universe.
    pub universe: usize,
    /// Random schedule events after the initial joins.
    pub steps: usize,
    /// Repeated-workload queries submitted (and drained) after every
    /// schedule event — the traffic that turns the cache over.
    pub queries_per_step: usize,
}

impl Default for ServeChaosConfig {
    fn default() -> Self {
        ServeChaosConfig {
            universe: 8,
            steps: 24,
            queries_per_step: 6,
        }
    }
}

/// What one [`serve_chaos`] run did and proved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeChaosReport {
    /// Schedule events applied (all of them; fault-window and churn events
    /// whose target is in the wrong state skip benignly, like the simnet
    /// harness).
    pub events: usize,
    /// Responses returned by the service over the whole run.
    pub responses: u64,
    /// Responses served from the churn-aware cache — every one of them
    /// audited bit-for-bit against a fresh recomputation.
    pub cached: u64,
    /// Audited cache hits that disagreed with the recomputation. The
    /// harness's headline oracle: **must be 0**.
    pub stale_hits: u64,
    /// Aggregate service counters at the end of the run.
    pub service: ServiceStats,
    /// Cache counters at the end of the run.
    pub cache: CacheStats,
}

/// Builds a service over a fresh seeded universe with the given knobs
/// (callers beyond the harness: benches and examples).
///
/// # Panics
///
/// Panics when `config` fails validation or `universe == 0` — both
/// caller bugs, not data-dependent conditions.
pub fn seeded_service(seed: u64, universe: usize, config: ServiceConfig) -> ClusterService {
    assert!(universe > 0, "universe must have at least one host");
    let bandwidth = universe_bandwidth(seed, UNIVERSE_SALT, universe);
    let system = DynamicSystem::try_new(bandwidth, SystemConfig::new(chaos_classes()))
        .expect("default system config is valid");
    ClusterService::new(system, config).expect("validated service config")
}

/// Applies one schedule event: churn through the service wrappers (epoch
/// bumps; embed errors such as a double join skip benignly, exactly as in
/// the simnet harness), schedule queries through the normal admission
/// path, fault windows through the shared interpreter on the live overlay.
fn apply_event(
    service: &mut ClusterService,
    event: &ChaosEvent,
    plan_seed: u64,
) -> Result<(), ChaosError> {
    if let Some((op, host)) = event.as_churn() {
        drop(service.apply(op, host));
    } else if let ChaosEvent::Query {
        start,
        k,
        bandwidth,
    } = event
    {
        drop(service.submit(ClusterQuery::new(NodeId::new(*start), *k, *bandwidth)));
    } else {
        service.with_system_mut(|sys| run_fault_window(sys, event, plan_seed))?;
    }
    Ok(())
}

/// Submits `count` repeated-workload queries at live hosts. The workload
/// is deliberately repetitive — a small pool of `(start, k, class)`
/// combinations — so the cache is constantly re-hit right after churn and
/// fault events, which is exactly where a stale serve would hide.
fn submit_workload(service: &mut ClusterService, rng: &mut StdRng, count: usize) {
    let live: Vec<NodeId> = service.system().active().collect();
    if live.is_empty() {
        return;
    }
    for _ in 0..count {
        let start = live[rng.gen_range(0..live.len())];
        let k = WORKLOAD_KS[rng.gen_range(0..WORKLOAD_KS.len())];
        let bandwidth = CLASS_BOUNDS[rng.gen_range(0..CLASS_BOUNDS.len())] - 1.0;
        let _ = service.submit(ClusterQuery::new(start, k, bandwidth));
    }
}

/// Runs the full serving chaos harness for one seed: generate the seed's
/// schedule, apply every event through the service, hammer the cache with
/// a repeated workload between events, and audit every cached answer.
///
/// Deterministic: the same `(seed, cfg)` always produces the same report.
///
/// # Errors
///
/// [`ChaosError::HealConvergence`] when the overlay fails to re-converge
/// after a fault window heals.
pub fn serve_chaos(seed: u64, cfg: &ServeChaosConfig) -> Result<ServeChaosReport, ChaosError> {
    let chaos_cfg = ChaosConfig {
        universe: cfg.universe,
        steps: cfg.steps,
    };
    let schedule = generate_schedule(seed, &chaos_cfg);
    let mut service = seeded_service(
        seed,
        cfg.universe,
        ServiceConfig {
            verify_cached: true,
            ..ServiceConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
    let mut report = ServeChaosReport::default();

    for (step, event) in schedule.iter().enumerate() {
        apply_event(&mut service, event, plan_seed(seed, step))?;
        submit_workload(&mut service, &mut rng, cfg.queries_per_step);
        for response in service.drain() {
            report.responses += 1;
            if response.cached {
                report.cached += 1;
            }
        }
        report.events += 1;
    }

    report.service = service.stats();
    report.cache = service.cache_stats();
    report.stale_hits = report.service.stale_hits;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Degradation chaos: slow-lane / stall nemeses against the budgeted service
// ---------------------------------------------------------------------------

/// The work-cost nemesis family driven by [`degrade_chaos`]. Both are
/// pure functions of the step index (period and window from
/// `bcc_simnet::chaos`), so the overload windows provably end and every
/// run replays byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeNemesis {
    /// Inflates the per-pair work cost by a step-derived factor (8–128×)
    /// inside each window: queries exhaust their budgets *sometimes*,
    /// exercising the whole fallback ladder.
    SlowLane,
    /// Saturates the per-pair cost inside each window: every budgeted
    /// query exhausts almost immediately, the worst case for breakers.
    Stall,
}

impl DegradeNemesis {
    /// The nemesis's wire name (matches the chaos-bin nemesis flags).
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradeNemesis::SlowLane => "slow-lane",
            DegradeNemesis::Stall => "stall",
        }
    }

    /// Parses a wire name back into the nemesis.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "slow-lane" => Some(DegradeNemesis::SlowLane),
            "stall" => Some(DegradeNemesis::Stall),
            _ => None,
        }
    }
}

/// Tunables for [`degrade_chaos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeChaosConfig {
    /// Hosts in the measurement universe.
    pub universe: usize,
    /// Random schedule events (each under the nemesis's step cost).
    pub steps: usize,
    /// Repeated-workload queries submitted after every schedule event.
    pub queries_per_step: usize,
    /// Work budget every query runs under (`ServiceConfig::work_budget`).
    /// Must be generous enough that queries complete at cost 1 (so the
    /// re-close oracle can succeed once the nemesis ends) but below the
    /// severe end of the slow-lane cost ramp, so the worst window steps
    /// refuse even a single node visit and the ladder actually engages.
    pub budget: u64,
    /// Which work-cost nemesis drives the run.
    pub nemesis: DegradeNemesis,
}

impl Default for DegradeChaosConfig {
    fn default() -> Self {
        DegradeChaosConfig {
            universe: 8,
            steps: 24,
            queries_per_step: 6,
            budget: 96,
            nemesis: DegradeNemesis::SlowLane,
        }
    }
}

/// Rounds of post-nemesis recovery traffic every opened breaker must
/// re-close within (each round is ≥ 1 logical tick plus a workload burst,
/// so this comfortably covers `open_ticks` + one probe execution).
pub const RECLOSE_BOUND: usize = 32;

/// What one [`degrade_chaos`] run did and proved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeChaosReport {
    /// Schedule events applied.
    pub events: usize,
    /// Responses returned over the whole run (schedule + recovery).
    pub responses: u64,
    /// Responses labeled [`Tier::Exact`].
    pub exact: u64,
    /// Responses labeled [`Tier::StaleCache`].
    pub stale_cache: u64,
    /// Responses labeled [`Tier::Partial`].
    pub partial: u64,
    /// **Oracle (must be 0):** responses claiming [`Tier::Exact`] whose
    /// outcome did not bit-match an immediate fresh unbudgeted
    /// recomputation — an unlabeled degraded answer, or a stale answer
    /// served as exact.
    pub unlabeled_degraded: u64,
    /// **Oracle (must be 0):** lanes whose breaker failed to re-close
    /// within [`RECLOSE_BOUND`] recovery rounds after the nemesis ended.
    pub stuck_open: u64,
    /// Recovery rounds pumped until every lane's breaker was Closed
    /// (0 when no breaker ever opened; `RECLOSE_BOUND` when stuck).
    pub reclose_rounds: u64,
    /// Aggregate breaker transition counters over every lane.
    pub breaker: BreakerStats,
    /// Aggregate service counters at the end of the run.
    pub service: ServiceStats,
    /// Cache counters at the end of the run.
    pub cache: CacheStats,
    /// FNV-1a digest over the full ordered response stream (ticket, lane,
    /// tier and outcome of every response) — the replay fingerprint that
    /// must match across runs.
    pub digest: u64,
}

/// Folds one response into the run digest.
///
/// The line is the one the recorded corpus and `BENCH_degrade.json` were
/// fingerprinted with. Its outcome rendering still carries the retry
/// count the walk once reported; the walk makes one attempt, so the count
/// reads 0.
fn digest_response(h: u64, r: &crate::service::ServiceResponse) -> u64 {
    let outcome =
        format!("{:?}", r.outcome).replace("Degradation { ", "Degradation { retries: 0, ");
    let line = format!(
        "{}|{}|{}|{:?}|{outcome}\n",
        r.ticket, r.class_idx, r.cached, r.tier
    );
    fnv1a(h, line.as_bytes())
}

/// Lanes (one per bandwidth class) whose breaker is not Closed.
fn open_lanes(service: &ClusterService) -> u64 {
    let lanes = service.system().config().protocol.classes.len();
    (0..lanes)
        .filter(|&l| service.breaker_state(l) != Some(BreakerState::Closed))
        .count() as u64
}

/// Drains the service and folds every response into the report and
/// digest, checking the labeling oracle against an immediate fresh
/// unbudgeted recomputation (the overlay is untouched between execution
/// and audit, so the recompute sees the same state). When nothing was
/// enqueued (e.g. every submission shed by an open breaker) the clock is
/// still advanced one tick so breaker windows can age out — `drain` alone
/// never ticks an empty queue.
fn pump(service: &mut ClusterService, report: &mut DegradeChaosReport) {
    if service.in_flight() == 0 {
        let idle = service.tick();
        debug_assert!(idle.is_empty(), "empty queue cannot produce responses");
        return;
    }
    for response in service.drain() {
        report.responses += 1;
        match response.tier {
            Tier::Exact => report.exact += 1,
            Tier::StaleCache { .. } => report.stale_cache += 1,
            Tier::Partial { .. } => report.partial += 1,
        }
        if !response.tier.is_degraded() {
            let fresh = service.system().query_resilient(
                response.query.submit_node,
                response.query.k,
                response.query.bandwidth,
                &service.config().retry,
            );
            if fresh != response.outcome {
                report.unlabeled_degraded += 1;
            }
        }
        report.digest = digest_response(report.digest, &response);
    }
}

/// Runs the degradation chaos harness for one seed: a churn-and-fault
/// schedule executes under a work-cost nemesis while a budgeted repeated
/// workload hammers the service, every response is tier-audited, and
/// after the nemesis ends the run proves every opened breaker re-closes
/// within [`RECLOSE_BOUND`] recovery rounds.
///
/// Deterministic: the same `(seed, cfg)` produces the same report.
///
/// # Errors
///
/// [`ChaosError::HealConvergence`] when the overlay fails to re-converge
/// after a fault window heals.
pub fn degrade_chaos(
    seed: u64,
    cfg: &DegradeChaosConfig,
) -> Result<DegradeChaosReport, ChaosError> {
    let chaos_cfg = ChaosConfig {
        universe: cfg.universe,
        steps: cfg.steps,
    };
    let schedule = generate_schedule(seed, &chaos_cfg);
    let mut service = seeded_service(
        seed,
        cfg.universe,
        ServiceConfig {
            work_budget: Some(cfg.budget),
            // Deliberately smaller than the repeated-workload key pool:
            // with everything cached an overload window would only see
            // hits, never a budgeted execution, and the nemesis could
            // not bite. Evictions keep real executions flowing.
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    // Bring the whole universe up before the nemesis starts: slow-lane
    // degradation needs scans big enough to cross a budget block
    // boundary, which a cold overlay (schedules start join-heavy) would
    // only reach after the first overload window has already passed.
    for host in 0..cfg.universe {
        drop(service.join(NodeId::new(host)));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE64_ADE5);
    let mut report = DegradeChaosReport {
        digest: FNV_OFFSET,
        ..DegradeChaosReport::default()
    };

    // The work-cost hook `bcc-bench chaos --nemesis <name>` runs under.
    let nemesis = resolve_nemesis(Some(cfg.nemesis.as_str()))?;
    for (step, event) in schedule.iter().enumerate() {
        service.with_system_mut(|sys| nemesis(sys, step));
        apply_event(&mut service, event, plan_seed(seed, step))?;
        submit_workload(&mut service, &mut rng, cfg.queries_per_step);
        pump(&mut service, &mut report);
        report.events += 1;
    }

    // Nemesis over: work costs return to 1 and recovery traffic must
    // re-close every opened breaker within the bound. Bring hosts back
    // first so every lane can actually execute a probe.
    service.with_system_mut(|sys| sys.set_work_cost(1));
    for host in 0..cfg.universe {
        let node = NodeId::new(host);
        drop(service.recover(node));
        drop(service.join(node));
    }
    report.reclose_rounds = RECLOSE_BOUND as u64;
    for round in 0..RECLOSE_BOUND {
        if open_lanes(&service) == 0 {
            report.reclose_rounds = round as u64;
            break;
        }
        submit_workload(&mut service, &mut rng, cfg.queries_per_step);
        pump(&mut service, &mut report);
    }
    if report.reclose_rounds == RECLOSE_BOUND as u64 {
        report.stuck_open = open_lanes(&service);
    }

    report.breaker = service.breaker_stats();
    report.service = service.stats();
    report.cache = service.cache_stats();
    Ok(report)
}

/// A replayable JSON record of one [`degrade_chaos`] run, as one
/// [`ReplayRecord`] of kind `"degrade"`: the full input (seed + config),
/// then the output fingerprint (tier mix, breaker transitions,
/// response-stream digest). Stored under `tests/chaos_corpus/degrade/` and
/// in bench artifacts; replaying re-runs the harness from the inputs and
/// demands a bit-identical record.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeArtifact(ReplayRecord);

impl DegradeArtifact {
    /// Captures a run as a replayable artifact.
    ///
    /// # Errors
    ///
    /// Those of [`degrade_chaos`].
    pub fn capture(
        seed: u64,
        cfg: &DegradeChaosConfig,
    ) -> Result<(Self, DegradeChaosReport), ChaosError> {
        let report = degrade_chaos(seed, cfg)?;
        let record = ReplayRecord::new(Some("degrade"))
            .with_u64("seed", seed)
            .with_u64("universe", cfg.universe as u64)
            .with_u64("steps", cfg.steps as u64)
            .with_u64("queries_per_step", cfg.queries_per_step as u64)
            .with_u64("budget", cfg.budget)
            .with_str("nemesis", cfg.nemesis.as_str())
            .with_u64("responses", report.responses)
            .with_u64("exact", report.exact)
            .with_u64("stale_cache", report.stale_cache)
            .with_u64("partial", report.partial)
            .with_u64("breaker_opened", report.breaker.opened)
            .with_u64("breaker_closed", report.breaker.closed)
            .with_u64("reclose_rounds", report.reclose_rounds)
            .with_digest("digest", report.digest);
        Ok((DegradeArtifact(record), report))
    }

    /// Re-runs the harness from the artifact's inputs and checks every
    /// recorded field, the digest included.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] naming a missing or ill-typed input or the
    /// first field the re-run moved, plus the errors of [`degrade_chaos`].
    pub fn replay(&self) -> Result<DegradeChaosReport, ChaosError> {
        let nemesis = self.0.str("nemesis")?;
        let cfg = DegradeChaosConfig {
            universe: self.0.universe()?,
            steps: self.0.usize("steps")?,
            queries_per_step: self.0.usize("queries_per_step")?,
            budget: self.0.u64("budget")?,
            nemesis: DegradeNemesis::from_name(nemesis)
                .ok_or_else(|| format!("unknown nemesis \"{nemesis}\""))?,
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
    /// [`to_json`](DegradeArtifact::to_json).
    ///
    /// # Errors
    ///
    /// Those of [`ReplayRecord::from_json`] for kind `"degrade"`.
    pub fn from_json(src: &str) -> Result<Self, ChaosError> {
        ReplayRecord::from_json(src, Some("degrade")).map(DegradeArtifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_chaos_is_deterministic_and_stale_free() {
        let cfg = ServeChaosConfig {
            universe: 8,
            steps: 12,
            queries_per_step: 4,
        };
        let a = serve_chaos(7, &cfg).unwrap();
        let b = serve_chaos(7, &cfg).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same report");
        assert!(a.responses > 0, "workload must actually serve queries");
        assert_eq!(a.stale_hits, 0, "no audited cache hit may be stale");
    }

    #[test]
    fn workload_actually_hits_the_cache() {
        let cfg = ServeChaosConfig {
            universe: 6,
            steps: 10,
            queries_per_step: 8,
        };
        let report = serve_chaos(3, &cfg).unwrap();
        assert!(
            report.cached > 0,
            "repeated workload should produce cache hits, got {report:?}"
        );
        assert_eq!(report.stale_hits, 0);
    }

    fn small_degrade_cfg(nemesis: DegradeNemesis) -> DegradeChaosConfig {
        DegradeChaosConfig {
            nemesis,
            ..DegradeChaosConfig::default()
        }
    }

    #[test]
    fn degrade_chaos_passes_every_oracle_for_both_nemeses() {
        for nemesis in [DegradeNemesis::SlowLane, DegradeNemesis::Stall] {
            for seed in 0..4 {
                let report = degrade_chaos(seed, &small_degrade_cfg(nemesis)).unwrap();
                assert!(report.responses > 0, "{nemesis:?}/{seed}: no traffic");
                assert_eq!(
                    report.unlabeled_degraded, 0,
                    "{nemesis:?}/{seed}: degraded response served unlabeled"
                );
                assert_eq!(
                    report.stuck_open, 0,
                    "{nemesis:?}/{seed}: breaker failed to re-close: {report:?}"
                );
                assert_eq!(
                    report.responses,
                    report.exact + report.stale_cache + report.partial,
                    "tier counts partition the responses"
                );
            }
        }
    }

    #[test]
    fn both_nemeses_actually_degrade_and_recover() {
        // Aggregated over a few seeds each nemesis must produce degraded
        // tiers and breaker activity — otherwise the harness is not
        // exercising the ladder at all and the oracles pass vacuously.
        for nemesis in [DegradeNemesis::Stall, DegradeNemesis::SlowLane] {
            let cfg = small_degrade_cfg(nemesis);
            let mut partial = 0;
            let mut stale = 0;
            let mut opened = 0;
            let mut closed = 0;
            for seed in 0..6 {
                let r = degrade_chaos(seed, &cfg).unwrap();
                partial += r.partial;
                stale += r.stale_cache;
                opened += r.breaker.opened;
                closed += r.breaker.closed;
            }
            assert!(
                partial > 0,
                "{nemesis:?} windows must force partial answers"
            );
            assert!(
                stale > 0,
                "{nemesis:?} windows must serve labeled stale-cache answers"
            );
            assert!(opened > 0, "{nemesis:?} windows must trip breakers");
            assert!(
                closed > 0,
                "{nemesis:?}: tripped breakers must re-close after recovery"
            );
        }
    }

    #[test]
    fn degrade_chaos_is_deterministic() {
        let cfg = small_degrade_cfg(DegradeNemesis::SlowLane);
        let a = degrade_chaos(11, &cfg).unwrap();
        let b = degrade_chaos(11, &cfg).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same report");
    }

    #[test]
    fn degrade_artifact_round_trips_and_replays() {
        let cfg = small_degrade_cfg(DegradeNemesis::Stall);
        let (artifact, report) = DegradeArtifact::capture(5, &cfg).unwrap();
        let json = artifact.to_json();
        let parsed = DegradeArtifact::from_json(&json).expect("parse own output");
        assert_eq!(parsed, artifact, "JSON round trip");
        assert_eq!(parsed.to_json(), json, "serialization fixpoint");
        let replayed = parsed.replay().expect("replay must match");
        assert_eq!(replayed, report, "replay reproduces the full report");
        // A corrupted digest must be detected.
        let bad = json.replace(&report.digest.to_string(), &(report.digest ^ 1).to_string());
        let bad = DegradeArtifact::from_json(&bad).expect("still a record");
        assert!(bad.replay().is_err(), "digest divergence must be caught");
    }

    #[test]
    fn a_heal_that_cannot_converge_is_a_typed_error_not_silence() {
        // Twelve hosts at seed 3: an outage of host 1 needs three rounds to
        // heal. Restoring the joined system under a two-round cap (joins
        // themselves need more, so the cap goes on afterwards) starves
        // exactly the heal.
        let bandwidth = universe_bandwidth(3, UNIVERSE_SALT, 12);
        let mut service = seeded_service(3, 12, ServiceConfig::default());
        for host in 0..12 {
            service.join(NodeId::new(host)).unwrap();
        }
        let outage = ChaosEvent::Outage { host: 1, rounds: 3 };
        assert_eq!(apply_event(&mut service, &outage, 1), Ok(()));

        let mut starved = service.system().config().clone();
        starved.max_rounds = 2;
        let system = bcc_simnet::SystemSnapshot::capture(service.system())
            .restore(&bandwidth, &starved)
            .unwrap();
        let mut service = ClusterService::new(system, ServiceConfig::default()).unwrap();
        assert_eq!(
            apply_event(&mut service, &outage, 1),
            Err(ChaosError::HealConvergence { max_rounds: 2 })
        );
    }

    #[test]
    fn degrade_nemesis_names_round_trip() {
        for n in [DegradeNemesis::SlowLane, DegradeNemesis::Stall] {
            assert_eq!(DegradeNemesis::from_name(n.as_str()), Some(n));
        }
        assert_eq!(DegradeNemesis::from_name("no-such"), None);
    }
}
