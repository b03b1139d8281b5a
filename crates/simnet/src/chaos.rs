//! Deterministic chaos harness: schedule exploration, invariant oracles,
//! shrinking and replay for the decentralized stack.
//!
//! FoundationDB-style simulation testing for [`DynamicSystem`]: a single
//! `u64` seed expands into a random *schedule* interleaving membership
//! churn (joins, leaves, crashes, recoveries), [`FaultPlan`] disturbances
//! (loss, duplication, delay, partitions, node outages) and concurrent
//! queries. After every step three oracle families run:
//!
//! - **Safety** — every answered query's cluster has at least `k` distinct
//!   members, all of them live, and every pair within the snapped class's
//!   distance bound on the predicted metric; a crashed submission host
//!   never answers.
//! - **Consistency** — gossip state (aggrNode records, CRT rows, local
//!   maxima) is mutually consistent across every overlay edge and agrees
//!   with a fresh recomputation from the live framework; the framework's
//!   own cross-structure integrity holds ([`bcc_embed::PredictionFramework::check_integrity`]).
//! - **Liveness** — after every step's faults heal, the overlay
//!   re-converges within the configured round cap and its digest
//!   bit-matches the fixpoint a cold restart of the same membership
//!   reaches.
//!
//! On a violation the schedule is *shrunk* with delta debugging
//! ([`shrink_schedule`], re-running each candidate deterministically) to a
//! minimal failing prefix, and a [`ReplayArtifact`] (seed + shrunk
//! schedule as JSON) is emitted that `bcc-bench chaos --replay <file>`
//! re-executes bit-identically.
//!
//! Everything is deterministic: the same seed and schedule always produce
//! the same outcome, including the final state digest — which is why
//! passing artifacts double as regression pins (see
//! `tests/chaos_regressions.rs`).
//!
//! This module also owns the vocabulary the other three chaos tiers
//! (`bcc_service::harness`, `bcc_shard::harness`,
//! [`crate::persist::run_recovery_schedule`]) are written in: the seeded
//! universe ([`universe_bandwidth`], [`chaos_classes`]), the fault-window
//! interpreter ([`run_fault_window`], [`plan_seed`]), the flat artifact
//! record ([`ReplayRecord`], [`expect`]) and [`ChaosEvent::as_churn`] onto
//! the one churn op ([`ChurnOp`]). DESIGN.md §9 has the tier table.

use std::collections::BTreeSet;

use bcc_core::{max_cluster_size, BandwidthClasses, RetryPolicy};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, NodeId, RationalTransform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::churn::{fw_label_dist, ChurnError, ChurnOp, DynamicSystem};
use crate::config::SystemConfig;
use crate::fault::FaultPlan;
use crate::json::{self, Json};
use crate::persist::PersistError;

/// Access-link capacities hosts are drawn from (Mbps), mirroring the
/// paper's fast/medium/slow population mix.
const CAPS: [f64; 3] = [10.0, 30.0, 100.0];

/// Bandwidth class thresholds every chaos universe, in every tier,
/// clusters against.
pub const CLASS_BOUNDS: [f64; 2] = [25.0, 60.0];

/// XOR salt of this tier's universes. The service and shard tiers keep
/// their own: every pinned digest hangs off its tier's salt.
pub(crate) const UNIVERSE_SALT: u64 = 0xBCC0_CAB5;

/// Tunables for schedule generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Hosts in the measurement universe (ids `0..universe`).
    pub universe: usize,
    /// Random events generated after the initial joins.
    pub steps: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            universe: 8,
            steps: 24,
        }
    }
}

/// One step of a chaos schedule.
///
/// Hosts are referenced by universe index so schedules serialize plainly;
/// fault events are self-contained (inject, run the faulty window, heal,
/// re-converge) so any subsequence of a schedule is itself a valid
/// schedule — the property delta debugging relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Graceful join (also how a crashed host cold-restarts).
    Join {
        /// Universe index of the joining host.
        host: usize,
    },
    /// Graceful leave; anchor descendants are re-embedded.
    Leave {
        /// Universe index of the leaving host.
        host: usize,
    },
    /// Framework-level crash: involuntary leave, host remembered as dead.
    Crash {
        /// Universe index of the crashing host.
        host: usize,
    },
    /// Recovery of a crashed host through the join path.
    Recover {
        /// Universe index of the recovering host.
        host: usize,
    },
    /// A failure-aware query submitted at `start`.
    Query {
        /// Submission host (universe index).
        start: usize,
        /// Requested cluster size.
        k: usize,
        /// Requested bandwidth bound (Mbps).
        bandwidth: f64,
    },
    /// Uniform message loss for a bounded window of rounds, then heal.
    Loss {
        /// Drop probability in `[0, 1]`.
        loss: f64,
        /// Rounds the loss stays active.
        rounds: usize,
    },
    /// Message duplication on every overlay edge for a bounded window.
    Duplicate {
        /// Duplication probability in `[0, 1]`.
        dup: f64,
        /// Rounds the duplication stays active.
        rounds: usize,
    },
    /// Extra per-message latency on every overlay edge for a window.
    Delay {
        /// Extra delay in rounds added to each delivery.
        extra: usize,
        /// Rounds the spike stays active.
        rounds: usize,
    },
    /// Network partition cutting `group` off for a window, then heal.
    Partition {
        /// Universe indices of the cut-off group.
        group: Vec<usize>,
        /// Rounds the partition stays active.
        rounds: usize,
    },
    /// Injector-level node outage: the host falls silent (state frozen),
    /// then cold-restarts in place — membership never changes, so
    /// survivors route around stale CRT state.
    Outage {
        /// Universe index of the host taken down.
        host: usize,
        /// Rounds the host stays down.
        rounds: usize,
    },
}

impl ChaosEvent {
    /// The churn op this event applies, if it is one.
    pub fn as_churn(&self) -> Option<(ChurnOp, NodeId)> {
        let (op, host) = match self {
            ChaosEvent::Join { host } => (ChurnOp::Join, host),
            ChaosEvent::Leave { host } => (ChurnOp::Leave, host),
            ChaosEvent::Crash { host } => (ChurnOp::Crash, host),
            ChaosEvent::Recover { host } => (ChurnOp::Recover, host),
            _ => return None,
        };
        Some((op, NodeId::new(*host)))
    }
}

/// An invariant violation found while executing a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the schedule event after which the oracle fired.
    pub step: usize,
    /// Oracle family: `"safety"`, `"consistency"` or `"liveness"`.
    pub oracle: String,
    /// Human-readable description of the violated invariant.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: {} oracle: {}",
            self.step, self.oracle, self.detail
        )
    }
}

/// Typed error for the harness's fallible seams: fault-window liveness,
/// artifact capture/re-execution/replay, and artifact parsing.
///
/// `Display` reproduces the exact strings these seams historically
/// returned as `Err(String)`, so checked-in replay artifacts and log
/// scrapers keep matching; `From<ChaosError> for String` keeps
/// string-plumbed callers (the `bcc-bench chaos` CLI) compiling with `?`.
/// The [`ChaosError::oracle`] accessor surfaces which oracle family a
/// divergence involves, so observability layers can tag violations by
/// type (`chaos.violations.<oracle>`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChaosError {
    /// The overlay was still changing `max_rounds` rounds after a fault
    /// window healed — the liveness failure of
    /// `run_fault_window`/re-convergence.
    HealConvergence {
        /// The convergence budget that was exhausted.
        max_rounds: usize,
    },
    /// A nemesis name has no registered hook (see [`nemesis_hook`]).
    UnknownNemesis {
        /// The unrecognized name.
        name: String,
    },
    /// Re-executing a replay artifact produced a different outcome than
    /// the recorded one.
    ReplayDiverged {
        /// The outcome the artifact pinned.
        recorded: Box<ChaosOutcome>,
        /// The outcome the re-execution produced.
        got: Box<ChaosOutcome>,
    },
    /// A malformed replay artifact (parse/validation detail).
    Artifact {
        /// What was wrong with the artifact text.
        detail: String,
    },
    /// The durability layer failed during a kill-restart run: snapshot
    /// decode, journal replay, or recovery-fallback exhaustion.
    Persist(PersistError),
}

impl ChaosError {
    /// The oracle family (`"safety"`, `"consistency"`, `"liveness"`)
    /// associated with this error, when one is: a replay divergence
    /// involving a violated outcome reports that violation's oracle
    /// (preferring the recorded side). `None` for errors with no oracle
    /// context (unknown nemesis, artifact parse failures, heal timeouts).
    pub fn oracle(&self) -> Option<&str> {
        match self {
            ChaosError::ReplayDiverged { recorded, got } => match (&**recorded, &**got) {
                (ChaosOutcome::Violated(v), _) | (_, ChaosOutcome::Violated(v)) => {
                    Some(v.oracle.as_str())
                }
                _ => None,
            },
            _ => None,
        }
    }
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::HealConvergence { max_rounds } => write!(
                f,
                "overlay still changing {max_rounds} rounds after the fault healed"
            ),
            ChaosError::UnknownNemesis { name } => write!(f, "unknown nemesis {name:?}"),
            ChaosError::ReplayDiverged { recorded, got } => write!(
                f,
                "replay diverged:\n  recorded: {recorded:?}\n  got:      {got:?}"
            ),
            ChaosError::Artifact { detail } => f.write_str(detail),
            ChaosError::Persist(e) => write!(f, "persistence failure: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for ChaosError {
    fn from(e: PersistError) -> ChaosError {
        ChaosError::Persist(e)
    }
}

impl From<ChaosError> for String {
    fn from(e: ChaosError) -> String {
        e.to_string()
    }
}

impl From<String> for ChaosError {
    fn from(detail: String) -> ChaosError {
        ChaosError::Artifact { detail }
    }
}

impl From<&str> for ChaosError {
    fn from(detail: &str) -> ChaosError {
        ChaosError::Artifact {
            detail: detail.to_string(),
        }
    }
}

/// The result of executing one schedule to completion (or first violation).
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOutcome {
    /// Every step passed every oracle.
    Passed {
        /// Digest of the final overlay state (`None` if no host was
        /// active at the end) — the bit-reproducibility anchor replay
        /// artifacts pin.
        final_digest: Option<u64>,
    },
    /// An oracle fired; execution stopped at the violating step.
    Violated(Violation),
}

/// Expands a seed into a chaos universe's ground-truth bandwidth matrix
/// (min of the endpoints' access links). `salt` separates the tiers'
/// universes for one seed.
pub fn universe_bandwidth(seed: u64, salt: u64, universe: usize) -> BandwidthMatrix {
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let caps: Vec<f64> = (0..universe)
        .map(|_| CAPS[rng.gen_range(0..CAPS.len())])
        .collect();
    BandwidthMatrix::from_fn(universe, |i, j| caps[i].min(caps[j]))
}

/// The bandwidth classes of every chaos universe ([`CLASS_BOUNDS`]).
pub fn chaos_classes() -> BandwidthClasses {
    BandwidthClasses::new(CLASS_BOUNDS.to_vec(), RationalTransform::default())
}

/// Fault-plan seed of schedule position `step`, derived from the run seed
/// alone so replaying a shrunk schedule feeds each surviving event a seed
/// that depends only on its position.
pub fn plan_seed(seed: u64, step: usize) -> u64 {
    seed ^ (step as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Deterministically expands `seed` into a schedule of
/// `min(4, universe)` initial joins followed by `cfg.steps` random events.
///
/// The generator tracks a model of the membership so generated events are
/// well-targeted (leaves pick active hosts, recoveries pick crashed ones),
/// but executing any *subsequence* is still meaningful: events whose
/// target is in the wrong state skip benignly (see [`run_schedule`]).
pub fn generate_schedule(seed: u64, cfg: &ChaosConfig) -> Vec<ChaosEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.universe;
    let mut active: BTreeSet<usize> = BTreeSet::new();
    let mut crashed: BTreeSet<usize> = BTreeSet::new();
    let mut events = Vec::with_capacity(cfg.steps + 4);
    for host in 0..n.min(4) {
        events.push(ChaosEvent::Join { host });
        active.insert(host);
    }
    let pick = |set: &BTreeSet<usize>, rng: &mut StdRng| -> usize {
        let idx = rng.gen_range(0..set.len());
        *set.iter().nth(idx).expect("index in range")
    };
    for _ in 0..cfg.steps {
        let roll = rng.gen_range(0..100u32);
        let joinable: Vec<usize> = (0..n)
            .filter(|h| !active.contains(h) && !crashed.contains(h))
            .collect();
        let event = match roll {
            0..=14 if !joinable.is_empty() => {
                let host = joinable[rng.gen_range(0..joinable.len())];
                active.insert(host);
                ChaosEvent::Join { host }
            }
            15..=26 if active.len() > 2 => {
                let host = pick(&active, &mut rng);
                active.remove(&host);
                ChaosEvent::Leave { host }
            }
            27..=36 if active.len() > 2 => {
                let host = pick(&active, &mut rng);
                active.remove(&host);
                crashed.insert(host);
                ChaosEvent::Crash { host }
            }
            37..=46 if !crashed.is_empty() => {
                let host = pick(&crashed, &mut rng);
                crashed.remove(&host);
                active.insert(host);
                ChaosEvent::Recover { host }
            }
            72..=78 => ChaosEvent::Loss {
                loss: rng.gen_range(0.05..0.35),
                rounds: rng.gen_range(4..16),
            },
            79..=83 => ChaosEvent::Duplicate {
                dup: rng.gen_range(0.1..0.9),
                rounds: rng.gen_range(4..12),
            },
            84..=88 => ChaosEvent::Delay {
                extra: rng.gen_range(1..4),
                rounds: rng.gen_range(4..12),
            },
            89..=94 if active.len() >= 4 => {
                let size = rng.gen_range(1..=active.len() / 2);
                let mut group = Vec::with_capacity(size);
                let mut pool = active.clone();
                for _ in 0..size {
                    let h = pick(&pool, &mut rng);
                    pool.remove(&h);
                    group.push(h);
                }
                ChaosEvent::Partition {
                    group,
                    rounds: rng.gen_range(5..15),
                }
            }
            95..=99 if active.len() > 2 => ChaosEvent::Outage {
                host: pick(&active, &mut rng),
                rounds: rng.gen_range(3..10),
            },
            // Everything else (including guarded arms whose precondition
            // failed) degenerates to a query against the live membership.
            _ if !active.is_empty() => ChaosEvent::Query {
                start: pick(&active, &mut rng),
                k: rng.gen_range(1..=active.len().min(4)),
                bandwidth: CLASS_BOUNDS[rng.gen_range(0..CLASS_BOUNDS.len())],
            },
            _ => {
                // Nobody active and nothing joinable cannot happen (initial
                // joins precede this loop), but stay total anyway.
                ChaosEvent::Join { host: 0 }
            }
        };
        events.push(event);
    }
    events
}

/// Executes a schedule with the default (inert) nemesis hook.
///
/// See [`run_schedule_with`].
pub fn run_schedule(seed: u64, cfg: &ChaosConfig, events: &[ChaosEvent]) -> ChaosOutcome {
    run_schedule_with(seed, cfg, events, |_, _| {})
}

/// Executes a schedule step by step, running every oracle after each step.
///
/// `nemesis` is called after each event is applied and before the oracles
/// run — a hook for deliberately corrupting state to prove the oracles
/// catch it (the harness's broken-build self-check; see [`nemesis_hook`]).
///
/// Events whose target is in the wrong state (double join, leave of an
/// absent host, fault with no live overlay) *skip benignly*, which keeps
/// every subsequence of a schedule executable — the property
/// [`shrink_schedule`]'s delta debugging relies on. A
/// [`ChurnError::Convergence`] is never benign: it is a liveness
/// violation.
pub fn run_schedule_with(
    seed: u64,
    cfg: &ChaosConfig,
    events: &[ChaosEvent],
    nemesis: impl FnMut(&mut DynamicSystem, usize),
) -> ChaosOutcome {
    run_schedule_with_stats(seed, cfg, events, nemesis).0
}

/// Counters for the per-step oracle work: how often the cold-restart
/// reference (overlay fixpoint + index rebuild) was served from the
/// per-epoch memo versus recomputed.
///
/// A schedule with `c` churn events recomputes at most `c + 1` times —
/// the reference depends only on the membership epoch, so every
/// non-churn step must hit. The kill-restart tier asserts this rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Steps whose cold reference came from the per-epoch memo.
    pub cold_hits: u64,
    /// Steps that had to recompute the cold reference (epoch changed).
    pub cold_misses: u64,
}

impl OracleStats {
    /// Fraction of steps served from the memo (`0.0` for an empty run).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cold_hits + self.cold_misses;
        if total == 0 {
            0.0
        } else {
            self.cold_hits as f64 / total as f64
        }
    }
}

/// Per-epoch memo of the liveness/index oracles' cold references.
///
/// Both references — the cold-restart overlay fixpoint and the
/// from-scratch index rebuild — are functions of the membership epoch
/// alone (labels and membership are frozen between churn events), so
/// recomputing them on every step of a schedule was pure waste. Errors
/// are never cached.
#[derive(Debug, Default)]
struct ColdCache {
    epoch: Option<u64>,
    cold_digest: Option<u64>,
    cold_index_digest: u64,
    stats: OracleStats,
}

/// [`run_schedule_with`], additionally reporting the oracle-work
/// counters ([`OracleStats`]) the run accumulated.
pub fn run_schedule_with_stats(
    seed: u64,
    cfg: &ChaosConfig,
    events: &[ChaosEvent],
    mut nemesis: impl FnMut(&mut DynamicSystem, usize),
) -> (ChaosOutcome, OracleStats) {
    let bandwidth = universe_bandwidth(seed, UNIVERSE_SALT, cfg.universe);
    let sys_cfg = SystemConfig::new(chaos_classes());
    let mut cache = ColdCache::default();
    let mut sys = match DynamicSystem::try_new(bandwidth, sys_cfg) {
        Ok(sys) => sys,
        Err(e) => {
            return (
                ChaosOutcome::Violated(Violation {
                    step: 0,
                    oracle: "consistency".into(),
                    detail: format!("chaos config rejected: {e}"),
                }),
                cache.stats,
            );
        }
    };
    let retry = RetryPolicy::default();

    for (step, event) in events.iter().enumerate() {
        if let Err(v) = apply_event(&mut sys, step, event, plan_seed(seed, step), &retry) {
            note_violation(&v);
            return (ChaosOutcome::Violated(v), cache.stats);
        }
        nemesis(&mut sys, step);
        if let Err(v) = check_oracles(&sys, step, &mut cache) {
            note_violation(&v);
            return (ChaosOutcome::Violated(v), cache.stats);
        }
    }
    (
        ChaosOutcome::Passed {
            final_digest: sys.network().map(|net| net.digest()),
        },
        cache.stats,
    )
}

/// Tags the violation by oracle family in the obs registry
/// (`chaos.violations.<oracle>`). The name is dynamic, so this goes
/// through the registry directly instead of the cached-callsite macros.
fn note_violation(v: &Violation) {
    if bcc_obs::enabled() {
        bcc_obs::registry()
            .counter(&format!("chaos.violations.{}", v.oracle))
            .inc();
    }
}

/// Applies one event; `Err` is an oracle violation, benign skips are `Ok`.
fn apply_event(
    sys: &mut DynamicSystem,
    step: usize,
    event: &ChaosEvent,
    plan_seed: u64,
    retry: &RetryPolicy,
) -> Result<(), Violation> {
    let liveness = |detail: String| Violation {
        step,
        oracle: "liveness".into(),
        detail,
    };
    if let Some((op, host)) = event.as_churn() {
        return match sys.apply(op, host) {
            Ok(()) | Err(ChurnError::Embed(_)) => Ok(()),
            Err(e @ ChurnError::Convergence { .. }) => Err(liveness(e.to_string())),
            // The churn paths validate membership before building index
            // deltas, so an index rejection means the maintenance machinery
            // itself is broken — an oracle violation, never a benign skip.
            Err(e @ ChurnError::Index(_)) => Err(Violation {
                step,
                oracle: "index".into(),
                detail: e.to_string(),
            }),
        };
    }
    match event {
        ChaosEvent::Query {
            start,
            k,
            bandwidth,
        } => check_query(sys, step, NodeId::new(*start), *k, *bandwidth, retry),
        fault => run_fault_window(sys, fault, plan_seed).map_err(|e| liveness(e.to_string())),
    }
}

/// Directed overlay edges of the live network (both directions).
fn overlay_edges(sys: &DynamicSystem) -> Vec<(NodeId, NodeId)> {
    let anchor = sys.framework().anchor();
    anchor
        .bfs_order()
        .into_iter()
        .flat_map(|h| anchor.neighbors(h).into_iter().map(move |v| (h, v)))
        .collect()
}

/// The one fault-window interpreter, shared by every tier that consumes
/// [`ChaosEvent`] schedules: turns a `Loss`, `Duplicate`, `Delay`,
/// `Partition` or `Outage` event into a [`FaultPlan`] seeded with
/// `plan_seed` and timed from the current round, injects it, runs the
/// faulty rounds (one extra for an `Outage`, whose plan schedules its own
/// recovery, so the heal transition fires and resets the node), heals
/// everything by detaching the injector, and re-converges.
///
/// Windows that cannot bite skip benignly: no live overlay, a partition
/// without live hosts on both sides, an outage of an inactive or the only
/// host. Churn and query events are not fault windows and are left alone.
///
/// # Errors
///
/// [`ChaosError::HealConvergence`] when the overlay is still changing
/// [`SystemConfig::max_rounds`] rounds after the heal: a liveness failure.
pub fn run_fault_window(
    sys: &mut DynamicSystem,
    event: &ChaosEvent,
    plan_seed: u64,
) -> Result<(), ChaosError> {
    let Some(t0) = sys.network().map(|net| net.rounds_run() as f64) else {
        return Ok(());
    };
    let plan = FaultPlan::new(plan_seed);
    let (plan, window) = match event {
        ChaosEvent::Loss { loss, rounds } => {
            (plan.uniform_loss(t0, loss.clamp(0.0, 1.0), None), *rounds)
        }
        ChaosEvent::Duplicate { dup, rounds } => (
            overlay_edges(sys).into_iter().fold(plan, |plan, (u, v)| {
                plan.link_duplicate(t0, u, v, dup.clamp(0.0, 1.0), None)
            }),
            *rounds,
        ),
        ChaosEvent::Delay { extra, rounds } => {
            let extra = *extra as f64;
            (
                overlay_edges(sys).into_iter().fold(plan, |plan, (u, v)| {
                    plan.latency_spike(t0, u, v, (extra, extra), None)
                }),
                *rounds,
            )
        }
        ChaosEvent::Partition { group, rounds } => {
            let members: Vec<NodeId> = group
                .iter()
                .map(|&h| NodeId::new(h))
                .filter(|&h| sys.is_active(h))
                .collect();
            if members.is_empty() || members.len() >= sys.len() {
                return Ok(());
            }
            (plan.partition(t0, members, None), *rounds)
        }
        ChaosEvent::Outage { host, rounds } => {
            let node = NodeId::new(*host);
            if !sys.is_active(node) || sys.len() <= 1 {
                return Ok(());
            }
            (plan.crash_recover(t0, node, *rounds as f64), rounds + 1)
        }
        _ => return Ok(()),
    };
    let max_rounds = sys.config().max_rounds;
    let Some(net) = sys.network_mut() else {
        return Ok(());
    };
    net.inject_faults(&plan);
    for _ in 0..window {
        net.run_round();
    }
    net.clear_fault_injector();
    match net.run_to_convergence(max_rounds) {
        Some(_) => Ok(()),
        None => Err(ChaosError::HealConvergence { max_rounds }),
    }
}

/// Safety oracle for one query.
fn check_query(
    sys: &DynamicSystem,
    step: usize,
    start: NodeId,
    k: usize,
    bandwidth: f64,
    retry: &RetryPolicy,
) -> Result<(), Violation> {
    let safety = |detail: String| Violation {
        step,
        oracle: "safety".into(),
        detail,
    };
    let result = sys.query_resilient(start, k, bandwidth, retry);
    if sys.is_crashed(start) {
        return match result {
            Err(_) => Ok(()),
            Ok(_) => Err(safety(format!("crashed host {start} answered a query"))),
        };
    }
    let out = match result {
        Ok(out) => out,
        // Inactive start, unreachable class, k = 0 … — benign here; the
        // typed-error paths have their own unit and property tests.
        Err(_) => return Ok(()),
    };
    let Some(cluster) = out.cluster else {
        return Ok(());
    };
    if cluster.len() < k {
        return Err(safety(format!(
            "answered cluster has {} members, query asked k = {k}",
            cluster.len()
        )));
    }
    let mut distinct: BTreeSet<NodeId> = BTreeSet::new();
    for &member in &cluster {
        if !distinct.insert(member) {
            return Err(safety(format!("duplicate member {member} in {cluster:?}")));
        }
        if sys.is_crashed(member) {
            return Err(safety(format!("crashed host {member} in {cluster:?}")));
        }
        if !sys.active().any(|a| a == member) {
            return Err(safety(format!("inactive host {member} in {cluster:?}")));
        }
    }
    let classes = &sys.config().protocol.classes;
    let class_idx = match classes.snap_up(bandwidth) {
        Ok(idx) => idx,
        Err(e) => {
            return Err(safety(format!(
                "query for b = {bandwidth} answered but no class admits it: {e}"
            )));
        }
    };
    let bound = classes.distance_of(class_idx);
    for (i, &u) in cluster.iter().enumerate() {
        for &v in &cluster[i + 1..] {
            // The overlay predicts with label distances (canonical order),
            // so the bound must be checked in the same metric.
            let fw = sys.framework();
            if fw.distance(u, v).is_none() {
                return Err(safety(format!(
                    "no predicted distance between members {u} and {v}"
                )));
            }
            let d = fw_label_dist(fw, u.index() as u32, v.index() as u32);
            if d > bound + 1e-9 {
                return Err(safety(format!(
                    "members {u}, {v} at predicted distance {d} exceed the \
                     class bound {bound} for b = {bandwidth}"
                )));
            }
        }
    }
    Ok(())
}

/// Consistency + liveness oracles over the post-step fixpoint.
fn check_oracles(sys: &DynamicSystem, step: usize, cache: &mut ColdCache) -> Result<(), Violation> {
    let consistency = |detail: String| Violation {
        step,
        oracle: "consistency".into(),
        detail,
    };
    let fw = sys.framework();
    fw.check_integrity()
        .map_err(|e| consistency(e.to_string()))?;
    let anchor = fw.anchor();
    if anchor.len() != sys.len() {
        return Err(consistency(format!(
            "anchor tree has {} hosts, {} are active",
            anchor.len(),
            sys.len()
        )));
    }
    for host in sys.active() {
        if !anchor.contains(host) {
            return Err(consistency(format!(
                "active host {host} missing from the anchor tree"
            )));
        }
    }
    for host in sys.crashed() {
        if anchor.contains(host) {
            return Err(consistency(format!(
                "crashed host {host} still in the anchor tree"
            )));
        }
    }

    let Some(net) = sys.network() else {
        return if sys.is_empty() {
            Ok(())
        } else {
            Err(consistency(format!(
                "{} hosts active but no overlay network",
                sys.len()
            )))
        };
    };
    let classes = &sys.config().protocol.classes;
    let n_cut = sys.config().protocol.n_cut;
    let nodes = net.nodes();
    // Recompute through the exact metric the overlay predicts with: label
    // distances in canonical `(lo, hi)` order. Tree-BFS distances would
    // differ by ULPs (fold order moves with every splice), which is why
    // the dynamic overlay does not use them.
    let predicted =
        DistanceMatrix::from_fn(nodes.len(), |i, j| fw_label_dist(fw, i as u32, j as u32));
    let dist = |a: NodeId, b: NodeId| predicted.get(a.index(), b.index());
    for host in sys.active() {
        let node = &nodes[host.index()];
        let expected_neighbors = anchor.neighbors(host);
        if node.neighbors() != expected_neighbors.as_slice() {
            return Err(consistency(format!(
                "host {host} gossips with {:?} but anchors to {expected_neighbors:?}",
                node.neighbors()
            )));
        }
        if node.class_count() != classes.len() || node.own_max().len() != classes.len() {
            return Err(consistency(format!(
                "host {host} tracks {} classes, system has {}",
                node.class_count(),
                classes.len()
            )));
        }
        // The kept clustering space must be V_x = {x} ∪ ⋃_v aggrNode[v],
        // rebuilt here from the records.
        let mut space = vec![host];
        for &v in node.neighbors() {
            space.extend_from_slice(node.aggr_node_for(v).unwrap_or_default());
        }
        space.sort_unstable();
        space.dedup();
        if node.space() != space.as_slice() {
            return Err(consistency(format!(
                "host {host} keeps the space {:?}, its records give {space:?}",
                node.space()
            )));
        }
        // Local maxima must equal a fresh recomputation over that space —
        // the check that catches frozen/corrupted aggrCRT[x] state no
        // matter how the digest masks it.
        let local = DistanceMatrix::from_fn(space.len(), |i, j| dist(space[i], space[j]));
        for (class_idx, &l) in classes.distances().iter().enumerate() {
            let fresh = max_cluster_size(&local, l);
            if node.own_max()[class_idx] != fresh {
                return Err(consistency(format!(
                    "host {host} claims own_max[{class_idx}] = {}, recomputation gives {fresh}",
                    node.own_max()[class_idx]
                )));
            }
        }
        for &v in node.neighbors() {
            let peer = &nodes[v.index()];
            // Algorithm 2 state: the record stored for v equals what v
            // would send right now.
            let expected_info = peer
                .node_info_for(host, n_cut, dist)
                .map_err(|e| consistency(format!("{v} cannot report to {host}: {e}")))?;
            match node.aggr_node_for(v) {
                Some(stored) if stored == expected_info.as_slice() => {}
                stored => {
                    return Err(consistency(format!(
                        "host {host} stores aggrNode[{v}] = {stored:?}, \
                         {v} currently reports {expected_info:?}"
                    )));
                }
            }
            // Algorithm 3 state: the CRT row stored from v equals what v
            // would propagate right now.
            let expected_row = peer
                .crt_for(host)
                .map_err(|e| consistency(format!("{v} has no CRT row for {host}: {e}")))?;
            for (class_idx, &expected) in expected_row.iter().enumerate() {
                let stored = node.crt_entry(v, class_idx);
                if stored != expected {
                    return Err(consistency(format!(
                        "host {host} stores aggrCRT[{v}][{class_idx}] = {stored}, \
                         {v} currently propagates {expected}"
                    )));
                }
            }
        }
    }

    // Liveness: the settled overlay must sit on the exact fixpoint a cold
    // restart of the same membership reaches (PR 1's recovery criterion).
    // Both cold references are functions of the membership epoch alone,
    // so they are memoized per epoch instead of recomputed every step.
    let epoch = sys.epoch();
    let (expected, cold_index_digest) = if cache.epoch == Some(epoch) {
        cache.stats.cold_hits += 1;
        (cache.cold_digest, cache.cold_index_digest)
    } else {
        cache.stats.cold_misses += 1;
        let expected = sys.cold_restart_digest().map_err(|e| Violation {
            step,
            oracle: "liveness".into(),
            detail: format!("cold-restart reference did not converge: {e}"),
        })?;
        let cold_index_digest = sys.rebuild_index_cold().digest();
        cache.epoch = Some(epoch);
        cache.cold_digest = expected;
        cache.cold_index_digest = cold_index_digest;
        (expected, cold_index_digest)
    };
    let live = net.digest();
    if expected != Some(live) {
        return Err(Violation {
            step,
            oracle: "liveness".into(),
            detail: format!(
                "live overlay digest {live} differs from the cold-restart fixpoint {expected:?}"
            ),
        });
    }

    // Index oracle: the incrementally-maintained cluster index must hold
    // exactly the state a from-scratch rebuild of the current membership
    // produces, and it must have gotten there without ever taking the
    // O(n² log n) rebuild path.
    let index = Violation {
        step,
        oracle: "index".into(),
        detail: String::new(),
    };
    let live_index = sys.cluster_index();
    if live_index.digest() != cold_index_digest {
        return Err(Violation {
            detail: format!(
                "incremental index digest {} differs from the cold-rebuild digest {}",
                live_index.digest(),
                cold_index_digest
            ),
            ..index
        });
    }
    if live_index.stats().full_builds != 0 {
        return Err(Violation {
            detail: format!(
                "the live index was rebuilt from scratch {} time(s) — churn must \
                 maintain it incrementally",
                live_index.stats().full_builds
            ),
            ..index
        });
    }

    // Overlay oracle: the gossip-side twin of the index discipline. Every
    // churn op must have repaired the overlay incrementally — a nonzero
    // full-reconvergence count means some op fell back to rebuilding the
    // whole overlay from blank.
    let overlay = sys.overlay_stats();
    if overlay.full_reconvergences != 0 {
        return Err(Violation {
            step,
            oracle: "overlay".into(),
            detail: format!(
                "the overlay was rebuilt from blank {} time(s) — churn must \
                 re-converge only the disturbed region",
                overlay.full_reconvergences
            ),
        });
    }
    Ok(())
}

/// Delta-debugging (ddmin) shrink: finds a 1-minimal failing subsequence
/// of `events` under `check` (which must re-run the schedule
/// deterministically and return the violation, if any).
///
/// # Panics
///
/// Panics if the full schedule does not fail — shrinking an already
/// passing schedule is a caller bug.
pub fn shrink_schedule(
    events: &[ChaosEvent],
    mut check: impl FnMut(&[ChaosEvent]) -> Option<Violation>,
) -> (Vec<ChaosEvent>, Violation) {
    let mut current = events.to_vec();
    let mut violation = check(&current).expect("shrink_schedule needs a failing schedule");
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if let Some(v) = check(&candidate) {
                current = candidate;
                violation = v;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    (current, violation)
}

/// A named state-corruption hook for the harness's broken-build
/// self-check: `"crt-stale"` silently overwrites one stored CRT row per
/// step (a lost Algorithm 3 propagation), which the consistency oracle
/// must catch. Returns `None` for unknown names.
pub fn nemesis_hook(name: &str) -> Option<fn(&mut DynamicSystem, usize)> {
    match name {
        "crt-stale" => Some(crt_stale_nemesis),
        "slow-lane" => Some(slow_lane_nemesis),
        "stall" => Some(stall_nemesis),
        _ => None,
    }
}

/// The hook a run executes under: [`nemesis_hook`] of `name`, the inert
/// hook for `None`.
///
/// # Errors
///
/// [`ChaosError::UnknownNemesis`] for a name with no registered hook.
pub fn resolve_nemesis(name: Option<&str>) -> Result<fn(&mut DynamicSystem, usize), ChaosError> {
    match name {
        None => Ok(|_, _| {}),
        Some(name) => nemesis_hook(name).ok_or_else(|| ChaosError::UnknownNemesis {
            name: name.to_string(),
        }),
    }
}

/// Simulates a skipped CRT propagation: the first host with a neighbor
/// gets a bogus stale row written into its aggrCRT store.
fn crt_stale_nemesis(sys: &mut DynamicSystem, _step: usize) {
    let Some(net) = sys.network_mut() else {
        return;
    };
    let class_count = net.config().classes.len();
    let target = net
        .nodes()
        .iter()
        .find_map(|node| node.neighbors().first().map(|&v| (node.id().index(), v)));
    if let Some((idx, from)) = target {
        let bogus = vec![999_999; class_count];
        let _ = net.nodes_mut()[idx].receive_crt(from, bogus);
    }
}

/// Length of the repeating slow/stall window pattern, in steps.
const SLOW_PERIOD: usize = 12;
/// Steps per period during which the slow/stall nemeses are active.
const SLOW_WINDOW: usize = 6;

/// `true` on the steps where the slow/stall nemeses inflate work cost.
/// Deterministic in the step index alone, so a run replays byte-identically
/// and the window provably *ends* — the liveness oracle for breaker
/// re-close depends on that.
pub fn slow_window_active(step: usize) -> bool {
    step % SLOW_PERIOD < SLOW_WINDOW
}

/// The work-cost factor the `slow-lane` nemesis applies at `step`: inside
/// the window, a geometric step-derived ramp in `{8, 16, 32, 64, 128}`;
/// outside, the neutral cost `1`. The ramp is deliberately steep: the
/// mild end leaves most queries exact while the severe end exhausts
/// modest budgets mid-scan, so one window exercises the whole ladder.
pub fn slow_lane_cost(step: usize) -> u64 {
    if slow_window_active(step) {
        8u64 << (step % 5)
    } else {
        1
    }
}

/// Inflates the work cost of budgeted queries by a step-seeded factor
/// during a fixed periodic window (a "slow region"): queries spend their
/// budget 8–128× faster and degrade *sometimes*, while unbudgeted queries
/// and protocol state are untouched — the digest oracles must keep
/// passing.
fn slow_lane_nemesis(sys: &mut DynamicSystem, step: usize) {
    sys.set_work_cost(slow_lane_cost(step));
}

/// The stall variant: inside the window the work cost is `u64::MAX`, so
/// any finite budget exhausts at the first block boundary — the analogue
/// of a hung shard that answers nothing until the window passes.
fn stall_nemesis(sys: &mut DynamicSystem, step: usize) {
    sys.set_work_cost(if slow_window_active(step) {
        u64::MAX
    } else {
        1
    });
}

/// Highest-level entry: generate the seed's schedule, run it (optionally
/// under a named nemesis), and capture the outcome as a replay artifact.
///
/// A passing run records the final digest (a regression pin); a failing
/// run shrinks the schedule to a minimal failing prefix first and records
/// the violation.
///
/// # Errors
///
/// Returns [`ChaosError::UnknownNemesis`] only, for an unknown nemesis
/// name.
pub fn capture(
    seed: u64,
    cfg: &ChaosConfig,
    nemesis: Option<&str>,
) -> Result<ReplayArtifact, ChaosError> {
    let hook = resolve_nemesis(nemesis)?;
    let run = |events: &[ChaosEvent]| run_schedule_with(seed, cfg, events, hook);
    let schedule = generate_schedule(seed, cfg);
    let (schedule, violation, final_digest) = match run(&schedule) {
        ChaosOutcome::Passed { final_digest } => (schedule, None, final_digest),
        ChaosOutcome::Violated(_) => {
            let (shrunk, violation) = shrink_schedule(&schedule, |cand| match run(cand) {
                ChaosOutcome::Violated(v) => Some(v),
                ChaosOutcome::Passed { .. } => None,
            });
            (shrunk, Some(violation), None)
        }
    };
    Ok(ReplayArtifact {
        seed,
        universe: cfg.universe,
        schedule,
        nemesis: nemesis.map(String::from),
        violation,
        final_digest,
    })
}

/// Schema version every artifact is written with and every loader
/// demands.
const RECORD_VERSION: u64 = 1;

/// Largest universe a replay record may ask for. Every tier's replay
/// allocates `universe²` distances; the largest recorded run is 1024 hosts.
const MAX_REPLAY_UNIVERSE: usize = 4096;

/// The one replay comparison: `Ok` when a re-run reproduced the `recorded`
/// value of field `name`.
///
/// # Errors
///
/// [`ChaosError::Artifact`] naming the field and both values.
pub fn expect<T: PartialEq + std::fmt::Display>(
    name: &str,
    recorded: T,
    got: T,
) -> Result<(), ChaosError> {
    if recorded == got {
        return Ok(());
    }
    Err(format!("replay diverged on {name}: recorded {recorded}, got {got}").into())
}

/// The flat record every tier's artifact is written as and read from: a
/// `version`, an optional `kind`, then ordered named fields, each a `u64`,
/// an `f64`, a string, or a `u64` digest stored as a string so it survives
/// `f64`-based JSON tooling. Rendering is byte-stable (two-space indent,
/// `": "`, trailing newline), so committed artifacts are parse → render
/// fixpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRecord {
    fields: Vec<(String, Json)>,
}

impl ReplayRecord {
    /// A record holding the current schema version (1) and `kind`.
    pub fn new(kind: Option<&str>) -> Self {
        let rec = ReplayRecord { fields: Vec::new() }.with_u64("version", RECORD_VERSION);
        match kind {
            Some(kind) => rec.with_str("kind", kind),
            None => rec,
        }
    }

    pub(crate) fn with_json(mut self, name: &str, value: Json) -> Self {
        self.fields.push((name.to_string(), value));
        self
    }

    /// Appends a `u64` field.
    pub fn with_u64(self, name: &str, value: u64) -> Self {
        self.with_json(name, Json::from_u64(value))
    }

    /// Appends a finite `f64` field (shortest round-trip representation).
    pub fn with_f64(self, name: &str, value: f64) -> Self {
        self.with_json(name, Json::from_f64(value))
    }

    /// Appends a string field.
    pub fn with_str(self, name: &str, value: &str) -> Self {
        self.with_json(name, Json::from_str(value))
    }

    /// Appends a `u64` digest, stored as a decimal string.
    pub fn with_digest(self, name: &str, value: u64) -> Self {
        self.with_str(name, &value.to_string())
    }

    /// Serializes to deterministic, diff-friendly JSON.
    pub fn to_json(&self) -> String {
        Json::Obj(self.fields.clone()).render()
    }

    /// Parses a record strictly: one JSON object and nothing after it, no
    /// duplicate keys, `version` equal to the one this build writes and,
    /// when `kind` is given, a matching `kind` field.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] describing what was malformed.
    pub fn from_json(text: &str, kind: Option<&str>) -> Result<Self, ChaosError> {
        let Json::Obj(fields) = json::parse(text)? else {
            return Err("artifact is not a JSON object".into());
        };
        let rec = ReplayRecord { fields };
        let version = rec.u64("version")?;
        if version != RECORD_VERSION {
            return Err(format!(
                "unsupported artifact version {version} (this build reads {RECORD_VERSION})"
            )
            .into());
        }
        match kind {
            Some(kind) if rec.str("kind")? != kind => {
                Err(format!("expected an artifact of kind \"{kind}\"").into())
            }
            _ => Ok(rec),
        }
    }

    pub(crate) fn json(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// An optional field through `conv`; present but ill-typed is an error.
    fn opt<'a, T>(
        &'a self,
        name: &str,
        what: &str,
        conv: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, ChaosError> {
        self.json(name)
            .map(|v| {
                conv(v).ok_or_else(|| format!("artifact field '{name}' must be {what}").into())
            })
            .transpose()
    }

    fn required<T>(name: &str, value: Option<T>) -> Result<T, ChaosError> {
        value.ok_or_else(|| format!("artifact missing '{name}'").into())
    }

    /// A required `u64` field.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] when missing or not a `u64` (as for every
    /// reader below).
    pub fn u64(&self, name: &str) -> Result<u64, ChaosError> {
        Self::required(name, self.opt(name, "a u64", Json::as_u64)?)
    }

    /// A required `usize` field.
    pub fn usize(&self, name: &str) -> Result<usize, ChaosError> {
        Self::required(name, self.opt(name, "a usize", Json::as_usize)?)
    }

    /// The required `universe` field: the host count a replay builds its
    /// universe for, so it is bounded here, before any tier sizes a matrix
    /// (or asserts a non-empty one) from it.
    ///
    /// # Errors
    ///
    /// Also [`ChaosError::Artifact`] outside `1..=4096`.
    pub fn universe(&self) -> Result<usize, ChaosError> {
        let universe = self.usize("universe")?;
        if (1..=MAX_REPLAY_UNIVERSE).contains(&universe) {
            return Ok(universe);
        }
        Err(format!(
            "artifact field 'universe' must be in 1..={MAX_REPLAY_UNIVERSE}, found {universe}"
        )
        .into())
    }

    /// An optional finite `f64` field.
    pub fn opt_f64(&self, name: &str) -> Result<Option<f64>, ChaosError> {
        self.opt(name, "a finite number", |v| {
            v.as_f64().filter(|x| x.is_finite())
        })
    }

    /// An optional string field.
    pub fn opt_str(&self, name: &str) -> Result<Option<&str>, ChaosError> {
        self.opt(name, "a string", Json::as_str)
    }

    /// A required string field.
    pub fn str(&self, name: &str) -> Result<&str, ChaosError> {
        Self::required(name, self.opt_str(name)?)
    }

    /// An optional digest field (a `u64` stored as a string).
    pub fn opt_digest(&self, name: &str) -> Result<Option<u64>, ChaosError> {
        self.opt(name, "a u64 in a string", |v| v.as_str()?.parse().ok())
    }

    /// Field by field [`expect`] of `self`, the recorded run, against
    /// `got`, a fresh capture of the same inputs: the one compare loop
    /// behind every tier's `replay`.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] for the first field that differs or that
    /// only one side holds.
    pub fn expect_same(&self, got: &ReplayRecord) -> Result<(), ChaosError> {
        let token = |rec: &ReplayRecord, name: &str| match rec.json(name) {
            Some(v) => v.render().trim_end().to_string(),
            None => "nothing".to_string(),
        };
        for (name, _) in self.fields.iter().chain(&got.fields) {
            expect(name, token(self, name), token(got, name))?;
        }
        Ok(())
    }
}

/// A self-contained, bit-reproducible record of one chaos run: everything
/// needed to re-execute it (`seed`, universe size, explicit schedule,
/// nemesis name) plus the expected result (violation or final digest).
///
/// Serialized as JSON via [`ReplayArtifact::to_json`]; `bcc-bench chaos
/// --replay <file>` and `tests/chaos_regressions.rs` re-execute artifacts
/// and fail on any divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArtifact {
    /// The run seed (universe derivation + fault-plan randomness).
    pub seed: u64,
    /// Universe size the schedule runs against.
    pub universe: usize,
    /// The explicit event schedule (shrunk, for failing runs).
    pub schedule: Vec<ChaosEvent>,
    /// Named nemesis hook active during the run, if any.
    pub nemesis: Option<String>,
    /// The violation the run must reproduce (`None` for passing runs).
    pub violation: Option<Violation>,
    /// The final digest the run must reproduce (`None` for failing runs
    /// or runs ending with no active host).
    pub final_digest: Option<u64>,
}

impl ReplayArtifact {
    /// Re-executes this artifact's schedule.
    ///
    /// # Errors
    ///
    /// [`ChaosError::UnknownNemesis`] for an unknown nemesis name.
    pub fn run(&self) -> Result<ChaosOutcome, ChaosError> {
        let cfg = ChaosConfig {
            universe: self.universe,
            steps: self.schedule.len(),
        };
        let hook = resolve_nemesis(self.nemesis.as_deref())?;
        Ok(run_schedule_with(self.seed, &cfg, &self.schedule, hook))
    }

    /// Re-executes the schedule and verifies the outcome is bit-identical
    /// to the recorded one (same violation step/oracle/detail, or same
    /// final digest).
    ///
    /// # Errors
    ///
    /// [`ChaosError::ReplayDiverged`] describes the divergence (both
    /// outcomes, with [`ChaosError::oracle`] naming the oracle family);
    /// [`ChaosError::UnknownNemesis`] for an unknown nemesis name.
    pub fn replay(&self) -> Result<(), ChaosError> {
        let outcome = self.run()?;
        let expected = match &self.violation {
            Some(v) => ChaosOutcome::Violated(v.clone()),
            None => ChaosOutcome::Passed {
                final_digest: self.final_digest,
            },
        };
        if outcome == expected {
            Ok(())
        } else {
            Err(ChaosError::ReplayDiverged {
                recorded: Box::new(expected),
                got: Box::new(outcome),
            })
        }
    }

    /// Serializes to deterministic, diff-friendly JSON.
    pub fn to_json(&self) -> String {
        let mut rec = ReplayRecord::new(None)
            .with_u64("seed", self.seed)
            .with_u64("universe", self.universe as u64)
            .with_json(
                "schedule",
                Json::Arr(self.schedule.iter().map(event_to_json).collect()),
            );
        if let Some(nemesis) = &self.nemesis {
            rec = rec.with_str("nemesis", nemesis);
        }
        if let Some(v) = &self.violation {
            rec = rec.with_json(
                "violation",
                Json::Obj(vec![
                    ("step".to_string(), Json::from_usize(v.step)),
                    ("oracle".to_string(), Json::from_str(&v.oracle)),
                    ("detail".to_string(), Json::from_str(&v.detail)),
                ]),
            );
        }
        if let Some(d) = self.final_digest {
            rec = rec.with_digest("final_digest", d);
        }
        rec.to_json()
    }

    /// Parses an artifact previously produced by
    /// [`ReplayArtifact::to_json`].
    ///
    /// # Errors
    ///
    /// [`ChaosError::Artifact`] describes the malformed field.
    pub fn from_json(text: &str) -> Result<Self, ChaosError> {
        let rec = ReplayRecord::from_json(text, None)?;
        let schedule = rec
            .json("schedule")
            .and_then(Json::as_arr)
            .ok_or("artifact missing 'schedule' array")?
            .iter()
            .map(event_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let violation = match rec.json("violation") {
            None => None,
            Some(Json::Obj(fields)) => {
                let v = ReplayRecord {
                    fields: fields.clone(),
                };
                Some(Violation {
                    step: v.usize("step")?,
                    oracle: v.str("oracle")?.to_string(),
                    detail: v.str("detail")?.to_string(),
                })
            }
            Some(_) => return Err("'violation' must be an object".into()),
        };
        Ok(ReplayArtifact {
            seed: rec.u64("seed")?,
            universe: rec.universe()?,
            schedule,
            nemesis: rec.opt_str("nemesis")?.map(String::from),
            violation,
            final_digest: rec.opt_digest("final_digest")?,
        })
    }
}

fn event_to_json(event: &ChaosEvent) -> Json {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    match event {
        ChaosEvent::Join { host } => obj(vec![
            ("type", Json::from_str("join")),
            ("host", Json::from_usize(*host)),
        ]),
        ChaosEvent::Leave { host } => obj(vec![
            ("type", Json::from_str("leave")),
            ("host", Json::from_usize(*host)),
        ]),
        ChaosEvent::Crash { host } => obj(vec![
            ("type", Json::from_str("crash")),
            ("host", Json::from_usize(*host)),
        ]),
        ChaosEvent::Recover { host } => obj(vec![
            ("type", Json::from_str("recover")),
            ("host", Json::from_usize(*host)),
        ]),
        ChaosEvent::Query {
            start,
            k,
            bandwidth,
        } => obj(vec![
            ("type", Json::from_str("query")),
            ("start", Json::from_usize(*start)),
            ("k", Json::from_usize(*k)),
            ("bandwidth", Json::from_f64(*bandwidth)),
        ]),
        ChaosEvent::Loss { loss, rounds } => obj(vec![
            ("type", Json::from_str("loss")),
            ("loss", Json::from_f64(*loss)),
            ("rounds", Json::from_usize(*rounds)),
        ]),
        ChaosEvent::Duplicate { dup, rounds } => obj(vec![
            ("type", Json::from_str("duplicate")),
            ("dup", Json::from_f64(*dup)),
            ("rounds", Json::from_usize(*rounds)),
        ]),
        ChaosEvent::Delay { extra, rounds } => obj(vec![
            ("type", Json::from_str("delay")),
            ("extra", Json::from_usize(*extra)),
            ("rounds", Json::from_usize(*rounds)),
        ]),
        ChaosEvent::Partition { group, rounds } => obj(vec![
            ("type", Json::from_str("partition")),
            (
                "group",
                Json::Arr(group.iter().map(|&h| Json::from_usize(h)).collect()),
            ),
            ("rounds", Json::from_usize(*rounds)),
        ]),
        ChaosEvent::Outage { host, rounds } => obj(vec![
            ("type", Json::from_str("outage")),
            ("host", Json::from_usize(*host)),
            ("rounds", Json::from_usize(*rounds)),
        ]),
    }
}

fn event_from_json(v: &Json) -> Result<ChaosEvent, String> {
    let kind = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or("event missing 'type'")?;
    let field_usize = |name: &str| {
        v.get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("{kind} event missing '{name}'"))
    };
    let field_f64 = |name: &str| {
        v.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{kind} event missing '{name}'"))
    };
    Ok(match kind {
        "join" => ChaosEvent::Join {
            host: field_usize("host")?,
        },
        "leave" => ChaosEvent::Leave {
            host: field_usize("host")?,
        },
        "crash" => ChaosEvent::Crash {
            host: field_usize("host")?,
        },
        "recover" => ChaosEvent::Recover {
            host: field_usize("host")?,
        },
        "query" => ChaosEvent::Query {
            start: field_usize("start")?,
            k: field_usize("k")?,
            bandwidth: field_f64("bandwidth")?,
        },
        "loss" => ChaosEvent::Loss {
            loss: field_f64("loss")?,
            rounds: field_usize("rounds")?,
        },
        "duplicate" => ChaosEvent::Duplicate {
            dup: field_f64("dup")?,
            rounds: field_usize("rounds")?,
        },
        "delay" => ChaosEvent::Delay {
            extra: field_usize("extra")?,
            rounds: field_usize("rounds")?,
        },
        "partition" => ChaosEvent::Partition {
            group: v
                .get("group")
                .and_then(Json::as_arr)
                .ok_or("partition event missing 'group'")?
                .iter()
                .map(|h| h.as_usize().ok_or("partition group entry must be a number"))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .collect(),
            rounds: field_usize("rounds")?,
        },
        "outage" => ChaosEvent::Outage {
            host: field_usize("host")?,
            rounds: field_usize("rounds")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_and_stall_nemeses_pass_every_oracle() {
        // Work-cost inflation degrades *budgeted* queries only; protocol
        // state, the unbudgeted safety oracle and the cold-restart digest
        // must be untouched, so these nemeses are valid regression pins.
        let cfg = ChaosConfig {
            universe: 6,
            steps: 12,
        };
        for nemesis in ["slow-lane", "stall"] {
            for seed in 0..4u64 {
                let artifact = capture(seed, &cfg, Some(nemesis)).unwrap();
                assert!(
                    artifact.violation.is_none(),
                    "{nemesis} seed {seed}: {:?}",
                    artifact.violation
                );
                artifact.replay().expect("replays bit-identically");
            }
        }
        assert!(nemesis_hook("no-such-nemesis").is_none());
    }

    #[test]
    fn slow_window_is_periodic_and_always_ends() {
        let mut saw_active = false;
        let mut saw_idle = false;
        for step in 0..SLOW_PERIOD {
            if slow_window_active(step) {
                saw_active = true;
                assert!(slow_lane_cost(step) >= 8 && slow_lane_cost(step) <= 128);
            } else {
                saw_idle = true;
                assert_eq!(slow_lane_cost(step), 1);
            }
        }
        assert!(saw_active && saw_idle, "window must open and close");
        // Periodicity: the pattern repeats exactly.
        for step in 0..3 * SLOW_PERIOD {
            assert_eq!(
                slow_window_active(step),
                slow_window_active(step % SLOW_PERIOD)
            );
        }
    }

    #[test]
    fn cold_reference_memo_hits_on_every_non_churn_step() {
        let cfg = ChaosConfig {
            universe: 6,
            steps: 16,
        };
        for seed in 0..4u64 {
            let schedule = generate_schedule(seed, &cfg);
            let churn_steps = schedule.iter().filter(|e| e.as_churn().is_some()).count() as u64;
            let (outcome, stats) = run_schedule_with_stats(seed, &cfg, &schedule, |_, _| {});
            assert!(
                matches!(outcome, ChaosOutcome::Passed { .. }),
                "{outcome:?}"
            );
            assert_eq!(
                stats.cold_hits + stats.cold_misses,
                schedule.len() as u64,
                "every step consults the cold reference"
            );
            // Benign skips (double joins etc.) leave the epoch unchanged,
            // so churn *steps* bound the misses, they don't equal them.
            assert!(
                stats.cold_misses <= churn_steps,
                "seed {seed}: {} misses for {churn_steps} churn steps",
                stats.cold_misses
            );
            assert!(
                stats.hit_rate() > 0.0,
                "seed {seed}: query/fault steps must hit the memo"
            );
        }
        assert_eq!(OracleStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn persist_errors_thread_through_chaos_error() {
        let err = ChaosError::from(PersistError::NoValidSnapshot);
        assert_eq!(
            err.to_string(),
            "persistence failure: no valid snapshot generation to recover from"
        );
        assert_eq!(err.oracle(), None);
        let source = std::error::Error::source(&err).expect("persist source");
        assert_eq!(
            source.to_string(),
            "no valid snapshot generation to recover from"
        );
    }

    #[test]
    fn schedule_generation_is_deterministic() {
        let cfg = ChaosConfig::default();
        let a = generate_schedule(7, &cfg);
        let b = generate_schedule(7, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.steps + 4);
        let c = generate_schedule(8, &cfg);
        assert_ne!(a, c, "different seeds explore different schedules");
    }

    #[test]
    fn clean_runs_pass_and_reproduce_bit_identically() {
        let cfg = ChaosConfig {
            universe: 6,
            steps: 12,
        };
        for seed in 0..6u64 {
            let schedule = generate_schedule(seed, &cfg);
            let first = run_schedule(seed, &cfg, &schedule);
            let second = run_schedule(seed, &cfg, &schedule);
            assert!(
                matches!(first, ChaosOutcome::Passed { .. }),
                "seed {seed}: {first:?}"
            );
            assert_eq!(first, second, "seed {seed} must be deterministic");
        }
    }

    #[test]
    fn passing_artifact_round_trips_and_replays() {
        let cfg = ChaosConfig {
            universe: 6,
            steps: 10,
        };
        let artifact = capture(3, &cfg, None).unwrap();
        assert!(artifact.violation.is_none());
        assert!(artifact.final_digest.is_some());
        let text = artifact.to_json();
        let back = ReplayArtifact::from_json(&text).unwrap();
        assert_eq!(back, artifact);
        back.replay().unwrap();
    }

    #[test]
    fn broken_build_is_caught_shrunk_and_replayed() {
        // The crt-stale nemesis simulates a build that skips one CRT
        // propagation. The consistency oracle must catch it, ddmin must
        // shrink the schedule to a handful of events, and the artifact
        // must replay bit-identically.
        let cfg = ChaosConfig {
            universe: 6,
            steps: 12,
        };
        let artifact = capture(11, &cfg, Some("crt-stale")).unwrap();
        let violation = artifact.violation.as_ref().expect("nemesis must be caught");
        assert_eq!(violation.oracle, "consistency");
        assert!(
            artifact.schedule.len() <= 10,
            "ddmin should reach a minimal prefix, got {} events",
            artifact.schedule.len()
        );
        let back = ReplayArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(back, artifact);
        back.replay().unwrap();
    }

    #[test]
    fn replay_detects_divergence() {
        let cfg = ChaosConfig {
            universe: 6,
            steps: 8,
        };
        let mut artifact = capture(4, &cfg, None).unwrap();
        artifact.final_digest = Some(artifact.final_digest.unwrap() ^ 1);
        let err = artifact.replay().unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        match &err {
            ChaosError::ReplayDiverged { recorded, got } => {
                assert!(matches!(**recorded, ChaosOutcome::Passed { .. }));
                assert!(matches!(**got, ChaosOutcome::Passed { .. }));
            }
            other => panic!("expected ReplayDiverged, got {other:?}"),
        }
        // A digest-only divergence has no oracle to tag.
        assert_eq!(err.oracle(), None);
    }

    #[test]
    fn replay_divergence_surfaces_the_oracle() {
        let cfg = ChaosConfig {
            universe: 6,
            steps: 12,
        };
        let mut artifact = capture(11, &cfg, Some("crt-stale")).unwrap();
        assert!(artifact.violation.is_some(), "nemesis must be caught");
        // Tamper the recorded violation detail: replay diverges, and the
        // typed error must surface the oracle family so obs can tag the
        // divergence by type.
        artifact.violation.as_mut().unwrap().detail = "tampered".into();
        let err = artifact.replay().unwrap_err();
        assert_eq!(err.oracle(), Some("consistency"));
        assert!(err.to_string().contains("replay diverged"), "{err}");
    }

    #[test]
    fn unknown_nemesis_is_rejected() {
        let cfg = ChaosConfig::default();
        let err = capture(0, &cfg, Some("no-such-nemesis")).unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownNemesis {
                name: "no-such-nemesis".to_string()
            }
        );
        // Display is pinned: artifact tooling greps for this exact shape.
        assert_eq!(err.to_string(), "unknown nemesis \"no-such-nemesis\"");
        assert_eq!(err.oracle(), None);
        assert!(nemesis_hook("no-such-nemesis").is_none());
    }

    #[test]
    fn ddmin_finds_the_minimal_pair() {
        // Synthetic predicate: the "run" fails iff hosts 3 and 11 are both
        // present — ddmin must isolate exactly that pair.
        let events: Vec<ChaosEvent> = (0..20).map(|host| ChaosEvent::Join { host }).collect();
        let (shrunk, violation) = shrink_schedule(&events, |cand| {
            let has = |h: usize| {
                cand.iter()
                    .any(|e| matches!(e, ChaosEvent::Join { host } if *host == h))
            };
            (has(3) && has(11)).then(|| Violation {
                step: 0,
                oracle: "synthetic".into(),
                detail: "3 and 11 interact".into(),
            })
        });
        assert_eq!(
            shrunk,
            vec![ChaosEvent::Join { host: 3 }, ChaosEvent::Join { host: 11 }]
        );
        assert_eq!(violation.oracle, "synthetic");
    }

    #[test]
    fn event_json_round_trips_every_variant() {
        let events = vec![
            ChaosEvent::Join { host: 1 },
            ChaosEvent::Leave { host: 2 },
            ChaosEvent::Crash { host: 3 },
            ChaosEvent::Recover { host: 3 },
            ChaosEvent::Query {
                start: 0,
                k: 3,
                bandwidth: 60.0,
            },
            ChaosEvent::Loss {
                loss: 0.1 + 0.2,
                rounds: 7,
            },
            ChaosEvent::Duplicate {
                dup: 0.5,
                rounds: 4,
            },
            ChaosEvent::Delay {
                extra: 2,
                rounds: 5,
            },
            ChaosEvent::Partition {
                group: vec![1, 4],
                rounds: 9,
            },
            ChaosEvent::Outage { host: 2, rounds: 6 },
        ];
        for event in &events {
            let back = event_from_json(&event_to_json(event)).unwrap();
            assert_eq!(&back, event);
        }
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        for bad in [
            "{}",
            r#"{"seed": 1}"#,
            r#"{"seed": 1, "universe": 4, "schedule": [{"type": "warp"}]}"#,
            r#"{"seed": 1, "universe": 4, "schedule": [{"host": 0}]}"#,
            "not json",
        ] {
            assert!(ReplayArtifact::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
