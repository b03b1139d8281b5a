//! Dynamic membership: hosts joining and leaving a live system.
//!
//! The paper's fifth requirement (*dynamic clustering*) asks that cluster
//! membership adapt as network conditions change. [`DynamicSystem`] layers
//! that on top of the static stack: the prediction framework restructures
//! incrementally on every join/leave (re-embedding orphaned anchor
//! subtrees), and the gossip overlay repairs itself *incrementally* — only
//! the aggregation state along the anchor-tree paths the op actually
//! touched is rebuilt, and gossip re-converges over that disturbed region
//! alone ([`SimNetwork::reconverge_focused`]) instead of restarting the
//! whole overlay from blank. The fixpoint reached is bit-identical to a
//! cold restart of the same membership (the chaos liveness oracle), because
//! the dynamic overlay's predicted metric is the *label* distance
//! ([`fw_label_dist`]): a host's label is immutable while it stays
//! embedded, so churn of other hosts can never move an untouched pair's
//! distance — the same property that makes the cluster index's incremental
//! maintenance sound.
//!
//! Failures reuse the same machinery: [`DynamicSystem::crash`] is an
//! *involuntary* departure — the host's anchor descendants are re-adopted
//! exactly as for a graceful leave, but the host is remembered as crashed
//! so queries submitted there fail with a typed error and
//! [`DynamicSystem::recover`] can bring it back (a cold restart through the
//! ordinary join path).

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use bcc_core::{
    Budgeted, ClusterError, ClusterIndex, IndexError, QueryOutcome, RetryPolicy, Unmetered,
    WorkMeter,
};
use bcc_embed::{EmbedError, PredictionFramework};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, NodeId};

use crate::config::{ConfigError, SystemConfig};
use crate::engine::{NodeGossipState, OverlayDelta, SimNetwork};

/// Everything [`DynamicSystem::from_restored_parts`] needs to reassemble
/// a system from a checkpoint: the caller-supplied ground truth
/// (`bandwidth`, `config`) plus the checkpointed runtime state.
pub(crate) struct RestoredParts {
    pub bandwidth: BandwidthMatrix,
    pub config: SystemConfig,
    pub framework: PredictionFramework,
    pub active: BTreeSet<NodeId>,
    pub crashed: BTreeSet<NodeId>,
    pub index: ClusterIndex,
    pub gossip: Vec<NodeGossipState>,
    pub work_cost: u64,
    pub last_convergence_rounds: Option<usize>,
}

/// A membership operation: the one churn vocabulary of the workspace.
/// Schedules generate it, the journal records it, and every system type
/// (`DynamicSystem`, `ClusterService`, `Coordinator`) applies it through
/// an `apply(op, host)` that dispatches to its four churn methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// A new host joined the system.
    Join,
    /// A host departed gracefully.
    Leave,
    /// A host crashed without detaching.
    Crash,
    /// A previously crashed host rejoined.
    Recover,
}

/// An error from a membership operation on a [`DynamicSystem`].
///
/// Churn is a two-step act — restructure the embedding, then re-converge
/// the gossip overlay — and either step can fail: the embedding with a
/// typed [`EmbedError`], the overlay by exhausting the configured round
/// cap. Both surface here instead of panicking mid-operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnError {
    /// The prediction-framework restructuring was rejected (duplicate
    /// join, unknown host, host outside the universe, ...).
    Embed(EmbedError),
    /// The overlay failed to re-converge within
    /// [`SystemConfig::max_rounds`] after the membership change.
    Convergence {
        /// The round cap that was exhausted.
        max_rounds: usize,
    },
    /// The cluster index rejected the membership delta
    /// ([`bcc_core::IndexError`]). Unreachable through the public churn
    /// methods — they validate membership before building the delta — but
    /// propagated as a typed error rather than a panic so the library
    /// boundary stays honest.
    Index(IndexError),
}

impl From<EmbedError> for ChurnError {
    fn from(e: EmbedError) -> Self {
        ChurnError::Embed(e)
    }
}

impl From<IndexError> for ChurnError {
    fn from(e: IndexError) -> Self {
        ChurnError::Index(e)
    }
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Embed(e) => write!(f, "membership change rejected: {e}"),
            ChurnError::Convergence { max_rounds } => {
                write!(
                    f,
                    "overlay did not re-converge within {max_rounds} rounds after churn"
                )
            }
            ChurnError::Index(e) => write!(f, "cluster index rejected the churn delta: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChurnError::Embed(e) => Some(e),
            ChurnError::Convergence { .. } => None,
            ChurnError::Index(e) => Some(e),
        }
    }
}

/// Lifetime overlay-maintenance counters of one [`DynamicSystem`] — the
/// gossip-side mirror of [`bcc_core::IndexStats`]. Instance-local, so a
/// chaos oracle can assert *this* system never took the full-rebuild path
/// (`full_reconvergences` stays 0 across churn) without cross-talk.
///
/// Not persisted: a snapshot restore starts the counters at zero, exactly
/// like the index's `full_builds` discipline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlayStats {
    /// Cold from-blank overlay convergences. Only
    /// [`DynamicSystem::bootstrap`] takes this path; every join, leave,
    /// crash and recovery on a live system repairs incrementally and
    /// reports 0 here forever — the "no full rebuild on the hot path"
    /// guarantee the chaos `overlay` oracle pins.
    pub full_reconvergences: u64,
    /// Incremental churn repairs ([focused reconvergence]
    /// (`SimNetwork::reconverge_focused`)).
    pub incremental_ops: u64,
    /// Focused gossip rounds of the most recent churn op.
    pub last_rounds: u64,
    /// Gossip messages the most recent churn op sent.
    pub last_messages: u64,
    /// Predicted-store entries the most recent churn op rewrote.
    pub last_predicted_entries: u64,
    /// Seed hosts of the most recent churn op's disturbed region.
    pub last_region: u64,
    /// Gossip messages across all churn ops.
    pub messages: u64,
    /// Predicted-store entries rewritten across all churn ops.
    pub predicted_entries: u64,
}

/// Measured cost of one *full rebuild* of the overlay — the cold path
/// incremental maintenance replaced, in the same units [`OverlayStats`]
/// reports for the incremental path. Benchmarks compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildCost {
    /// Gossip rounds a blank overlay needs to converge.
    pub rounds: u64,
    /// Gossip messages sent on the way there.
    pub messages: u64,
    /// Predicted-store entries a cold rebuild computes (all active
    /// pairs).
    pub predicted_entries: u64,
}

/// Canonical predicted distance for the cluster index: the *label*
/// distance between two universe ids, always evaluated in `(lo, hi)`
/// order so both index construction paths (incremental, cold rebuild)
/// see bit-identical values regardless of argument order.
///
/// Label distances depend only on the two endpoints' labels, and churn
/// of *other* hosts never touches an untouched host's label — which is
/// exactly what makes incremental index maintenance sound: a membership
/// delta can only change distances involving the delta's own hosts.
///
/// A host with no label (never joined, departed or crashed) is infinitely
/// far from every other host, so the `d(p, q) ≤ l` filter keeps it out of
/// every cluster and every ball.
pub fn fw_label_dist(fw: &PredictionFramework, a: u32, b: u32) -> f64 {
    if a == b {
        return 0.0;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    fw.label_distance(NodeId::new(lo as usize), NodeId::new(hi as usize))
        .unwrap_or(f64::INFINITY)
}

/// A fresh overlay over the active membership, its predicted-distance
/// store holding the label distance of every active pair and nothing
/// else. The label metric (unlike a tree BFS, whose fold order moves with
/// every splice) makes each entry a pure function of its two endpoints'
/// immutable labels — the property that lets incremental maintenance
/// rewrite only the touched rows and still land bit-identical to this
/// cold fill.
fn label_network(
    fw: &PredictionFramework,
    universe: usize,
    active: &BTreeSet<NodeId>,
    config: &SystemConfig,
) -> SimNetwork {
    let members: Vec<NodeId> = active.iter().copied().collect();
    SimNetwork::over_members(
        fw.anchor(),
        universe,
        &members,
        |a, b| fw_label_dist(fw, a.index() as u32, b.index() as u32),
        config.protocol.clone(),
    )
}

/// A clustering system whose membership changes over time.
///
/// The full host population and their pairwise bandwidth are fixed up
/// front (the measurement "universe"); hosts then join and leave freely.
#[derive(Debug, Clone)]
pub struct DynamicSystem {
    /// The measurement universe and its distance image. Shared, never
    /// written: a clone, and every shard of a sharded deployment
    /// ([`DynamicSystem::try_with_universe`]), points at the same two
    /// allocations.
    bandwidth: Arc<BandwidthMatrix>,
    real_distance: Arc<DistanceMatrix>,
    config: SystemConfig,
    framework: PredictionFramework,
    network: Option<SimNetwork>,
    active: BTreeSet<NodeId>,
    crashed: BTreeSet<NodeId>,
    last_convergence_rounds: Option<usize>,
    /// Work units charged per pair examined by budgeted queries (>= 1).
    /// Chaos nemeses inflate this to model a slow region deterministically
    /// — logical cost, never wall-clock.
    work_cost: u64,
    /// Sorted distance labels over the active membership, maintained
    /// incrementally on every churn op — never rebuilt from scratch on the
    /// hot path (asserted by the chaos oracles via
    /// [`bcc_core::IndexStats::full_builds`]).
    index: ClusterIndex,
    /// Overlay-maintenance counters — the gossip-side `full_builds == 0`
    /// discipline (asserted by the chaos `overlay` oracle).
    overlay_stats: OverlayStats,
    /// Departed hosts whose member slots in the overlay's predicted store
    /// are not free yet: a slot is released once a repair converges, and
    /// a repair that fails leaves its departed host here for the next one.
    retired: Vec<NodeId>,
    /// [`DynamicSystem::live_digest`] of the current overlay state, filled
    /// by the first read and cleared by every `&mut` path that can reach
    /// `network`.
    digest_memo: OnceLock<Option<u64>>,
}

impl DynamicSystem {
    /// Creates an empty system over a measurement universe of
    /// `bandwidth.len()` potential hosts.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration — use [`DynamicSystem::try_new`]
    /// for a typed error instead.
    pub fn new(bandwidth: BandwidthMatrix, config: SystemConfig) -> Self {
        Self::try_new(bandwidth, config).expect("valid SystemConfig")
    }

    /// [`DynamicSystem::new`] with up-front configuration validation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when a field is invalid (see
    /// [`SystemConfig::validate`]).
    pub fn try_new(bandwidth: BandwidthMatrix, config: SystemConfig) -> Result<Self, ConfigError> {
        let real_distance = config.transform.distance_matrix(&bandwidth);
        Self::try_with_universe(Arc::new(bandwidth), Arc::new(real_distance), config)
    }

    /// [`DynamicSystem::try_new`] over a universe the caller already
    /// holds: `real_distance` must be `config.transform`'s image of
    /// `bandwidth`. Several systems over one deployment (the shards of a
    /// coordinator) share the two matrices instead of each copying the
    /// bandwidths and recomputing the distances.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UniverseMismatch`] when the two matrices differ in
    /// size, plus the errors of [`DynamicSystem::try_new`].
    pub fn try_with_universe(
        bandwidth: Arc<BandwidthMatrix>,
        real_distance: Arc<DistanceMatrix>,
        config: SystemConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if real_distance.len() != bandwidth.len() {
            return Err(ConfigError::UniverseMismatch {
                bandwidth: bandwidth.len(),
                distance: real_distance.len(),
            });
        }
        let framework = PredictionFramework::new(config.framework);
        let index = ClusterIndex::empty(bandwidth.len());
        Ok(DynamicSystem {
            bandwidth,
            real_distance,
            config,
            framework,
            network: None,
            active: BTreeSet::new(),
            crashed: BTreeSet::new(),
            last_convergence_rounds: None,
            work_cost: 1,
            index,
            overlay_stats: OverlayStats::default(),
            retired: Vec::new(),
            digest_memo: OnceLock::new(),
        })
    }

    /// Builds a fully-joined system in one shot: every host in `hosts`
    /// joins the prediction framework, the cluster index is built once,
    /// and the overlay converges once at the end.
    ///
    /// This is the cheapest possible *cold restart* of a membership — no
    /// per-join overlay re-convergence, no incremental index splicing —
    /// and therefore the honest baseline the recovery benchmark compares
    /// warm (snapshot-restore) restarts against.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] if a host is outside the universe or listed
    /// twice; [`ChurnError::Convergence`] if the overlay fails to
    /// converge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, like [`DynamicSystem::new`].
    pub fn bootstrap(
        bandwidth: BandwidthMatrix,
        config: SystemConfig,
        hosts: &[NodeId],
    ) -> Result<Self, ChurnError> {
        let mut sys = Self::new(bandwidth, config);
        for &h in hosts {
            if h.index() >= sys.bandwidth.len() {
                return Err(EmbedError::UnknownHost(h).into());
            }
            let real = &sys.real_distance;
            sys.framework
                .join(h, |a, b| real.get(a.index(), b.index()))?;
            sys.active.insert(h);
        }
        let ids: Vec<u32> = sys.active.iter().map(|h| h.index() as u32).collect();
        let fw = &sys.framework;
        sys.index = ClusterIndex::build(sys.bandwidth.len(), &ids, |a, b| fw_label_dist(fw, a, b));
        sys.rebuild()?;
        Ok(sys)
    }

    /// Reassembles a system from checkpointed parts without re-running
    /// any of the expensive construction paths: the framework arrives
    /// bit-identical (restructure revision, RNG state and all), the index
    /// is installed as-is (no full build is counted), and the overlay is
    /// recreated by importing the checkpointed gossip state instead of
    /// re-converging. The persist layer is the only caller; it guards the
    /// inputs with per-section checksums before trusting them here.
    pub(crate) fn from_restored_parts(parts: RestoredParts) -> Result<Self, String> {
        let RestoredParts {
            bandwidth,
            config,
            framework,
            active,
            crashed,
            index,
            gossip,
            work_cost,
            last_convergence_rounds,
        } = parts;
        config.validate().map_err(|e| e.to_string())?;
        if index.universe() != bandwidth.len() {
            return Err(format!(
                "index universe {} does not match bandwidth universe {}",
                index.universe(),
                bandwidth.len()
            ));
        }
        let ids: Vec<u32> = active.iter().map(|h| h.index() as u32).collect();
        if let Some(&id) = ids.last() {
            if id as usize >= bandwidth.len() {
                return Err(format!("active host {id} outside the universe"));
            }
        }
        if index.ids() != ids.as_slice() {
            return Err("index membership does not match the active set".into());
        }
        let mut fw_hosts = framework.tree().hosts();
        fw_hosts.sort_unstable();
        if fw_hosts != active.iter().copied().collect::<Vec<_>>() {
            return Err("framework membership does not match the active set".into());
        }
        if let Some(&h) = crashed.iter().next_back() {
            if h.index() >= bandwidth.len() {
                return Err(format!("crashed host {h} outside the universe"));
            }
        }
        if !active.is_disjoint(&crashed) {
            return Err("a host is both active and crashed".into());
        }
        let real_distance = Arc::new(config.transform.distance_matrix(&bandwidth));
        let network = if active.is_empty() {
            if !gossip.is_empty() {
                return Err("gossip state present for an empty membership".into());
            }
            None
        } else {
            let mut net = label_network(&framework, bandwidth.len(), &active, &config);
            net.import_gossip(gossip)?;
            Some(net)
        };
        Ok(DynamicSystem {
            bandwidth: Arc::new(bandwidth),
            real_distance,
            config,
            framework,
            network,
            active,
            crashed,
            last_convergence_rounds,
            work_cost: work_cost.max(1),
            index,
            overlay_stats: OverlayStats::default(),
            retired: Vec::new(),
            digest_memo: OnceLock::new(),
        })
    }

    /// The work-cost factor budgeted queries are charged per pair (>= 1).
    pub fn work_cost(&self) -> u64 {
        self.work_cost
    }

    /// Sets the work-cost factor (clamped to >= 1). A slow-lane nemesis
    /// raises it during its window and restores it afterwards; unbudgeted
    /// queries are unaffected.
    pub fn set_work_cost(&mut self, cost: u64) {
        self.work_cost = cost.max(1);
    }

    /// Hosts currently participating.
    pub fn active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.active.iter().copied()
    }

    /// Whether `host` is currently active (joined and not crashed).
    pub fn is_active(&self, host: NodeId) -> bool {
        self.active.contains(&host)
    }

    /// Number of hosts in the measurement universe (joined or not) — the
    /// valid id range for joins and query submit nodes.
    pub fn universe_size(&self) -> usize {
        self.bandwidth.len()
    }

    /// Number of participating hosts.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Returns `true` when nobody has joined.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Joins a host from the universe, measuring against the ground truth.
    ///
    /// # Errors
    ///
    /// - [`ChurnError::Embed`] wrapping [`EmbedError::HostExists`] if the
    ///   host is already active, or [`EmbedError::UnknownHost`] if the id
    ///   is outside the universe.
    /// - [`ChurnError::Convergence`] if the overlay fails to re-converge.
    pub fn join(&mut self, host: NodeId) -> Result<(), ChurnError> {
        if host.index() >= self.bandwidth.len() {
            return Err(EmbedError::UnknownHost(host).into());
        }
        let real = &self.real_distance;
        self.framework
            .join(host, |a, b| real.get(a.index(), b.index()))?;
        self.active.insert(host);
        // Joining is also how a crashed host comes back.
        self.crashed.remove(&host);
        // One new labeled host: splice its distances into every index row.
        let fw = &self.framework;
        self.index
            .apply_churn(&[], &[host.index() as u32], |a, b| fw_label_dist(fw, a, b))?;
        self.reconverge_after_churn(&[host], None)
    }

    /// Removes a host; its anchor descendants are re-embedded
    /// automatically.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] wrapping [`EmbedError::UnknownHost`] if the
    /// host is not active; [`ChurnError::Convergence`] if the overlay fails
    /// to re-converge.
    pub fn leave(&mut self, host: NodeId) -> Result<(), ChurnError> {
        let orphans = self.detach(host)?;
        self.active.remove(&host);
        self.update_index_after_departure(host, &orphans)?;
        self.reconverge_after_churn(&orphans, Some(host))
    }

    /// The shared framework-departure step of [`DynamicSystem::leave`] and
    /// [`DynamicSystem::crash`]: detaches `host`, re-embeds its orphaned
    /// anchor descendants and reports them.
    fn detach(&mut self, host: NodeId) -> Result<Vec<NodeId>, ChurnError> {
        let real = &self.real_distance;
        Ok(self
            .framework
            .leave_reporting(host, |a, b| real.get(a.index(), b.index()))?)
    }

    /// Incremental index delta for a departure: the departed host's rows
    /// and entries vanish, the re-embedded orphans' distances are
    /// recomputed; every other row slice survives untouched.
    fn update_index_after_departure(
        &mut self,
        host: NodeId,
        orphans: &[NodeId],
    ) -> Result<(), ChurnError> {
        let removed = [host.index() as u32];
        let reembedded: Vec<u32> = orphans.iter().map(|h| h.index() as u32).collect();
        let fw = &self.framework;
        self.index
            .apply_churn(&removed, &reembedded, |a, b| fw_label_dist(fw, a, b))?;
        Ok(())
    }

    /// Crashes a host: an *involuntary* departure. Its anchor descendants
    /// are re-adopted exactly as in [`DynamicSystem::leave`], the overlay
    /// re-converges without it, and the host is remembered as crashed:
    /// queries submitted there fail with
    /// [`ClusterError::NodeUnavailable`] until [`DynamicSystem::recover`].
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] wrapping [`EmbedError::UnknownHost`] if the
    /// host is not active; [`ChurnError::Convergence`] if the overlay fails
    /// to re-converge.
    pub fn crash(&mut self, host: NodeId) -> Result<(), ChurnError> {
        let orphans = self.detach(host)?;
        self.active.remove(&host);
        self.crashed.insert(host);
        self.update_index_after_departure(host, &orphans)?;
        self.reconverge_after_churn(&orphans, Some(host))
    }

    /// Brings a crashed host back: a cold restart through the ordinary
    /// join path (fresh embedding, overlay re-convergence).
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] wrapping [`EmbedError::UnknownHost`] if the
    /// host is not crashed; [`ChurnError::Convergence`] if the overlay
    /// fails to re-converge.
    pub fn recover(&mut self, host: NodeId) -> Result<(), ChurnError> {
        if !self.crashed.contains(&host) {
            return Err(EmbedError::UnknownHost(host).into());
        }
        self.join(host)
    }

    /// Applies one churn op: the `join`, `leave`, `crash` or `recover` of
    /// `host` that `op` names.
    ///
    /// # Errors
    ///
    /// Those of the method `op` names.
    pub fn apply(&mut self, op: ChurnOp, host: NodeId) -> Result<(), ChurnError> {
        match op {
            ChurnOp::Join => self.join(host),
            ChurnOp::Leave => self.leave(host),
            ChurnOp::Crash => self.crash(host),
            ChurnOp::Recover => self.recover(host),
        }
    }

    /// Hosts currently crashed (and not yet recovered).
    pub fn crashed(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.crashed.iter().copied()
    }

    /// Whether `host` is currently crashed.
    pub fn is_crashed(&self, host: NodeId) -> bool {
        self.crashed.contains(&host)
    }

    /// Gossip rounds the overlay needed to re-converge after the most
    /// recent membership change (join, leave, crash or recovery) — the
    /// quantity the robustness evaluation reports as re-convergence cost.
    pub fn last_convergence_rounds(&self) -> Option<usize> {
        self.last_convergence_rounds
    }

    /// The first check of every query path: a crashed `start` serves
    /// nothing until it recovers.
    fn reject_crashed(&self, start: NodeId) -> Result<(), ClusterError> {
        if self.crashed.contains(&start) {
            return Err(ClusterError::NodeUnavailable {
                node: start.index(),
            });
        }
        Ok(())
    }

    /// The overlay a routed query submitted at `start` runs on:
    /// `NodeUnavailable` for a crashed `start`, `UnknownNeighbor` while no
    /// host has joined.
    fn overlay_at(&self, start: NodeId) -> Result<&SimNetwork, ClusterError> {
        self.reject_crashed(start)?;
        self.network.as_ref().ok_or(ClusterError::UnknownNeighbor {
            neighbor: start.index(),
        })
    }

    /// Decentralized query against the current membership.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeUnavailable`] when submitted at a crashed host,
    /// [`ClusterError::UnknownNeighbor`] when no host has joined yet, plus
    /// the validation errors of [`bcc_core::process_query`].
    pub fn query(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<QueryOutcome, ClusterError> {
        self.overlay_at(start)?.query(start, k, bandwidth)
    }

    /// [`DynamicSystem::query`] under `retry`'s hop budget
    /// (see [`bcc_core::process_query`]).
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSystem::query`].
    pub fn query_resilient(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
    ) -> Result<QueryOutcome, ClusterError> {
        self.overlay_at(start)?
            .query_resilient(start, k, bandwidth, retry, &mut Unmetered)
            .map(Budgeted::into_value)
    }

    /// Delegates to [`DynamicSystem::query_resilient`]; kept under this
    /// name for the end-to-end benchmark's traced replay.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSystem::query`].
    pub fn query_resilient_indexed(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
    ) -> Result<QueryOutcome, ClusterError> {
        self.query_resilient(start, k, bandwidth, retry)
    }

    /// Region-scoped query: `k` active hosts with predicted pairwise
    /// bandwidth ≥ the class `bandwidth` snaps up to, drawn from the ball
    /// `B(start, 2l)` in the label metric (`l` the snapped class's
    /// distance constraint). The triangle inequality guarantees the ball
    /// covers *every* diameter-`≤ l` cluster that intersects
    /// `B(start, l)`, so the answer depends only on membership and
    /// labels — never on how the membership is partitioned. That
    /// membership-purity is exactly what lets a sharded coordinator
    /// reproduce it bit for bit from per-shard region indexes
    /// (see `bcc-shard`).
    ///
    /// Candidates are enumerated from the live [`ClusterIndex`] row of
    /// `start` and canonicalized to ascending id order before the shared
    /// merge kernel [`bcc_core::find_cluster_among`] runs.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeUnavailable`] when `start` is crashed, the
    /// validation errors of [`bcc_core::QueryRequest::validate`], and
    /// [`ClusterError::UnknownNeighbor`] when `start` is not active.
    pub fn cluster_near(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<Option<Vec<NodeId>>, ClusterError> {
        self.reject_crashed(start)?;
        let classes = &self.config.protocol.classes;
        let class_idx = bcc_core::QueryRequest::new(start, k, bandwidth)
            .validate(classes, self.bandwidth.len())?;
        let Some(slot) = self.index.slot(start.index() as u32) else {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: start.index(),
            });
        };
        let l = classes.distance_of(class_idx);
        let (_, ids) = self.index.ball(slot, 2.0 * l);
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        let fw = &self.framework;
        Ok(
            bcc_core::find_cluster_among(&ids, k, l, |a, b| fw_label_dist(fw, a, b))
                .map(|c| c.into_iter().map(|id| NodeId::new(id as usize)).collect()),
        )
    }

    /// [`DynamicSystem::query_resilient`] under a work budget: the query
    /// may charge at most `budget` units, where each pair examined costs
    /// the system's current [`DynamicSystem::work_cost`] — so a slow-lane
    /// nemesis makes the same query exhaust sooner, deterministically.
    /// Returns [`Budgeted::Exhausted`] with the degraded outcome when the
    /// budget runs dry.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSystem::query`].
    pub fn query_budgeted(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
        budget: u64,
    ) -> Result<Budgeted<QueryOutcome>, ClusterError> {
        let net = self.overlay_at(start)?;
        let mut meter = WorkMeter::with_cost(budget, self.work_cost);
        net.query_resilient(start, k, bandwidth, retry, &mut meter)
    }

    /// The current overlay, if any host is active.
    pub fn network(&self) -> Option<&SimNetwork> {
        self.network.as_ref()
    }

    /// Mutable access to the current overlay — the hook chaos harnesses use
    /// to attach fault injectors, enable tracing, or run extra gossip
    /// rounds against the live membership.
    ///
    /// Handing out the borrow forgets the memoised
    /// [`DynamicSystem::live_digest`]: whatever the caller writes through
    /// it, the next read hashes the overlay afresh.
    pub fn network_mut(&mut self) -> Option<&mut SimNetwork> {
        self.digest_memo.take();
        self.network.as_mut()
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The prediction framework (restructured incrementally under churn).
    pub fn framework(&self) -> &PredictionFramework {
        &self.framework
    }

    /// Ground-truth bandwidth between two universe hosts.
    pub fn real_bandwidth(&self, u: NodeId, v: NodeId) -> f64 {
        self.bandwidth.get(u.index(), v.index())
    }

    /// Predicted bandwidth between two hosts: the label metric the overlay
    /// serves ([`fw_label_dist`]), through the configured transform. Zero
    /// when either host is not embedded.
    pub fn predicted_bandwidth(&self, u: NodeId, v: NodeId) -> f64 {
        let d = fw_label_dist(&self.framework, u.index() as u32, v.index() as u32);
        self.config.transform.to_bandwidth(d)
    }

    /// Scores a returned cluster against ground truth: the number of pairs
    /// whose *real* bandwidth is below `b`, and the total number of pairs.
    pub fn score_cluster(&self, cluster: &[NodeId], b: f64) -> (usize, usize) {
        let mut wrong = 0;
        let mut total = 0;
        for (i, &u) in cluster.iter().enumerate() {
            for &v in &cluster[i + 1..] {
                total += 1;
                if self.real_bandwidth(u, v) < b {
                    wrong += 1;
                }
            }
        }
        (wrong, total)
    }

    /// Monotone membership epoch: bumps exactly once on every successful
    /// [`DynamicSystem::join`], [`DynamicSystem::leave`],
    /// [`DynamicSystem::crash`] and [`DynamicSystem::recover`] (it is the
    /// prediction framework's restructure revision). Serving layers use it
    /// as the cheap churn signal for cache invalidation; pair it with
    /// [`DynamicSystem::live_digest`] to also catch overlay-state
    /// disturbances that leave membership unchanged.
    pub fn epoch(&self) -> u64 {
        self.framework.revision()
    }

    /// Digest of the live overlay's gossip state — the exact value
    /// [`SimNetwork::digest`] reports — or `None` before any host joins.
    /// Changes whenever membership, aggregation state or CRTs change,
    /// including mid-fault windows injected through
    /// [`DynamicSystem::network_mut`].
    ///
    /// Cost: one [`SimNetwork::digest`] (a hash of every node's gossip
    /// state) per overlay state, O(1) for every further read of that
    /// state. The value is memoised on first read, so a system nobody asks
    /// pays nothing, and forgotten by the three `&mut` paths that can
    /// reach the overlay: the cold convergence of
    /// [`DynamicSystem::bootstrap`], the incremental repair behind every
    /// join, leave, crash and recovery, and
    /// [`DynamicSystem::network_mut`]. Each forgets it on entry, before
    /// writing anything, so a repair that stops half way
    /// ([`ChurnError::Convergence`]) cannot leave the digest of the state
    /// it started from behind.
    pub fn live_digest(&self) -> Option<u64> {
        *self
            .digest_memo
            .get_or_init(|| self.network.as_ref().map(SimNetwork::digest))
    }

    /// The incrementally-maintained cluster index over the active
    /// membership: one sorted distance row per active host in the
    /// predicted (label) metric, slot order = ascending host id.
    pub fn cluster_index(&self) -> &ClusterIndex {
        &self.index
    }

    /// The `(epoch, digest)` stamp of the live index — the same discipline
    /// the service cache keys results by: the epoch is
    /// [`DynamicSystem::epoch`] and the digest is the index content digest,
    /// so a stamp match means the index answers are valid for the cached
    /// membership.
    pub fn index_stamp(&self) -> (u64, u64) {
        (self.epoch(), self.index.digest())
    }

    /// Builds the index the current membership would get *from scratch* —
    /// the `O(n² log n)` cold path the incremental maintenance avoids.
    /// Chaos oracles compare its digest against the live
    /// [`DynamicSystem::cluster_index`] after every churn schedule; the
    /// two are equal because untouched hosts keep their labels bit-for-bit
    /// across other hosts' churn.
    pub fn rebuild_index_cold(&self) -> ClusterIndex {
        let ids: Vec<u32> = self.active.iter().map(|h| h.index() as u32).collect();
        let fw = &self.framework;
        ClusterIndex::build(self.bandwidth.len(), &ids, |a, b| fw_label_dist(fw, a, b))
    }

    /// The gossip digest a *cold restart* of the current membership would
    /// reach: a fresh fault-free overlay built from the live framework and
    /// run to its fixpoint. Liveness oracles compare the live network's
    /// digest against this after all faults heal. `None` when no host is
    /// active.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Convergence`] if the fresh overlay fails to converge
    /// within [`SystemConfig::max_rounds`].
    pub fn cold_restart_digest(&self) -> Result<Option<u64>, ChurnError> {
        if self.active.is_empty() {
            return Ok(None);
        }
        let (net, _) = self.fresh_network()?;
        Ok(Some(net.digest()))
    }

    /// Builds a fresh converged fault-free overlay from the live framework,
    /// returning it with the rounds it needed.
    fn fresh_network(&self) -> Result<(SimNetwork, usize), ChurnError> {
        let mut net = label_network(
            &self.framework,
            self.bandwidth.len(),
            &self.active,
            &self.config,
        );
        let rounds =
            net.run_to_convergence(self.config.max_rounds)
                .ok_or(ChurnError::Convergence {
                    max_rounds: self.config.max_rounds,
                })?;
        Ok((net, rounds))
    }

    /// Full from-blank overlay convergence — the cold path. Only
    /// [`DynamicSystem::bootstrap`] calls this; churn on a live system goes
    /// through [`DynamicSystem::reconverge_after_churn`] instead, and the
    /// `full_reconvergences` counter bumped here is the tripwire proving
    /// it stays that way.
    fn rebuild(&mut self) -> Result<(), ChurnError> {
        self.digest_memo.take();
        if self.active.is_empty() {
            self.network = None;
            self.last_convergence_rounds = None;
            return Ok(());
        }
        let (net, rounds) = self.fresh_network()?;
        self.overlay_stats.full_reconvergences += 1;
        self.last_convergence_rounds = Some(rounds);
        self.network = Some(net);
        Ok(())
    }

    /// Incremental overlay repair after one membership op — the hot path
    /// that replaced the per-op full rebuild.
    ///
    /// `touched` is the set of hosts whose labels were (re)computed by the
    /// framework restructure: the joiner on a join, the re-embedded
    /// orphans on a leave/crash. `departed` is the host that left, if any.
    /// The repair is three cheap steps against the *persistent* overlay:
    ///
    /// 1. rewrite the predicted-store rows of `touched` against the live
    ///    membership (`O(|touched| · |active|)` — untouched pairs keep
    ///    their label distances bit-for-bit, so nothing else moved), giving
    ///    a joiner a member slot (a departed host's slot is freed only once
    ///    the repair converges, see step 3);
    /// 2. build an [`OverlayDelta`]: reset the touched + departed hosts'
    ///    aggregation state, splice the anchor adjacency edits (every
    ///    added or removed anchor edge has a touched/departed endpoint, so
    ///    comparing old overlay lists against the new anchor around that
    ///    set covers all edits);
    /// 3. re-converge *focused* on the disturbed region
    ///    ([`SimNetwork::reconverge_focused`]): change-driven gossip that
    ///    expands exactly as far as records differ from the old fixpoint
    ///    and lands on the unique fixpoint a cold restart would reach —
    ///    the `live digest == cold_restart_digest` invariant the chaos
    ///    liveness oracle pins after every op. That fixpoint names no
    ///    departed host, so their member slots are released here; until
    ///    then the repair's rounds still read their old rows.
    fn reconverge_after_churn(
        &mut self,
        touched: &[NodeId],
        departed: Option<NodeId>,
    ) -> Result<(), ChurnError> {
        self.digest_memo.take();
        if self.active.is_empty() {
            self.network = None;
            self.retired.clear();
            self.last_convergence_rounds = None;
            self.overlay_stats.incremental_ops += 1;
            self.overlay_stats.last_rounds = 0;
            self.overlay_stats.last_messages = 0;
            self.overlay_stats.last_predicted_entries = 0;
            self.overlay_stats.last_region = 0;
            return Ok(());
        }
        if self.network.is_none() {
            // First host: a blank overlay (no gossip state to preserve, so
            // nothing to repair — the focused pass below converges it).
            self.network = Some(label_network(
                &self.framework,
                self.bandwidth.len(),
                &self.active,
                &self.config,
            ));
        }
        let active: Vec<NodeId> = self.active.iter().copied().collect();
        let fw = &self.framework;
        let anchor = fw.anchor();
        let net = self.network.as_mut().expect("overlay exists");

        let entries = {
            let _span = bcc_obs::span!("simnet.repair.rows");
            net.update_predicted_rows(touched, &active, |a, b| {
                fw_label_dist(fw, a.index() as u32, b.index() as u32)
            })
        };

        let mut delta = OverlayDelta {
            reset: touched.to_vec(),
            neighbors: Vec::new(),
        };
        if let Some(d) = departed {
            delta.reset.push(d);
            self.retired.push(d);
        }
        // Hosts whose anchor adjacency could have changed: the reset hosts
        // themselves plus their overlay neighbors old and new. Every
        // spliced edge has a reset endpoint, so this closure is complete.
        let mut affected: BTreeSet<NodeId> = BTreeSet::new();
        for &h in &delta.reset {
            affected.insert(h);
            affected.extend(net.nodes()[h.index()].neighbors().iter().copied());
            if anchor.contains(h) {
                affected.extend(anchor.neighbors(h));
            }
        }
        for &a in &affected {
            let new_list = if anchor.contains(a) {
                anchor.neighbors(a)
            } else {
                Vec::new()
            };
            if net.nodes()[a.index()].neighbors() != new_list.as_slice() {
                delta.neighbors.push((a, new_list));
            }
        }

        let messages_before = net.traffic().messages;
        let seeds = {
            let _span = bcc_obs::span!("simnet.repair.delta");
            net.apply_churn_delta(&delta, &active)
        };
        let rounds = net
            .reconverge_focused(&seeds, self.config.max_rounds)
            .ok_or(ChurnError::Convergence {
                max_rounds: self.config.max_rounds,
            })?;
        let messages = net.traffic().messages - messages_before;
        for h in self.retired.drain(..) {
            // A host that came back before a repair converged keeps its
            // slot: its row was rewritten when it rejoined.
            if !self.active.contains(&h) {
                net.release_predicted(h);
            }
        }

        self.last_convergence_rounds = Some(rounds);
        let st = &mut self.overlay_stats;
        st.incremental_ops += 1;
        st.last_rounds = rounds as u64;
        st.last_messages = messages;
        st.last_predicted_entries = entries;
        st.last_region = seeds.len() as u64;
        st.messages += messages;
        st.predicted_entries += entries;
        Ok(())
    }

    /// Lifetime overlay-maintenance counters of this system (see
    /// [`OverlayStats`]). `full_reconvergences` stays 0 across arbitrary
    /// churn on a live system — only [`DynamicSystem::bootstrap`]'s single
    /// cold convergence counts there.
    pub fn overlay_stats(&self) -> OverlayStats {
        self.overlay_stats
    }

    /// Measures what one *full rebuild* of the current overlay costs — the
    /// cold path every churn op used to pay before incremental maintenance
    /// — without touching the live system. `None` when nobody is active.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Convergence`] if the probe overlay fails to converge
    /// within [`SystemConfig::max_rounds`].
    pub fn rebuild_cost_probe(&self) -> Result<Option<RebuildCost>, ChurnError> {
        if self.active.is_empty() {
            return Ok(None);
        }
        let (net, rounds) = self.fresh_network()?;
        let a = self.active.len() as u64;
        Ok(Some(RebuildCost {
            rounds: rounds as u64,
            messages: net.traffic().messages,
            predicted_entries: a * (a - 1) / 2,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::BandwidthClasses;
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn universe() -> BandwidthMatrix {
        // Access-link model: 0-2 fast (100), 3-4 medium (30), 5 slow (10).
        let caps = [100.0f64, 100.0, 100.0, 30.0, 30.0, 10.0];
        BandwidthMatrix::from_fn(6, |i, j| caps[i].min(caps[j]))
    }

    fn dynamic() -> DynamicSystem {
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        DynamicSystem::new(universe(), SystemConfig::new(cls))
    }

    /// Every host of an access-link deployment, bootstrapped in one shot.
    fn booted(caps: &[f64], classes: Vec<f64>) -> DynamicSystem {
        let cls = BandwidthClasses::new(classes, RationalTransform::default());
        let bw = BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j]));
        let hosts: Vec<NodeId> = (0..caps.len()).map(n).collect();
        DynamicSystem::bootstrap(bw, SystemConfig::new(cls), &hosts).unwrap()
    }

    #[test]
    fn bootstrapped_predictions_are_exact_on_a_tree_metric() {
        let s = booted(&[100.0, 100.0, 50.0, 20.0], vec![40.0, 80.0]);
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let real = s.real_bandwidth(n(i), n(j));
                let pred = s.predicted_bandwidth(n(i), n(j));
                assert!((real - pred).abs() < 1e-6, "({i},{j}): {pred} vs {real}");
            }
        }
        // A host outside the membership has no label: zero bandwidth.
        let mut s = s;
        s.leave(n(3)).unwrap();
        assert_eq!(s.predicted_bandwidth(n(0), n(3)), 0.0);
    }

    #[test]
    fn decentralized_query_is_correct_on_tree_metric() {
        let s = booted(&[100.0, 100.0, 100.0, 30.0, 30.0, 10.0], vec![40.0, 80.0]);
        let out = s.query(n(5), 3, 80.0).unwrap();
        let c = out.cluster.unwrap();
        assert_eq!(s.score_cluster(&c, 80.0), (0, 3));
        assert_eq!(c, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn cluster_for_lower_class_is_larger() {
        // b = 20 (class 20): everyone but host 5 qualifies together.
        let s = booted(&[100.0, 100.0, 100.0, 30.0, 30.0, 10.0], vec![20.0, 80.0]);
        let c = s.query(n(2), 5, 20.0).unwrap().cluster.unwrap();
        assert_eq!(s.score_cluster(&c, 20.0), (0, 10));
    }

    #[test]
    fn centralized_matches_decentralized_on_easy_queries() {
        // TREE-CENTRAL as the figures compute it: Algorithm 1 over the
        // framework's whole predicted metric.
        let s = booted(&[100.0, 100.0, 100.0, 30.0, 30.0, 10.0], vec![40.0, 80.0]);
        let predicted = s.framework().predicted_matrix();
        let l = s.config().transform.distance_constraint(80.0);
        for k in 2..=4 {
            let cen = bcc_core::find_cluster(&predicted, k, l);
            let dec = s.query(n(0), k, 80.0).unwrap();
            assert_eq!(cen.is_some(), dec.found(), "k = {k}");
        }
        // Only three 100 Mbps hosts: k = 4 at 80 Mbps is impossible.
        assert!(!s.query(n(0), 4, 80.0).unwrap().found());
    }

    #[test]
    fn score_cluster_counts_wrong_pairs() {
        let s = booted(&[100.0, 100.0, 10.0], vec![50.0]);
        let (wrong, total) = s.score_cluster(&[n(0), n(1), n(2)], 50.0);
        assert_eq!(total, 3);
        assert_eq!(wrong, 2, "pairs (0,2) and (1,2) are below 50");
        // Malformed queries are typed errors on a bootstrapped system too.
        assert!(s.query(n(0), 1, 40.0).is_err());
        assert!(s.query(n(0), 2, 99.0).is_err());
    }

    #[test]
    fn clones_and_shared_constructions_hold_one_universe() {
        let s = dynamic();
        let copy = s.clone();
        assert!(Arc::ptr_eq(&s.bandwidth, &copy.bandwidth));
        assert!(Arc::ptr_eq(&s.real_distance, &copy.real_distance));

        let sibling = DynamicSystem::try_with_universe(
            Arc::clone(&s.bandwidth),
            Arc::clone(&s.real_distance),
            s.config.clone(),
        )
        .unwrap();
        assert!(Arc::ptr_eq(&s.bandwidth, &sibling.bandwidth));
        assert!(Arc::ptr_eq(&s.real_distance, &sibling.real_distance));

        // A distance matrix over a different host count is not this
        // universe's image.
        assert_eq!(
            DynamicSystem::try_with_universe(
                Arc::clone(&s.bandwidth),
                Arc::new(DistanceMatrix::new(5)),
                s.config.clone(),
            )
            .unwrap_err(),
            ConfigError::UniverseMismatch {
                bandwidth: 6,
                distance: 5
            }
        );
    }

    #[test]
    fn empty_system_rejects_queries() {
        let s = dynamic();
        assert!(s.is_empty());
        assert!(s.query(n(0), 2, 40.0).is_err());
    }

    #[test]
    fn query_reflects_membership_growth() {
        let mut s = dynamic();
        s.join(n(0)).unwrap();
        s.join(n(3)).unwrap();
        // Only one fast host: no 2-cluster at 80 Mbps yet.
        assert!(!s.query(n(0), 2, 80.0).unwrap().found());
        s.join(n(1)).unwrap();
        // Now hosts 0 and 1 share 100 Mbps.
        let out = s.query(n(3), 2, 80.0).unwrap();
        assert!(out.found());
        let c = out.cluster.unwrap();
        assert_eq!(c, vec![n(0), n(1)]);
    }

    #[test]
    fn query_reflects_departures() {
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        assert!(s.query(n(3), 3, 80.0).unwrap().found());
        s.leave(n(1)).unwrap();
        assert_eq!(s.len(), 3);
        // Only two fast hosts remain: the 3-cluster is gone.
        assert!(!s.query(n(3), 3, 80.0).unwrap().found());
        assert!(s.query(n(3), 2, 80.0).unwrap().found());
    }

    #[test]
    fn a_departed_host_is_infinitely_far_and_never_clustered() {
        // Host 1 is one of three fast hosts. Once it leaves, no lookup may
        // stand it in as a perfect neighbour of the other two.
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(1)).unwrap();
        let fw = s.framework();
        // Host 5 never joined: it has no label either.
        for x in [0u32, 2, 3, 5] {
            assert_eq!(fw_label_dist(fw, 1, x), f64::INFINITY, "d(1, {x})");
            assert_eq!(fw_label_dist(fw, x, 1), f64::INFINITY, "d({x}, 1)");
        }
        assert_eq!(fw_label_dist(fw, 1, 1), 0.0);
        let mut found = 0;
        for start in s.active().collect::<Vec<_>>() {
            for k in 2..=4 {
                for &b in s.config().protocol.classes.bandwidths() {
                    let Some(cluster) = s.cluster_near(start, k, b).unwrap() else {
                        continue;
                    };
                    assert!(!cluster.contains(&n(1)), "{start} k={k} b={b}: {cluster:?}");
                    found += 1;
                }
            }
        }
        assert!(found > 0, "the check must not be vacuous");
    }

    #[test]
    fn rejoin_after_leave() {
        let mut s = dynamic();
        for i in 0..3 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(2)).unwrap();
        s.join(n(2)).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.query(n(0), 3, 80.0).unwrap().found());
    }

    #[test]
    fn join_validation() {
        let mut s = dynamic();
        s.join(n(0)).unwrap();
        assert!(matches!(
            s.join(n(0)),
            Err(ChurnError::Embed(EmbedError::HostExists(_)))
        ));
        assert!(matches!(
            s.join(n(99)),
            Err(ChurnError::Embed(EmbedError::UnknownHost(_)))
        ));
        assert!(matches!(
            s.leave(n(5)),
            Err(ChurnError::Embed(EmbedError::UnknownHost(_)))
        ));
    }

    #[test]
    fn churn_error_display_and_source() {
        let e = ChurnError::from(EmbedError::UnknownHost(n(7)));
        assert!(e.to_string().contains("n7"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ChurnError::Convergence { max_rounds: 64 };
        assert!(e.to_string().contains("64"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ChurnError::from(bcc_core::IndexError::NotAMember(9));
        assert!(e.to_string().contains("index"));
        assert!(e.to_string().contains('9'));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn epoch_bumps_once_per_membership_change() {
        let mut s = dynamic();
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.live_digest(), None);
        s.join(n(0)).unwrap();
        s.join(n(1)).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.live_digest(), Some(s.network().unwrap().digest()));
        s.join(n(2)).unwrap();
        s.leave(n(2)).unwrap();
        assert_eq!(s.epoch(), 4, "a leave re-embeds orphans but bumps once");
        s.crash(n(1)).unwrap();
        assert_eq!(s.epoch(), 5);
        s.recover(n(1)).unwrap();
        assert_eq!(s.epoch(), 6);
        // Failed operations leave the epoch alone.
        assert!(s.join(n(0)).is_err());
        assert!(s.recover(n(3)).is_err());
        assert_eq!(s.epoch(), 6);
    }

    #[test]
    fn cold_restart_digest_matches_live_fixpoint() {
        let mut s = dynamic();
        assert_eq!(s.cold_restart_digest().unwrap(), None);
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        let live = s.network().unwrap().digest();
        assert_eq!(s.cold_restart_digest().unwrap(), Some(live));
    }

    #[test]
    fn crash_is_an_involuntary_leave() {
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        assert!(s.query(n(3), 3, 80.0).unwrap().found());
        s.crash(n(1)).unwrap();
        assert!(s.is_crashed(n(1)));
        assert_eq!(s.crashed().collect::<Vec<_>>(), vec![n(1)]);
        assert_eq!(s.len(), 3, "a crashed host is not active");
        // Orphan re-adoption: survivors still form a valid overlay.
        assert!(s.query(n(3), 2, 80.0).unwrap().found());
        // The 3-cluster needed host 1.
        assert!(!s.query(n(3), 3, 80.0).unwrap().found());
        // Queries *at* the crashed host fail with the typed error.
        assert!(matches!(
            s.query(n(1), 2, 80.0),
            Err(ClusterError::NodeUnavailable { node: 1 })
        ));
        assert!(matches!(
            s.query_resilient(n(1), 2, 80.0, &RetryPolicy::default()),
            Err(ClusterError::NodeUnavailable { node: 1 })
        ));
        // Crashing a host that is not active is an error.
        assert!(s.crash(n(1)).is_err());
        assert!(s.crash(n(5)).is_err());
    }

    #[test]
    fn recover_restores_full_capability() {
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        s.crash(n(1)).unwrap();
        // Only crashed hosts can recover.
        assert!(s.recover(n(2)).is_err());
        s.recover(n(1)).unwrap();
        assert!(!s.is_crashed(n(1)));
        assert_eq!(s.len(), 4);
        assert!(s.query(n(3), 3, 80.0).unwrap().found());
        assert!(s.query(n(1), 2, 80.0).is_ok());
        assert!(
            s.last_convergence_rounds().unwrap() >= 1,
            "recovery forces re-convergence"
        );
    }

    #[test]
    fn resilient_query_reports_clean_degradation_on_healthy_system() {
        let mut s = dynamic();
        for i in 0..3 {
            s.join(n(i)).unwrap();
        }
        let out = s
            .query_resilient(n(0), 3, 80.0, &RetryPolicy::default())
            .unwrap();
        assert!(out.found());
        assert!(
            out.clean(),
            "no faults → no degradation: {:?}",
            out.degradation
        );
    }

    #[test]
    fn index_tracks_churn_incrementally() {
        let mut s = dynamic();
        // Every kind of churn op, with the digest checked against a cold
        // rebuild after each one.
        let check = |s: &DynamicSystem, what: &str| {
            let cold = s.rebuild_index_cold();
            assert_eq!(
                s.cluster_index().digest(),
                cold.digest(),
                "incremental digest diverged after {what}"
            );
            assert_eq!(
                s.cluster_index().ids().len(),
                s.len(),
                "index membership mismatch after {what}"
            );
        };
        for i in 0..5 {
            s.join(n(i)).unwrap();
            check(&s, "join");
        }
        s.leave(n(1)).unwrap();
        check(&s, "leave");
        s.crash(n(0)).unwrap();
        check(&s, "crash of the overlay root");
        s.recover(n(0)).unwrap();
        check(&s, "recover");
        s.join(n(5)).unwrap();
        s.leave(n(3)).unwrap();
        check(&s, "mixed churn");
        // The live index was never rebuilt from scratch: every op was an
        // incremental delta. 5 joins + leave + crash + recover + join +
        // leave = 10 updates.
        let stats = s.cluster_index().stats();
        assert_eq!(
            stats.full_builds, 0,
            "no O(n² log n) rebuild on the hot path"
        );
        assert_eq!(stats.incremental_updates, 10);
    }

    #[test]
    fn a_departed_slot_is_freed_only_by_a_repair_that_converges() {
        let mut s = dynamic();
        for i in 0..3 {
            s.join(n(i)).unwrap();
        }
        let cap = s.network().unwrap().predicted_capacity();
        assert_eq!(cap, 4, "three slots and the sentinel");
        // A repair cut off after one round: the departed host's row is
        // still read by the spaces that name it, so its slot stays.
        s.config.max_rounds = 1;
        assert!(matches!(
            s.crash(n(1)),
            Err(ChurnError::Convergence { max_rounds: 1 })
        ));
        assert_eq!(s.retired, vec![n(1)]);
        // It comes back before any repair converged: it keeps its slot
        // (the rejoin rewrote its row) and nothing is released.
        s.config.max_rounds = 512;
        s.recover(n(1)).unwrap();
        assert!(s.retired.is_empty());
        // A departure whose repair converges frees the slot at once, and
        // the next joiner takes it: a fresh fourth slot would double the
        // block.
        s.leave(n(2)).unwrap();
        assert!(s.retired.is_empty());
        s.join(n(5)).unwrap();
        assert_eq!(s.network().unwrap().predicted_capacity(), cap);
        assert_eq!(s.live_digest(), s.cold_restart_digest().unwrap());
    }

    #[test]
    fn index_stamp_follows_epoch() {
        let mut s = dynamic();
        assert_eq!(s.index_stamp(), (0, s.cluster_index().digest()));
        s.join(n(0)).unwrap();
        s.join(n(2)).unwrap();
        let (epoch, digest) = s.index_stamp();
        assert_eq!(epoch, s.epoch());
        assert_eq!(digest, s.cluster_index().digest());
        let before = s.index_stamp();
        s.leave(n(2)).unwrap();
        assert_ne!(s.index_stamp(), before, "churn moves the stamp");
    }

    #[test]
    fn bootstrap_matches_sequential_joins() {
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        let hosts: Vec<NodeId> = (0..5).map(n).collect();
        let boot = DynamicSystem::bootstrap(universe(), SystemConfig::new(cls), &hosts).unwrap();
        let mut seq = dynamic();
        for &h in &hosts {
            seq.join(h).unwrap();
        }
        // Same framework joins in the same order: identical embedding,
        // overlay fixpoint and index content — only the construction cost
        // differs (one convergence and one index build instead of five).
        assert_eq!(boot.epoch(), seq.epoch());
        assert_eq!(boot.live_digest(), seq.live_digest());
        assert_eq!(boot.cluster_index().digest(), seq.cluster_index().digest());
        assert_eq!(boot.cluster_index().stats().full_builds, 1);
        assert_eq!(boot.cluster_index().stats().incremental_updates, 0);
        assert_eq!(boot.overlay_stats().full_reconvergences, 1);
        assert_eq!(boot.overlay_stats().incremental_ops, 0);
        assert_eq!(seq.overlay_stats().full_reconvergences, 0);
        assert_eq!(seq.overlay_stats().incremental_ops, 5);
        // Bad memberships are rejected, not embedded.
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        assert!(matches!(
            DynamicSystem::bootstrap(universe(), SystemConfig::new(cls), &[n(0), n(99)]),
            Err(ChurnError::Embed(EmbedError::UnknownHost(_)))
        ));
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        assert!(matches!(
            DynamicSystem::bootstrap(universe(), SystemConfig::new(cls), &[n(0), n(0)]),
            Err(ChurnError::Embed(EmbedError::HostExists(_)))
        ));
    }

    #[test]
    fn resilient_indexed_delegate_matches_its_twin_under_churn() {
        let mut s = dynamic();
        for i in 0..6 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(4)).unwrap();
        s.crash(n(5)).unwrap();
        let retry = RetryPolicy::default();
        for start in 0..4 {
            for k in 2..=4 {
                for bw in [40.0, 80.0] {
                    assert_eq!(
                        s.query_resilient(n(start), k, bw, &retry),
                        s.query_resilient_indexed(n(start), k, bw, &retry),
                        "start={start} k={k} bw={bw}"
                    );
                }
            }
        }
        // Error paths align too.
        assert!(matches!(
            s.query_resilient_indexed(n(5), 2, 40.0, &retry),
            Err(ClusterError::NodeUnavailable { node: 5 })
        ));
    }

    #[test]
    fn cluster_near_matches_brute_force_ball() {
        let mut s = dynamic();
        for i in 0..6 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(4)).unwrap();
        let classes = &s.config().protocol.classes;
        let members: Vec<u32> = s.cluster_index().ids().to_vec();
        for &start in &members {
            for k in 2..=4 {
                for bw in [40.0, 80.0] {
                    let class_idx = classes.snap_up(bw).unwrap();
                    let l = classes.distance_of(class_idx);
                    // Oracle: linear scan of the whole membership for the
                    // 2l-ball, then the same kernel.
                    let fw = s.framework();
                    let ball: Vec<u32> = members
                        .iter()
                        .copied()
                        .filter(|&x| fw_label_dist(fw, start, x) <= 2.0 * l)
                        .collect();
                    let expect =
                        bcc_core::find_cluster_among(&ball, k, l, |a, b| fw_label_dist(fw, a, b))
                            .map(|c| c.into_iter().map(|id| n(id as usize)).collect::<Vec<_>>());
                    assert_eq!(
                        s.cluster_near(n(start as usize), k, bw).unwrap(),
                        expect,
                        "start={start} k={k} bw={bw}"
                    );
                }
            }
        }
        // Every found cluster satisfies the constraint for real.
        if let Some(c) = s.cluster_near(n(0), 3, 80.0).unwrap() {
            let fw = s.framework();
            for i in 0..c.len() {
                for j in i + 1..c.len() {
                    let d = fw_label_dist(fw, c[i].index() as u32, c[j].index() as u32);
                    let l = classes.distance_of(classes.snap_up(80.0).unwrap());
                    assert!(d <= l, "cluster pair exceeds the constraint");
                }
            }
        }
        // Error-order parity with the serving layers: crashed first, then
        // validation, then membership.
        s.crash(n(3)).unwrap();
        assert!(matches!(
            s.cluster_near(n(3), 2, 40.0),
            Err(ClusterError::NodeUnavailable { node: 3 })
        ));
        assert!(matches!(
            s.cluster_near(n(4), 1, 40.0),
            Err(ClusterError::InvalidSizeConstraint { k: 1 })
        ));
        assert!(matches!(
            s.cluster_near(n(4), 2, -1.0),
            Err(ClusterError::InvalidBandwidthConstraint { .. })
        ));
        assert!(matches!(
            s.cluster_near(n(4), 2, 40.0),
            Err(ClusterError::UnknownNeighbor { neighbor: 4 })
        ));
    }

    #[test]
    fn overlay_repairs_incrementally_and_lands_on_the_cold_fixpoint() {
        let mut s = dynamic();
        let check = |s: &DynamicSystem, what: &str| {
            assert_eq!(
                s.live_digest(),
                s.cold_restart_digest().unwrap(),
                "live overlay diverged from the cold-restart fixpoint after {what}"
            );
        };
        for i in 0..5 {
            s.join(n(i)).unwrap();
            check(&s, "join");
        }
        s.leave(n(1)).unwrap();
        check(&s, "leave");
        s.crash(n(0)).unwrap();
        check(&s, "crash of the overlay root");
        s.recover(n(0)).unwrap();
        check(&s, "recover");
        s.join(n(5)).unwrap();
        s.leave(n(3)).unwrap();
        check(&s, "mixed churn");
        // Every one of the 10 ops repaired the overlay in place: the only
        // gossip run since construction was change-driven and focused.
        let stats = s.overlay_stats();
        assert_eq!(
            stats.full_reconvergences, 0,
            "no from-blank overlay rebuild on the hot path"
        );
        assert_eq!(stats.incremental_ops, 10);
        assert!(stats.last_rounds >= 1, "churn forces re-convergence");
        assert!(stats.last_region >= 1);
        assert!(stats.messages >= 1);
        // Draining the membership drops the overlay without a rebuild.
        for h in s.active().collect::<Vec<_>>() {
            s.leave(h).unwrap();
        }
        assert_eq!(s.live_digest(), None);
        assert_eq!(s.cold_restart_digest().unwrap(), None);
        assert_eq!(s.overlay_stats().full_reconvergences, 0);
        // And the system comes back from empty on the incremental path too.
        s.join(n(2)).unwrap();
        s.join(n(4)).unwrap();
        check(&s, "rejoin after draining");
        assert_eq!(s.overlay_stats().full_reconvergences, 0);
    }

    #[test]
    fn rebuild_cost_probe_reports_the_cold_path() {
        let mut s = dynamic();
        assert_eq!(s.rebuild_cost_probe().unwrap(), None);
        for i in 0..6 {
            s.join(n(i)).unwrap();
        }
        let cost = s.rebuild_cost_probe().unwrap().unwrap();
        assert!(cost.rounds >= 2);
        assert!(cost.messages > 0);
        assert_eq!(cost.predicted_entries, 15, "6 active hosts = 15 pairs");
        // The probe is read-only: the live overlay and counters are
        // untouched, and a single-host op costs less than the full rebuild
        // it replaced.
        let before = s.overlay_stats();
        let digest = s.live_digest();
        assert_eq!(s.rebuild_cost_probe().unwrap().unwrap(), cost);
        assert_eq!(s.overlay_stats(), before);
        assert_eq!(s.live_digest(), digest);
        s.leave(n(5)).unwrap();
        assert!(
            s.overlay_stats().last_messages < cost.messages,
            "incremental repair ({} msgs) must beat the cold rebuild ({} msgs)",
            s.overlay_stats().last_messages,
            cost.messages
        );
    }

    #[test]
    fn op_cost_is_independent_of_universe_size() {
        // Two universes, 24 and 96 potential hosts, agreeing on the
        // bandwidth of every pair the schedule ever activates. The same
        // churn schedule must cost the same in both: per-op work scales
        // with the live membership and the disturbed region, never with
        // the universe.
        let cap = |i: usize| -> f64 {
            match i % 3 {
                0 => 100.0,
                1 => 30.0,
                _ => 10.0,
            }
        };
        let mk = |universe: usize| {
            let bw = BandwidthMatrix::from_fn(universe, |i, j| cap(i).min(cap(j)));
            let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
            DynamicSystem::new(bw, SystemConfig::new(cls))
        };
        let mut small = mk(24);
        let mut large = mk(96);
        let op = |small: &mut DynamicSystem,
                  large: &mut DynamicSystem,
                  f: &dyn Fn(&mut DynamicSystem) -> Result<(), ChurnError>,
                  what: &str| {
            f(small).unwrap();
            f(large).unwrap();
            assert_eq!(
                small.overlay_stats(),
                large.overlay_stats(),
                "overlay op cost moved with the universe size after {what}"
            );
            assert_eq!(
                small.last_convergence_rounds(),
                large.last_convergence_rounds(),
                "round count moved with the universe size after {what}"
            );
        };
        for i in 0..12 {
            op(&mut small, &mut large, &|s| s.join(n(i)), "join");
        }
        op(&mut small, &mut large, &|s| s.leave(n(3)), "leave");
        op(&mut small, &mut large, &|s| s.crash(n(5)), "crash");
        op(&mut small, &mut large, &|s| s.recover(n(5)), "recover");
        op(&mut small, &mut large, &|s| s.leave(n(0)), "root leave");
        // Both systems also hold the digest invariant independently.
        assert_eq!(small.live_digest(), small.cold_restart_digest().unwrap());
        assert_eq!(large.live_digest(), large.cold_restart_digest().unwrap());
    }

    /// The memo's whole contract: whatever happened before, a read equals
    /// a fresh hash of the overlay as it stands.
    fn fresh_digest(s: &DynamicSystem) -> Option<u64> {
        s.network().map(SimNetwork::digest)
    }

    #[test]
    fn network_mut_disturbances_move_a_warm_digest_memo() {
        let mut s = dynamic();
        for i in 0..5 {
            s.join(n(i)).unwrap();
        }
        let fixpoint = s.live_digest();
        assert_eq!(fixpoint, fresh_digest(&s));

        // A bogus CRT row written straight into a node's store
        // (`nodes_mut`).
        crate::chaos::resolve_nemesis(Some("crt-stale")).unwrap()(&mut s, 0);
        let corrupted = s.live_digest();
        assert_ne!(corrupted, fixpoint, "the corruption must show");
        assert_eq!(corrupted, fresh_digest(&s));

        // A total-loss window, then extra rounds that gossip the bogus row
        // away again.
        let max_rounds = s.config().max_rounds;
        let net = s.network_mut().unwrap();
        let t0 = net.rounds_run() as f64;
        net.inject_faults(&crate::FaultPlan::new(7).uniform_loss(t0, 1.0, None));
        net.run_round();
        net.run_round();
        net.clear_fault_injector();
        net.run_to_convergence(max_rounds).unwrap();
        assert_eq!(s.live_digest(), fresh_digest(&s));
        assert_eq!(s.live_digest(), fixpoint, "extra rounds heal the row");
    }

    #[test]
    fn cold_rebuild_forgets_a_warm_digest_memo() {
        // `bootstrap` only ever rebuilds a system nobody has read yet, so
        // drive the cold path by hand over a disturbed, read overlay.
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        let fixpoint = s.live_digest();
        crate::chaos::resolve_nemesis(Some("crt-stale")).unwrap()(&mut s, 0);
        assert_ne!(s.live_digest(), fixpoint);
        s.rebuild().unwrap();
        assert_eq!(s.live_digest(), fresh_digest(&s));
        assert_eq!(s.live_digest(), fixpoint);
    }

    #[test]
    fn round_starved_repair_leaves_the_half_repaired_digest() {
        let mut s = dynamic();
        for i in 0..6 {
            s.join(n(i)).unwrap();
        }
        let before = s.live_digest();
        s.config.max_rounds = 1;
        assert_eq!(
            s.leave(n(0)),
            Err(ChurnError::Convergence { max_rounds: 1 }),
            "one round cannot repair the departure of the overlay root"
        );
        assert_eq!(s.live_digest(), fresh_digest(&s));
        assert_ne!(s.live_digest(), before, "the repair had started");
    }

    #[test]
    fn clones_memoise_their_own_overlay() {
        let mut original = dynamic();
        for i in 0..4 {
            original.join(n(i)).unwrap();
        }
        let shared = original.live_digest();

        // A clone taken with a warm memo, then churned.
        let mut clone = original.clone();
        clone.leave(n(3)).unwrap();
        assert_eq!(clone.live_digest(), fresh_digest(&clone));
        assert_ne!(clone.live_digest(), shared);
        assert_eq!(original.live_digest(), shared);
        assert_eq!(original.live_digest(), fresh_digest(&original));

        // And the other way round.
        let clone = original.clone();
        original.join(n(4)).unwrap();
        assert_eq!(original.live_digest(), fresh_digest(&original));
        assert_ne!(original.live_digest(), shared);
        assert_eq!(clone.live_digest(), shared);
        assert_eq!(clone.live_digest(), fresh_digest(&clone));
    }

    #[test]
    fn restored_system_memoises_the_imported_overlay() {
        let mut s = dynamic();
        for i in 0..5 {
            s.join(n(i)).unwrap();
        }
        s.crash(n(2)).unwrap();
        let restored = crate::SystemSnapshot::capture(&s)
            .restore(&universe(), s.config())
            .unwrap();
        let first = restored.live_digest();
        assert_eq!(first, fresh_digest(&restored));
        assert_eq!(restored.live_digest(), first);
        assert_eq!(first, s.live_digest());
    }

    #[test]
    fn dynamic_system_is_sync() {
        // Every query takes `&self`, so a caller may share one system
        // across threads: the memo must not cost the type its `Sync`.
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<DynamicSystem>();
    }

    #[test]
    fn departure_of_overlay_root_survives() {
        let mut s = dynamic();
        for i in 0..5 {
            s.join(n(i)).unwrap();
        }
        // Host 0 joined first: it is the overlay root.
        s.leave(n(0)).unwrap();
        assert_eq!(s.len(), 4);
        let out = s.query(n(4), 2, 80.0).unwrap();
        assert!(out.found(), "hosts 1 and 2 still share 100 Mbps");
    }
}
