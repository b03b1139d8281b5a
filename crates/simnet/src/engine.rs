//! The round-based gossip engine (PeerSim-style cycle-driven simulation).
//!
//! Each round has two phases, mirroring the paper's background mechanisms:
//!
//! 1. **Close-node aggregation** (Algorithm 2): every live node sends each
//!    overlay neighbor its `NodeInfo` report.
//! 2. **CRT aggregation** (Algorithm 3): every node recomputes its local
//!    maximum cluster sizes (only when its clustering space changed), then
//!    sends each neighbor its `CrtRow`.
//!
//! A report goes out only when it differs from the record its receiver
//! holds, so a round that changes nothing sends nothing. Rounds repeat
//! until such a round: information needs at most one overlay diameter of
//! rounds to flood, and the CRTs one more. The engine tracks message and
//! byte counts so the evaluation can report communication costs.
//!
//! A [`FaultPlan`] (see [`crate::fault`]) can be plugged in with
//! [`SimNetwork::inject_faults`]: crashed nodes fall silent (state frozen,
//! or cleared on recovery), partitioned/lossy links drop messages, and
//! latency spikes defer deliveries to later rounds. Every injected fault is
//! recorded in the [`Trace`] when tracing is enabled.

use std::collections::BTreeSet;

use bcc_core::{
    process_query, Budgeted, ClusterNode, Meter, ProtocolConfig, QueryOutcome, RetryPolicy,
    RoutePolicy, Unmetered,
};
use bcc_embed::AnchorTree;
use bcc_metric::{DistanceMatrix, NodeId};

use crate::fault::{FaultPlan, FaultTransition, MessageFate, PlannedInjector};
use crate::store::MemberStore;
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::wire::Message;

/// Communication statistics accumulated by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Gossip messages sent (including copies injected by duplication
    /// faults).
    pub messages: u64,
    /// Total serialized payload bytes.
    pub bytes: u64,
    /// Messages lost in flight to injected faults.
    pub dropped: u64,
}

/// A message deferred to a later round by a latency-spike fault.
#[derive(Debug, Clone)]
struct PendingDelivery {
    due_round: usize,
    to: usize,
    from: NodeId,
    msg: Message,
}

/// Plain-data gossip state of one node — everything
/// [`SimNetwork::digest`] covers for it, keyed by overlay neighbor.
///
/// Exported by [`SimNetwork::export_gossip`] and restored by
/// [`SimNetwork::import_gossip`]; the persistence layer serializes these
/// records so a warm restart reproduces the pre-kill digest with zero
/// gossip rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeGossipState {
    /// `aggrNode[v]` records, in overlay-neighbor order (only directions a
    /// message has actually arrived from).
    pub aggr_node: Vec<(NodeId, Vec<NodeId>)>,
    /// `aggrCRT[x]`: the locally-computed maximum cluster size per class.
    pub own_max: Vec<usize>,
    /// `aggrCRT[v]` rows, one per overlay neighbor. Directions that never
    /// delivered a row export as zeros — the protocol treats a zero row and
    /// an absent row identically (max-fold and routing gates ignore both).
    pub crt: Vec<(NodeId, Vec<usize>)>,
}

/// One churn op's disturbance, in engine terms: which hosts must restart
/// their gossip state and which hosts' overlay neighbor lists changed.
/// Built by [`crate::DynamicSystem`] from an anchor-tree edit and applied
/// with [`SimNetwork::apply_churn_delta`].
#[derive(Debug, Clone, Default)]
pub struct OverlayDelta {
    /// Hosts whose gossip state is stale beyond repair — re-embedded
    /// orphans, a fresh joiner, or the departed host's placeholder. Each is
    /// reset to blank exactly like a crash recovery.
    pub reset: Vec<NodeId>,
    /// Hosts whose overlay neighbor list changed, with the new list (empty
    /// for a departed host). Aggregated records of dropped directions are
    /// pruned.
    pub neighbors: Vec<(NodeId, Vec<NodeId>)>,
}

/// The simulated overlay network running the clustering protocol.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    nodes: Vec<ClusterNode>,
    /// Predicted distances of the overlay members, by member slot.
    predicted: MemberStore,
    config: ProtocolConfig,
    rounds_run: usize,
    traffic: TrafficStats,
    trace: Option<Trace>,
    injector: Option<PlannedInjector>,
    pending: Vec<PendingDelivery>,
}

impl SimNetwork {
    /// Builds the network over an anchor-tree overlay with a predicted
    /// distance matrix indexed by host id.
    ///
    /// Ids in `0..predicted.len()` that are absent from the overlay become
    /// isolated placeholders: they carry no gossip and answer no queries.
    /// This is what lets a dynamic system keep stable host ids across joins
    /// and departures (see [`crate::DynamicSystem`]). The network keeps
    /// only the overlay members' block of `predicted`.
    pub fn new(anchor: &AnchorTree, predicted: DistanceMatrix, config: ProtocolConfig) -> Self {
        let members: Vec<NodeId> = (0..predicted.len())
            .map(NodeId::new)
            .filter(|&h| anchor.contains(h))
            .collect();
        Self::over_members(
            anchor,
            predicted.len(),
            &members,
            |a, b| predicted.get(a.index(), b.index()),
            config,
        )
    }

    /// The one constructor body: a network over `universe` ids whose
    /// predicted-distance store holds `members` (slots in the order given)
    /// with `dist` between each pair.
    pub(crate) fn over_members(
        anchor: &AnchorTree,
        universe: usize,
        members: &[NodeId],
        dist: impl FnMut(NodeId, NodeId) -> f64,
        config: ProtocolConfig,
    ) -> Self {
        let predicted = MemberStore::build(universe, members, dist);
        let nodes = (0..universe)
            .map(|i| {
                let id = NodeId::new(i);
                let neighbors = if anchor.contains(id) {
                    anchor.neighbors(id)
                } else {
                    Vec::new()
                };
                ClusterNode::new(id, neighbors, config.classes.len())
            })
            .collect();
        let mut net = SimNetwork {
            nodes,
            predicted,
            config,
            rounds_run: 0,
            traffic: TrafficStats::default(),
            trace: None,
            injector: None,
            pending: Vec::new(),
        };
        // A blank node is already at its fixpoint for the singleton space
        // {self}: a cluster of one per class. Computing that here means
        // nodes no round or delivery ever visits — isolated placeholders in
        // a persistent dynamic overlay — hold the exact state a cold
        // convergence would leave them with, on either engine. Active
        // nodes' spaces grow on their first delivery, so the gate re-fires
        // for them.
        for i in 0..universe {
            net.refresh_own_max(i);
        }
        net
    }

    /// Turns on message tracing with a bounded buffer (see [`Trace`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The message trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Plugs in the injector of `plan`; faults activate as rounds pass
    /// their scheduled ticks (1 tick = 1 round).
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        self.injector = Some(plan.injector());
    }

    /// Removes the fault injector: every fault still active (crashes,
    /// partitions, link rules) heals immediately and no further scheduled
    /// fault activates. Messages already deferred by a latency spike stay
    /// in flight and deliver at their due round.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Mutable access to the protocol nodes — a testing/nemesis hook for
    /// harnesses that corrupt state on purpose (e.g. the chaos harness's
    /// broken-build self-check). Not part of the simulation contract:
    /// ordinary runs never mutate nodes from outside the engine.
    #[doc(hidden)]
    pub fn nodes_mut(&mut self) -> &mut [ClusterNode] {
        &mut self.nodes
    }

    /// Whether `node` is currently crashed (always `false` without an
    /// injector).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.injector.as_ref().is_some_and(|i| i.is_down(node))
    }

    /// Number of participating hosts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for an empty network.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Accumulated traffic.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Immutable view of the protocol nodes.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Side of the predicted-distance block: the next power of two at or
    /// above the peak member count plus one, at most the universe plus
    /// one. The block holds its square in `f64`s; an id without a member
    /// slot costs 4 bytes.
    pub fn predicted_capacity(&self) -> usize {
        self.predicted.capacity()
    }

    /// Applies fault lifecycle transitions scheduled up to `now`, the
    /// caller's clock (rounds on this engine, simulated seconds on the
    /// event engine): crashed nodes fall silent, recovered nodes
    /// cold-restart. Trace rounds are whole clock ticks. Returns the
    /// recovered nodes.
    pub(crate) fn apply_fault_transitions(&mut self, now: f64) -> Vec<NodeId> {
        let Some(injector) = &mut self.injector else {
            return Vec::new();
        };
        let transitions = injector.advance(now);
        let mut recovered = Vec::new();
        for t in transitions {
            let (kind, node, entries) = match &t {
                FaultTransition::Crashed(node) => (TraceKind::Crash, *node, 0),
                FaultTransition::Recovered(node) => (TraceKind::Recover, *node, 0),
                FaultTransition::PartitionStarted(group) => (
                    TraceKind::PartitionStart,
                    group.first().copied().unwrap_or(NodeId::new(0)),
                    group.len(),
                ),
                FaultTransition::PartitionHealed(group) => (
                    TraceKind::PartitionHeal,
                    group.first().copied().unwrap_or(NodeId::new(0)),
                    group.len(),
                ),
            };
            if let FaultTransition::Recovered(node) = &t {
                // Cold restart: gossip state is rebuilt from scratch.
                self.nodes[node.index()].reset();
                recovered.push(*node);
            }
            if let Some(trace) = &mut self.trace {
                trace.record(TraceEvent {
                    round: now as usize,
                    from: node,
                    to: node,
                    kind,
                    entries,
                    bytes: 0,
                });
            }
        }
        recovered
    }

    /// The tick of the injector's next scheduled change, if one is still
    /// pending at a finite tick.
    pub(crate) fn next_fault_change(&self) -> Option<f64> {
        self.injector
            .as_ref()
            .and_then(PlannedInjector::next_change)
    }

    /// The injector's verdict on one message sent at `now` (the caller's
    /// clock); plain delivery without an injector.
    pub(crate) fn message_fate(&mut self, from: NodeId, to: NodeId, now: f64) -> MessageFate {
        match &mut self.injector {
            Some(inj) => inj.message_fate(from, to, now),
            None => MessageFate::deliver(),
        }
    }

    /// Sends one message through the (possibly faulty) wire: accounts
    /// traffic, consults the injector for drops/duplicates/delays, and
    /// either applies it immediately or defers it to a later round.
    /// Returns whether a copy landed now and changed what the receiver
    /// held.
    fn send(&mut self, to: usize, from: NodeId, msg: Message) -> bool {
        let round = self.rounds_run;
        self.traffic.messages += 1;
        self.traffic.bytes += msg.wire_len() as u64;
        let fate = self.message_fate(from, NodeId::new(to), round as f64);
        if fate.is_dropped() {
            self.traffic.dropped += 1;
            self.record(round, to, from, &msg, TraceKind::Dropped);
            return false;
        }
        let delay_rounds = if fate.extra_delay > 0.0 {
            fate.extra_delay.ceil() as usize
        } else {
            0
        };
        let mut landed = false;
        for copy in 0..fate.copies {
            if copy > 0 {
                self.traffic.messages += 1;
                self.traffic.bytes += msg.wire_len() as u64;
                self.record(round, to, from, &msg, TraceKind::Duplicated);
            }
            if delay_rounds == 0 {
                landed |= self.apply_message(round, to, from, msg.clone());
            } else {
                self.record(round, to, from, &msg, TraceKind::Delayed);
                self.pending.push(PendingDelivery {
                    due_round: round + delay_rounds,
                    to,
                    from,
                    msg: msg.clone(),
                });
            }
        }
        landed
    }

    /// Applies one message to its receiver, recording it at trace round
    /// `round`. Returns whether the receiver's record changed.
    pub(crate) fn apply_message(
        &mut self,
        round: usize,
        to: usize,
        from: NodeId,
        msg: Message,
    ) -> bool {
        let kind = match msg {
            Message::NodeInfo { .. } => TraceKind::NodeInfo,
            Message::CrtRow { .. } => TraceKind::CrtRow,
        };
        self.record(round, to, from, &msg, kind);
        let receiver = &mut self.nodes[to];
        let changed = match msg {
            Message::NodeInfo { nodes } => receiver.receive_node_info(from, nodes),
            Message::CrtRow { sizes } => {
                receiver.receive_crt(from, sizes.into_iter().map(|s| s as usize).collect())
            }
        };
        changed.expect("valid neighbor")
    }

    /// Records one message event at trace round `round`, if tracing is on.
    pub(crate) fn record(
        &mut self,
        round: usize,
        to: usize,
        from: NodeId,
        msg: &Message,
        kind: TraceKind,
    ) {
        if let Some(trace) = &mut self.trace {
            let entries = match msg {
                Message::NodeInfo { nodes } => nodes.len(),
                Message::CrtRow { sizes } => sizes.len(),
            };
            trace.record(TraceEvent {
                round,
                from,
                to: NodeId::new(to),
                kind,
                entries,
                bytes: msg.wire_len(),
            });
        }
    }

    /// Algorithm 2's `NodeInfo` report from node `from` to its overlay
    /// neighbor `to`.
    fn node_info(&self, from: usize, to: NodeId) -> Vec<NodeId> {
        self.nodes[from]
            .node_info_for(to, self.config.n_cut, &self.predicted)
            .expect("overlay neighbors are mutual")
    }

    /// Algorithm 3's CRT row from node `from` to its overlay neighbor `to`
    /// (sent as [`Message::crt_row`]).
    fn crt_row(&self, from: usize, to: NodeId) -> Vec<usize> {
        self.nodes[from]
            .crt_for(to)
            .expect("overlay neighbors are mutual")
    }

    /// The `NodeInfo` report node `from` owes its overlay neighbor `to`:
    /// [`SimNetwork::node_info`], or `None` when `to` already holds exactly
    /// that record from `from`. The stored record *is* the last message the
    /// link delivered, so a link is due until its latest report arrives.
    pub(crate) fn node_info_due(&self, from: usize, to: NodeId) -> Option<Vec<NodeId>> {
        let info = self.node_info(from, to);
        let held = self.nodes[to.index()].aggr_node_for(NodeId::new(from));
        (held != Some(info.as_slice())).then_some(info)
    }

    /// The CRT row node `from` owes its overlay neighbor `to`:
    /// [`SimNetwork::crt_row`], or `None` when `to` already holds that row
    /// from `from`. An absent row reads as zeros, as in
    /// [`SimNetwork::export_gossip`].
    pub(crate) fn crt_row_due(&self, from: usize, to: NodeId) -> Option<Vec<usize>> {
        let row = self.crt_row(from, to);
        let receiver = &self.nodes[to.index()];
        let sender = NodeId::new(from);
        let held = (0..row.len()).all(|c| receiver.crt_entry(sender, c) == row[c]);
        (!held).then_some(row)
    }

    /// The one space-change gate (Algorithm 3, line 8): recomputes node
    /// `i`'s local maxima only when the node reports them stale — its
    /// clustering space moved, or a reset, a neighbor edit or a
    /// distance-row change invalidated them. Returns whether the maxima
    /// changed.
    pub(crate) fn refresh_own_max(&mut self, i: usize) -> bool {
        if !self.nodes[i].own_max_stale() {
            return false;
        }
        let before = self.nodes[i].own_max().to_vec();
        self.nodes[i].recompute_own_max(&self.config.classes, &self.predicted);
        self.nodes[i].own_max() != before.as_slice()
    }

    /// Runs one gossip round: applies the fault transitions scheduled up
    /// to it, lands the deliveries a latency spike deferred to it (a late
    /// message may find its receiver dead by now and drops like any
    /// other), then runs the round body with every live node as a sender.
    ///
    /// Returns `true` if the round changed anything — a delivered report
    /// that differed from the record held, or local maxima that moved — or
    /// deliveries are still in flight (i.e. the protocol has not yet
    /// converged). A round at the fixpoint sends nothing.
    pub fn run_round(&mut self) -> bool {
        let round = self.rounds_run;
        self.apply_fault_transitions(round as f64);
        let (due, later) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.due_round <= round);
        self.pending = later;
        let mut landed = false;
        for p in due {
            if self.is_down(NodeId::new(p.to)) {
                self.traffic.dropped += 1;
                self.record(round, p.to, p.from, &p.msg, TraceKind::Dropped);
            } else {
                landed |= self.apply_message(round, p.to, p.from, p.msg);
            }
        }
        let live: BTreeSet<usize> = (0..self.nodes.len())
            .filter(|&i| !self.is_down(NodeId::new(i)))
            .collect();
        let (info, crt, moved) = self.run_gossip_round(&live, &live);
        landed || moved || !info.is_empty() || !crt.is_empty() || !self.pending.is_empty()
    }

    /// Runs rounds until a fixpoint, up to `max_rounds`.
    ///
    /// Returns the number of rounds executed, the last of which changed
    /// nothing, or `None` if the state was still changing at the cap
    /// (which indicates a bug or a pathological overlay — gossip on a tree
    /// converges within `2 × diameter + 2` rounds; with active faults it
    /// may legitimately never settle).
    pub fn run_to_convergence(&mut self, max_rounds: usize) -> Option<usize> {
        let _span = bcc_obs::span!("simnet.run_to_convergence");
        let start = self.rounds_run;
        for _ in 0..max_rounds {
            if !self.run_round() {
                let rounds = self.rounds_run - start;
                bcc_obs::observe!("simnet.convergence_rounds", rounds as u64);
                return Some(rounds);
            }
        }
        None
    }

    /// Submits a query `(k, bandwidth)` at `start` and routes it through the
    /// overlay (Algorithm 4), first fit, under the default hop budget and
    /// around the hosts the fault injector reports down: it is
    /// [`SimNetwork::query_resilient`] with [`RetryPolicy::default`],
    /// unmetered.
    ///
    /// # Errors
    ///
    /// See [`bcc_core::process_query`].
    pub fn query(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<QueryOutcome, bcc_core::ClusterError> {
        self.query_resilient(start, k, bandwidth, &RetryPolicy::default(), &mut Unmetered)
            .map(Budgeted::into_value)
    }

    /// Algorithm 4 ([`bcc_core::process_query`]), first fit, under `retry`'s
    /// hop budget, charged to `meter`, rerouting around nodes the fault
    /// injector reports dead. Under [`bcc_core::Unmetered`] it always
    /// returns [`Budgeted::Done`]; under a [`bcc_core::WorkMeter`] it
    /// degrades to [`Budgeted::Exhausted`] when the budget runs dry.
    ///
    /// # Errors
    ///
    /// See [`bcc_core::process_query`].
    pub fn query_resilient(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
        meter: &mut impl Meter,
    ) -> Result<Budgeted<QueryOutcome>, bcc_core::ClusterError> {
        process_query(
            &self.nodes,
            start,
            k,
            bandwidth,
            &self.config.classes,
            &self.predicted,
            RoutePolicy::FirstFit,
            retry,
            |u| !self.is_down(u),
            meter,
        )
    }

    /// Rewrites the predicted-distance rows of `touched` hosts against
    /// every host in `targets` (both orientations — the store is
    /// symmetric), first giving a member slot to each host that has none.
    /// Returns the number of entries written, the churn-cost unit the
    /// benches report.
    ///
    /// This is the incremental counterpart of rebuilding the whole store:
    /// a membership change re-embeds only `touched` hosts, so only their
    /// rows can differ — `O(|touched| · |targets|)` work instead of
    /// `O(n²)`.
    pub fn update_predicted_rows(
        &mut self,
        touched: &[NodeId],
        targets: &[NodeId],
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> u64 {
        let mut entries = 0u64;
        for &t in touched {
            let row = self.predicted.assign(t);
            for &u in targets {
                if t == u {
                    continue;
                }
                let col = self.predicted.assign(u);
                self.predicted.set(row, col, dist(t, u));
                entries += 1;
            }
        }
        entries
    }

    /// Frees a departed host's member slot for the next joiner. Only sound
    /// once no clustering space names `host`: after the repair that
    /// removed it has converged.
    pub(crate) fn release_predicted(&mut self, host: NodeId) {
        self.predicted.release(host);
    }

    /// Applies one churn op's disturbance to the live overlay and returns
    /// the seed set for [`SimNetwork::reconverge_focused`] — every host
    /// whose local gossip inputs changed:
    ///
    /// - the reset and neighbor-edited hosts themselves;
    /// - neighbors of reset hosts (they must re-send their reports so a
    ///   blank host can rebuild its records, and their reports toward a
    ///   re-embedded host sort by that host's new distance row);
    /// - every host in `scan` whose clustering space intersects the reset
    ///   set — a changed distance row silently invalidates its local
    ///   maxima, which no record shows, so every host in `scan` is handed
    ///   the reset set ([`ClusterNode::relabel`]): those whose space holds
    ///   one of them are marked stale to force one recomputation, and kept
    ///   rows note which of their rows to re-sort.
    ///
    /// Every other host's reports, local maxima and CRT rows are
    /// bit-identical to the pre-churn fixpoint (untouched label distances
    /// are bit-stable across churn), so focused gossip from these seeds
    /// reaches the same fixpoint a cold restart would — change detection
    /// carries the wave exactly as far as records actually differ.
    ///
    /// `scan` is the *live membership* (the caller's active list), not the
    /// id universe: per-op cost scales with the number of participating
    /// hosts, never with the universe size.
    ///
    /// Wire state from before the membership change is void: in-flight
    /// deliveries are cleared and any fault injector is removed, matching
    /// the semantics of the full-rebuild path this replaces (which dropped
    /// the whole network).
    pub fn apply_churn_delta(&mut self, delta: &OverlayDelta, scan: &[NodeId]) -> Vec<NodeId> {
        self.injector = None;
        self.pending.clear();

        let mut seeds: BTreeSet<usize> = BTreeSet::new();
        for (id, list) in &delta.neighbors {
            self.nodes[id.index()].set_neighbors(list.clone());
            seeds.insert(id.index());
        }
        for &id in &delta.reset {
            self.nodes[id.index()].reset();
            seeds.insert(id.index());
        }
        // Neighbors of reset hosts (collected after the neighbor edits, so
        // these are the *new* overlay edges).
        let mut reset_neighbors: Vec<usize> = Vec::new();
        for &id in &delta.reset {
            reset_neighbors.extend(self.nodes[id.index()].neighbors().iter().map(|v| v.index()));
        }
        seeds.extend(reset_neighbors);

        for &i in scan {
            if self.nodes[i.index()].relabel(&delta.reset) {
                seeds.insert(i.index());
            }
        }
        seeds.into_iter().map(NodeId::new).collect()
    }

    /// Runs focused gossip rounds over the disturbed region until no host
    /// has anything left to say, up to `max_rounds`. Returns the number of
    /// rounds executed, or `None` at the cap.
    ///
    /// Each round is [`SimNetwork::run_round`]'s body, but only the hosts
    /// whose inputs changed speak. Two dirty sets, both seeded with
    /// `seeds`, carry that:
    ///
    /// - `info_dirty`: hosts whose `aggrNode` inputs changed (a stored
    ///   close-node record, the neighbor list, a distance row). They
    ///   rebuild their `NodeInfo` reports and have their local maxima
    ///   checked for staleness; a receiver whose stored record changed
    ///   joins the next round's `info_dirty`.
    /// - `crt_dirty`: hosts whose CRT inputs changed (a stored `aggrCRT`
    ///   row, the neighbor list). They, and every host whose local maxima
    ///   moved this round, rebuild their `CrtRow`s; a receiver whose stored
    ///   row changed joins the next round's `crt_dirty`.
    ///
    /// A send is skipped when the payload equals the receiver's stored
    /// record, which *is* the last message that edge delivered (an absent
    /// CRT row reads as zeros, as in [`SimNetwork::export_gossip`]); full
    /// rounds and the event engine's timers follow the same rule. A host
    /// therefore falls silent only when nothing it would send differs from
    /// what its neighbors hold, which is the fixpoint condition itself:
    /// the unique fixpoint a cold restart of the same membership computes
    /// is reached bit for bit, with messages proportional to the records
    /// that actually moved. Fault-free by construction —
    /// [`SimNetwork::apply_churn_delta`] cleared the injector — so every
    /// message sent delivers immediately.
    pub fn reconverge_focused(&mut self, seeds: &[NodeId], max_rounds: usize) -> Option<usize> {
        let _span = bcc_obs::span!("simnet.reconverge_focused");
        let start = self.rounds_run;
        let mut info_dirty: BTreeSet<usize> = seeds.iter().map(|s| s.index()).collect();
        let mut crt_dirty = info_dirty.clone();
        while !(info_dirty.is_empty() && crt_dirty.is_empty()) {
            if self.rounds_run - start >= max_rounds {
                return None;
            }
            (info_dirty, crt_dirty, _) = self.run_gossip_round(&info_dirty, &crt_dirty);
        }
        let rounds = self.rounds_run - start;
        bcc_obs::observe!("simnet.focused_rounds", rounds as u64);
        Some(rounds)
    }

    /// The one round body, over live senders: returns the next round's
    /// `(info_dirty, crt_dirty)` — the receivers whose stored records a
    /// landed message changed — and whether any host's local maxima moved.
    fn run_gossip_round(
        &mut self,
        info_dirty: &BTreeSet<usize>,
        crt_dirty: &BTreeSet<usize>,
    ) -> (BTreeSet<usize>, BTreeSet<usize>, bool) {
        let mut suppressed = 0u64;

        // Phase 1: NodeInfo from every info-dirty sender, produced from
        // the pre-round state (synchronous rounds).
        let mut deliveries: Vec<(usize, NodeId, Message)> = Vec::new();
        for &m in info_dirty {
            let sender = &self.nodes[m];
            for &x in sender.neighbors() {
                match self.node_info_due(m, x) {
                    Some(info) => {
                        deliveries.push((x.index(), sender.id(), Message::NodeInfo { nodes: info }))
                    }
                    None => suppressed += 1,
                }
            }
        }
        bcc_obs::add!("simnet.gossip.node_info_sent", deliveries.len() as u64);
        let mut next_info: BTreeSet<usize> = BTreeSet::new();
        for (to, from, msg) in deliveries {
            if self.send(to, from, msg) {
                next_info.insert(to);
            }
        }

        // Phase 2: recompute local maxima where the clustering space
        // changed — info-dirty senders and every receiver phase 1 just
        // updated. A host whose maxima moved speaks in phase 3.
        let mut crt_senders = crt_dirty.clone();
        let mut moved = false;
        for &i in info_dirty.union(&next_info) {
            if self.refresh_own_max(i) {
                crt_senders.insert(i);
                moved = true;
            }
        }

        // Phase 3: CrtRow from every host whose CRT inputs moved.
        let mut deliveries: Vec<(usize, NodeId, Message)> = Vec::new();
        for &m in &crt_senders {
            let sender = &self.nodes[m];
            for &x in sender.neighbors() {
                match self.crt_row_due(m, x) {
                    Some(row) => deliveries.push((x.index(), sender.id(), Message::crt_row(&row))),
                    None => suppressed += 1,
                }
            }
        }
        bcc_obs::add!("simnet.gossip.crt_sent", deliveries.len() as u64);
        bcc_obs::add!("simnet.gossip.suppressed", suppressed);
        let mut next_crt: BTreeSet<usize> = BTreeSet::new();
        for (to, from, msg) in deliveries {
            if self.send(to, from, msg) {
                next_crt.insert(to);
            }
        }

        self.rounds_run += 1;
        (next_info, next_crt, moved)
    }

    /// Exports every node's aggregated gossip state as plain data, in node
    /// order. Together with the overlay (anchor tree) and the predicted
    /// distances this is the network's complete protocol state: feeding it
    /// back through [`SimNetwork::import_gossip`] on a freshly-built
    /// network reproduces [`SimNetwork::digest`] exactly, without running
    /// a single round.
    pub fn export_gossip(&self) -> Vec<NodeGossipState> {
        self.nodes
            .iter()
            .map(|node| {
                let classes = node.class_count();
                NodeGossipState {
                    aggr_node: node
                        .neighbors()
                        .iter()
                        .filter_map(|&v| node.aggr_node_for(v).map(|rec| (v, rec.to_vec())))
                        .collect(),
                    own_max: node.own_max().to_vec(),
                    crt: node
                        .neighbors()
                        .iter()
                        .map(|&v| (v, (0..classes).map(|c| node.crt_entry(v, c)).collect()))
                        .collect(),
                }
            })
            .collect()
    }

    /// Restores gossip state captured by [`SimNetwork::export_gossip`] into
    /// this network, which must have been built over the same overlay (same
    /// anchor tree, same id space). Local maxima are installed verbatim —
    /// no cluster searches run — and count as computed on the restored
    /// spaces, so the next round does not mistake them for fresh
    /// information.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch (wrong node count, a
    /// record naming a non-neighbor, a CRT row of the wrong width) —
    /// symptoms of restoring against a different overlay than the one
    /// exported from.
    pub fn import_gossip(&mut self, states: Vec<NodeGossipState>) -> Result<(), String> {
        if states.len() != self.nodes.len() {
            return Err(format!(
                "{} gossip records for {} nodes",
                states.len(),
                self.nodes.len()
            ));
        }
        for (i, st) in states.into_iter().enumerate() {
            let node = &mut self.nodes[i];
            for (v, rec) in st.aggr_node {
                node.receive_node_info(v, rec)
                    .map_err(|e| format!("node {i}: {e}"))?;
            }
            for (v, row) in st.crt {
                node.receive_crt(v, row)
                    .map_err(|e| format!("node {i}: {e}"))?;
            }
            node.restore_own_max(st.own_max)
                .map_err(|e| format!("node {i}: {e}"))?;
        }
        Ok(())
    }

    /// Hash of all protocol state (spaces + CRTs): the freshness stamp of
    /// a served overlay and the oracle of the determinism and
    /// live-equals-cold tests. Rounds never take it; a round reports
    /// convergence from what it did.
    pub fn digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        bcc_obs::inc!("simnet.digest.computes");
        let mut h = DefaultHasher::new();
        for node in &self.nodes {
            node.space().hash(&mut h);
            node.own_max().hash(&mut h);
            for &v in node.neighbors() {
                for c in 0..self.config.classes.len() {
                    node.crt_entry(v, c).hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::{BandwidthClasses, Unmetered};
    use bcc_embed::{FrameworkConfig, PredictionFramework};
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Line tree metric over 6 hosts: ids at positions 0, 2, 4, …
    fn line_matrix(count: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(count, |i, j| 2.0 * (i as f64 - j as f64).abs())
    }

    fn build(count: usize, n_cut: usize, classes: Vec<f64>) -> SimNetwork {
        let d = line_matrix(count);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let cls = BandwidthClasses::new(classes, RationalTransform::new(100.0));
        let cfg = ProtocolConfig::new(n_cut, cls);
        SimNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg)
    }

    #[test]
    fn converges_on_small_overlay() {
        let mut net = build(6, 3, vec![25.0, 50.0]);
        let rounds = net.run_to_convergence(50).expect("must converge");
        assert!(
            rounds >= 2,
            "needs at least a couple of rounds, got {rounds}"
        );
        // Converged: one more round changes nothing.
        assert!(!net.run_round());
    }

    #[test]
    fn traffic_is_counted() {
        let mut net = build(5, 3, vec![50.0]);
        assert_eq!(net.traffic(), TrafficStats::default());
        net.run_round();
        let t = net.traffic();
        // 4 overlay edges × 2 directions × 2 phases = 16 messages.
        assert_eq!(t.messages, 16);
        assert!(t.bytes >= 16 * 5);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn deterministic_digest() {
        let mut a = build(6, 3, vec![25.0, 50.0]);
        let mut b = build(6, 3, vec![25.0, 50.0]);
        a.run_to_convergence(50).unwrap();
        b.run_to_convergence(50).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn query_after_convergence_finds_cluster() {
        // Line positions 0..10 step 2; class b=50 → l=2: adjacent pairs.
        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.run_to_convergence(50).unwrap();
        for start in 0..6 {
            let out = net.query(n(start), 2, 50.0).unwrap();
            assert!(out.found(), "start n{start}");
            let c = out.cluster.unwrap();
            assert_eq!(c.len(), 2);
            assert!((c[0].index() as f64 - c[1].index() as f64).abs() <= 1.0);
        }
    }

    #[test]
    fn query_for_impossible_cluster_is_empty() {
        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.run_to_convergence(50).unwrap();
        // l=2 only admits adjacent pairs; k=4 is impossible anywhere.
        let out = net.query(n(0), 4, 50.0).unwrap();
        assert!(!out.found());
    }

    #[test]
    fn ncut_bounds_message_size() {
        let mut small = build(8, 2, vec![25.0]);
        let mut large = build(8, 6, vec![25.0]);
        small.run_to_convergence(50).unwrap();
        large.run_to_convergence(50).unwrap();
        let per_msg_small = small.traffic().bytes as f64 / small.traffic().messages as f64;
        let per_msg_large = large.traffic().bytes as f64 / large.traffic().messages as f64;
        assert!(per_msg_small < per_msg_large);
    }

    #[test]
    fn tracing_records_every_delivery() {
        let mut net = build(5, 3, vec![50.0]);
        net.enable_tracing(1024);
        net.run_round();
        let trace = net.trace().expect("enabled");
        assert_eq!(trace.len() as u64, net.traffic().messages);
        // Both phases present, bytes match the wire.
        use crate::trace::TraceKind;
        assert!(trace.events().iter().any(|e| e.kind == TraceKind::NodeInfo));
        assert!(trace.events().iter().any(|e| e.kind == TraceKind::CrtRow));
        let traced_bytes: u64 = trace.events().iter().map(|e| e.bytes as u64).sum();
        assert_eq!(traced_bytes, net.traffic().bytes);
        // Rendering works and mentions an edge.
        assert!(trace.render(4).contains("->"));
        // Per-edge symmetry: every edge carries traffic both ways.
        for ((a, b), _) in trace.per_edge_counts() {
            assert!(trace.per_edge_counts().contains_key(&(b, a)));
        }
    }

    #[test]
    fn gossip_export_import_reproduces_digest_without_rounds() {
        let mut live = build(8, 3, vec![25.0, 50.0]);
        live.run_to_convergence(100).unwrap();

        let d = line_matrix(8);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let cls = BandwidthClasses::new(vec![25.0, 50.0], RationalTransform::new(100.0));
        let mut fresh = SimNetwork::new(
            fw.anchor(),
            fw.predicted_matrix(),
            ProtocolConfig::new(3, cls),
        );
        assert_ne!(fresh.digest(), live.digest(), "cold network starts blank");

        fresh.import_gossip(live.export_gossip()).unwrap();
        assert_eq!(fresh.rounds_run(), 0, "no rounds ran");
        assert_eq!(fresh.digest(), live.digest(), "warm restore is exact");
        // The restored network is at the same fixpoint: a round is a no-op,
        // and both continue identically.
        assert!(!fresh.run_round());
        assert!(!live.run_round());
        assert_eq!(fresh.digest(), live.digest());
        // Queries answer identically.
        assert_eq!(
            fresh.query(n(2), 2, 50.0).unwrap().cluster,
            live.query(n(2), 2, 50.0).unwrap().cluster
        );
    }

    #[test]
    fn gossip_import_rejects_mismatched_overlay() {
        let mut live = build(6, 3, vec![25.0, 50.0]);
        live.run_to_convergence(100).unwrap();
        let exported = live.export_gossip();

        // Wrong node count.
        let mut other = build(5, 3, vec![25.0, 50.0]);
        assert!(other.import_gossip(exported.clone()).is_err());

        // Wrong class count: CRT rows are too wide, a typed mismatch.
        let mut other = build(6, 3, vec![25.0]);
        let wide = bcc_core::ClusterError::ClassCountMismatch {
            expected: 1,
            got: 2,
        };
        assert_eq!(
            other.import_gossip(exported.clone()),
            Err(format!("node 0: {wide}"))
        );

        // A local-maximum row one class too wide, on the right overlay.
        let mut bad = exported;
        bad[3].own_max.push(7);
        let mut other = build(6, 3, vec![25.0, 50.0]);
        let wide = bcc_core::ClusterError::ClassCountMismatch {
            expected: 2,
            got: 3,
        };
        assert_eq!(other.import_gossip(bad), Err(format!("node 3: {wide}")));
    }

    #[test]
    fn absent_hosts_are_isolated_placeholders() {
        // Overlay holds hosts 0..3 but the id space is 0..4: host 3 exists
        // as an inert placeholder.
        let d = line_matrix(4);
        let fw =
            PredictionFramework::build_from_matrix(&line_matrix(3), FrameworkConfig::default());
        let cls = BandwidthClasses::new(vec![50.0], RationalTransform::new(100.0));
        let mut net = SimNetwork::new(fw.anchor(), d, ProtocolConfig::new(2, cls));
        net.run_to_convergence(20).unwrap();
        assert!(net.nodes()[3].neighbors().is_empty());
        // A query submitted at the placeholder finds nothing.
        let out = net.query(n(3), 2, 50.0).unwrap();
        assert!(!out.found());
        // Active hosts still answer.
        assert!(net.query(n(0), 2, 50.0).unwrap().found());
    }

    #[test]
    fn crashed_node_falls_silent_and_is_traced() {
        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.enable_tracing(4096);
        net.inject_faults(&FaultPlan::new(1).crash(0.0, n(2)));
        let _ = net.run_to_convergence(50);
        assert!(net.is_down(n(2)));
        let trace = net.trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::Crash && e.from == n(2)));
        // Messages aimed at the dead node are dropped and visible.
        assert!(trace.dropped_messages() > 0);
        assert_eq!(net.traffic().dropped, trace.dropped_messages());
        // The dead node never sends: no NodeInfo from n2 after round 0.
        assert!(!trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::NodeInfo && e.from == n(2)));
    }

    #[test]
    fn crash_recovery_reconverges_to_fault_free_fixpoint() {
        let mut reference = build(8, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.inject_faults(&FaultPlan::new(5).crash_recover(3.0, n(4), 10.0));
        for _ in 0..100 {
            net.run_round();
        }
        assert!(!net.is_down(n(4)));
        assert_eq!(
            net.digest(),
            reference.digest(),
            "cold restart must rebuild the same fixpoint"
        );
    }

    #[test]
    fn churn_delta_reset_reconverges_to_cold_fixpoint() {
        let mut reference = build(8, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        // Blow away one host's gossip state through the churn-delta path
        // (the shape of a re-embedding) and heal it with focused rounds.
        let delta = OverlayDelta {
            reset: vec![n(4)],
            neighbors: vec![],
        };
        let scan: Vec<NodeId> = (0..8).map(n).collect();
        let seeds = net.apply_churn_delta(&delta, &scan);
        assert!(seeds.contains(&n(4)), "reset host seeds itself");
        let before_messages = net.traffic().messages;
        let rounds = net
            .reconverge_focused(&seeds, 100)
            .expect("focused gossip settles");
        assert!(rounds >= 1);
        assert_eq!(net.digest(), reference.digest(), "same fixpoint as cold");
        // Focused repair talks less than the full re-convergence did.
        assert!(net.traffic().messages - before_messages < reference.traffic().messages);
    }

    #[test]
    fn focused_round_on_a_converged_overlay_sends_nothing() {
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        let digest = net.digest();
        let messages = net.traffic().messages;
        // Every host is told to speak, and every host finds that each
        // neighbor already holds exactly what it would say.
        let everyone: Vec<NodeId> = (0..8).map(n).collect();
        assert_eq!(net.reconverge_focused(&everyone, 100), Some(1));
        assert_eq!(net.traffic().messages, messages, "every send suppressed");
        assert_eq!(net.digest(), digest);
    }

    #[test]
    fn full_round_on_a_converged_overlay_sends_nothing() {
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        let digest = net.digest();
        let traffic = net.traffic();
        // Every live host is a sender, and each finds that every neighbor
        // already holds exactly what it would say.
        assert!(!net.run_round(), "a round at the fixpoint changes nothing");
        assert_eq!(net.traffic(), traffic, "every send suppressed");
        assert_eq!(net.digest(), digest);
    }

    #[test]
    fn a_round_that_only_moves_local_maxima_is_a_change() {
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        let digest = net.digest();
        let traffic = net.traffic();
        // Host 3's maxima are wrong and stale; its neighbors still hold
        // the rows the right maxima give.
        let node = &mut net.nodes_mut()[3];
        node.restore_own_max(vec![0, 0]).unwrap();
        assert!(node.relabel(&[n(3)]), "a node's space holds the node");
        assert_ne!(net.digest(), digest);
        assert!(net.run_round(), "the recompute moved the maxima");
        assert_eq!(net.traffic(), traffic, "no neighbor lacked a row");
        assert_eq!(net.digest(), digest);
        assert!(!net.run_round());
    }

    #[test]
    fn a_round_with_a_delivery_in_flight_is_not_converged() {
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        let fixpoint = net.digest();
        // One held CRT row is wrong, and the link that would mend it is
        // three rounds slow from now on.
        let from = n(3);
        let to = net.nodes()[3].neighbors()[0];
        net.inject_faults(&FaultPlan::new(8).latency_spike(0.0, from, to, (3.0, 3.0), None));
        net.nodes_mut()[to.index()]
            .receive_crt(from, vec![0, 0])
            .unwrap();
        let messages = net.traffic().messages;
        // The round's one message is in flight: nothing landed and no
        // maxima moved, yet the round is not the fixpoint.
        assert!(net.run_round(), "a delivery is still pending");
        assert_eq!(net.traffic().messages, messages + 1);
        assert_ne!(net.digest(), fixpoint);
        net.run_to_convergence(100).expect("the late row lands");
        assert_eq!(net.digest(), fixpoint);
    }

    #[test]
    fn a_late_stale_report_is_overwritten_by_a_fresh_one() {
        let mut reference = build(8, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        // A host with two directions reports more about itself on round 1
        // than on round 0. Both reports on one of its links arrive three
        // rounds late, after the spike healed and a fresh report landed.
        let mut net = build(8, 3, vec![25.0, 50.0]);
        let from = (0..8)
            .map(n)
            .find(|&u| net.nodes()[u.index()].neighbors().len() >= 2)
            .expect("a line overlay has an interior host");
        let to = net.nodes()[from.index()].neighbors()[0];
        net.enable_tracing(1 << 14);
        net.inject_faults(&FaultPlan::new(7).latency_spike(0.0, from, to, (3.0, 3.0), Some(2.0)));
        net.run_to_convergence(100)
            .expect("converges once the spike heals");
        assert_eq!(net.digest(), reference.digest(), "the fault-free fixpoint");

        // On `from -> to`, a report shorter than the one before it (the
        // stale copy landing) is followed in the same round by the fresh
        // report again.
        let reports: Vec<(usize, usize)> = net
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::NodeInfo && e.from == from && e.to == to)
            .map(|e| (e.round, e.entries))
            .collect();
        let resent = reports.windows(3).any(|w| {
            let [(_, fresh), (late, stale), (again, resent)] = [w[0], w[1], w[2]];
            stale < fresh && again == late && resent == fresh
        });
        assert!(resent, "no stale landing re-sent in {reports:?}");
    }

    #[test]
    fn partition_blocks_convergence_until_heal() {
        let mut reference = build(8, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        // Cut {0, 1} off for 30 rounds, then heal.
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.inject_faults(&FaultPlan::new(2).partition(0.0, vec![n(0), n(1)], Some(30.0)));
        for _ in 0..20 {
            net.run_round();
        }
        assert_ne!(net.digest(), reference.digest(), "cut overlay cannot agree");
        for _ in 0..60 {
            net.run_round();
        }
        assert_eq!(net.digest(), reference.digest(), "healed overlay agrees");
    }

    #[test]
    fn delayed_messages_arrive_in_later_rounds() {
        let mut reference = build(6, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.enable_tracing(1 << 14);
        // Every message on 0→1 is late by 3 rounds until the spike heals at
        // round 50; gossip still converges to the same fixpoint, just
        // later. (While the spike lasts there are always messages in
        // flight, so convergence can only be declared after the heal.)
        net.inject_faults(&FaultPlan::new(3).latency_spike(
            0.0,
            n(0),
            n(1),
            (3.0, 3.0),
            Some(50.0),
        ));
        let rounds = net.run_to_convergence(200).expect("still converges");
        assert!(rounds >= 3);
        assert_eq!(net.digest(), reference.digest());
        let trace = net.trace().unwrap();
        assert!(trace.events().iter().any(|e| e.kind == TraceKind::Delayed));
    }

    #[test]
    fn duplicated_messages_are_idempotent_and_counted() {
        let mut reference = build(6, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.enable_tracing(1 << 14);
        net.inject_faults(&FaultPlan::new(4).link_duplicate(0.0, n(0), n(1), 1.0, None));
        net.run_to_convergence(100).unwrap();
        assert_eq!(net.digest(), reference.digest(), "duplicates are harmless");
        let trace = net.trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::Duplicated));
        assert!(net.traffic().messages > reference.traffic().messages);
    }

    #[test]
    fn resilient_query_routes_around_crashed_interior_node() {
        // Converge first, then crash an interior host without letting the
        // overlay re-gossip: CRT state is now stale. The walk reroutes
        // around the dead node or degrades.
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        let dead = n(3);
        net.inject_faults(&FaultPlan::new(6).crash(net.rounds_run() as f64, dead));
        net.apply_fault_transitions(net.rounds_run() as f64);
        assert!(net.is_down(dead));

        let retry = RetryPolicy::default();
        for start in [0usize, 1, 5, 7] {
            let out = net
                .query_resilient(n(start), 2, 50.0, &retry, &mut Unmetered)
                .unwrap()
                .into_value();
            assert!(out.found(), "start n{start} must still find a pair");
            let c = out.cluster.as_ref().unwrap();
            assert!(!c.contains(&dead), "no dead member in {c:?}");
        }
        // Submitting at the dead node is a typed error.
        assert!(matches!(
            net.query_resilient(dead, 2, 50.0, &retry, &mut Unmetered),
            Err(bcc_core::ClusterError::NodeUnavailable { node: 3 })
        ));
    }
}
