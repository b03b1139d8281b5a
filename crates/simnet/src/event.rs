//! Event-driven (asynchronous) execution of the clustering protocol.
//!
//! The cycle-driven engine ([`crate::SimNetwork`]) delivers every message in
//! lock-step rounds — convenient, but real deployments have per-link
//! latencies and unsynchronized gossip timers. [`AsyncNetwork`] reschedules
//! the *same* protocol state: it holds a [`SimNetwork`] and drives its
//! message builders, delivery path and space-change gate from a discrete
//! event queue, where each node fires on its own jittered period and every
//! message is delayed by a random per-delivery latency. All it keeps of its
//! own is the clock, the queue and the draws that decide when things
//! happen.
//!
//! Algorithms 2 and 3 compute a fixpoint that is *unique on a tree overlay*
//! (their correctness proofs are inductions over the tree, independent of
//! message timing), so the asynchronous execution must reach exactly the
//! same protocol state as the synchronous one — a property the tests and
//! the `simnet` integration suite verify via [`SimNetwork::digest`].
//!
//! A timer sends a neighbor only what is *due*, the reports that differ
//! from the records it holds (the rule [`SimNetwork::run_round`] and
//! [`SimNetwork::reconverge_focused`] follow too), and lapses when nothing
//! is; deliveries and recoveries re-arm the timers they affect. So the
//! queue drains exactly at the fixpoint, and
//! [`AsyncNetwork::run_to_quiescence`] reports its time.
//!
//! The same [`FaultPlan`] that drives [`crate::SimNetwork`] plugs in here
//! via [`AsyncNetwork::inject_faults`], with ticks interpreted as simulated
//! seconds: crashed nodes stop firing timers (and recover by cold restart),
//! partitions and link faults disturb messages in flight, and everything
//! lands in the network's optional [`crate::Trace`] at whole-second rounds.
//! A lost message leaves its link due, so the engine goes quiet only once
//! every fault has healed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bcc_core::ProtocolConfig;
use bcc_embed::AnchorTree;
use bcc_metric::{DistanceMatrix, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ConfigError;
use crate::engine::SimNetwork;
use crate::fault::FaultPlan;
use crate::trace::TraceKind;
use crate::wire::Message;

/// Configuration for an [`AsyncNetwork`].
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Protocol parameters (`n_cut`, bandwidth classes).
    pub protocol: ProtocolConfig,
    /// Seconds between one node's gossip emissions.
    pub gossip_period: f64,
    /// Uniform per-message delivery latency range (seconds).
    pub latency: (f64, f64),
    /// Fractional jitter applied to each timer interval (`0.1` = ±10 %).
    pub timer_jitter: f64,
    /// Probability that a message is silently dropped in flight. A lost
    /// message leaves its link due, so any loss rate `< 1` still converges
    /// to the same fixpoint, just later.
    pub loss: f64,
    /// RNG seed for phases, jitter, latencies and losses.
    pub seed: u64,
}

impl AsyncConfig {
    /// A reasonable default: 1 s period, 10–150 ms latency, 10 % jitter.
    pub fn new(protocol: ProtocolConfig) -> Self {
        AsyncConfig {
            protocol,
            gossip_period: 1.0,
            latency: (0.01, 0.15),
            timer_jitter: 0.1,
            loss: 0.0,
            seed: 0,
        }
    }

    /// Checks every numeric field up front, so a bad value surfaces as a
    /// typed error at construction instead of a panic deep inside the RNG
    /// mid-simulation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field and value.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.loss.is_finite() || !(0.0..=1.0).contains(&self.loss) {
            return Err(ConfigError::LossOutOfRange { loss: self.loss });
        }
        let (low, high) = self.latency;
        if !low.is_finite() || !high.is_finite() || low < 0.0 || low > high {
            return Err(ConfigError::InvalidLatencyRange { low, high });
        }
        if !self.gossip_period.is_finite() || self.gossip_period <= 0.0 {
            return Err(ConfigError::NonPositiveGossipPeriod {
                period: self.gossip_period,
            });
        }
        if !self.timer_jitter.is_finite() || !(0.0..1.0).contains(&self.timer_jitter) {
            return Err(ConfigError::JitterOutOfRange {
                jitter: self.timer_jitter,
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum EventKind {
    /// A node's gossip timer fires: emit every due NodeInfo and CrtRow.
    Timer(NodeId),
    /// A message arrives.
    Deliver {
        to: NodeId,
        from: NodeId,
        payload: Message,
    },
}

#[derive(Debug, Clone)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are finite")
            .then(self.seq.cmp(&other.seq))
    }
}

/// The asynchronous overlay simulation.
#[derive(Debug, Clone)]
pub struct AsyncNetwork {
    net: SimNetwork,
    config: AsyncConfig,
    rng: StdRng,
    queue: BinaryHeap<Reverse<Event>>,
    /// Whether each node has a timer in the queue.
    armed: Vec<bool>,
    now: f64,
    seq: u64,
    delivered: u64,
    last_delivery: f64,
    lost: u64,
}

impl AsyncNetwork {
    /// Builds the network over an anchor-tree overlay, scheduling each
    /// node's first timer at a random phase within one period.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration — use [`AsyncNetwork::try_new`]
    /// for a typed error instead.
    pub fn new(anchor: &AnchorTree, predicted: DistanceMatrix, config: AsyncConfig) -> Self {
        Self::try_new(anchor, predicted, config).expect("valid AsyncConfig")
    }

    /// [`AsyncNetwork::new`] with up-front configuration validation. The
    /// protocol state is [`SimNetwork::new`]`(anchor, predicted,
    /// config.protocol)`, placeholders included.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when a numeric field is out of range (see
    /// [`AsyncConfig::validate`]).
    pub fn try_new(
        anchor: &AnchorTree,
        predicted: DistanceMatrix,
        config: AsyncConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let net = SimNetwork::new(anchor, predicted, config.protocol.clone());
        let mut asynch = AsyncNetwork {
            armed: vec![true; net.len()],
            net,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            queue: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            delivered: 0,
            last_delivery: 0.0,
            lost: 0,
        };
        for i in 0..asynch.net.len() {
            let phase = asynch.rng.gen_range(0.0..asynch.config.gossip_period);
            asynch.push_event(phase, EventKind::Timer(NodeId::new(i)));
        }
        Ok(asynch)
    }

    /// Schedules `id`'s next timer one jittered period from now, unless
    /// one is already queued.
    fn arm(&mut self, id: NodeId) {
        if std::mem::replace(&mut self.armed[id.index()], true) {
            return;
        }
        let jitter = 1.0
            + self
                .rng
                .gen_range(-self.config.timer_jitter..=self.config.timer_jitter);
        let next = self.now + self.config.gossip_period * jitter;
        self.push_event(next, EventKind::Timer(id));
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let e = Event {
            time,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        self.queue.push(Reverse(e));
    }

    /// The protocol state being scheduled: read digests, queries, the
    /// trace and crash status here. Its round and traffic counters stay at
    /// zero; this engine counts [`AsyncNetwork::delivered`] and
    /// [`AsyncNetwork::lost`] instead.
    pub fn network(&self) -> &SimNetwork {
        &self.net
    }

    /// Current simulated time (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages lost in flight (background loss plus injected faults).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Turns on message tracing with a bounded buffer (see
    /// [`crate::Trace`]). Trace rounds are whole simulated seconds.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.net.enable_tracing(capacity);
    }

    /// Plugs in the injector of `plan`; faults activate as simulated time
    /// passes their scheduled ticks (1 tick = 1 second).
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        self.net.inject_faults(plan);
    }

    /// Runs the simulation until simulated time `until`. The clock never
    /// runs backwards: an `until` before [`AsyncNetwork::now`] (or NaN) is
    /// a no-op. An infinite `until` returns once the engine is quiet, with
    /// the clock at its last event; under a fault that never heals it
    /// never returns.
    pub fn run_until(&mut self, until: f64) {
        if self.run_to_quiescence(until).is_some() && until.is_finite() {
            self.now = until;
        }
    }

    /// Runs until nothing is queued and no fault change is scheduled, up
    /// to `max_time`. Returns the simulated time of the last delivery —
    /// exactly when the fixpoint arrived — or `None` when the engine is
    /// still busy at `max_time` (the clock then reads `max_time`), and
    /// `None` at once, without moving the clock, for a NaN or past
    /// `max_time`.
    pub fn run_to_quiescence(&mut self, max_time: f64) -> Option<f64> {
        if max_time.is_nan() || max_time < self.now {
            return None;
        }
        while self.step(max_time) {}
        if self.queue.is_empty() && self.net.next_fault_change().is_none() {
            return Some(self.last_delivery);
        }
        self.now = max_time;
        None
    }

    /// Handles the earlier of the queue head and the injector's next
    /// scheduled change, if it falls at or before `until`; returns whether
    /// there was one.
    fn step(&mut self, until: f64) -> bool {
        let head = self.queue.peek().map(|Reverse(e)| e.time);
        let at = match (head, self.net.next_fault_change()) {
            (Some(h), Some(c)) => h.min(c),
            (Some(t), None) | (None, Some(t)) => t,
            (None, None) => return false,
        };
        if at > until {
            return false;
        }
        // A plan injected late may hold changes already past.
        self.now = self.now.max(at);
        // A recovered node restarts blank: it and its neighbors have
        // reports to exchange.
        for node in self.net.apply_fault_transitions(self.now) {
            self.arm(node);
            for to in self.net.nodes()[node.index()].neighbors().to_vec() {
                self.arm(to);
            }
        }
        if head == Some(at) {
            let Reverse(event) = self.queue.pop().expect("peeked");
            match event.kind {
                EventKind::Timer(id) => self.fire_timer(id),
                EventKind::Deliver { to, from, payload } => self.deliver(to, from, payload),
            }
        }
        true
    }

    /// Records one message event at the current whole simulated second.
    fn record(&mut self, to: NodeId, from: NodeId, payload: &Message, kind: TraceKind) {
        self.net
            .record(self.now as usize, to.index(), from, payload, kind);
    }

    fn fire_timer(&mut self, id: NodeId) {
        self.armed[id.index()] = false;
        // A crashed node is silent and its timer lapses; a recovery
        // re-arms it.
        if self.net.is_down(id) {
            return;
        }
        let mut due = false;
        for to in self.net.nodes()[id.index()].neighbors().to_vec() {
            if let Some(info) = self.net.node_info_due(id.index(), to) {
                self.emit(id, to, Message::NodeInfo { nodes: info });
                due = true;
            }
            if let Some(row) = self.net.crt_row_due(id.index(), to) {
                self.emit(id, to, Message::crt_row(&row));
                due = true;
            }
        }
        // A link stays due until its report arrives: try again next period.
        if due {
            self.arm(id);
        }
    }

    /// Sends one message through the (possibly faulty) wire: background
    /// i.i.d. loss first, then the injector's verdict, then per-copy
    /// latency draws.
    fn emit(&mut self, from: NodeId, to: NodeId, payload: Message) {
        let background_loss = self.config.loss > 0.0 && self.rng.gen_bool(self.config.loss);
        let fate = (!background_loss).then(|| self.net.message_fate(from, to, self.now));
        let Some(fate) = fate.filter(|f| !f.is_dropped()) else {
            self.lost += 1;
            self.record(to, from, &payload, TraceKind::Dropped);
            return;
        };
        for copy in 0..fate.copies {
            if copy > 0 {
                self.record(to, from, &payload, TraceKind::Duplicated);
            }
            if fate.extra_delay > 0.0 {
                self.record(to, from, &payload, TraceKind::Delayed);
            }
            let lat = self
                .rng
                .gen_range(self.config.latency.0..=self.config.latency.1);
            self.push_event(
                self.now + lat + fate.extra_delay.max(0.0),
                EventKind::Deliver {
                    to,
                    from,
                    payload: payload.clone(),
                },
            );
        }
    }

    fn deliver(&mut self, to: NodeId, from: NodeId, payload: Message) {
        // A message in flight toward a node that crashed meanwhile is lost.
        if self.net.is_down(to) {
            self.lost += 1;
            self.record(to, from, &payload, TraceKind::Dropped);
            return;
        }
        self.delivered += 1;
        self.last_delivery = self.now;
        let node_info = matches!(payload, Message::NodeInfo { .. });
        self.net
            .apply_message(self.now as usize, to.index(), from, payload);
        // A new NodeInfo may have changed the receiver's clustering space:
        // the asynchronous analogue of Algorithm 3, line 8.
        if node_info {
            self.net.refresh_own_max(to.index());
        }
        // The receiver may have news; a late copy may have overwritten a
        // newer one, so the sender checks its link again.
        self.arm(to);
        self.arm(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::{BandwidthClasses, RetryPolicy, Unmetered};
    use bcc_embed::{FrameworkConfig, PredictionFramework};
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn line_matrix(count: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(count, |i, j| 2.0 * (i as f64 - j as f64).abs())
    }

    fn protocol() -> ProtocolConfig {
        let cls = BandwidthClasses::new(vec![25.0, 50.0], RationalTransform::new(100.0));
        ProtocolConfig::new(3, cls)
    }

    fn build_async(count: usize, seed: u64) -> (AsyncNetwork, crate::SimNetwork) {
        let d = line_matrix(count);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let mut cfg = AsyncConfig::new(protocol());
        cfg.seed = seed;
        let a = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg);
        let mut s = crate::SimNetwork::new(fw.anchor(), fw.predicted_matrix(), protocol());
        s.run_to_convergence(100).expect("sync converges");
        (a, s)
    }

    #[test]
    fn async_converges_to_synchronous_fixpoint() {
        let (mut a, s) = build_async(8, 1);
        let t = a.run_to_quiescence(500.0).expect("async converges");
        assert!(t > 0.0);
        assert_eq!(
            a.network().digest(),
            s.digest(),
            "fixpoint must be schedule-independent"
        );
    }

    #[test]
    fn fixpoint_is_seed_independent() {
        let (mut a1, _) = build_async(10, 11);
        let (mut a2, _) = build_async(10, 2222);
        a1.run_to_quiescence(500.0).unwrap();
        a2.run_to_quiescence(500.0).unwrap();
        assert_eq!(a1.network().digest(), a2.network().digest());
    }

    #[test]
    fn queries_work_after_async_convergence() {
        let (mut a, _) = build_async(6, 3);
        a.run_to_quiescence(500.0).unwrap();
        let out = a.network().query(n(0), 2, 50.0).unwrap();
        assert!(out.found());
        let out = a.network().query(n(0), 4, 50.0).unwrap();
        assert!(!out.found());
    }

    #[test]
    fn time_and_deliveries_advance() {
        let (mut a, _) = build_async(5, 4);
        assert_eq!(a.delivered(), 0);
        a.run_until(3.0);
        assert!(a.now() == 3.0);
        assert!(a.delivered() > 0);
        let quiet = a.run_to_quiescence(100.0).expect("the line goes quiet");
        assert!(quiet <= a.now());
        let before = a.delivered();
        a.run_until(a.now() + 100.0);
        assert_eq!(a.delivered(), before, "nothing is sent after the fixpoint");
    }

    #[test]
    fn the_clock_never_runs_backwards() {
        let (mut a, _) = build_async(5, 4);
        a.run_until(10.0);
        let delivered = a.delivered();
        a.run_until(3.0);
        assert_eq!(a.now(), 10.0, "an earlier horizon is a no-op");
        a.run_until(f64::NAN);
        assert_eq!(a.now(), 10.0, "so is NaN");
        assert_eq!(a.delivered(), delivered);
        a.run_until(12.0);
        assert_eq!(a.now(), 12.0);
    }

    #[test]
    fn early_queries_are_safe_but_may_miss() {
        // Before convergence the CRTs are incomplete: queries must not
        // panic and must never return an invalid cluster.
        let (mut a, _) = build_async(8, 5);
        a.run_until(0.05); // almost nothing delivered yet
        let out = a.network().query(n(0), 2, 50.0).unwrap();
        if let Some(c) = out.cluster {
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn converges_under_heavy_message_loss() {
        // 30 % of messages vanish; periodic gossip still reaches the same
        // fixpoint as the lossless synchronous engine, just later.
        let d = line_matrix(8);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let mut s = crate::SimNetwork::new(fw.anchor(), fw.predicted_matrix(), protocol());
        s.run_to_convergence(100).unwrap();

        let mut cfg = AsyncConfig::new(protocol());
        cfg.loss = 0.3;
        cfg.seed = 77;
        let mut a = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg);
        a.enable_tracing(1 << 16);
        // Run a fixed long horizon rather than window-detection: loss makes
        // quiet windows ambiguous.
        a.run_until(400.0);
        assert_eq!(
            a.network().digest(),
            s.digest(),
            "lossy async must reach the lossless fixpoint"
        );
        // Losses are observable, both as a counter and in the trace.
        assert!(a.lost() > 0);
        assert_eq!(a.network().trace().unwrap().dropped_messages(), a.lost());
    }

    #[test]
    fn total_loss_never_converges_to_fixpoint() {
        let d = line_matrix(6);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let mut s = crate::SimNetwork::new(fw.anchor(), fw.predicted_matrix(), protocol());
        s.run_to_convergence(100).unwrap();

        let mut cfg = AsyncConfig::new(protocol());
        cfg.loss = 1.0;
        let mut a = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg);
        a.run_until(100.0);
        assert_eq!(a.delivered(), 0);
        assert_ne!(a.network().digest(), s.digest());
    }

    #[test]
    fn deterministic_under_seed() {
        let (mut a1, _) = build_async(7, 9);
        let (mut a2, _) = build_async(7, 9);
        a1.run_until(50.0);
        a2.run_until(50.0);
        assert_eq!(a1.network().digest(), a2.network().digest());
        assert_eq!(a1.delivered(), a2.delivered());
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let d = line_matrix(4);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let check = |mutate: fn(&mut AsyncConfig), expected: fn(&ConfigError) -> bool| {
            let mut cfg = AsyncConfig::new(protocol());
            mutate(&mut cfg);
            let err = AsyncNetwork::try_new(fw.anchor(), fw.predicted_matrix(), cfg)
                .expect_err("must be rejected");
            assert!(expected(&err), "unexpected error {err:?}");
        };
        check(
            |c| c.loss = 1.7,
            |e| matches!(e, ConfigError::LossOutOfRange { .. }),
        );
        check(
            |c| c.loss = f64::NAN,
            |e| matches!(e, ConfigError::LossOutOfRange { .. }),
        );
        check(
            |c| c.latency = (0.5, 0.1),
            |e| matches!(e, ConfigError::InvalidLatencyRange { .. }),
        );
        check(
            |c| c.latency = (-0.1, 0.1),
            |e| matches!(e, ConfigError::InvalidLatencyRange { .. }),
        );
        check(
            |c| c.gossip_period = 0.0,
            |e| matches!(e, ConfigError::NonPositiveGossipPeriod { .. }),
        );
        check(
            |c| c.timer_jitter = 1.0,
            |e| matches!(e, ConfigError::JitterOutOfRange { .. }),
        );
        // A valid config still passes.
        let cfg = AsyncConfig::new(protocol());
        assert!(AsyncNetwork::try_new(fw.anchor(), fw.predicted_matrix(), cfg).is_ok());
    }

    #[test]
    fn crashed_node_falls_silent_under_events() {
        let (mut a, _) = build_async(8, 21);
        a.enable_tracing(1 << 16);
        a.inject_faults(&FaultPlan::new(21).crash(0.0, n(3)));
        a.run_until(30.0);
        assert!(a.network().is_down(n(3)));
        let trace = a.network().trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::Crash && e.from == n(3)));
        // The dead node never gossips, and traffic aimed at it is lost.
        assert!(!trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::NodeInfo && e.from == n(3)));
        assert!(a.lost() > 0);
    }

    #[test]
    fn crash_recovery_reconverges_under_events() {
        let (mut a, s) = build_async(8, 13);
        a.inject_faults(&FaultPlan::new(13).crash_recover(5.0, n(4), 20.0));
        a.run_until(300.0);
        assert!(!a.network().is_down(n(4)));
        assert_eq!(
            a.network().digest(),
            s.digest(),
            "cold restart must rebuild the synchronous fixpoint"
        );
    }

    #[test]
    fn healed_fault_plan_matches_fault_free_digest() {
        // One plan with every fault kind, all healed well before the
        // horizon: the event engine must still land on the fault-free
        // synchronous fixpoint.
        let (mut a, s) = build_async(8, 31);
        let plan = FaultPlan::new(31)
            .crash_recover(5.0, n(2), 15.0)
            .partition(10.0, vec![n(6), n(7)], Some(20.0))
            .link_loss(0.0, n(0), n(1), 0.8, Some(40.0))
            .link_duplicate(0.0, n(3), n(4), 0.5, Some(40.0))
            .latency_spike(0.0, n(1), n(2), (1.0, 3.0), Some(40.0))
            .uniform_loss(0.0, 0.2, Some(50.0));
        a.inject_faults(&plan);
        a.run_until(500.0);
        assert_eq!(
            a.network().digest(),
            s.digest(),
            "healed faults leave no residue"
        );
    }

    #[test]
    fn reordered_copies_leave_no_stale_record() {
        // Every report sent in the first half second is held up ~10 s, so
        // it lands after the line went quiet and overwrites a newer record.
        // The delivery re-arms its sender, which finds the link due again.
        for seed in 0..8 {
            let (mut a, s) = build_async(8, seed);
            let mut plan = FaultPlan::new(seed);
            for i in 0..7 {
                for (from, to) in [(n(i), n(i + 1)), (n(i + 1), n(i))] {
                    plan = plan.latency_spike(0.0, from, to, (10.0, 11.0), Some(0.5));
                }
            }
            a.inject_faults(&plan);
            assert!(a.run_to_quiescence(500.0).is_some(), "seed {seed}");
            assert_eq!(a.network().digest(), s.digest(), "seed {seed}");
        }
    }

    #[test]
    fn resilient_query_avoids_crashed_nodes() {
        let (mut a, _) = build_async(8, 41);
        a.run_to_quiescence(500.0).unwrap();
        // Crash an interior node *after* convergence: CRT state is stale.
        a.inject_faults(&FaultPlan::new(41).crash(a.now(), n(3)));
        a.run_until(a.now() + 1e-9);
        assert!(a.network().is_down(n(3)));
        let retry = RetryPolicy::default();
        let out = a
            .network()
            .query_resilient(n(1), 2, 50.0, &retry, &mut Unmetered)
            .unwrap()
            .into_value();
        assert!(out.found());
        assert!(!out.cluster.as_ref().unwrap().contains(&n(3)));
        assert!(matches!(
            a.network()
                .query_resilient(n(3), 2, 50.0, &retry, &mut Unmetered),
            Err(bcc_core::ClusterError::NodeUnavailable { node: 3 })
        ));
    }
}
