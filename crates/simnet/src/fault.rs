//! Deterministic fault injection for both simulation engines.
//!
//! A [`FaultPlan`] is a seedable schedule of failures — crash-stop,
//! crash-recovery, network partitions, per-link loss/duplication/latency
//! spikes and global loss windows — expressed in abstract *ticks*: gossip
//! rounds under the cycle engine ([`crate::SimNetwork`]) and simulated
//! seconds under the event engine ([`crate::AsyncNetwork`]). Both engines
//! consume the plan through the same [`PlannedInjector`], so one plan
//! reproduces the same failure scenario on either substrate, bit-for-bit
//! given the same seed.
//!
//! Every injected fault is observable: engines record
//! [`crate::TraceKind::Crash`], [`crate::TraceKind::Recover`],
//! [`crate::TraceKind::PartitionStart`]/[`crate::TraceKind::PartitionHeal`]
//! and per-message [`crate::TraceKind::Dropped`] /
//! [`crate::TraceKind::Duplicated`] / [`crate::TraceKind::Delayed`] events
//! in their [`crate::Trace`].
//!
//! ```
//! use bcc_metric::NodeId;
//! use bcc_simnet::FaultPlan;
//!
//! let n = NodeId::new;
//! let plan = FaultPlan::new(42)
//!     .crash(10.0, n(3))                         // n3 dies at tick 10, forever
//!     .crash_recover(5.0, n(1), 20.0)            // n1 cold-restarts at tick 25
//!     .partition(8.0, vec![n(4), n(5)], Some(12.0)) // {4,5} cut off for 12 ticks
//!     .link_loss(0.0, n(0), n(2), 0.5, None)     // 0→2 loses half its messages
//!     .uniform_loss(0.0, 0.3, Some(60.0));       // 30 % global loss, heals at 60
//! let injector = plan.injector();
//! # let _ = injector;
//! ```

use std::collections::BTreeSet;

use bcc_metric::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of scheduled failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The node halts and never returns (crash-stop). Its protocol state
    /// freezes; neighbors keep routing around stale views of it.
    Crash {
        /// The crashing host.
        node: NodeId,
    },
    /// The node halts, then restarts `down_for` ticks later with cleared
    /// protocol state (a cold restart rebuilt by gossip).
    CrashRecover {
        /// The crashing host.
        node: NodeId,
        /// Downtime in ticks.
        down_for: f64,
    },
    /// Every link between `group` and the rest of the overlay drops all
    /// messages while active.
    Partition {
        /// The cut-off hosts.
        group: Vec<NodeId>,
        /// Ticks until the partition heals (`None` = never).
        heal_after: Option<f64>,
    },
    /// The directed link `from → to` drops each message with probability
    /// `loss` while active.
    LinkLoss {
        /// Sender side of the link.
        from: NodeId,
        /// Receiver side of the link.
        to: NodeId,
        /// Per-message drop probability in `[0, 1]`.
        loss: f64,
        /// Ticks until the link heals (`None` = never).
        heal_after: Option<f64>,
    },
    /// The directed link `from → to` delivers each message twice with
    /// probability `dup` while active.
    LinkDuplicate {
        /// Sender side of the link.
        from: NodeId,
        /// Receiver side of the link.
        to: NodeId,
        /// Per-message duplication probability in `[0, 1]`.
        dup: f64,
        /// Ticks until the link heals (`None` = never).
        heal_after: Option<f64>,
    },
    /// The directed link `from → to` delays each message by an extra
    /// uniform amount in `[extra.0, extra.1]` ticks while active. Delays
    /// reorder deliveries in the event engine; the cycle engine quantizes
    /// them to whole rounds.
    LatencySpike {
        /// Sender side of the link.
        from: NodeId,
        /// Receiver side of the link.
        to: NodeId,
        /// Extra delay range in ticks (`min ≤ max`).
        extra: (f64, f64),
        /// Ticks until the spike ends (`None` = never).
        heal_after: Option<f64>,
    },
    /// Every link drops each message with probability `loss` while active.
    UniformLoss {
        /// Per-message drop probability in `[0, 1]`.
        loss: f64,
        /// Ticks until the loss window ends (`None` = never).
        heal_after: Option<f64>,
    },
}

/// A fault and the tick it activates at.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Activation tick (a round index or simulated seconds).
    pub at: f64,
    /// The failure.
    pub kind: FaultKind,
}

/// A deterministic, seedable schedule of failures.
///
/// Build one with the fluent methods below (or push [`FaultEvent`]s
/// directly), then hand [`FaultPlan::injector`] to an engine. The same
/// plan + seed always produces the same faults, losses and delays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan whose probabilistic faults draw from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            events: Vec::new(),
            seed,
        }
    }

    /// The RNG seed for probabilistic faults.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds an arbitrary fault event. A change whose tick is NaN never
    /// comes, like one at an infinite tick; a NaN or negative duration
    /// counts as zero.
    pub fn push(mut self, at: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Crash-stop `node` at tick `at`.
    pub fn crash(self, at: f64, node: NodeId) -> Self {
        self.push(at, FaultKind::Crash { node })
    }

    /// Crash `node` at tick `at`; it cold-restarts `down_for` ticks later.
    pub fn crash_recover(self, at: f64, node: NodeId, down_for: f64) -> Self {
        self.push(at, FaultKind::CrashRecover { node, down_for })
    }

    /// Partition `group` away from the rest at tick `at`.
    pub fn partition(self, at: f64, group: Vec<NodeId>, heal_after: Option<f64>) -> Self {
        self.push(at, FaultKind::Partition { group, heal_after })
    }

    /// Make the directed link `from → to` lossy from tick `at`.
    pub fn link_loss(
        self,
        at: f64,
        from: NodeId,
        to: NodeId,
        loss: f64,
        heal_after: Option<f64>,
    ) -> Self {
        self.push(
            at,
            FaultKind::LinkLoss {
                from,
                to,
                loss,
                heal_after,
            },
        )
    }

    /// Make the directed link `from → to` duplicate messages from tick `at`.
    pub fn link_duplicate(
        self,
        at: f64,
        from: NodeId,
        to: NodeId,
        dup: f64,
        heal_after: Option<f64>,
    ) -> Self {
        self.push(
            at,
            FaultKind::LinkDuplicate {
                from,
                to,
                dup,
                heal_after,
            },
        )
    }

    /// Add an extra-latency window on the directed link `from → to`.
    pub fn latency_spike(
        self,
        at: f64,
        from: NodeId,
        to: NodeId,
        extra: (f64, f64),
        heal_after: Option<f64>,
    ) -> Self {
        self.push(
            at,
            FaultKind::LatencySpike {
                from,
                to,
                extra,
                heal_after,
            },
        )
    }

    /// Drop every message with probability `loss` from tick `at`.
    pub fn uniform_loss(self, at: f64, loss: f64, heal_after: Option<f64>) -> Self {
        self.push(at, FaultKind::UniformLoss { loss, heal_after })
    }

    /// Crash-stops `floor(frac × n_hosts)` distinct hosts at tick `at`,
    /// chosen deterministically from this plan's seed — the bulk-failure
    /// helper the robustness sweeps use.
    pub fn random_crashes(mut self, at: f64, n_hosts: usize, frac: f64) -> Self {
        let count = ((n_hosts as f64) * frac.clamp(0.0, 1.0)).floor() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut pool: Vec<usize> = (0..n_hosts).collect();
        for _ in 0..count.min(n_hosts) {
            let i = rng.gen_range(0..pool.len());
            let host = pool.swap_remove(i);
            self.events.push(FaultEvent {
                at,
                kind: FaultKind::Crash {
                    node: NodeId::new(host),
                },
            });
        }
        self
    }

    /// Builds the injector both engines plug in via
    /// [`crate::SimNetwork::inject_faults`] /
    /// [`crate::AsyncNetwork::inject_faults`].
    pub fn injector(&self) -> PlannedInjector {
        PlannedInjector::new(self)
    }
}

/// A node lifecycle change reported by [`PlannedInjector::advance`], which
/// engines turn into trace events and state resets.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTransition {
    /// The node just crashed.
    Crashed(NodeId),
    /// The node just recovered; the engine must clear its protocol state.
    Recovered(NodeId),
    /// A partition just activated around `group`.
    PartitionStarted(Vec<NodeId>),
    /// A partition around `group` just healed.
    PartitionHealed(Vec<NodeId>),
}

/// What happens to one in-flight message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageFate {
    /// Copies to deliver: 0 = dropped, 1 = normal, 2+ = duplicated.
    pub copies: u32,
    /// Extra delivery delay in ticks, applied to every copy.
    pub extra_delay: f64,
}

impl MessageFate {
    /// Normal, undisturbed delivery.
    pub fn deliver() -> Self {
        MessageFate {
            copies: 1,
            extra_delay: 0.0,
        }
    }

    /// Lost in flight.
    pub fn dropped() -> Self {
        MessageFate {
            copies: 0,
            extra_delay: 0.0,
        }
    }

    /// `true` when no copy arrives.
    pub fn is_dropped(&self) -> bool {
        self.copies == 0
    }
}

/// A timeline entry expanded from the plan.
#[derive(Debug, Clone, PartialEq)]
enum Change {
    Down(NodeId),
    Up(NodeId),
    PartitionOn(usize, Vec<NodeId>),
    PartitionOff(usize),
    RuleOn(usize, LinkRule),
    RuleOff(usize),
}

/// An active per-link disturbance. `from`/`to` of `None` match any host.
#[derive(Debug, Clone, PartialEq)]
struct LinkRule {
    from: Option<NodeId>,
    to: Option<NodeId>,
    loss: f64,
    dup: f64,
    extra: (f64, f64),
}

impl LinkRule {
    fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// The injector produced by [`FaultPlan::injector`]: the hook both
/// engines consult while simulating — who is down, and what happens to
/// each message.
///
/// Internally the plan is expanded into a time-sorted timeline of state
/// changes (a crash-recovery becomes a down change plus a later up
/// change); [`PlannedInjector::advance`] walks a cursor over it. It must
/// be called with non-decreasing `now` values; engines call it once per
/// round (cycle engine) or once per event (event engine) before doing any
/// work at that time.
#[derive(Debug, Clone)]
pub struct PlannedInjector {
    rng: StdRng,
    timeline: Vec<(f64, Change)>,
    cursor: usize,
    down: BTreeSet<NodeId>,
    partitions: Vec<(usize, BTreeSet<NodeId>)>,
    rules: Vec<(usize, LinkRule)>,
}

impl PlannedInjector {
    fn new(plan: &FaultPlan) -> Self {
        let mut timeline: Vec<(f64, Change)> = Vec::new();
        for (i, ev) in plan.events().iter().enumerate() {
            match &ev.kind {
                FaultKind::Crash { node } => timeline.push((ev.at, Change::Down(*node))),
                FaultKind::CrashRecover { node, down_for } => {
                    timeline.push((ev.at, Change::Down(*node)));
                    timeline.push((ev.at + down_for.max(0.0), Change::Up(*node)));
                }
                FaultKind::Partition { group, heal_after } => {
                    timeline.push((ev.at, Change::PartitionOn(i, group.clone())));
                    if let Some(h) = heal_after {
                        timeline.push((ev.at + h.max(0.0), Change::PartitionOff(i)));
                    }
                }
                FaultKind::LinkLoss {
                    from,
                    to,
                    loss,
                    heal_after,
                } => {
                    let rule = LinkRule {
                        from: Some(*from),
                        to: Some(*to),
                        loss: loss.clamp(0.0, 1.0),
                        dup: 0.0,
                        extra: (0.0, 0.0),
                    };
                    timeline.push((ev.at, Change::RuleOn(i, rule)));
                    if let Some(h) = heal_after {
                        timeline.push((ev.at + h.max(0.0), Change::RuleOff(i)));
                    }
                }
                FaultKind::LinkDuplicate {
                    from,
                    to,
                    dup,
                    heal_after,
                } => {
                    let rule = LinkRule {
                        from: Some(*from),
                        to: Some(*to),
                        loss: 0.0,
                        dup: dup.clamp(0.0, 1.0),
                        extra: (0.0, 0.0),
                    };
                    timeline.push((ev.at, Change::RuleOn(i, rule)));
                    if let Some(h) = heal_after {
                        timeline.push((ev.at + h.max(0.0), Change::RuleOff(i)));
                    }
                }
                FaultKind::LatencySpike {
                    from,
                    to,
                    extra,
                    heal_after,
                } => {
                    let rule = LinkRule {
                        from: Some(*from),
                        to: Some(*to),
                        loss: 0.0,
                        dup: 0.0,
                        extra: (extra.0.max(0.0), extra.1.max(extra.0.max(0.0))),
                    };
                    timeline.push((ev.at, Change::RuleOn(i, rule)));
                    if let Some(h) = heal_after {
                        timeline.push((ev.at + h.max(0.0), Change::RuleOff(i)));
                    }
                }
                FaultKind::UniformLoss { loss, heal_after } => {
                    let rule = LinkRule {
                        from: None,
                        to: None,
                        loss: loss.clamp(0.0, 1.0),
                        dup: 0.0,
                        extra: (0.0, 0.0),
                    };
                    timeline.push((ev.at, Change::RuleOn(i, rule)));
                    if let Some(h) = heal_after {
                        timeline.push((ev.at + h.max(0.0), Change::RuleOff(i)));
                    }
                }
            }
        }
        // Schedule-deterministic ordering: primary key is the activation
        // tick, secondary key is the insertion index. Relying on the sort
        // being stable would give the same order today, but an explicit
        // composite key keeps replays deterministic regardless of sort
        // internals (and survives a future switch to an unstable sort).
        // A NaN tick becomes +∞, a change that never comes, and −0.0
        // becomes 0.0 (`+ 0.0`), so the total order ties them as `<=` does.
        let mut keyed: Vec<(f64, usize, Change)> = timeline
            .into_iter()
            .enumerate()
            .map(|(idx, (at, change))| {
                let at = if at.is_nan() { f64::INFINITY } else { at + 0.0 };
                (at, idx, change)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let timeline: Vec<(f64, Change)> = keyed.into_iter().map(|(at, _, c)| (at, c)).collect();
        PlannedInjector {
            rng: StdRng::seed_from_u64(plan.seed()),
            timeline,
            cursor: 0,
            down: BTreeSet::new(),
            partitions: Vec::new(),
            rules: Vec::new(),
        }
    }

    fn partitioned(&self, from: NodeId, to: NodeId) -> bool {
        self.partitions
            .iter()
            .any(|(_, group)| group.contains(&from) != group.contains(&to))
    }

    /// The tick of the next change [`PlannedInjector::advance`] has yet to
    /// apply, or `None` once none is left at a finite tick. The event
    /// engine wakes at this tick, so a scheduled recovery happens even when
    /// no gossip is in flight; a change at an infinite tick never comes.
    pub fn next_change(&self) -> Option<f64> {
        self.timeline[self.cursor..]
            .iter()
            .map(|&(at, _)| at)
            .find(|at| at.is_finite())
    }

    /// Advances fault state to tick `now`, returning every lifecycle
    /// transition that activated in the interval since the previous call.
    pub fn advance(&mut self, now: f64) -> Vec<FaultTransition> {
        let mut out = Vec::new();
        while self.cursor < self.timeline.len() && self.timeline[self.cursor].0 <= now {
            let (_, change) = &self.timeline[self.cursor];
            match change {
                Change::Down(node) => {
                    if self.down.insert(*node) {
                        out.push(FaultTransition::Crashed(*node));
                    }
                }
                Change::Up(node) => {
                    if self.down.remove(node) {
                        out.push(FaultTransition::Recovered(*node));
                    }
                }
                Change::PartitionOn(id, group) => {
                    self.partitions.push((*id, group.iter().copied().collect()));
                    out.push(FaultTransition::PartitionStarted(group.clone()));
                }
                Change::PartitionOff(id) => {
                    if let Some(pos) = self.partitions.iter().position(|(p, _)| p == id) {
                        let (_, group) = self.partitions.remove(pos);
                        out.push(FaultTransition::PartitionHealed(
                            group.into_iter().collect(),
                        ));
                    }
                }
                Change::RuleOn(id, rule) => self.rules.push((*id, rule.clone())),
                Change::RuleOff(id) => self.rules.retain(|(r, _)| r != id),
            }
            self.cursor += 1;
        }
        out
    }

    /// Whether `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// Decides the fate of one message sent `from → to` at tick `now`.
    /// Stateful: probabilistic faults consume the injector's RNG.
    pub fn message_fate(&mut self, from: NodeId, to: NodeId, _now: f64) -> MessageFate {
        if self.down.contains(&from) || self.down.contains(&to) {
            return MessageFate::dropped();
        }
        if self.partitioned(from, to) {
            return MessageFate::dropped();
        }
        let mut fate = MessageFate::deliver();
        // Collect matching rules first: the RNG draws below must not alias
        // `self` while iterating.
        let matching: Vec<LinkRule> = self
            .rules
            .iter()
            .filter(|(_, r)| r.matches(from, to))
            .map(|(_, r)| r.clone())
            .collect();
        for rule in matching {
            if rule.loss > 0.0 && self.rng.gen_bool(rule.loss) {
                return MessageFate::dropped();
            }
            if rule.dup > 0.0 && self.rng.gen_bool(rule.dup) {
                fate.copies += 1;
            }
            if rule.extra.1 > 0.0 {
                fate.extra_delay += self.rng.gen_range(rule.extra.0..=rule.extra.1);
            }
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn crash_and_recovery_transitions_fire_once() {
        let plan = FaultPlan::new(1)
            .crash_recover(5.0, n(2), 10.0)
            .crash(7.0, n(3));
        let mut inj = plan.injector();
        assert!(inj.advance(4.9).is_empty());
        assert_eq!(inj.advance(5.0), vec![FaultTransition::Crashed(n(2))]);
        assert!(inj.is_down(n(2)));
        assert_eq!(inj.advance(8.0), vec![FaultTransition::Crashed(n(3))]);
        assert_eq!(inj.advance(15.0), vec![FaultTransition::Recovered(n(2))]);
        assert!(!inj.is_down(n(2)));
        assert!(inj.is_down(n(3)), "crash-stop never heals");
        assert!(inj.advance(1000.0).is_empty());
    }

    #[test]
    fn down_endpoints_drop_messages() {
        let plan = FaultPlan::new(1).crash(0.0, n(1));
        let mut inj = plan.injector();
        inj.advance(0.0);
        assert!(inj.message_fate(n(1), n(0), 1.0).is_dropped());
        assert!(inj.message_fate(n(0), n(1), 1.0).is_dropped());
        assert_eq!(inj.message_fate(n(0), n(2), 1.0), MessageFate::deliver());
    }

    #[test]
    fn partition_cuts_cross_links_both_ways_until_heal() {
        let plan = FaultPlan::new(1).partition(2.0, vec![n(0), n(1)], Some(8.0));
        let mut inj = plan.injector();
        inj.advance(1.0);
        assert!(!inj.message_fate(n(0), n(3), 1.0).is_dropped());
        let t = inj.advance(2.0);
        assert_eq!(t, vec![FaultTransition::PartitionStarted(vec![n(0), n(1)])]);
        assert!(inj.message_fate(n(0), n(3), 3.0).is_dropped());
        assert!(inj.message_fate(n(3), n(1), 3.0).is_dropped());
        // Intra-group and outside-group links are unaffected.
        assert!(!inj.message_fate(n(0), n(1), 3.0).is_dropped());
        assert!(!inj.message_fate(n(2), n(3), 3.0).is_dropped());
        let t = inj.advance(10.0);
        assert_eq!(t, vec![FaultTransition::PartitionHealed(vec![n(0), n(1)])]);
        assert!(!inj.message_fate(n(0), n(3), 10.0).is_dropped());
    }

    #[test]
    fn link_rules_apply_only_to_their_edge_and_window() {
        let plan = FaultPlan::new(3).link_loss(0.0, n(0), n(1), 1.0, Some(5.0));
        let mut inj = plan.injector();
        inj.advance(0.0);
        assert!(inj.message_fate(n(0), n(1), 0.0).is_dropped());
        // Reverse direction unaffected.
        assert!(!inj.message_fate(n(1), n(0), 0.0).is_dropped());
        inj.advance(5.0);
        assert!(!inj.message_fate(n(0), n(1), 6.0).is_dropped());
    }

    #[test]
    fn duplication_and_latency_compose() {
        let plan = FaultPlan::new(4)
            .link_duplicate(0.0, n(0), n(1), 1.0, None)
            .latency_spike(0.0, n(0), n(1), (2.0, 2.0), None);
        let mut inj = plan.injector();
        inj.advance(0.0);
        let fate = inj.message_fate(n(0), n(1), 1.0);
        assert_eq!(fate.copies, 2);
        assert!((fate.extra_delay - 2.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_loss_is_probabilistic_and_seeded() {
        let plan = FaultPlan::new(9).uniform_loss(0.0, 0.5, None);
        let run = |plan: &FaultPlan| {
            let mut inj = plan.injector();
            inj.advance(0.0);
            (0..200)
                .map(|i| inj.message_fate(n(i % 4), n((i + 1) % 4), 0.0).is_dropped())
                .collect::<Vec<_>>()
        };
        let a = run(&plan);
        let b = run(&plan);
        assert_eq!(a, b, "same seed, same fates");
        let dropped = a.iter().filter(|&&d| d).count();
        assert!(
            (50..150).contains(&dropped),
            "≈50 % loss, got {dropped}/200"
        );
    }

    #[test]
    fn random_crashes_picks_distinct_hosts_deterministically() {
        let plan = FaultPlan::new(7).random_crashes(10.0, 20, 0.25);
        assert_eq!(plan.events().len(), 5);
        let hosts: BTreeSet<NodeId> = plan
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::Crash { node } => node,
                _ => panic!("only crashes expected"),
            })
            .collect();
        assert_eq!(hosts.len(), 5, "crashed hosts are distinct");
        assert_eq!(plan, FaultPlan::new(7).random_crashes(10.0, 20, 0.25));
    }

    #[test]
    fn equal_tick_changes_apply_in_insertion_order() {
        // A zero-downtime crash-recovery puts Down and Up at the same tick;
        // insertion order (Down first) must win, leaving the node up.
        let plan = FaultPlan::new(1).crash_recover(5.0, n(2), 0.0);
        let mut inj = plan.injector();
        assert_eq!(
            inj.advance(5.0),
            vec![
                FaultTransition::Crashed(n(2)),
                FaultTransition::Recovered(n(2))
            ]
        );
        assert!(!inj.is_down(n(2)));

        // Same tick, opposite insertion order via a recovery scheduled
        // *before* a fresh crash: the node must end up down.
        let plan = FaultPlan::new(1)
            .crash_recover(0.0, n(3), 5.0)
            .crash(5.0, n(3));
        let mut inj = plan.injector();
        inj.advance(0.0);
        assert!(inj.is_down(n(3)));
        let t = inj.advance(5.0);
        assert_eq!(
            t,
            vec![
                FaultTransition::Recovered(n(3)),
                FaultTransition::Crashed(n(3))
            ]
        );
        assert!(inj.is_down(n(3)), "the later-inserted crash wins the tie");
    }

    #[test]
    fn next_change_is_the_next_finite_tick() {
        let plan = FaultPlan::new(1)
            .crash_recover(5.0, n(2), 10.0)
            .crash(f64::INFINITY, n(3));
        let mut inj = plan.injector();
        assert_eq!(inj.next_change(), Some(5.0));
        inj.advance(5.0);
        assert_eq!(inj.next_change(), Some(15.0));
        inj.advance(15.0);
        assert_eq!(inj.next_change(), None, "an infinite tick never comes");
    }

    #[test]
    fn a_nan_tick_never_comes() {
        let mut inj = FaultPlan::new(1)
            .crash(f64::NAN, n(1))
            .crash(1.0, n(2))
            .injector();
        assert_eq!(inj.next_change(), Some(1.0));
        assert_eq!(inj.advance(1.0), vec![FaultTransition::Crashed(n(2))]);
        assert!(inj.is_down(n(2)));
        assert_eq!(inj.next_change(), None, "a NaN tick never comes");
        assert!(inj.advance(f64::MAX).is_empty());
        assert!(!inj.is_down(n(1)));
    }
}
