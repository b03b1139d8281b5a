//! Gossip tracing: a bounded in-memory record of protocol messages.
//!
//! Debugging a decentralized protocol usually starts with "what did node 7
//! actually tell node 3, and when?". [`Trace`] captures one entry per
//! delivered message (round, edge, kind, payload size) in a bounded buffer
//! — enable it with [`crate::SimNetwork::enable_tracing`] or
//! [`crate::AsyncNetwork::enable_tracing`] before running.
//!
//! Faults are first-class trace events: injected crashes, recoveries,
//! partitions and in-flight message losses all appear alongside the
//! regular gossip, so a degraded run can be reconstructed from its trace
//! alone.

use std::collections::BTreeMap;

use bcc_metric::NodeId;
use serde::{Deserialize, Serialize};

/// Message kind, mirroring the gossip payloads plus fault-injection
/// lifecycle events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Algorithm 2 close-node record.
    NodeInfo,
    /// Algorithm 3 CRT row.
    CrtRow,
    /// A message lost in flight (random loss or an injected fault); `from`
    /// and `to` are the intended edge.
    Dropped,
    /// An extra copy delivered by a duplication fault.
    Duplicated,
    /// A delivery delayed by a latency-spike fault (recorded at send time).
    Delayed,
    /// A node crashed (`from == to ==` the node).
    Crash,
    /// A crashed node came back with cleared state (`from == to`).
    Recover,
    /// A network partition activated (`from == to ==` a representative of
    /// the cut-off group; `entries` is the group size).
    PartitionStart,
    /// A network partition healed (same encoding as [`TraceKind::PartitionStart`]).
    PartitionHeal,
}

/// One delivered message or fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event happened: the gossip round (cycle engine) or the
    /// whole simulated second (event engine), 0-based.
    pub round: usize,
    /// Sender (for fault events: the affected node).
    pub from: NodeId,
    /// Receiver (for fault events: the affected node).
    pub to: NodeId,
    /// Payload kind.
    pub kind: TraceKind,
    /// Payload entries (hosts or class columns; group size for partitions).
    pub entries: usize,
    /// Serialized size in bytes (0 for fault lifecycle events).
    pub bytes: usize,
}

/// A bounded message trace; when full, the oldest events are evicted.
///
/// `events()` is always oldest-first; each eviction shifts the buffer
/// (`O(capacity)` per overflowing record), which bounded runs can afford.
/// The whole-run counters ([`Trace::evicted`], [`Trace::dropped_messages`],
/// [`Trace::injected_faults`]) survive eviction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    evicted: u64,
    dropped_messages: u64,
    injected_faults: u64,
}

impl Trace {
    /// Creates a trace holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            events: Vec::with_capacity(capacity.min(1024)),
            capacity,
            evicted: 0,
            dropped_messages: 0,
            injected_faults: 0,
        }
    }

    /// Records one event.
    pub fn record(&mut self, event: TraceEvent) {
        match event.kind {
            TraceKind::Dropped => self.dropped_messages += 1,
            TraceKind::Crash
            | TraceKind::Recover
            | TraceKind::PartitionStart
            | TraceKind::PartitionHeal => self.injected_faults += 1,
            _ => {}
        }
        if self.events.len() == self.capacity {
            self.events.remove(0);
            self.evicted += 1;
        }
        self.events.push(event);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` before anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events *evicted from the buffer* because of the capacity bound.
    ///
    /// This is bookkeeping about the trace itself — not to be confused with
    /// [`Trace::dropped_messages`], which counts simulated messages lost in
    /// flight.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Simulated messages lost in flight ([`TraceKind::Dropped`] events),
    /// counted across the whole run even after the events themselves are
    /// evicted from the bounded buffer.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// Fault lifecycle events recorded (crashes, recoveries, partition
    /// starts/heals), counted across the whole run.
    pub fn injected_faults(&self) -> u64 {
        self.injected_faults
    }

    /// Message counts per directed overlay edge.
    pub fn per_edge_counts(&self) -> BTreeMap<(NodeId, NodeId), u64> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            *out.entry((e.from, e.to)).or_insert(0u64) += 1;
        }
        out
    }

    /// Renders the most recent `limit` events as readable lines.
    pub fn render(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let skip = self.events.len().saturating_sub(limit);
        if self.evicted > 0 || skip > 0 {
            let _ = writeln!(out, "... ({} earlier events)", self.evicted + skip as u64);
        }
        for e in &self.events[skip..] {
            let kind = match e.kind {
                TraceKind::NodeInfo => "NODE",
                TraceKind::CrtRow => "CRT ",
                TraceKind::Dropped => "DROP",
                TraceKind::Duplicated => "DUP ",
                TraceKind::Delayed => "DLAY",
                TraceKind::Crash => "CRSH",
                TraceKind::Recover => "RCVR",
                TraceKind::PartitionStart => "PRT+",
                TraceKind::PartitionHeal => "PRT-",
            };
            let _ = writeln!(
                out,
                "r{:<4} {} {} -> {} ({} entries, {} B)",
                e.round, kind, e.from, e.to, e.entries, e.bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: usize, from: usize, to: usize) -> TraceEvent {
        TraceEvent {
            round,
            from: NodeId::new(from),
            to: NodeId::new(to),
            kind: TraceKind::NodeInfo,
            entries: 3,
            bytes: 17,
        }
    }

    fn fault(round: usize, node: usize, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            round,
            from: NodeId::new(node),
            to: NodeId::new(node),
            kind,
            entries: 0,
            bytes: 0,
        }
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::new(10);
        assert!(t.is_empty());
        t.record(ev(0, 1, 2));
        t.record(ev(1, 2, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].round, 0);
        assert_eq!(t.events()[1].from, NodeId::new(2));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut t = Trace::new(3);
        for r in 0..5 {
            t.record(ev(r, 0, 1));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.evicted(), 2);
        let rounds: Vec<usize> = t.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![2, 3, 4], "the last three, oldest first");
    }

    #[test]
    fn counters_survive_eviction() {
        let mut t = Trace::new(2);
        for r in 0..4 {
            t.record(TraceEvent {
                kind: TraceKind::Dropped,
                ..ev(r, 0, 1)
            });
        }
        t.record(fault(4, 1, TraceKind::Crash));
        t.record(ev(5, 0, 1));
        t.record(ev(6, 0, 1));
        // Every Dropped and Crash event has been evicted from the buffer by
        // now, but the whole-run counters keep their totals.
        assert_eq!(t.dropped_messages(), 4);
        assert_eq!(t.injected_faults(), 1);
        assert_eq!(t.evicted(), 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fault_events_are_counted_and_rendered() {
        let mut t = Trace::new(10);
        t.record(fault(1, 3, TraceKind::Crash));
        t.record(fault(5, 3, TraceKind::Recover));
        t.record(TraceEvent {
            entries: 4,
            ..fault(2, 0, TraceKind::PartitionStart)
        });
        t.record(TraceEvent {
            entries: 4,
            ..fault(6, 0, TraceKind::PartitionHeal)
        });
        assert_eq!(t.injected_faults(), 4);
        let s = t.render(10);
        assert!(s.contains("CRSH"));
        assert!(s.contains("RCVR"));
        assert!(s.contains("PRT+"));
        assert!(s.contains("PRT-"));
    }

    #[test]
    fn per_edge_counts() {
        let mut t = Trace::new(10);
        t.record(ev(0, 1, 2));
        t.record(ev(0, 1, 2));
        t.record(ev(0, 2, 1));
        let counts = t.per_edge_counts();
        assert_eq!(counts[&(NodeId::new(1), NodeId::new(2))], 2);
        assert_eq!(counts[&(NodeId::new(2), NodeId::new(1))], 1);
    }

    #[test]
    fn render_shows_recent_and_elides_old() {
        let mut t = Trace::new(5);
        for r in 0..5 {
            t.record(ev(r, 0, 1));
        }
        let s = t.render(2);
        assert!(s.contains("earlier events"));
        assert!(s.contains("r4"));
        assert!(!s.contains("r1 "));
        assert!(s.contains("NODE"));
    }

    #[test]
    fn render_is_oldest_first_after_eviction() {
        let mut t = Trace::new(3);
        for r in 0..5 {
            t.record(ev(r, 0, 1));
        }
        let s = t.render(3);
        assert!(s.contains("earlier events"));
        let p2 = s.find("r2").expect("r2 rendered");
        let p4 = s.find("r4").expect("r4 rendered");
        assert!(p2 < p4, "render must list oldest first:\n{s}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Trace::new(0);
    }
}
