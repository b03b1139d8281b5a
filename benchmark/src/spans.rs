//! The benchmark's own tracing: spans recorded around the calls it makes
//! into each layer, kept in memory and written out at exit.
//!
//! The stack under test is synchronous and exposes no hooks, so a layer's
//! children cannot be timed in place. Instead a sample of the ops (see
//! the strides below) is *replayed* one layer down through public
//! functions after the real call returned; replay spans name the real span
//! as their parent. A layer's self time is its span's duration minus its
//! children's, as usual — the children just did not run inside the
//! parent's interval.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every this-many-th query burst of a traced pass is replayed layer by
/// layer.
pub const REPLAY_QUERY_EVERY: u64 = 16;

/// Every this-many-th churn op is. Churn ops are a hundred times rarer
/// than queries and cost milliseconds, so they afford a denser sample;
/// snapshots and recoveries, rarer still, are all replayed.
pub const REPLAY_CHURN_EVERY: u64 = 4;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    /// How many ops this one stands for if it was replayed (its sampling
    /// stride), 0 if it was not — child spans exist only when positive.
    pub weight: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A started interval; hand it back to [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    start: Instant,
    id: Option<u32>,
}

impl Open {
    /// The span's index, for children to name as parent (`None` when the
    /// tracer is off).
    pub fn id(&self) -> Option<u32> {
        self.id
    }
}

/// Span recorder. Off, it still times what [`Tracer::begin`] /
/// [`Tracer::end`] bracket (the op latency the run needs anyway) but
/// records nothing and [`Tracer::span`] is a plain call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    op: u64,
    weight: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            op: 0,
            weight: u64::from(on),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Moves to the next op. `stride` is `Some(n)` when the op is one of
    /// the sample to replay, drawn one in `n` (ignored while the tracer is
    /// off).
    pub fn next_op(&mut self, stride: Option<u64>) {
        self.op += 1;
        self.weight = if self.on { stride.unwrap_or(0) } else { 0 };
    }

    /// Whether the current op is to be replayed layer by layer.
    pub fn replaying(&self) -> bool {
        self.weight > 0
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts an interval.
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> Open {
        let id = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op,
                weight: self.weight,
            });
            (self.spans.len() - 1) as u32
        });
        Open {
            start: Instant::now(),
            id,
        }
    }

    /// Ends an interval, returning its length in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            let (start_ns, end_ns) = (self.ns(open.start), self.ns(end));
            let span = &mut self.spans[id as usize];
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span (a plain call when the tracer is off),
    /// returning its result and the span's index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<u32>) {
        if !self.on {
            return (f(), None);
        }
        let open = self.begin(name, parent);
        let id = open.id;
        let out = f();
        self.end(open);
        (out, id)
    }

    /// Names `parent` as the cause of `child`. A replay that needs the
    /// state *before* the real call runs first and is linked afterwards.
    pub fn set_parent(&mut self, child: Option<u32>, parent: Option<u32>) {
        if let Some(c) = child {
            self.spans[c as usize].parent = parent;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as a JSON document: one
    /// `[name, start_ns, end_ns, parent, op, weight]` row per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \
             \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\", \"weight\"], \
             \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[\"{}\", {}, {}, {parent}, {}, {}]{sep}",
                s.name, s.start_ns, s.end_ns, s.op, s.weight
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration.
    pub total_ns: u64,
    /// Spans belonging to replayed ops — the ones whose children exist.
    pub sampled: u64,
    /// Summed self time of those: duration minus children, floored at zero
    /// per span (a replay can run longer than the call it mirrors).
    pub self_ns: u64,
    /// Duration and self time of the replayed spans with each counted
    /// `weight` times: estimates of the totals over all ops, which is what
    /// shares must be taken of when op kinds are sampled at different
    /// strides.
    pub weighted_total_ns: u64,
    pub weighted_self_ns: u64,
}

impl LayerTime {
    /// Mean duration in nanoseconds over every span.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }

    /// Mean self time in nanoseconds over replayed ops.
    pub fn self_mean_ns(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.sampled as f64)
    }

    /// The two pooled, as if both names had been one.
    pub fn plus(self, other: LayerTime) -> LayerTime {
        LayerTime {
            count: self.count + other.count,
            total_ns: self.total_ns + other.total_ns,
            sampled: self.sampled + other.sampled,
            self_ns: self.self_ns + other.self_ns,
            weighted_total_ns: self.weighted_total_ns + other.weighted_total_ns,
            weighted_self_ns: self.weighted_self_ns + other.weighted_self_ns,
        }
    }
}

/// Per-name totals and self times.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, &kids) in spans.iter().zip(&children) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        if s.weight > 0 {
            let own = s.dur_ns().saturating_sub(kids);
            t.sampled += 1;
            t.self_ns += own;
            t.weighted_total_ns += s.weight * s.dur_ns();
            t.weighted_self_ns += s.weight * own;
        }
    }
    out
}

/// Root spans are the benchmark's own (`op.*`): their self time belongs to
/// no layer.
pub fn is_root(name: &str) -> bool {
    name.starts_with("op.")
}

/// Reference rows (`ref.*`) time an alternative the system does not run,
/// such as the pair sweep; they are part of no op.
pub fn is_reference(name: &str) -> bool {
    name.starts_with("ref.")
}

/// `1 − Σ layer self time / Σ root duration` over replayed ops, each
/// weighted by its stride. Positive: time inside an op that no layer span
/// covers. Negative: replays ran longer than the calls they mirror.
pub fn unattributed_share(layers: &BTreeMap<&'static str, LayerTime>) -> f64 {
    let (mut roots, mut selfs) = (0u64, 0u64);
    for (name, t) in layers {
        if is_root(name) {
            roots += t.weighted_total_ns;
        } else if !is_reference(name) {
            selfs += t.weighted_self_ns;
        }
    }
    if roots == 0 {
        0.0
    } else {
        1.0 - selfs as f64 / roots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            weight: u64::from(op.is_multiple_of(16)),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op 16 (replayed): root 100 → a 90 → {b 30, c 40}; the replays b
        // and c run after a ended, as they do in a real trace.
        // op 17 (not replayed): root 50 → a 45, no children recorded.
        let spans = vec![
            span("op.query", 0, 100, None, 16),
            span("a", 5, 95, Some(0), 16),
            span("b", 200, 230, Some(1), 16),
            span("c", 240, 280, Some(1), 16),
            span("op.query", 300, 350, None, 17),
            span("a", 302, 347, Some(4), 17),
        ];
        let layers = aggregate(&spans);
        let a = layers["a"];
        assert_eq!((a.count, a.total_ns), (2, 135));
        assert_eq!((a.sampled, a.self_ns), (1, 20));
        assert_eq!(layers["b"].self_ns, 30);
        assert_eq!(layers["c"].self_ns, 40);
        assert_eq!(layers["op.query"].self_ns, 10);
        // 90 of the replayed root's 100 ns sit in layers a, b and c.
        assert!((unattributed_share(&layers) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_replay_longer_than_its_parent_floors_self_time_at_zero() {
        let spans = vec![
            span("op.query", 0, 100, None, 32),
            span("a", 0, 100, Some(0), 32),
            span("b", 200, 320, Some(1), 32),
        ];
        let layers = aggregate(&spans);
        assert_eq!(layers["a"].self_ns, 0);
        assert!(unattributed_share(&layers) < 0.0);
    }

    #[test]
    fn off_tracer_times_ops_but_records_nothing() {
        let mut t = Tracer::new(false);
        t.next_op(Some(1));
        assert!(!t.replaying());
        let open = t.begin("op.query", None);
        assert_eq!(open.id(), None);
        assert_eq!(t.span("x", None, || 7), (7, None));
        let _ns = t.end(open);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn on_tracer_links_children_and_marks_replayed_ops() {
        let mut t = Tracer::new(true);
        t.next_op(None);
        t.span("unsampled", None, || ());
        t.next_op(Some(16));
        t.span("sampled", None, || ());
        assert_eq!(
            t.spans()
                .iter()
                .map(|s| (s.op, s.weight))
                .collect::<Vec<_>>(),
            [(1, 0), (2, 16)]
        );
        let mut t = Tracer::new(true);
        let root = t.begin("op.query", None);
        t.span("layer", root.id(), || ());
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        let (_, early) = t.span("replayed-first", None, || ());
        t.set_parent(early, Some(1));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(crate::json::Json::parse(&t.to_json("w")).is_ok());
    }
}
