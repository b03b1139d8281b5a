//! What the pass loop needs from a system under test.

use std::collections::BTreeMap;

use bcc_embed::PredictionFramework;
use bcc_metric::{DistanceMatrix, NodeId};
use bcc_simnet::DynamicSystem;

use crate::check::Violation;
use crate::gen::{ChurnKind, Query, Spec};
use crate::spans::Tracer;

/// One query's answer, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub cluster: Option<Vec<NodeId>>,
    /// Bandwidth class the system snapped the query to.
    pub class_idx: usize,
    /// Served from a result cache.
    pub cached: bool,
}

/// Outcome of one timed call (or group of calls) into the system.
#[derive(Debug)]
pub struct Timed {
    /// Duration of the op proper, nanoseconds.
    pub ns: u64,
    /// Persistence ops that rode along (journal append, recovery) and
    /// their summed duration.
    pub extra_ops: u64,
    pub extra_ns: u64,
    /// `Err` when the system refused or failed the op.
    pub result: Result<(), String>,
}

impl Timed {
    pub fn ok(ns: u64) -> Self {
        Timed {
            ns,
            extra_ops: 0,
            extra_ns: 0,
            result: Ok(()),
        }
    }
}

/// Monotone logical counters, read before and after a pass.
pub type Counters = BTreeMap<&'static str, u64>;

/// A system under test, driven through its public API only. When the
/// tracer says the current op is one to replay, a call also replays itself
/// one layer down (see `spans`).
pub trait Target: Sized {
    /// Generates the workload's universe and bootstraps the stack over
    /// `joined`. With the tracer on, set-up is recorded layer by layer.
    fn setup(spec: &Spec, joined: &[u32], tr: &mut Tracer) -> Self;

    /// Sends one burst (`submit`s then one `drain`, or one call per query)
    /// and returns its latency with the answers in submission order.
    fn burst(&mut self, queries: &[Query], tr: &mut Tracer) -> (u64, Result<Vec<Answer>, String>);

    /// Applies one membership op.
    fn churn(&mut self, kind: ChurnKind, host: u32, tr: &mut Tracer) -> Timed;

    /// Takes a snapshot, where the stack has a store.
    fn snapshot(&mut self, tr: &mut Tracer) -> Option<Timed>;

    /// Ends a pass: a durable stack recovers from its store and compares
    /// the recovered system with the live one.
    fn end_pass(&mut self, tr: &mut Tracer) -> Option<Timed>;

    /// Validates one answer against the system's membership and metric.
    fn check(&self, query: &Query, answer: &Answer) -> Result<(), Violation>;

    /// Membership epoch; an answer checked at an epoch stays valid in it.
    fn epoch(&self) -> u64;

    /// The invariants that must hold after the last pass.
    fn invariants(&self) -> Result<(), String>;

    /// Current values of the logical counters.
    fn counters(&self) -> Counters;

    /// Hosts currently joined.
    fn live(&self) -> usize;

    /// Mean nanoseconds of one label-distance evaluation over live pairs.
    fn label_dist_ns(&self) -> f64;

    /// Encoded size of a snapshot of the current state, where the stack
    /// has a store.
    fn snapshot_size(&self) -> Option<usize>;
}

/// Reads process-global `bcc-obs` counters into `out`.
pub fn read_obs(out: &mut Counters, names: &[&'static str]) {
    for &name in names {
        out.insert(name, bcc_obs::registry().counter(name).get());
    }
}

/// `bcc-obs` counters every stack reports.
pub const OBS_COUNTERS: [&str; 5] = [
    "core.find_cluster.pairs_scanned",
    "core.index.pair_candidates",
    "core.index.rows_pruned",
    "par.calls",
    "par.tasks",
];

/// Replays the embedding half of a churn op on `fw`, a clone of the pre-op
/// framework, against the ground-truth metric `real`. Returns the replay
/// span and, for a departure, the orphans it re-embedded.
pub fn replay_embed(
    fw: &mut PredictionFramework,
    kind: ChurnKind,
    node: NodeId,
    real: &DistanceMatrix,
    tr: &mut Tracer,
) -> (Option<u32>, Option<Vec<NodeId>>) {
    let oracle = |a: NodeId, b: NodeId| real.get(a.index(), b.index());
    match kind {
        ChurnKind::Join | ChurnKind::Recover => {
            let (res, id) = tr.span("embed.join", None, || fw.join(node, oracle));
            res.expect("replayed join mirrors a valid op");
            (id, None)
        }
        ChurnKind::Leave | ChurnKind::Crash => {
            let (res, id) = tr.span("embed.leave", None, || fw.leave_reporting(node, oracle));
            (id, Some(res.expect("replayed leave mirrors a valid op")))
        }
    }
}

/// Mean nanoseconds per call of `dist` over a fixed walk of `ids` pairs.
pub fn label_dist_ns(ids: &[u32], dist: impl Fn(u32, u32) -> f64) -> f64 {
    const EVALS: usize = 100_000;
    if ids.len() < 2 {
        return 0.0;
    }
    let start = std::time::Instant::now();
    let mut sink = 0.0;
    for i in 0..EVALS {
        let a = ids[i % ids.len()];
        let b = ids[(i * 7 + 1) % ids.len()];
        sink += std::hint::black_box(dist(a, b));
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / EVALS as f64
}

/// The post-run invariants of one `DynamicSystem`: the live overlay is the
/// one a cold restart would reach, and neither the overlay nor the index
/// was rebuilt from scratch since bootstrap.
pub fn system_invariants(sys: &DynamicSystem, base: (u64, u64)) -> Result<(), String> {
    let cold = sys
        .cold_restart_digest()
        .map_err(|e| format!("cold restart failed: {e}"))?;
    if sys.live_digest() != cold {
        return Err("live overlay digest differs from a cold restart's".into());
    }
    let now = (
        sys.overlay_stats().full_reconvergences,
        sys.cluster_index().stats().full_builds,
    );
    if now != base {
        return Err(format!(
            "full rebuilds since bootstrap: overlay {} → {}, index {} → {}",
            base.0, now.0, base.1, now.1
        ));
    }
    Ok(())
}
