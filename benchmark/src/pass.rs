//! The closed loop: one generator thread sends an op, waits for the
//! reply, checks it, and sends the next.

use std::collections::HashMap;

use crate::gen::{Generator, Query, Spec, Stack};
use crate::spans::{Tracer, REPLAY_CHURN_EVERY, REPLAY_QUERY_EVERY};
use crate::stats::{fnv1a_u64, FNV_OFFSET};
use crate::target::{Answer, Target};

/// At most this many failure descriptions are kept for the report.
const MAX_ERRORS: usize = 8;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Ops sent: every query, churn op, journal append, snapshot, recovery.
    pub ops: u64,
    /// Summed duration of the calls that served them, nanoseconds.
    pub busy_ns: u64,
    /// Per-query latency, microseconds (a burst's latency for each of its
    /// queries: nobody gets an answer before `drain` returns).
    pub query_us: Vec<f64>,
    /// Per-churn-op latency, milliseconds.
    pub churn_ms: Vec<f64>,
    pub queries: u64,
    pub found: u64,
    pub failed: u64,
    /// Time and size of the bursts served wholly from cache.
    pub hit_ns: u64,
    pub hit_queries: u64,
    pub errors: Vec<String>,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        crate::stats::ratio(self.ops as f64 * 1e9, self.busy_ns as f64)
    }

    fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }
}

/// State that outlives a pass: the answer-stream digest and the memo of
/// answers already checked in the current epoch.
#[derive(Debug)]
pub struct Checker {
    /// FNV-1a over the ordered answer stream.
    pub digest: u64,
    /// Per query key: `(epoch, cluster hash)` of the last answer that
    /// passed the check. The check is a pure function of the cluster and
    /// the epoch's state, so a repeat (a cache hit, typically) is skipped.
    verified: HashMap<Query, (u64, u64)>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            digest: FNV_OFFSET,
            verified: HashMap::new(),
        }
    }
}

fn cluster_hash(answer: &Answer) -> u64 {
    match &answer.cluster {
        None => 0,
        Some(c) => c
            .iter()
            .fold(fnv1a_u64(FNV_OFFSET, c.len() as u64), |h, n| {
                fnv1a_u64(h, n.index() as u64)
            }),
    }
}

/// Runs `cycles` cycles of the workload against `target`.
pub fn run_pass<T: Target>(
    target: &mut T,
    gen: &mut Generator,
    spec: &Spec,
    cycles: usize,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> Pass {
    let mut pass = Pass::default();
    let (mut bursts, mut churns) = (0u64, 0u64);
    let snapshot_every = match spec.stack {
        Stack::Durable { snapshot_every } => snapshot_every,
        _ => usize::MAX,
    };
    for i in 0..cycles {
        let cycle = gen.next_cycle();
        for burst in &cycle.bursts {
            bursts += 1;
            tr.next_op((bursts % REPLAY_QUERY_EVERY == 0).then_some(REPLAY_QUERY_EVERY));
            let (ns, answers) = target.burst(burst, tr);
            let n = burst.len() as u64;
            pass.ops += n;
            pass.busy_ns += ns;
            pass.queries += n;
            let us = ns as f64 / 1e3;
            pass.query_us.extend(std::iter::repeat_n(us, burst.len()));
            let answers = match answers {
                Ok(a) => a,
                Err(e) => {
                    pass.fail(n, e);
                    continue;
                }
            };
            if answers.iter().all(|a| a.cached) {
                pass.hit_ns += ns;
                pass.hit_queries += n;
            }
            let epoch = target.epoch();
            for (q, a) in burst.iter().zip(&answers) {
                let hash = cluster_hash(a);
                checker.digest = fnv1a_u64(
                    checker.digest,
                    u64::from(q.start) | (q.k as u64) << 32 | (q.class as u64) << 56,
                );
                checker.digest = fnv1a_u64(checker.digest, hash);
                pass.found += u64::from(a.cluster.is_some());
                if checker.verified.get(q) == Some(&(epoch, hash)) {
                    continue;
                }
                match target.check(q, a) {
                    Ok(()) => {
                        checker.verified.insert(*q, (epoch, hash));
                    }
                    Err(v) => pass.fail(1, format!("query {q:?}: {v}")),
                }
            }
        }

        churns += 1;
        tr.next_op((churns % REPLAY_CHURN_EVERY == 0).then_some(REPLAY_CHURN_EVERY));
        let (kind, host) = cycle.churn;
        let timed = target.churn(kind, host, tr);
        pass.ops += 1 + timed.extra_ops;
        pass.busy_ns += timed.ns + timed.extra_ns;
        pass.churn_ms.push(timed.ns as f64 / 1e6);
        if let Err(e) = timed.result {
            pass.fail(1, e);
        }
        if target.live() != gen.live() {
            pass.fail(
                1,
                format!("system holds {} hosts, model {}", target.live(), gen.live()),
            );
        }

        if (i + 1) % snapshot_every == 0 {
            tr.next_op(Some(1));
            if let Some(timed) = target.snapshot(tr) {
                pass.ops += 1;
                pass.busy_ns += timed.ns;
            }
        }
    }
    tr.next_op(Some(1));
    if let Some(timed) = target.end_pass(tr) {
        pass.ops += 1;
        pass.busy_ns += timed.ns;
        if let Err(e) = timed.result {
            pass.fail(1, e);
        }
    }
    pass
}
