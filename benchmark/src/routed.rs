//! The single-instance stack: `ClusterService` → `DynamicSystem` →
//! `SimNetwork` routing → `ClusterNode` local search, optionally with a
//! `SnapshotStore` beside it.

use bcc_core::{find_cluster_indexed, ClusterIndex};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, NodeId};
use bcc_service::{ClusterQuery, ClusterService, ServiceConfig, Tier};
use bcc_simnet::{
    fw_label_dist, ChurnOp, DynamicSystem, MemStorage, SnapshotStore, SystemConfig, SystemSnapshot,
};

use crate::check::{check_cluster, Violation};
use crate::gen::{ChurnKind, Query, Spec, Stack};
use crate::spans::Tracer;
use crate::target::{
    label_dist_ns, read_obs, replay_embed, system_invariants, Answer, Counters, Target, Timed,
    OBS_COUNTERS,
};
use crate::universe;

/// Every this-many-th replayed node visit also runs the pair sweep, the
/// naive reference row (it is `O(n³)` on a large clustering space).
const SWEEP_EVERY: u64 = 8;

/// Sums the benchmark keeps beside the system's own counters; all updated
/// outside timed sections.
#[derive(Debug, Default, Clone)]
struct Sums {
    queries: u64,
    executed: u64,
    hops: u64,
    visits: u64,
    churn_ops: u64,
    overlay_rounds: u64,
    overlay_region: u64,
    journal_ops: u64,
    journal_bytes: u64,
    replayed_ops: u64,
    recoveries: u64,
    /// Replay-only observations (traced pass).
    spaces: u64,
    space_hosts: u64,
    leaves_replayed: u64,
    orphans: u64,
}

/// `ClusterService` under test, with its durable store when the workload
/// has one.
pub struct Routed {
    svc: ClusterService,
    bandwidth: BandwidthMatrix,
    config: SystemConfig,
    store: Option<SnapshotStore<MemStorage>>,
    /// Ground-truth distances for the embedding replays (traced runs).
    real: Option<DistanceMatrix>,
    /// Label distances of the current epoch for the node-visit replays: the
    /// overlay's own predicted matrix is private, and a replay that paid a
    /// label walk per pair would not mirror the matrix lookups it stands for.
    predicted: Option<(u64, DistanceMatrix)>,
    /// Newest snapshot's bytes, kept in traced passes for the decode replay.
    snapshot_bytes: Vec<u8>,
    /// `full_reconvergences` / `full_builds` right after bootstrap.
    base: (u64, u64),
    sums: Sums,
}

impl Routed {
    fn bandwidth_of(&self, class: usize) -> f64 {
        self.config.protocol.classes.bandwidth_of(class)
    }

    /// Replays one executed query layer by layer under `parent` (the
    /// `service.tick` span that executed it).
    fn replay_query(&mut self, q: &Query, tr: &mut Tracer, parent: Option<u32>) {
        let epoch = self.svc.system().epoch();
        if self.predicted.as_ref().map(|p| p.0) != Some(epoch) {
            let sys = self.svc.system();
            let mut m = DistanceMatrix::new(sys.universe_size());
            let ids: Vec<u32> = sys.active().map(|h| h.index() as u32).collect();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    m.set(a as usize, b as usize, fw_label_dist(sys.framework(), a, b));
                }
            }
            self.predicted = Some((epoch, m));
        }
        let predicted = &self.predicted.as_ref().expect("just built").1;
        let sys = self.svc.system();
        let retry = self.svc.config().retry;
        let b = self.bandwidth_of(q.class);
        let start = NodeId::new(q.start as usize);
        let (outcome, query_id) = tr.span("simnet.query", parent, || {
            sys.query_resilient_indexed(start, q.k, b, &retry)
        });
        let Ok(outcome) = outcome else { return };
        let net = sys.network().expect("a served query implies an overlay");
        let classes = &self.config.protocol.classes;
        let l = classes.distance_of(q.class);
        let dist = |a: NodeId, b: NodeId| predicted.get(a.index(), b.index());
        let alive = |u: NodeId| !net.is_down(u);
        for &hop in &outcome.path {
            let node = &net.nodes()[hop.index()];
            let (_, visit_id) = tr.span("core.node_visit", query_id, || {
                node.answer_locally_filtered_indexed(q.k, q.class, classes, dist, alive)
            });
            if q.k > node.own_max()[q.class] {
                continue; // the routing table said no: the visit did no search
            }
            let ((space, local), _) = tr.span("core.space_matrix", visit_id, || {
                let space: Vec<NodeId> = node
                    .clustering_space()
                    .into_iter()
                    .filter(|&u| alive(u))
                    .collect();
                let local = DistanceMatrix::from_fn(space.len(), |i, j| dist(space[i], space[j]));
                (space, local)
            });
            let (index, _) = tr.span("core.index_build", visit_id, || {
                ClusterIndex::from_metric(&local)
            });
            tr.span("core.kernel", visit_id, || {
                find_cluster_indexed(&local, &index, q.k, l)
            });
            self.sums.spaces += 1;
            self.sums.space_hosts += space.len() as u64;
            if self.sums.spaces.is_multiple_of(SWEEP_EVERY) {
                tr.span("ref.node_visit_sweep", None, || {
                    node.answer_locally_filtered(q.k, q.class, classes, dist, alive)
                });
            }
        }
    }

    /// Replays the embedding and index halves of a churn op on clones of
    /// the pre-op state; returns the replay spans to link under the real
    /// call once it has run.
    fn replay_churn(&mut self, kind: ChurnKind, host: u32, tr: &mut Tracer) -> [Option<u32>; 2] {
        let sys = self.svc.system();
        let real = self.real.as_ref().expect("traced set-up keeps the metric");
        let mut fw = sys.framework().clone();
        let mut index = sys.cluster_index().clone();
        let node = NodeId::new(host as usize);
        let (embed_id, orphans) = replay_embed(&mut fw, kind, node, real, tr);
        let (removed, touched) = match orphans {
            None => (Vec::new(), vec![host]),
            Some(orphans) => {
                self.sums.leaves_replayed += 1;
                self.sums.orphans += orphans.len() as u64;
                (
                    vec![host],
                    orphans.iter().map(|h| h.index() as u32).collect(),
                )
            }
        };
        let (res, index_id) = tr.span("core.index_apply_churn", None, || {
            index.apply_churn(&removed, &touched, |a, b| fw_label_dist(&fw, a, b))
        });
        res.expect("replayed index delta mirrors a valid op");
        [embed_id, index_id]
    }
}

impl Target for Routed {
    /// With the tracer on, the cold index build is also timed once on the
    /// side.
    fn setup(spec: &Spec, joined: &[u32], tr: &mut Tracer) -> Self {
        let root = tr.begin("op.setup", None);
        let (bandwidth, _) = tr.span("datasets.generate", root.id(), || {
            universe::umd_like(spec.hosts)
        });
        let config = universe::system_config();
        let hosts: Vec<NodeId> = joined.iter().map(|&h| NodeId::new(h as usize)).collect();
        let (system, _) = tr.span("simnet.bootstrap", root.id(), || {
            DynamicSystem::bootstrap(bandwidth.clone(), config.clone(), &hosts)
                .expect("fixture universe bootstraps")
        });
        let svc = ClusterService::new(system, ServiceConfig::default())
            .expect("default service config is valid");
        let store = matches!(spec.stack, Stack::Durable { .. }).then(|| {
            let mut store = SnapshotStore::new(MemStorage::new());
            tr.span("persist.snapshot", root.id(), || {
                store.snapshot(svc.system())
            });
            store
        });
        tr.end(root);

        let real = tr.is_on().then(|| {
            let (real, _) = tr.span("metric.distance_matrix", None, || {
                config.transform.distance_matrix(&bandwidth)
            });
            tr.span("core.index_cold_build", None, || {
                svc.system().rebuild_index_cold()
            });
            real
        });
        let sys = svc.system();
        let base = (
            sys.overlay_stats().full_reconvergences,
            sys.cluster_index().stats().full_builds,
        );
        Routed {
            svc,
            bandwidth,
            config,
            store,
            real,
            predicted: None,
            snapshot_bytes: Vec::new(),
            base,
            sums: Sums::default(),
        }
    }

    fn burst(&mut self, queries: &[Query], tr: &mut Tracer) -> (u64, Result<Vec<Answer>, String>) {
        let batch: Vec<ClusterQuery> = queries
            .iter()
            .map(|q| {
                ClusterQuery::new(
                    NodeId::new(q.start as usize),
                    q.k,
                    self.bandwidth_of(q.class),
                )
            })
            .collect();
        let svc = &mut self.svc;
        let root = tr.begin("op.query", None);
        let (refused, _) = tr.span("service.submit", root.id(), || {
            batch.iter().find_map(|&q| svc.submit(q).err())
        });
        let (responses, tick_id) = tr.span("service.tick", root.id(), || svc.drain());
        let ns = tr.end(root);

        if let Some(e) = refused {
            return (ns, Err(format!("submit refused: {e}")));
        }
        if responses.len() != queries.len() {
            return (
                ns,
                Err(format!(
                    "{} responses to {} queries",
                    responses.len(),
                    queries.len()
                )),
            );
        }
        let mut answers = Vec::with_capacity(responses.len());
        let mut first_executed = None;
        for (i, r) in responses.into_iter().enumerate() {
            if r.tier != Tier::Exact {
                return (ns, Err(format!("degraded answer: {:?}", r.tier)));
            }
            let outcome = match r.outcome {
                Ok(o) => o,
                Err(e) => return (ns, Err(format!("query failed: {e}"))),
            };
            self.sums.queries += 1;
            if !r.cached {
                self.sums.executed += 1;
                self.sums.hops += outcome.hops as u64;
                self.sums.visits += outcome.path.len() as u64;
                first_executed.get_or_insert(i);
            }
            answers.push(Answer {
                cluster: outcome.cluster,
                class_idx: r.class_idx,
                cached: r.cached,
            });
        }
        if let (true, Some(i)) = (tr.replaying(), first_executed) {
            self.replay_query(&queries[i], tr, tick_id);
        }
        (ns, Ok(answers))
    }

    fn churn(&mut self, kind: ChurnKind, host: u32, tr: &mut Tracer) -> Timed {
        let replays = if tr.replaying() {
            self.replay_churn(kind, host, tr)
        } else {
            [None, None]
        };
        let node = NodeId::new(host as usize);
        let svc = &mut self.svc;
        let root = tr.begin("op.churn", None);
        let (result, call_id) = match kind {
            ChurnKind::Join => tr.span("simnet.join", root.id(), || svc.join(node)),
            ChurnKind::Leave => tr.span("simnet.leave", root.id(), || svc.leave(node)),
            ChurnKind::Crash => tr.span("simnet.crash", root.id(), || svc.crash(node)),
            ChurnKind::Recover => tr.span("simnet.recover", root.id(), || svc.recover(node)),
        };
        let mut timed = Timed::ok(tr.end(root));
        for id in replays {
            tr.set_parent(id, call_id);
        }
        if let Err(e) = result {
            timed.result = Err(format!("{} {host} failed: {e}", kind.name()));
            return timed;
        }
        let overlay = self.svc.system().overlay_stats();
        self.sums.churn_ops += 1;
        self.sums.overlay_rounds += overlay.last_rounds;
        self.sums.overlay_region += overlay.last_region;

        if let Some(store) = &mut self.store {
            let op = match kind {
                ChurnKind::Join => ChurnOp::Join,
                ChurnKind::Leave => ChurnOp::Leave,
                ChurnKind::Crash => ChurnOp::Crash,
                ChurnKind::Recover => ChurnOp::Recover,
            };
            let epoch = self.svc.system().epoch();
            let before = store.storage().total_bytes();
            let root = tr.begin("op.persist", None);
            tr.span("persist.log", root.id(), || store.log(op, node, epoch));
            timed.extra_ns = tr.end(root);
            timed.extra_ops = 1;
            self.sums.journal_ops += 1;
            self.sums.journal_bytes += (store.storage().total_bytes() - before) as u64;
        }
        timed
    }

    fn snapshot(&mut self, tr: &mut Tracer) -> Option<Timed> {
        let store = self.store.as_mut()?;
        let sys = self.svc.system();
        let root = tr.begin("op.persist", None);
        let (_, call_id) = tr.span("persist.snapshot", root.id(), || store.snapshot(sys));
        let ns = tr.end(root);
        if tr.replaying() {
            let (snap, _) = tr.span("persist.capture", call_id, || SystemSnapshot::capture(sys));
            let (bytes, _) = tr.span("persist.encode", call_id, || snap.encode());
            self.snapshot_bytes = bytes;
        }
        Some(Timed::ok(ns))
    }

    fn end_pass(&mut self, tr: &mut Tracer) -> Option<Timed> {
        let store = self.store.as_ref()?;
        let (bandwidth, config) = (&self.bandwidth, &self.config);
        let root = tr.begin("op.persist", None);
        let (recovered, call_id) = tr.span("persist.recover", root.id(), || {
            store.recover(bandwidth, config)
        });
        let mut timed = Timed::ok(tr.end(root));
        let live = self.svc.system();
        timed.result = match recovered {
            Err(e) => Err(format!("recovery failed: {e}")),
            Ok((sys, report)) => {
                self.sums.recoveries += 1;
                self.sums.replayed_ops += report.replayed_ops as u64;
                if (sys.live_digest(), sys.epoch(), sys.index_stamp())
                    != (live.live_digest(), live.epoch(), live.index_stamp())
                {
                    Err("recovered system differs from the live one".to_string())
                } else if !report.skipped_generations.is_empty() {
                    Err("recovery skipped a generation on clean storage".to_string())
                } else {
                    Ok(())
                }
            }
        };
        // Decode and restore of the newest snapshot; what remains of the
        // call is the journal replay.
        if tr.replaying() && !self.snapshot_bytes.is_empty() {
            let bytes = &self.snapshot_bytes;
            let (snap, _) = tr.span("persist.decode", call_id, || SystemSnapshot::decode(bytes));
            if let Ok(snap) = snap {
                let _ = tr.span("persist.restore", call_id, || {
                    snap.restore(bandwidth, config)
                });
            }
        }
        Some(timed)
    }

    fn check(&self, query: &Query, answer: &Answer) -> Result<(), Violation> {
        let Some(cluster) = &answer.cluster else {
            return Ok(());
        };
        let sys = self.svc.system();
        check_cluster(
            cluster,
            query.k,
            self.config.protocol.classes.distance_of(answer.class_idx),
            |h| sys.is_active(h) && !sys.is_crashed(h),
            |a, b| fw_label_dist(sys.framework(), a.index() as u32, b.index() as u32),
        )
    }

    fn epoch(&self) -> u64 {
        self.svc.system().epoch()
    }

    fn invariants(&self) -> Result<(), String> {
        system_invariants(self.svc.system(), self.base)
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        let s = &self.sums;
        let stats = self.svc.stats();
        let cache = self.svc.cache_stats();
        let sys = self.svc.system();
        let overlay = sys.overlay_stats();
        let index = sys.cluster_index().stats();
        for (name, value) in [
            ("queries", s.queries),
            ("executed", s.executed),
            ("hops", s.hops),
            ("visits", s.visits),
            ("churn_ops", s.churn_ops),
            ("service.submitted", stats.submitted),
            ("service.shed", stats.shed),
            ("service.breaker_shed", stats.breaker_shed),
            ("service.batches", stats.batches),
            ("service.coalesced", stats.coalesced),
            (
                "service.degraded",
                stats.degraded_stale + stats.degraded_partial,
            ),
            ("service.cache_lookups", cache.lookups),
            ("service.cache_hits", cache.hits),
            ("service.cache_invalidated", cache.invalidated),
            ("service.cache_evicted", cache.evicted),
            ("overlay.messages", overlay.messages),
            ("overlay.predicted_entries", overlay.predicted_entries),
            ("overlay.rounds", s.overlay_rounds),
            ("overlay.region", s.overlay_region),
            (
                "overlay.full_reconvergences",
                overlay.full_reconvergences - self.base.0,
            ),
            ("index.rows_rebuilt", index.rows_rebuilt),
            ("index.full_builds", index.full_builds - self.base.1),
            ("persist.journal_ops", s.journal_ops),
            ("persist.journal_bytes", s.journal_bytes),
            ("persist.replayed_ops", s.replayed_ops),
            ("persist.recoveries", s.recoveries),
            ("replay.spaces", s.spaces),
            ("replay.space_hosts", s.space_hosts),
            ("replay.leaves", s.leaves_replayed),
            ("replay.orphans", s.orphans),
        ] {
            c.insert(name, value);
        }
        read_obs(&mut c, &OBS_COUNTERS);
        c
    }

    fn live(&self) -> usize {
        self.svc.system().len()
    }

    fn label_dist_ns(&self) -> f64 {
        let sys = self.svc.system();
        let ids: Vec<u32> = sys.active().map(|h| h.index() as u32).collect();
        label_dist_ns(&ids, |a, b| fw_label_dist(sys.framework(), a, b))
    }

    fn snapshot_size(&self) -> Option<usize> {
        self.store
            .as_ref()
            .map(|_| SystemSnapshot::capture(self.svc.system()).encode().len())
    }
}
