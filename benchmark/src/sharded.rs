//! The sharded stack: `Coordinator` → `ShardInstance` region indexes and
//! per-shard `ClusterService`s, queried through `cluster_near`.

use bcc_core::find_cluster_among;
use bcc_metric::{DistanceMatrix, NodeId};
use bcc_service::ServiceConfig;
use bcc_shard::{Coordinator, ShardPlan};
use bcc_simnet::{fw_label_dist, SystemConfig};

use crate::check::{check_cluster, Violation};
use crate::gen::{ChurnKind, Query, Spec, Stack};
use crate::spans::Tracer;
use crate::target::{
    label_dist_ns, read_obs, replay_embed, system_invariants, Answer, Counters, Target, Timed,
    OBS_COUNTERS,
};
use crate::universe;

#[derive(Debug, Default, Clone)]
struct Sums {
    consulted: u64,
    candidates: u64,
    work_units: u64,
    churn_ops: u64,
    regions_touched: u64,
    overlay_rounds: u64,
    overlay_region: u64,
    leaves_replayed: u64,
    orphans: u64,
}

/// `Coordinator` under test.
pub struct Sharded {
    coord: Coordinator,
    config: SystemConfig,
    real: Option<DistanceMatrix>,
    /// Per shard: `full_reconvergences` / `full_builds` after bootstrap.
    base: Vec<(u64, u64)>,
    sums: Sums,
}

impl Sharded {
    /// Replays an uncached coordinator query under `parent`: the owner's
    /// ball enumeration, the other shards' prune-or-scan, and the merge
    /// kernel, each through the same public pieces the coordinator uses.
    fn replay_query(&self, q: &Query, tr: &mut Tracer, parent: Option<u32>) {
        let coord = &self.coord;
        let fw = coord.framework();
        let l = self.config.protocol.classes.distance_of(q.class);
        let radius = 2.0 * l;
        let owner = coord.plan().owner_of_id(q.start);
        let (mut merged, _) = tr.span("core.index_ball", parent, || {
            let region = coord.shard(owner).region();
            let slot = region
                .slot(q.start)
                .expect("owner region holds the start host");
            let mut ids = region.ball(slot, radius).1.to_vec();
            ids.sort_unstable();
            ids
        });
        let (scanned, _) = tr.span("shard.scatter", parent, || {
            let mut out = Vec::new();
            for (s, sh) in coord.shards().iter().enumerate() {
                let region = sh.region();
                if s == owner || region.ids().is_empty() {
                    continue;
                }
                let reach = region.row(0).0.last().copied().unwrap_or(0.0);
                if fw_label_dist(fw, q.start, region.ids()[0]) - reach > radius {
                    continue;
                }
                out.extend(
                    region
                        .ids()
                        .iter()
                        .copied()
                        .filter(|&x| fw_label_dist(fw, q.start, x) <= radius),
                );
            }
            out
        });
        merged.extend(scanned);
        merged.sort_unstable();
        tr.span("core.merge_kernel", parent, || {
            find_cluster_among(&merged, q.k, l, |a, b| fw_label_dist(fw, a, b))
        });
    }

    /// Replays a churn op's layers on clones of the pre-op state: the
    /// global embedding, the owning shard's whole `DynamicSystem` op, and
    /// the owner's region-index delta.
    fn replay_churn(&mut self, kind: ChurnKind, host: u32, tr: &mut Tracer) -> [Option<u32>; 3] {
        let real = self.real.as_ref().expect("traced set-up keeps the metric");
        let node = NodeId::new(host as usize);
        let owner = self.coord.plan().owner(node);
        let mut fw = self.coord.framework().clone();
        let mut region = self.coord.shard(owner).region().clone();
        let mut system = self.coord.shard(owner).service().system().clone();

        let (embed_id, orphans) = replay_embed(&mut fw, kind, node, real, tr);
        let (removed, touched) = match orphans {
            None => (Vec::new(), vec![host]),
            Some(orphans) => {
                self.sums.leaves_replayed += 1;
                self.sums.orphans += orphans.len() as u64;
                // Only the owner's share of the orphans lands in its region.
                let touched = orphans
                    .iter()
                    .filter(|&&o| self.coord.plan().owner(o) == owner)
                    .map(|o| o.index() as u32)
                    .collect();
                (vec![host], touched)
            }
        };
        let (res, system_id) = match kind {
            ChurnKind::Join => tr.span("simnet.join", None, || system.join(node)),
            ChurnKind::Leave => tr.span("simnet.leave", None, || system.leave(node)),
            ChurnKind::Crash => tr.span("simnet.crash", None, || system.crash(node)),
            ChurnKind::Recover => tr.span("simnet.recover", None, || system.recover(node)),
        };
        res.expect("replayed shard op mirrors a valid op");
        let (res, index_id) = tr.span("core.index_apply_churn", None, || {
            region.apply_churn(&removed, &touched, |a, b| fw_label_dist(&fw, a, b))
        });
        res.expect("replayed region delta mirrors a valid op");
        [embed_id, system_id, index_id]
    }
}

impl Target for Sharded {
    /// # Panics
    ///
    /// Panics when `spec` is not a sharded workload.
    fn setup(spec: &Spec, joined: &[u32], tr: &mut Tracer) -> Self {
        let Stack::Sharded { shards, per_site } = spec.stack else {
            panic!("{} is not a sharded workload", spec.name);
        };
        let root = tr.begin("op.setup", None);
        let (bandwidth, _) = tr.span("datasets.generate", root.id(), || {
            universe::hierarchy(spec.hosts, per_site)
        });
        let config = universe::system_config();
        let hosts: Vec<NodeId> = joined.iter().map(|&h| NodeId::new(h as usize)).collect();
        let (coord, _) = tr.span("shard.bootstrap", root.id(), || {
            Coordinator::bootstrap(
                bandwidth.clone(),
                config.clone(),
                ShardPlan::contiguous(spec.hosts, shards),
                ServiceConfig::default(),
                &hosts,
            )
            .expect("fixture universe bootstraps")
        });
        tr.end(root);
        let real = tr.is_on().then(|| {
            tr.span("metric.distance_matrix", None, || {
                config.transform.distance_matrix(&bandwidth)
            })
            .0
        });
        let base = coord
            .shards()
            .iter()
            .map(|sh| {
                let sys = sh.service().system();
                (
                    sys.overlay_stats().full_reconvergences,
                    sys.cluster_index().stats().full_builds,
                )
            })
            .collect();
        Sharded {
            coord,
            config,
            real,
            base,
            sums: Sums::default(),
        }
    }

    fn burst(&mut self, queries: &[Query], tr: &mut Tracer) -> (u64, Result<Vec<Answer>, String>) {
        let classes = &self.config.protocol.classes;
        let mut total = 0;
        let mut answers = Vec::with_capacity(queries.len());
        for q in queries {
            let (start, b) = (NodeId::new(q.start as usize), classes.bandwidth_of(q.class));
            let coord = &mut self.coord;
            let root = tr.begin("op.query", None);
            let (resp, call_id) = tr.span("shard.cluster_near", root.id(), || {
                coord.cluster_near(start, q.k, b)
            });
            total += tr.end(root);
            let resp = match resp {
                Ok(r) => r,
                Err(e) => return (total, Err(format!("query failed: {e}"))),
            };
            if !resp.outcome.is_exact() {
                return (
                    total,
                    Err("degraded answer with every shard reachable".into()),
                );
            }
            self.sums.consulted += resp.consulted as u64;
            self.sums.candidates += resp.candidates as u64;
            self.sums.work_units += resp.work_units;
            if tr.replaying() && !resp.cached {
                self.replay_query(q, tr, call_id);
            }
            answers.push(Answer {
                cluster: resp.outcome.cluster().cloned(),
                class_idx: resp.class_idx,
                cached: resp.cached,
            });
        }
        (total, Ok(answers))
    }

    fn churn(&mut self, kind: ChurnKind, host: u32, tr: &mut Tracer) -> Timed {
        let replays = if tr.replaying() {
            self.replay_churn(kind, host, tr)
        } else {
            [None; 3]
        };
        let node = NodeId::new(host as usize);
        let owner = self.coord.plan().owner(node);
        let before: Vec<u64> = self
            .coord
            .shards()
            .iter()
            .map(|s| s.region().digest())
            .collect();
        let coord = &mut self.coord;
        let root = tr.begin("op.churn", None);
        let (result, call_id) = match kind {
            ChurnKind::Join => tr.span("shard.join", root.id(), || coord.join(node)),
            ChurnKind::Leave => tr.span("shard.leave", root.id(), || coord.leave(node)),
            ChurnKind::Crash => tr.span("shard.crash", root.id(), || coord.crash(node)),
            ChurnKind::Recover => tr.span("shard.recover", root.id(), || coord.recover(node)),
        };
        let mut timed = Timed::ok(tr.end(root));
        for id in replays {
            tr.set_parent(id, call_id);
        }
        if let Err(e) = result {
            timed.result = Err(format!("{} {host} failed: {e}", kind.name()));
            return timed;
        }
        let overlay = self.coord.shard(owner).service().system().overlay_stats();
        self.sums.churn_ops += 1;
        self.sums.overlay_rounds += overlay.last_rounds;
        self.sums.overlay_region += overlay.last_region;
        self.sums.regions_touched += self
            .coord
            .shards()
            .iter()
            .zip(&before)
            .filter(|(s, &b)| s.region().digest() != b)
            .count() as u64;
        timed
    }

    fn snapshot(&mut self, _tr: &mut Tracer) -> Option<Timed> {
        None
    }

    fn end_pass(&mut self, _tr: &mut Tracer) -> Option<Timed> {
        None
    }

    fn check(&self, query: &Query, answer: &Answer) -> Result<(), Violation> {
        let Some(cluster) = &answer.cluster else {
            return Ok(());
        };
        let coord = &self.coord;
        check_cluster(
            cluster,
            query.k,
            self.config.protocol.classes.distance_of(answer.class_idx),
            |h| coord.is_active(h) && !coord.is_crashed(h),
            |a, b| fw_label_dist(coord.framework(), a.index() as u32, b.index() as u32),
        )
    }

    fn epoch(&self) -> u64 {
        self.coord.epoch()
    }

    fn invariants(&self) -> Result<(), String> {
        for (sh, &base) in self.coord.shards().iter().zip(&self.base) {
            system_invariants(sh.service().system(), base)
                .map_err(|e| format!("shard {}: {e}", sh.id()))?;
        }
        Ok(())
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        let s = &self.sums;
        let stats = self.coord.stats();
        let (mut messages, mut entries, mut rows, mut reconv, mut builds) = (0, 0, 0, 0, 0);
        for (sh, base) in self.coord.shards().iter().zip(&self.base) {
            let sys = sh.service().system();
            let overlay = sys.overlay_stats();
            messages += overlay.messages;
            entries += overlay.predicted_entries;
            reconv += overlay.full_reconvergences - base.0;
            // A region index and the shard system's own index both take the
            // delta of every op the shard owns.
            rows += sys.cluster_index().stats().rows_rebuilt + sh.region().stats().rows_rebuilt;
            builds +=
                sys.cluster_index().stats().full_builds - base.1 + sh.region().stats().full_builds;
        }
        for (name, value) in [
            ("queries", stats.queries),
            ("churn_ops", s.churn_ops),
            ("shard.cache_hits", stats.cache_hits),
            ("shard.degraded", stats.degraded),
            ("shard.pruned", stats.pruned),
            ("shard.consulted", s.consulted),
            ("shard.candidates", s.candidates),
            ("shard.work_units", s.work_units),
            ("shard.regions_touched", s.regions_touched),
            ("overlay.messages", messages),
            ("overlay.predicted_entries", entries),
            ("overlay.rounds", s.overlay_rounds),
            ("overlay.region", s.overlay_region),
            ("overlay.full_reconvergences", reconv),
            ("index.rows_rebuilt", rows),
            ("index.full_builds", builds),
            ("replay.leaves", s.leaves_replayed),
            ("replay.orphans", s.orphans),
        ] {
            c.insert(name, value);
        }
        read_obs(&mut c, &OBS_COUNTERS);
        c
    }

    fn live(&self) -> usize {
        self.coord.len()
    }

    fn label_dist_ns(&self) -> f64 {
        let ids: Vec<u32> = self.coord.active().map(|h| h.index() as u32).collect();
        label_dist_ns(&ids, |a, b| fw_label_dist(self.coord.framework(), a, b))
    }

    fn snapshot_size(&self) -> Option<usize> {
        None
    }
}
