//! The scatter–gather coordinator: routes region queries over the shard
//! fleet and merges cross-shard candidates under a bit-identity
//! discipline.
//!
//! # The bit-identity argument
//!
//! The coordinator serves the membership-pure region query
//! [`bcc_simnet::DynamicSystem::cluster_near`]: candidates are **every**
//! active host within `2l` of the start host in the global label metric
//! (`l` the snapped class constraint — by the triangle inequality the
//! `2l` ball covers every diameter-`≤ l` cluster intersecting
//! `B(start, l)`), and the answer is the shared merge kernel
//! [`bcc_core::find_cluster_among`] over those candidates in ascending id
//! order. Both definitions mention only membership and labels — never the
//! partition — so the sharded computation reproduces the unsharded one
//! exactly, provided:
//!
//! 1. **labels agree**: the coordinator maintains one *global*
//!    [`PredictionFramework`] fed the identical op sequence the unsharded
//!    baseline sees, so every label (and hence every distance and the
//!    membership epoch) is bit-identical by construction;
//! 2. **the candidate sets agree**: each shard's region index holds its
//!    members under that global metric, so the union of per-shard `2l`
//!    enumerations is the global `2l` ball (shards partition the
//!    membership);
//! 3. **the merge is canonical**: candidates concatenate in fixed shard
//!    order, sort ascending, and feed one serial kernel call — no
//!    reduction order or thread count can reorder anything.
//!
//! The kernel reads the candidates' sub-metric through lazily filled rows:
//! it evaluates a label distance only for the rows its sweep opens, each
//! unordered pair at most once, and none at all when `k` exceeds the
//! candidate count. Which rows it opens is a function of the candidate
//! list, `k` and `l` alone, so the evaluation count is as canonical as the
//! answer, and [`CoordResponse::work_units`] at one shard equals the
//! unsharded kernel's count exactly (`tests/sharded_identity.rs`).
//!
//! The kernel also skips, after filling it, every row whose `l`-ball holds
//! fewer than `k` candidates: no pair of such a row can bound an answer,
//! so the answer is the one a full scan returns and only the pairs scanned
//! fall (and with them the partner rows a dead row would have opened).
//!
//! Scatter runs on the caller's thread, one shard after another: a query's
//! prune tests and member scans are microseconds of work, less than
//! creating and joining worker threads would cost. Nothing under a
//! coordinator query spawns a thread; the shard proptests pin every
//! S ∈ {1,2,4} against the unsharded instance.

use std::collections::BTreeSet;
use std::sync::Arc;

use bcc_core::{find_cluster_among, ClusterError, ClusterIndex, QueryRequest};
use bcc_embed::{EmbedError, PredictionFramework};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, NodeId};
use bcc_service::{ClusterService, ServiceConfig};
use bcc_simnet::{fw_label_dist, ChurnError, ChurnOp, DynamicSystem, SystemConfig};

use crate::cache::{CoordCache, CoordCacheStats, CoordEntry, CoordKey};
use crate::error::ShardError;
use crate::instance::{ShardInstance, ShardStats};
use crate::plan::ShardPlan;

/// How a coordinator answer was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordOutcome {
    /// Every non-prunable shard was reachable: the answer is bit-identical
    /// to the unsharded instance's.
    Exact {
        /// The merged cluster (`None` when no cluster satisfies the
        /// constraint), ascending-id canonical order from the kernel.
        cluster: Option<Vec<NodeId>>,
    },
    /// One or more shards whose boundary ball could not be pruned were
    /// unreachable. The answer covers the reachable candidates only, is
    /// always labeled, and is never cached.
    Degraded {
        /// Best cluster over the reachable candidates.
        cluster: Option<Vec<NodeId>>,
        /// Shards that should have been consulted but were unreachable,
        /// ascending.
        missing_shards: Vec<usize>,
    },
}

impl CoordOutcome {
    /// The answer, whichever tier produced it.
    pub fn cluster(&self) -> Option<&Vec<NodeId>> {
        match self {
            CoordOutcome::Exact { cluster } | CoordOutcome::Degraded { cluster, .. } => {
                cluster.as_ref()
            }
        }
    }

    /// `true` for a full-fidelity answer.
    pub fn is_exact(&self) -> bool {
        matches!(self, CoordOutcome::Exact { .. })
    }
}

/// One coordinator response with its routing accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordResponse {
    /// The answer and its fidelity tier.
    pub outcome: CoordOutcome,
    /// Bandwidth class the query snapped to.
    pub class_idx: usize,
    /// Shard owning the start host.
    pub owner: usize,
    /// Whether the answer came from the coordinator cache (freshness
    /// vector fully validated).
    pub cached: bool,
    /// Shards consulted (the owner plus every non-pruned neighbor).
    pub consulted: usize,
    /// Merged candidate-set size.
    pub candidates: usize,
    /// Deterministic cost: label-distance evaluations this response
    /// made (prune tests + boundary scans + merge kernel). The kernel's
    /// share is what its sweep evaluated — the rows it opened, not the
    /// pairs of the candidate set. The unsharded baseline's cost for the
    /// same query is its kernel evaluations alone, so coordinator overhead
    /// is directly measurable: on a shard-local query it is the `S − 1`
    /// prune certificates — see `BENCH_shard.json`.
    pub work_units: u64,
}

/// Aggregate coordinator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Region queries answered (errors excluded).
    pub queries: u64,
    /// Answers served from the coordinator cache.
    pub cache_hits: u64,
    /// Degraded (partition-window) answers.
    pub degraded: u64,
    /// Shard consultations skipped by the boundary prune test.
    pub pruned: u64,
}

/// Per-shard gather verdict (internal to the scatter phase).
enum Gather {
    /// The prune certificate held: the shard cannot intersect the ball.
    Pruned,
    /// The shard had to be consulted but is unreachable.
    Missing,
    /// Candidates within `2l`, ascending ids.
    Candidates(Vec<u32>),
}

/// A sharded multi-instance deployment behind one routing front end.
///
/// Construction partitions the universe by a [`ShardPlan`]; each shard
/// gets a full [`ClusterService`] over its own members plus a region
/// index under the coordinator's global label metric. Queries route to
/// the owning shard and scatter–gather across boundary shards; churn
/// routes to the owning shard and updates affected region indexes
/// incrementally.
#[derive(Debug)]
pub struct Coordinator {
    /// The one universe of the deployment: every shard's system holds
    /// these same two allocations.
    bandwidth: Arc<BandwidthMatrix>,
    real: Arc<DistanceMatrix>,
    config: SystemConfig,
    /// The *global* prediction framework: fed the same op sequence as an
    /// unsharded [`DynamicSystem`], so labels, epochs and orphan sets are
    /// bit-identical to the baseline by construction.
    framework: PredictionFramework,
    plan: ShardPlan,
    shards: Vec<ShardInstance>,
    active: BTreeSet<NodeId>,
    crashed: BTreeSet<NodeId>,
    cache: CoordCache,
    stats: CoordStats,
}

impl Coordinator {
    /// Default coordinator-cache capacity (entries).
    pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

    /// Builds an empty sharded deployment.
    ///
    /// # Errors
    ///
    /// [`ShardError::PlanMismatch`] when the plan partitions a different
    /// universe; [`ShardError::Config`] / [`ShardError::Service`] when a
    /// config fails validation.
    pub fn new(
        bandwidth: BandwidthMatrix,
        config: SystemConfig,
        plan: ShardPlan,
        service_config: ServiceConfig,
    ) -> Result<Self, ShardError> {
        if plan.universe() != bandwidth.len() {
            return Err(ShardError::PlanMismatch {
                plan: plan.universe(),
                universe: bandwidth.len(),
            });
        }
        let real = Arc::new(config.transform.distance_matrix(&bandwidth));
        let bandwidth = Arc::new(bandwidth);
        let framework = PredictionFramework::new(config.framework);
        let shards = (0..plan.shard_count())
            .map(|id| {
                let system = DynamicSystem::try_with_universe(
                    Arc::clone(&bandwidth),
                    Arc::clone(&real),
                    config.clone(),
                )?;
                let service = ClusterService::new(system, service_config.clone())?;
                Ok(ShardInstance {
                    id,
                    service,
                    region: ClusterIndex::empty(bandwidth.len()),
                    reachable: true,
                    stats: ShardStats::default(),
                })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        Ok(Coordinator {
            bandwidth,
            real,
            config,
            framework,
            plan,
            shards,
            active: BTreeSet::new(),
            crashed: BTreeSet::new(),
            cache: CoordCache::new(Self::DEFAULT_CACHE_CAPACITY),
            stats: CoordStats::default(),
        })
    }

    /// [`Coordinator::new`] plus joining `hosts` in order — the sharded
    /// twin of [`DynamicSystem::bootstrap`].
    ///
    /// # Errors
    ///
    /// As [`Coordinator::new`], plus [`ShardError::Churn`] when a join is
    /// rejected.
    pub fn bootstrap(
        bandwidth: BandwidthMatrix,
        config: SystemConfig,
        plan: ShardPlan,
        service_config: ServiceConfig,
        hosts: &[NodeId],
    ) -> Result<Self, ShardError> {
        let mut coord = Self::new(bandwidth, config, plan, service_config)?;
        for &h in hosts {
            coord.join(h)?;
        }
        Ok(coord)
    }

    // -- membership ---------------------------------------------------------

    /// Joins a universe host: the global framework embeds it (identically
    /// to the unsharded baseline), the owning shard's service joins it,
    /// and the owner's region index splices it in under the new global
    /// labels.
    ///
    /// # Errors
    ///
    /// Identical to [`DynamicSystem::join`].
    pub fn join(&mut self, host: NodeId) -> Result<(), ChurnError> {
        if host.index() >= self.bandwidth.len() {
            return Err(EmbedError::UnknownHost(host).into());
        }
        let real = &self.real;
        self.framework
            .join(host, |a, b| real.get(a.index(), b.index()))?;
        self.active.insert(host);
        self.crashed.remove(&host);
        let owner = self.plan.owner(host);
        self.shards[owner].service.join(host)?;
        let fw = &self.framework;
        let region = &mut self.shards[owner].region;
        region.apply_churn(&[], &[host.index() as u32], |a, b| fw_label_dist(fw, a, b))?;
        // `ShardInstance::stamp` reads the region digest on every uncached
        // query: hash the new rows here, inside the churn op, so that no
        // query pays for it.
        let _ = region.digest();
        Ok(())
    }

    /// Gracefully removes a host. The global framework re-embeds its
    /// orphaned anchor descendants; every shard owning a re-embedded
    /// orphan gets an incremental region update (churn in one shard can
    /// move *labels* of hosts in others — their local memberships are
    /// untouched, but their region stamps move, which is exactly what
    /// invalidates affected cross-shard cache entries).
    ///
    /// # Errors
    ///
    /// Identical to [`DynamicSystem::leave`].
    pub fn leave(&mut self, host: NodeId) -> Result<(), ChurnError> {
        self.depart(host, false)
    }

    /// Crashes a host: an involuntary departure, remembered so queries
    /// starting there fail with [`ClusterError::NodeUnavailable`] until
    /// [`Coordinator::recover`].
    ///
    /// # Errors
    ///
    /// Identical to [`DynamicSystem::crash`].
    pub fn crash(&mut self, host: NodeId) -> Result<(), ChurnError> {
        self.depart(host, true)
    }

    fn depart(&mut self, host: NodeId, crash: bool) -> Result<(), ChurnError> {
        let real = &self.real;
        let orphans = self
            .framework
            .leave_reporting(host, |a, b| real.get(a.index(), b.index()))?;
        self.active.remove(&host);
        if crash {
            self.crashed.insert(host);
        }
        let owner = self.plan.owner(host);
        if crash {
            self.shards[owner].service.crash(host)?;
        } else {
            self.shards[owner].service.leave(host)?;
        }
        // Group the re-embedded orphans by owning shard; only affected
        // regions pay an update.
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.plan.shard_count()];
        for &o in &orphans {
            per_shard[self.plan.owner(o)].push(o.index() as u32);
        }
        let fw = &self.framework;
        let removed = [host.index() as u32];
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let removed: &[u32] = if s == owner { &removed } else { &[] };
            if removed.is_empty() && per_shard[s].is_empty() {
                continue;
            }
            sh.region
                .apply_churn(removed, &per_shard[s], |a, b| fw_label_dist(fw, a, b))?;
            // As in `join`: the op, not the next query, hashes the rows.
            let _ = sh.region.digest();
        }
        Ok(())
    }

    /// Brings a crashed host back through the ordinary join path.
    ///
    /// # Errors
    ///
    /// Identical to [`DynamicSystem::recover`].
    pub fn recover(&mut self, host: NodeId) -> Result<(), ChurnError> {
        if !self.crashed.contains(&host) {
            return Err(EmbedError::UnknownHost(host).into());
        }
        self.join(host)
    }

    /// Applies one churn op (see [`DynamicSystem::apply`]).
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

    // -- queries ------------------------------------------------------------

    /// Routes one region query `(start, k, bandwidth)` through the fleet:
    /// the owning shard enumerates its boundary ball from its region
    /// index, every other shard is either pruned by an O(1) boundary
    /// certificate or scanned for straddling candidates, and the merged
    /// candidate set feeds the shared kernel. Exact answers are cached
    /// under a per-shard freshness vector.
    ///
    /// # Errors
    ///
    /// Identical to [`DynamicSystem::cluster_near`] (crashed start,
    /// validation, unknown start — in that order).
    pub fn cluster_near(
        &mut self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<CoordResponse, ClusterError> {
        self.cluster_near_inner(start, k, bandwidth, true)
    }

    /// [`Coordinator::cluster_near`] bypassing the coordinator cache —
    /// the uncached cost the shard scaling study measures.
    ///
    /// # Errors
    ///
    /// Same as [`Coordinator::cluster_near`].
    pub fn cluster_near_uncached(
        &mut self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<CoordResponse, ClusterError> {
        self.cluster_near_inner(start, k, bandwidth, false)
    }

    fn cluster_near_inner(
        &mut self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        use_cache: bool,
    ) -> Result<CoordResponse, ClusterError> {
        if self.crashed.contains(&start) {
            return Err(ClusterError::NodeUnavailable {
                node: start.index(),
            });
        }
        let classes = &self.config.protocol.classes;
        let class_idx =
            QueryRequest::new(start, k, bandwidth).validate(classes, self.bandwidth.len())?;
        if !self.active.contains(&start) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: start.index(),
            });
        }
        let l = classes.distance_of(class_idx);
        let radius = 2.0 * l;
        let start_id = start.index() as u32;
        let owner = self.plan.owner(start);
        // The owner's region index mirrors `active`; should a failed join
        // have left them apart, the start is refused like an inactive one.
        let Some(owner_slot) = self.shards[owner].region.slot(start_id) else {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: start.index(),
            });
        };
        self.stats.queries += 1;
        self.shards[owner].stats.queries += 1;

        if use_cache {
            let key: CoordKey = (start_id, k, class_idx);
            if let Some(entry) = self.cache.peek(&key) {
                let entry = entry.clone();
                let (valid, revalidate_work) = self.entry_valid(&entry, start_id, radius);
                if valid {
                    self.cache.hit();
                    self.stats.cache_hits += 1;
                    return Ok(CoordResponse {
                        outcome: CoordOutcome::Exact {
                            cluster: entry.answer,
                        },
                        class_idx,
                        owner,
                        cached: true,
                        consulted: entry.consulted,
                        candidates: entry.candidates,
                        work_units: revalidate_work,
                    });
                }
                self.cache.invalidate(&key);
            }
        }

        // Scatter: every shard produces its verdict independently (read-
        // only), one after another in shard order. The whole phase is a few
        // microseconds of prune tests and member scans, less than handing
        // it to another thread would cost.
        let fw = &self.framework;
        let shards = &self.shards;
        let gathers: Vec<(Gather, u64)> = shards
            .iter()
            .enumerate()
            .map(|(s, sh)| {
                let region = &sh.region;
                if region.ids().is_empty() {
                    // An empty shard contributes nothing and needs no
                    // certificate (vacuously pruned).
                    return (Gather::Pruned, 0);
                }
                if s == owner {
                    if !sh.reachable {
                        return (Gather::Missing, 0);
                    }
                    let (_, ids) = region.ball(owner_slot, radius);
                    let mut v = ids.to_vec();
                    v.sort_unstable();
                    // Ball enumeration is a binary search over precomputed
                    // rows: zero label-distance evaluations.
                    return (Gather::Candidates(v), 0);
                }
                // Boundary certificate: with a_s the shard's lowest member and
                // r_s its region radius (max row-0 distance, precomputed),
                // d(start, a_s) − r_s > 2l implies by the triangle inequality
                // that no member lies within 2l. One distance evaluation.
                let a = region.ids()[0];
                let (d_row, _) = region.row(0);
                let r = d_row.last().copied().unwrap_or(0.0);
                if fw_label_dist(fw, start_id, a) - r > radius {
                    return (Gather::Pruned, 1);
                }
                if !sh.reachable {
                    return (Gather::Missing, 1);
                }
                // The ball straddles this shard's boundary: scan its members
                // under the global metric. One evaluation per member.
                let mut v: Vec<u32> = region
                    .ids()
                    .iter()
                    .copied()
                    .filter(|&x| fw_label_dist(fw, start_id, x) <= radius)
                    .collect();
                v.sort_unstable();
                (Gather::Candidates(v), 1 + region.ids().len() as u64)
            })
            .collect();

        // Gather: concatenate in shard order, then canonicalize. Shards
        // partition the membership, so no dedup is needed and ascending
        // sort gives the kernel the exact candidate order the unsharded
        // baseline uses.
        let mut work_units = 0u64;
        let mut missing_shards = Vec::new();
        let mut merged: Vec<u32> = Vec::new();
        let mut consulted = 0usize;
        let mut contributors: Vec<(usize, (u64, u64))> = Vec::new();
        for (s, (gather, evals)) in gathers.into_iter().enumerate() {
            work_units += evals;
            match gather {
                Gather::Pruned => {
                    if s != owner {
                        self.stats.pruned += 1;
                    }
                }
                Gather::Missing => missing_shards.push(s),
                Gather::Candidates(v) => {
                    consulted += 1;
                    if s != owner {
                        self.shards[s].stats.forwarded += 1;
                    }
                    self.shards[s].stats.merge_candidates += v.len() as u64;
                    contributors.push((s, self.shards[s].stamp()));
                    merged.extend(v);
                }
            }
        }
        merged.sort_unstable();

        // Fixed serial merge reduction: one kernel call over the full
        // candidate set, counting its distance evaluations.
        let mut kernel_evals = 0u64;
        let fw = &self.framework;
        let cluster = find_cluster_among(&merged, k, l, |a, b| {
            kernel_evals += 1;
            fw_label_dist(fw, a, b)
        })
        .map(|ids| {
            ids.into_iter()
                .map(|id| NodeId::new(id as usize))
                .collect::<Vec<_>>()
        });
        work_units += kernel_evals;

        if missing_shards.is_empty() {
            if use_cache {
                self.cache.insert(
                    (start_id, k, class_idx),
                    CoordEntry {
                        answer: cluster.clone(),
                        contributors,
                        consulted,
                        candidates: merged.len(),
                    },
                );
            }
            Ok(CoordResponse {
                outcome: CoordOutcome::Exact { cluster },
                class_idx,
                owner,
                cached: false,
                consulted,
                candidates: merged.len(),
                work_units,
            })
        } else {
            self.stats.degraded += 1;
            Ok(CoordResponse {
                outcome: CoordOutcome::Degraded {
                    cluster,
                    missing_shards,
                },
                class_idx,
                owner,
                cached: false,
                consulted,
                candidates: merged.len(),
                work_units,
            })
        }
    }

    /// Validates a cached entry's freshness vector against the live fleet:
    /// every contributor's stamp must match exactly, and every shard that
    /// was pruned at compute time must *still* prune (its members may have
    /// churned into range; the owner always contributes, so start-label
    /// churn always shows up as an owner stamp move). Returns the verdict
    /// and the label-distance evaluations spent re-checking. Serving a
    /// validated entry needs no shard reachability — stamps and prune
    /// certificates are coordinator-local metadata.
    fn entry_valid(&self, entry: &CoordEntry, start_id: u32, radius: f64) -> (bool, u64) {
        let mut is_contributor = vec![false; self.shards.len()];
        for &(s, stamp) in &entry.contributors {
            if self.shards[s].stamp() != stamp {
                return (false, 0);
            }
            is_contributor[s] = true;
        }
        let mut evals = 0u64;
        for (s, sh) in self.shards.iter().enumerate() {
            if is_contributor[s] {
                continue;
            }
            let region = &sh.region;
            if region.ids().is_empty() {
                continue;
            }
            let a = region.ids()[0];
            let (d_row, _) = region.row(0);
            let r = d_row.last().copied().unwrap_or(0.0);
            evals += 1;
            if fw_label_dist(&self.framework, start_id, a) - r <= radius {
                return (false, evals);
            }
        }
        (true, evals)
    }

    // -- fleet control & introspection --------------------------------------

    /// Marks a shard (un)reachable — the partition nemesis hook. Queries
    /// needing an unreachable shard degrade (labeled, uncached); cached
    /// answers keep serving, their freshness vector needs no reachability.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn set_reachable(&mut self, shard: usize, reachable: bool) {
        self.shards[shard].reachable = reachable;
    }

    /// The shard fleet, in plan order.
    pub fn shards(&self) -> &[ShardInstance] {
        &self.shards
    }

    /// One shard by id.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &ShardInstance {
        &self.shards[shard]
    }

    /// The plan the universe is partitioned by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shared system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The global membership epoch — bit-identical to the unsharded
    /// baseline's [`DynamicSystem::epoch`] under the same op sequence.
    pub fn epoch(&self) -> u64 {
        self.framework.revision()
    }

    /// The global prediction framework.
    pub fn framework(&self) -> &PredictionFramework {
        &self.framework
    }

    /// Hosts currently active anywhere in the fleet.
    pub fn active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.active.iter().copied()
    }

    /// Whether `host` is currently active.
    pub fn is_active(&self, host: NodeId) -> bool {
        self.active.contains(&host)
    }

    /// Whether `host` is currently crashed.
    pub fn is_crashed(&self, host: NodeId) -> bool {
        self.crashed.contains(&host)
    }

    /// Active hosts across the fleet.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// `true` when nobody has joined.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Universe size.
    pub fn universe_size(&self) -> usize {
        self.bandwidth.len()
    }

    /// Aggregate coordinator counters.
    pub fn stats(&self) -> CoordStats {
        self.stats
    }

    /// Coordinator-cache counters.
    pub fn cache_stats(&self) -> CoordCacheStats {
        self.cache.stats()
    }

    /// Publishes per-shard gauges (`shard.<id>.queries`,
    /// `shard.<id>.forwarded`, `shard.<id>.merge_candidates`,
    /// `shard.<id>.epoch`) plus coordinator totals
    /// (`coord.{queries,cache_hits,degraded,pruned}`) into the process-
    /// global `bcc-obs` registry. No-op when obs is disabled.
    pub fn publish_obs(&self) {
        if !bcc_obs::enabled() {
            return;
        }
        let reg = bcc_obs::registry();
        for sh in &self.shards {
            let id = sh.id;
            reg.gauge(&format!("shard.{id}.queries"))
                .set(sh.stats.queries);
            reg.gauge(&format!("shard.{id}.forwarded"))
                .set(sh.stats.forwarded);
            reg.gauge(&format!("shard.{id}.merge_candidates"))
                .set(sh.stats.merge_candidates);
            reg.gauge(&format!("shard.{id}.epoch"))
                .set(sh.service.system().epoch());
        }
        reg.gauge("coord.queries").set(self.stats.queries);
        reg.gauge("coord.cache_hits").set(self.stats.cache_hits);
        reg.gauge("coord.degraded").set(self.stats.degraded);
        reg.gauge("coord.pruned").set(self.stats.pruned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::BandwidthClasses;
    use bcc_metric::RationalTransform;

    /// One universe per deployment: the coordinator's two matrices are the
    /// only ones, and each shard system holds a handle to them instead of a
    /// copy. A handle count of `1 + S` on both is exactly that — nothing
    /// but the `S` shard systems could hold the other `S`.
    #[test]
    fn shards_share_the_coordinators_universe() {
        let caps = [100.0f64, 100.0, 80.0, 80.0, 30.0, 30.0, 10.0, 10.0];
        let classes = BandwidthClasses::new(vec![25.0, 75.0], RationalTransform::default());
        let hosts: Vec<NodeId> = (0..caps.len()).map(NodeId::new).collect();
        for shard_count in [1usize, 2, 4] {
            let coord = Coordinator::bootstrap(
                BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j])),
                SystemConfig::new(classes.clone()),
                ShardPlan::contiguous(caps.len(), shard_count),
                ServiceConfig::default(),
                &hosts,
            )
            .unwrap();
            assert_eq!(Arc::strong_count(&coord.bandwidth), 1 + shard_count);
            assert_eq!(Arc::strong_count(&coord.real), 1 + shard_count);

            // A cloned shard system takes two more handles, not two copies.
            let copy = coord.shards[0].service.system().clone();
            assert_eq!(Arc::strong_count(&coord.bandwidth), 2 + shard_count);
            assert_eq!(Arc::strong_count(&coord.real), 2 + shard_count);
            drop(copy);
            assert_eq!(Arc::strong_count(&coord.real), 1 + shard_count);
        }
    }

    /// A start host the membership set lists but the owner's region index
    /// does not hold (what a join that failed half-way leaves behind) is a
    /// typed refusal, not a panic inside the scatter, and is not counted
    /// as an answered query.
    #[test]
    fn start_missing_from_the_owner_region_is_a_typed_error() {
        let caps = [100.0f64, 100.0, 80.0, 80.0, 30.0, 30.0, 10.0, 10.0];
        let classes = BandwidthClasses::new(vec![25.0, 75.0], RationalTransform::default());
        let hosts: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let mut coord = Coordinator::bootstrap(
            BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j])),
            SystemConfig::new(classes),
            ShardPlan::contiguous(caps.len(), 2),
            ServiceConfig::default(),
            &hosts,
        )
        .unwrap();
        let ghost = NodeId::new(7);
        coord.active.insert(ghost);
        for use_cache in [true, false] {
            assert!(matches!(
                coord.cluster_near_inner(ghost, 2, 25.0, use_cache),
                Err(ClusterError::UnknownNeighbor { neighbor: 7 })
            ));
        }
        assert_eq!(coord.stats().queries, 0);
        assert!(coord.cluster_near(NodeId::new(0), 2, 25.0).is_ok());
    }

    /// A cached entry stands only while every contributor's stamp stands,
    /// both halves of it: a shard whose epoch moved invalidates the entry
    /// even where its region digest did not, and the other way round.
    #[test]
    fn either_half_of_a_moved_stamp_invalidates_an_entry() {
        let caps = [100.0f64, 100.0, 80.0, 80.0, 30.0, 30.0, 10.0, 10.0];
        let classes = BandwidthClasses::new(vec![25.0, 75.0], RationalTransform::default());
        let hosts: Vec<NodeId> = (0..caps.len()).map(NodeId::new).collect();
        let coord = Coordinator::bootstrap(
            BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j])),
            SystemConfig::new(classes),
            ShardPlan::contiguous(caps.len(), 2),
            ServiceConfig::default(),
            &hosts,
        )
        .unwrap();
        let (epoch, digest) = coord.shards[0].stamp();
        let other = coord.shards[1].stamp();
        let valid = |stamp| {
            let entry = CoordEntry {
                answer: None,
                contributors: vec![(0, stamp), (1, other)],
                consulted: 2,
                candidates: 0,
            };
            coord.entry_valid(&entry, 0, 1.0).0
        };
        assert!(valid((epoch, digest)));
        assert!(!valid((epoch + 1, digest)), "epoch moved");
        assert!(!valid((epoch, digest ^ 1)), "region digest moved");
    }
}
