//! The serving front end: admission control, batch execution and the
//! churn-aware cache, glued to a live [`DynamicSystem`].

use std::collections::VecDeque;

use bcc_core::{QueryError, QueryOutcome, QueryRequest, RetryPolicy};
use bcc_metric::{BandwidthMatrix, NodeId};
use bcc_simnet::{
    ChurnError, ChurnOp, DynamicSystem, RecoveryReport, SnapshotStore, Storage, SystemConfig,
};

use crate::batch::{self, BatchJob};
use crate::breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::degrade::Tier;
use crate::error::ServiceError;
use bcc_core::Budgeted;

/// Per-position batch slot: (outcome, served-from-cache, tier).
type BatchSlot = Option<(Result<QueryOutcome, QueryError>, bool, Tier)>;

/// One cluster query as submitted by a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterQuery {
    /// Node the query enters the overlay at.
    pub submit_node: NodeId,
    /// Requested cluster size (`k ≥ 2`).
    pub k: usize,
    /// Requested bandwidth constraint (positive, finite; snapped up to a
    /// class by the service).
    pub bandwidth: f64,
    /// Optional per-query work budget in deterministic work units (pairs
    /// examined, cost-inflated by the system); overrides
    /// [`ServiceConfig::work_budget`]. `None` defers to the config
    /// default; if that is also `None`, execution is unbudgeted.
    pub budget: Option<u64>,
}

impl ClusterQuery {
    /// Convenience constructor (no per-query budget).
    pub fn new(submit_node: NodeId, k: usize, bandwidth: f64) -> Self {
        ClusterQuery {
            submit_node,
            k,
            bandwidth,
            budget: None,
        }
    }

    /// This query with an explicit work budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Tuning knobs of a [`ClusterService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound on queued (admitted, not yet executed) queries; submissions
    /// beyond it are shed with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Most queries drained into one batch.
    pub batch_max: usize,
    /// Result-cache bound in entries; `0` disables caching (and with it
    /// intra-batch coalescing), giving the uncached baseline.
    pub cache_capacity: usize,
    /// Retry/backoff policy for every executed query.
    pub retry: RetryPolicy,
    /// Default work budget for queries that carry none. `None` (the
    /// default) keeps execution unbudgeted and the service behavior
    /// byte-identical to the pre-degradation layer.
    pub work_budget: Option<u64>,
    /// Per-lane circuit-breaker tuning (shared by every lane).
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            batch_max: 64,
            cache_capacity: 4096,
            retry: RetryPolicy::default(),
            work_budget: None,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Checks the knobs are usable.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ZeroQueueCapacity`] / [`ServiceError::ZeroBatchMax`]
    /// when the respective bound would admit nothing.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.queue_capacity == 0 {
            return Err(ServiceError::ZeroQueueCapacity);
        }
        if self.batch_max == 0 {
            return Err(ServiceError::ZeroBatchMax);
        }
        Ok(())
    }

    /// This configuration with caching (and coalescing) turned off — the
    /// baseline the cached service is benchmarked against.
    pub fn uncached(mut self) -> Self {
        self.cache_capacity = 0;
        self
    }
}

/// The service's answer to one admitted query.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// Admission ticket the answer corresponds to.
    pub ticket: u64,
    /// The query as submitted.
    pub query: ClusterQuery,
    /// The bandwidth class the query was snapped to.
    pub class_idx: usize,
    /// The decentralized query result, or the execution error (e.g. the
    /// submit node crashed between admission and execution).
    pub outcome: Result<QueryOutcome, QueryError>,
    /// Whether the answer came from the churn-aware cache (a fresh
    /// epoch-verified hit, or a labeled stale serve — see `tier`).
    pub cached: bool,
    /// How the answer was produced. Anything but [`Tier::Exact`] is a
    /// degraded answer and is always labeled as such.
    pub tier: Tier,
}

/// Aggregate serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries admitted into the queue.
    pub submitted: u64,
    /// Submissions shed by the admission controller (queue full).
    pub shed: u64,
    /// Submissions rejected at validation (bad `k`, bad `b`, unknown node).
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Unique query jobs actually computed against the overlay.
    pub executed: u64,
    /// Queries answered by riding an identical in-batch computation.
    pub coalesced: u64,
    /// Responses served from the second-chance stale tier
    /// ([`Tier::StaleCache`]) after budget exhaustion.
    pub degraded_stale: u64,
    /// Responses served as budgeted partial answers ([`Tier::Partial`]).
    pub degraded_partial: u64,
    /// Submissions shed by an open (or probing) circuit breaker with
    /// [`ServiceError::CircuitOpen`].
    pub breaker_shed: u64,
}

impl ServiceStats {
    /// Publishes every counter into the process-global `bcc-obs` registry
    /// as gauges named `<prefix>.<field>` — the `ServiceStats → obs`
    /// bridge that lets bench binaries fold the serving layer's own
    /// counters into one unified snapshot. No-op when obs is disabled.
    pub fn publish_obs(&self, prefix: &str) {
        if !bcc_obs::enabled() {
            return;
        }
        let reg = bcc_obs::registry();
        for (field, value) in [
            ("submitted", self.submitted),
            ("shed", self.shed),
            ("rejected", self.rejected),
            ("batches", self.batches),
            ("executed", self.executed),
            ("coalesced", self.coalesced),
            ("degraded_stale", self.degraded_stale),
            ("degraded_partial", self.degraded_partial),
            ("breaker_shed", self.breaker_shed),
        ] {
            reg.gauge(&format!("{prefix}.{field}")).set(value);
        }
    }
}

/// A batched, churn-aware serving layer over one [`DynamicSystem`].
///
/// Life cycle: clients [`submit`](ClusterService::submit) queries (bounded
/// queue, typed shed), the owner pumps [`tick`](ClusterService::tick) (one
/// batch) or [`drain`](ClusterService::drain) (until empty), and every
/// admitted query gets exactly one [`ServiceResponse`], in submission
/// order. Membership changes go through the churn wrappers so the epoch
/// advances; arbitrary overlay surgery through
/// [`with_system_mut`](ClusterService::with_system_mut) is still safe for
/// the cache because entries are validated against the live gossip digest,
/// not just the epoch, and the system forgets its memoised digest the
/// moment it hands the overlay out mutably.
#[derive(Debug)]
pub struct ClusterService {
    system: DynamicSystem,
    config: ServiceConfig,
    queue: VecDeque<(u64, ClusterQuery, usize)>,
    cache: ResultCache,
    stats: ServiceStats,
    next_ticket: u64,
    /// One circuit breaker per bandwidth-class lane, indexed by class.
    breakers: Vec<CircuitBreaker>,
    /// Logical clock: batches executed so far. Drives every breaker
    /// window; wall-clock never enters the picture.
    ticks: u64,
}

impl ClusterService {
    /// Wraps `system` behind the serving layer.
    ///
    /// # Errors
    ///
    /// Propagates [`ServiceConfig::validate`] failures.
    pub fn new(system: DynamicSystem, config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let cache = ResultCache::new(config.cache_capacity);
        let lanes = system.config().protocol.classes.len();
        let breakers = vec![CircuitBreaker::new(config.breaker); lanes];
        Ok(ClusterService {
            system,
            config,
            queue: VecDeque::new(),
            cache,
            stats: ServiceStats::default(),
            next_ticket: 0,
            breakers,
            ticks: 0,
        })
    }

    /// Warm-restarts the service from durable storage: recovers the
    /// system via [`SnapshotStore::recover`] and wraps it in a fresh
    /// service (empty queue, cold cache, zeroed counters, closed
    /// breakers). The recovered system carries the pre-kill membership
    /// epoch and overlay digest, so answers cached by a *previous*
    /// incarnation would still have validated — the fresh cache makes
    /// the restart boundary explicit instead.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] when recovery fails; propagates
    /// [`ServiceConfig::validate`] failures.
    pub fn recover_from<S: Storage>(
        store: &SnapshotStore<S>,
        bandwidth: &BandwidthMatrix,
        sys_config: &SystemConfig,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let (system, report) = store.recover(bandwidth, sys_config)?;
        Ok((Self::new(system, config)?, report))
    }

    /// Warm-restarts *this* service from durable storage, in place: the
    /// recovered system replaces the live one, the queue is dropped (those
    /// clients never got a response and must resubmit), the cache is
    /// cleared — second-chance stale tier included, so a pre-kill answer
    /// can never resurface as a [`Tier::StaleCache`] serve — and every
    /// lane's circuit breaker is recreated closed, because breaker state
    /// describes the *dead* incarnation's load, not the recovered one's.
    ///
    /// Cumulative [`ServiceStats`], the admission ticket sequence and the
    /// logical clock survive: they describe the service's whole history
    /// across incarnations, and a restart must not reissue tickets.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] when recovery fails; the live service is
    /// left untouched.
    pub fn recover_in_place<S: Storage>(
        &mut self,
        store: &SnapshotStore<S>,
        bandwidth: &BandwidthMatrix,
        sys_config: &SystemConfig,
    ) -> Result<RecoveryReport, ServiceError> {
        let (system, report) = store.recover(bandwidth, sys_config)?;
        let lanes = system.config().protocol.classes.len();
        self.system = system;
        self.queue.clear();
        self.cache.clear();
        self.breakers = vec![CircuitBreaker::new(self.config.breaker); lanes];
        Ok(report)
    }

    /// Admits one query, returning its ticket.
    ///
    /// # Errors
    ///
    /// - [`ServiceError::Rejected`] when the query fails library-boundary
    ///   validation (`k < 2`, non-positive/non-finite bandwidth, no class
    ///   can satisfy it, submit node outside the universe);
    /// - [`ServiceError::CircuitOpen`] when the lane's breaker refuses
    ///   admission — recent executions on the class kept exhausting their
    ///   work budgets; retry after the hinted number of ticks;
    /// - [`ServiceError::Overloaded`] when the bounded queue is full —
    ///   nothing is enqueued and the caller should back off.
    pub fn submit(&mut self, query: ClusterQuery) -> Result<u64, ServiceError> {
        let classes = &self.system.config().protocol.classes;
        let class_idx = QueryRequest::new(query.submit_node, query.k, query.bandwidth)
            .validate(classes, self.system.universe_size())
            .map_err(|e| {
                self.stats.rejected += 1;
                bcc_obs::inc!("service.rejected");
                ServiceError::Rejected(e)
            })?;
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.shed += 1;
            bcc_obs::inc!("service.shed");
            return Err(ServiceError::Overloaded {
                in_flight: self.queue.len(),
                capacity: self.config.queue_capacity,
                retry_after: (self.queue.len() as u64)
                    .div_ceil(self.config.batch_max as u64)
                    .max(1),
            });
        }
        // Breaker admission runs after the capacity check: `admit` has
        // side effects (HalfOpen probe reservation), so it must only see
        // queries that will actually be enqueued.
        if let Err(retry_after_ticks) = self.breakers[class_idx].admit(self.ticks) {
            self.stats.breaker_shed += 1;
            bcc_obs::inc!("service.breaker_shed");
            return Err(ServiceError::CircuitOpen {
                lane: class_idx,
                retry_after_ticks,
            });
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.stats.submitted += 1;
        bcc_obs::inc!("service.submitted");
        self.queue.push_back((ticket, query, class_idx));
        Ok(ticket)
    }

    /// Executes one batch (up to `batch_max` queued queries) and returns
    /// its responses in submission order. Empty queue → empty vec.
    ///
    /// Every call advances the logical clock, even on an empty queue —
    /// an idle service must still age out open breaker windows.
    pub fn tick(&mut self) -> Vec<ServiceResponse> {
        self.ticks += 1;
        let take = self.queue.len().min(self.config.batch_max);
        if take == 0 {
            return Vec::new();
        }
        let batch: Vec<(u64, ClusterQuery, usize)> = self.queue.drain(..take).collect();
        self.stats.batches += 1;
        bcc_obs::inc!("service.batches");
        self.process_batch(batch)
    }

    /// Pumps [`tick`](ClusterService::tick) until the queue is empty,
    /// concatenating the responses (still in submission order).
    pub fn drain(&mut self) -> Vec<ServiceResponse> {
        let mut all = Vec::new();
        while !self.queue.is_empty() {
            all.extend(self.tick());
        }
        all
    }

    fn process_batch(&mut self, batch: Vec<(u64, ClusterQuery, usize)>) -> Vec<ServiceResponse> {
        let _span = bcc_obs::span!("service.batch.execute");
        let epoch = self.system.epoch();
        // Hashed once per overlay state and O(1) after. No overlay yet
        // (nobody joined) has no digest; any sentinel works because
        // execution can only fail then, and failures are never cached.
        let digest = self.system.live_digest().unwrap_or(u64::MAX);
        // The cluster index rides the same epoch discipline: a cache entry
        // stamped at this epoch is exactly as fresh as the index.
        debug_assert_eq!(
            self.system.index_stamp().0,
            epoch,
            "cluster index epoch must track the cache epoch"
        );

        let mut outcomes: Vec<BatchSlot> = vec![None; batch.len()];
        let mut misses: Vec<(usize, CacheKey)> = Vec::new();
        for (pos, (_, query, class_idx)) in batch.iter().enumerate() {
            let key = CacheKey {
                start: query.submit_node,
                k: query.k,
                class_idx: *class_idx,
            };
            match self.cache.lookup(&key, epoch, digest) {
                Some(hit) => {
                    outcomes[pos] = Some((Ok(hit.clone()), true, Tier::Exact));
                    // A served hit is a successful lane outcome. Without
                    // this a HalfOpen probe that resolves as a cache hit
                    // would leave its reservation in flight forever and
                    // wedge the lane.
                    self.breakers[*class_idx].on_success();
                }
                None => misses.push((pos, key)),
            }
        }

        // Coalescing rides the same correctness argument as the cache
        // (same key ⇒ same answer), so the uncached baseline computes
        // every query individually.
        let (jobs, lanes) = {
            let _plan = bcc_obs::span!("service.batch.plan");
            batch::plan(&misses, self.cache.enabled())
        };

        // The lanes run in order, and the jobs of a lane in order. A
        // coalesced job runs under its representative's budget (first
        // submitter wins), which is deterministic because representatives
        // follow submission order.
        let system = &self.system;
        let retry = &self.config.retry;
        let default_budget = self.config.work_budget;
        let results: Vec<(usize, Result<Budgeted<QueryOutcome>, QueryError>)> = lanes
            .iter()
            .flat_map(|lane| &lane.jobs)
            .map(|&j| {
                let BatchJob { key, .. } = &jobs[j];
                let rep = batch[jobs[j].positions[0]].1;
                debug_assert_eq!(rep.submit_node, key.start);
                let _query = bcc_obs::span!("service.query");
                let result = match rep.budget.or(default_budget) {
                    None => system
                        .query_resilient(rep.submit_node, rep.k, rep.bandwidth, retry)
                        .map(Budgeted::Done),
                    Some(budget) => {
                        system.query_budgeted(rep.submit_node, rep.k, rep.bandwidth, retry, budget)
                    }
                };
                (j, result)
            })
            .collect();

        // Accounting in lane order, after every lane has run: breaker
        // transitions, the fallback ladder (which may consume stale
        // entries) and cache fills.
        for (j, result) in results {
            self.stats.executed += 1;
            bcc_obs::inc!("service.executed");
            let lane = jobs[j].key.class_idx;
            let (result, tier, from_cache) = match result {
                Ok(Budgeted::Done(outcome)) => {
                    self.breakers[lane].on_success();
                    self.cache
                        .insert(jobs[j].key, epoch, digest, outcome.clone());
                    (Ok(outcome), Tier::Exact, false)
                }
                Ok(Budgeted::Exhausted {
                    pairs_done,
                    best_partial,
                }) => {
                    self.breakers[lane].on_exhaustion(self.ticks);
                    bcc_obs::inc!("service.budget_exhausted");
                    // The fallback ladder: a labeled stale answer beats
                    // the partial one. Degraded answers are never cached.
                    match self.cache.take_stale(&jobs[j].key, epoch) {
                        Some((outcome, age_epochs)) => {
                            (Ok(outcome), Tier::StaleCache { age_epochs }, true)
                        }
                        None => (Ok(best_partial), Tier::Partial { pairs_done }, false),
                    }
                }
                // Execution errors are not overload: they resolve a
                // HalfOpen probe as a success so an erroring lane cannot
                // wedge its breaker, and they are never cached.
                Err(e) => {
                    self.breakers[lane].on_success();
                    (Err(e), Tier::Exact, false)
                }
            };
            self.stats.coalesced += (jobs[j].positions.len() - 1) as u64;
            bcc_obs::add!("service.coalesced", (jobs[j].positions.len() - 1) as u64);
            for &pos in &jobs[j].positions {
                outcomes[pos] = Some((result.clone(), from_cache, tier));
            }
        }

        batch
            .into_iter()
            .zip(outcomes)
            .map(|((ticket, query, class_idx), slot)| {
                let (outcome, cached, tier) = slot.expect("every position answered");
                match tier {
                    Tier::Exact => {}
                    Tier::StaleCache { .. } => {
                        self.stats.degraded_stale += 1;
                        bcc_obs::inc!("service.degraded_stale");
                    }
                    Tier::Partial { .. } => {
                        self.stats.degraded_partial += 1;
                        bcc_obs::inc!("service.degraded_partial");
                    }
                }
                ServiceResponse {
                    ticket,
                    query,
                    class_idx,
                    outcome,
                    cached,
                    tier,
                }
            })
            .collect()
    }

    /// Joins a universe host (see [`DynamicSystem::join`]).
    ///
    /// # Errors
    ///
    /// Propagates [`DynamicSystem::join`] failures.
    pub fn join(&mut self, host: NodeId) -> Result<(), ChurnError> {
        self.system.join(host)
    }

    /// Gracefully removes a host (see [`DynamicSystem::leave`]).
    ///
    /// # Errors
    ///
    /// Propagates [`DynamicSystem::leave`] failures.
    pub fn leave(&mut self, host: NodeId) -> Result<(), ChurnError> {
        self.system.leave(host)
    }

    /// Crashes a host without warning (see [`DynamicSystem::crash`]).
    ///
    /// # Errors
    ///
    /// Propagates [`DynamicSystem::crash`] failures.
    pub fn crash(&mut self, host: NodeId) -> Result<(), ChurnError> {
        self.system.crash(host)
    }

    /// Recovers a crashed host (see [`DynamicSystem::recover`]).
    ///
    /// # Errors
    ///
    /// Propagates [`DynamicSystem::recover`] failures.
    pub fn recover(&mut self, host: NodeId) -> Result<(), ChurnError> {
        self.system.recover(host)
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

    /// The wrapped system.
    pub fn system(&self) -> &DynamicSystem {
        &self.system
    }

    /// Runs `f` with mutable access to the wrapped system — the hook chaos
    /// harnesses use to open fault windows or disturb gossip state. Safe
    /// for the cache: any state change shows up in the live digest, which
    /// every lookup is validated against. The only way from here to the
    /// overlay is [`DynamicSystem::network_mut`], which forgets the
    /// memoised digest at hand-out, so the next batch hashes what `f`
    /// left behind.
    pub fn with_system_mut<R>(&mut self, f: impl FnOnce(&mut DynamicSystem) -> R) -> R {
        f(&mut self.system)
    }

    /// The `(epoch, digest)` stamp of the system's incrementally-maintained
    /// cluster index (see [`DynamicSystem::index_stamp`]). The epoch half
    /// is the same value cache keys are validated against, so the service
    /// adopts the index transparently: any churn that would invalidate
    /// cached answers also moves this stamp, and vice versa.
    pub fn index_stamp(&self) -> (u64, u64) {
        self.system.index_stamp()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Queries admitted but not yet executed.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Aggregate serving counters so far.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The result cache's own counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Entries currently in the cache's second-chance stale tier.
    pub fn stale_len(&self) -> usize {
        self.cache.stale_len()
    }

    /// The logical clock: [`tick`](ClusterService::tick) calls so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The breaker state of one bandwidth-class lane (`None` when out of
    /// range).
    pub fn breaker_state(&self, lane: usize) -> Option<BreakerState> {
        self.breakers.get(lane).map(CircuitBreaker::state)
    }

    /// Breaker transition counters aggregated over every lane.
    pub fn breaker_stats(&self) -> BreakerStats {
        let mut total = BreakerStats::default();
        for b in &self.breakers {
            total.merge(&b.stats());
        }
        total
    }

    /// Publishes the service's and cache's counters into the
    /// process-global `bcc-obs` registry (as `service.stats.*` and
    /// `service.cache.stats.*` gauges), complementing the incremental
    /// counters the hot paths maintain. Call before snapshotting.
    pub fn publish_obs(&self) {
        self.stats.publish_obs("service.stats");
        self.cache_stats().publish_obs("service.cache.stats");
        self.breaker_stats().publish_obs("service.breaker.stats");
    }
}
