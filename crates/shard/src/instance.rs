//! One shard of the sharded serving deployment.
//!
//! A [`ShardInstance`] owns two things:
//!
//! - a full [`ClusterService`] over the shard's own members (its own
//!   [`bcc_simnet::DynamicSystem`], epoch, result cache and circuit
//!   breakers) — this is what serves shard-*direct* traffic, completely
//!   unchanged from the unsharded serving layer, and what gives the shard
//!   its churn epoch;
//! - a *region index*: a [`ClusterIndex`] over the shard's active members
//!   under the **global** label metric, maintained incrementally by the
//!   coordinator on every churn op. Cross-shard scatter–gather reads only
//!   this index, so shard answers merge bit-identically with the
//!   unsharded baseline.

use bcc_core::ClusterIndex;
use bcc_service::ClusterService;

/// Per-shard serving counters, surfaced as `shard.<id>.*` obs gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Region queries this shard owned (its member was the start host),
    /// cached serves included.
    pub queries: u64,
    /// Times this shard was consulted as a *non-owner* — its boundary
    /// ball straddled the query and it scanned for candidates.
    pub forwarded: u64,
    /// Candidates this shard contributed to cross-shard merges (owner
    /// ball members plus non-owner scan results).
    pub merge_candidates: u64,
}

/// One shard: a self-contained serving instance plus its region index.
#[derive(Debug)]
pub struct ShardInstance {
    pub(crate) id: usize,
    pub(crate) service: ClusterService,
    pub(crate) region: ClusterIndex,
    pub(crate) reachable: bool,
    pub(crate) stats: ShardStats,
}

impl ShardInstance {
    /// The shard's id (its position in the plan).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's own serving layer — per-shard admission, breakers and
    /// cache, exactly the unsharded [`ClusterService`].
    pub fn service(&self) -> &ClusterService {
        &self.service
    }

    /// The region index: this shard's active members under the global
    /// label metric, slot order ascending by id.
    pub fn region(&self) -> &ClusterIndex {
        &self.region
    }

    /// Whether the coordinator can currently reach this shard (partition
    /// nemeses flip this; see `Coordinator::set_reachable`).
    pub fn reachable(&self) -> bool {
        self.reachable
    }

    /// The shard's serving counters.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// The shard's `(epoch, digest)` freshness stamp: its service's
    /// membership epoch and its region index's content digest. Cross-
    /// shard cache entries record the stamp of every contributor and
    /// revalidate against it — the epoch catches the shard's own churn,
    /// the digest additionally catches re-embeds of this shard's members
    /// caused by *other* shards' churn (global labels moved, local
    /// membership did not).
    pub fn stamp(&self) -> (u64, u64) {
        (self.service.system().epoch(), self.region.digest())
    }
}
