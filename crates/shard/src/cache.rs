//! The coordinator's cross-shard result cache.
//!
//! Entries are keyed `(start, k, class)` like the service cache, but
//! freshness is *vectored*: each entry records the `(epoch, digest)`
//! stamp of every shard that contributed candidates. At lookup the
//! coordinator revalidates the whole vector — every contributor must
//! match its current stamp, and every shard that was *pruned* at compute
//! time must still pass the O(1) prune test (its members could have
//! moved into range). Degraded answers are never cached.

use std::collections::{BTreeMap, VecDeque};

use bcc_metric::NodeId;

/// Cache key: one region query shape.
pub(crate) type CoordKey = (u32, usize, usize);

/// One cached cross-shard answer with its freshness certificate.
#[derive(Debug, Clone)]
pub(crate) struct CoordEntry {
    /// The merged answer (ascending host ids inside the cluster kernel's
    /// canonical order), `None` when no cluster existed.
    pub answer: Option<Vec<NodeId>>,
    /// `(shard, stamp)` for every shard that contributed candidates, in
    /// shard order. Shards absent here were pruned.
    pub contributors: Vec<(usize, (u64, u64))>,
    /// Shards consulted (non-pruned) when the entry was computed.
    pub consulted: usize,
    /// Merged candidate-set size when the entry was computed.
    pub candidates: usize,
}

/// Counters of the coordinator cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordCacheStats {
    /// Lookups attempted.
    pub lookups: u64,
    /// Lookups whose full freshness vector validated.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found an entry with a stale vector (dropped).
    pub invalidated: u64,
    /// Entries stored.
    pub inserted: u64,
    /// Entries evicted by capacity (FIFO).
    pub evicted: u64,
}

/// Bounded FIFO map of cross-shard answers. Determinism: `BTreeMap`
/// iteration and FIFO eviction are both order-stable, so cache state is a
/// pure function of the operation sequence.
#[derive(Debug)]
pub(crate) struct CoordCache {
    map: BTreeMap<CoordKey, CoordEntry>,
    order: VecDeque<CoordKey>,
    capacity: usize,
    stats: CoordCacheStats,
}

impl CoordCache {
    pub fn new(capacity: usize) -> Self {
        CoordCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: CoordCacheStats::default(),
        }
    }

    /// Raw entry access; the coordinator validates the freshness vector
    /// itself (it needs the live shard stamps) and then settles the
    /// lookup with [`CoordCache::hit`] or [`CoordCache::invalidate`].
    pub fn peek(&mut self, key: &CoordKey) -> Option<&CoordEntry> {
        self.stats.lookups += 1;
        let entry = self.map.get(key);
        if entry.is_none() {
            self.stats.misses += 1;
        }
        entry
    }

    pub fn hit(&mut self) {
        self.stats.hits += 1;
    }

    pub fn invalidate(&mut self, key: &CoordKey) {
        if self.map.remove(key).is_some() {
            self.stats.invalidated += 1;
            self.order.retain(|k| k != key);
        }
    }

    pub fn insert(&mut self, key: CoordKey, entry: CoordEntry) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key, entry).is_none() {
            self.order.push_back(key);
        }
        self.stats.inserted += 1;
        while self.map.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                self.stats.evicted += 1;
            }
        }
    }

    pub fn stats(&self) -> CoordCacheStats {
        self.stats
    }
}
