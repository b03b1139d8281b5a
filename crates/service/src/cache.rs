//! Churn-aware result cache: `(submit node, k, b-class)` → answer, valid
//! only for the exact overlay state it was computed against.
//!
//! Every entry is stamped with the membership **epoch**
//! ([`bcc_simnet::DynamicSystem::epoch`]) and the overlay gossip **digest**
//! ([`bcc_simnet::DynamicSystem::live_digest`]) at compute time. A lookup
//! must present the *current* epoch and digest; any mismatch — a join, a
//! leave, a crash, a recovery, or a fault window that disturbed gossip
//! state without changing membership — invalidates the entry on the spot.
//! Stale answers are therefore never served by construction; the
//! differential chaos run (`bcc_shard::harness::differential`) checks
//! every served exact answer against an independent reference system.
//!
//! Presenting the current stamp is O(1): the system memoises the digest
//! and forgets it on every write path to the overlay, so validation never
//! re-hashes an unchanged overlay.
//!
//! Eviction is **LRU** (least recently used) and strictly bounded by
//! capacity: a hit moves the entry to the back of the recency order, so
//! hot keys survive capacity pressure while cold ones age out. Recency is
//! tracked with a monotonic sequence number per entry and a keyed
//! `BTreeMap<seq, key>` order index, making hit refresh, invalidation and
//! eviction all `O(log capacity)` — no linear scans anywhere. The cache
//! stays deterministic: the same workload against the same system produces
//! the same hit/miss/eviction sequence regardless of thread count.
//!
//! # Second-chance stale tier
//!
//! An invalidated entry is not dropped outright: it is demoted into a
//! bounded **stale tier**, still keyed and LRU-ordered but never consulted
//! by [`ResultCache::lookup`]. The serving layer may explicitly reach into
//! it with [`ResultCache::take_stale`] when a query's work budget runs out
//! — a degraded answer labeled `Tier::StaleCache { age_epochs }` beats a
//! shed. A stale entry is served **at most once** (`take_stale` removes
//! it), so `stale_served <= invalidated` holds by construction.

use std::collections::btree_map::BTreeMap;
use std::collections::hash_map::{Entry, HashMap};

use bcc_core::QueryOutcome;
use bcc_metric::NodeId;

/// Cache key: the query identity after class snapping.
///
/// The raw bandwidth is deliberately absent — two queries whose `b` snaps
/// to the same class are answered identically (the walk only ever consults
/// the class), so keying by class maximizes hits without risking a
/// different answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query entry node.
    pub start: NodeId,
    /// Requested cluster size.
    pub k: usize,
    /// Snapped bandwidth-class index.
    pub class_idx: usize,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    epoch: u64,
    digest: u64,
    /// Position in the recency order (key into `ResultCache::order`);
    /// refreshed to the newest sequence number on every hit.
    seq: u64,
    outcome: QueryOutcome,
}

/// A demoted entry in the second-chance stale tier. The digest is gone —
/// staleness is already established — but the compute epoch is kept so a
/// stale serve can be labeled with its age.
#[derive(Debug, Clone)]
struct StaleEntry {
    /// The membership epoch the answer was computed under.
    epoch: u64,
    /// Position in the stale recency order (key into
    /// `ResultCache::stale_order`).
    seq: u64,
    outcome: QueryOutcome,
}

/// Counters of a [`ResultCache`] (eviction policy: LRU — see the module
/// docs; a hit refreshes recency, so `hits` measures entries that stayed
/// hot enough to survive).
///
/// Counter identities, maintained by construction and asserted in the
/// service proptests:
///
/// - `hits + misses + disabled == lookups`
/// - `invalidated <= misses` (an invalidation is also counted as a miss)
/// - `replaced <= inserted`, `evicted <= inserted`
/// - `stale_served <= invalidated` (only demoted entries are servable,
///   each at most once)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total [`ResultCache::lookup`] calls, successful or not.
    pub lookups: u64,
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Enabled-cache lookups with no usable entry.
    pub misses: u64,
    /// Lookups (and nothing else) arriving while the cache was disabled
    /// (capacity 0) — counted separately from `misses` so a disabled
    /// cache reports a zero miss rate instead of a fake 100% one.
    pub disabled: u64,
    /// Entries dropped because their epoch/digest no longer matched the
    /// live overlay (churn or fault disturbance since compute time).
    pub invalidated: u64,
    /// Entries dropped to respect the capacity bound.
    pub evicted: u64,
    /// Entries stored (including overwrites; see `replaced`).
    pub inserted: u64,
    /// The subset of `inserted` that overwrote an existing key in place
    /// rather than growing the cache.
    pub replaced: u64,
    /// Demoted (invalidated) entries explicitly served from the stale
    /// tier via [`ResultCache::take_stale`]. Each is served at most once,
    /// so `stale_served <= invalidated` by construction.
    pub stale_served: u64,
}

impl CacheStats {
    /// Publishes every counter into the process-global `bcc-obs` registry
    /// as gauges named `<prefix>.<field>` (the cache half of the
    /// `ServiceStats → obs` bridge). No-op when obs is disabled.
    pub fn publish_obs(&self, prefix: &str) {
        if !bcc_obs::enabled() {
            return;
        }
        let reg = bcc_obs::registry();
        for (field, value) in [
            ("lookups", self.lookups),
            ("hits", self.hits),
            ("misses", self.misses),
            ("disabled", self.disabled),
            ("invalidated", self.invalidated),
            ("evicted", self.evicted),
            ("inserted", self.inserted),
            ("replaced", self.replaced),
            ("stale_served", self.stale_served),
        ] {
            reg.gauge(&format!("{prefix}.{field}")).set(value);
        }
    }
}

/// A bounded, epoch+digest-validated LRU result cache.
#[derive(Debug, Clone)]
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, CacheEntry>,
    /// Recency index: sequence number → key, oldest first. Entries know
    /// their own `seq`, so removal by key is `O(log n)` — never a scan.
    order: BTreeMap<u64, CacheKey>,
    /// Next recency sequence number (monotonic; assigned on insert and on
    /// every hit refresh).
    next_seq: u64,
    /// Second-chance tier: invalidated entries kept for budget-exhausted
    /// degraded serves. Bounded by `capacity`, same LRU discipline.
    stale: HashMap<CacheKey, StaleEntry>,
    /// Stale-tier recency index, oldest first.
    stale_order: BTreeMap<u64, CacheKey>,
    stats: CacheStats,
}

impl ResultCache {
    /// Creates a cache bounded at `capacity` entries (`0` = caching
    /// disabled: every lookup is counted `disabled` and returns nothing,
    /// every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_seq: 0,
            stale: HashMap::new(),
            stale_order: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Draws the next recency sequence number.
    fn bump_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Looks up `key` against the live overlay identified by `(epoch,
    /// digest)`. A stored entry computed under any other overlay state is
    /// removed and counted as invalidated, never returned. A fresh hit
    /// moves the entry to the back of the LRU order.
    pub fn lookup(&mut self, key: &CacheKey, epoch: u64, digest: u64) -> Option<&QueryOutcome> {
        let _span = bcc_obs::span!("service.cache.lookup");
        self.stats.lookups += 1;
        if !self.enabled() {
            self.stats.disabled += 1;
            bcc_obs::inc!("service.cache.disabled");
            return None;
        }
        let fresh = self
            .map
            .get(key)
            .map(|e| e.epoch == epoch && e.digest == digest);
        match fresh {
            Some(true) => {
                // Move-to-back: retire the entry's old order slot and
                // give it the newest sequence number.
                let seq = self.bump_seq();
                let e = self.map.get_mut(key).expect("presence just checked");
                let old = std::mem::replace(&mut e.seq, seq);
                self.order.remove(&old);
                self.order.insert(seq, *key);
                self.stats.hits += 1;
                bcc_obs::inc!("service.cache.hits");
                self.map.get(key).map(|e| &e.outcome)
            }
            Some(false) => {
                let entry = self.map.remove(key).expect("presence just checked");
                self.order.remove(&entry.seq);
                self.stats.invalidated += 1;
                self.stats.misses += 1;
                bcc_obs::inc!("service.cache.invalidated");
                bcc_obs::inc!("service.cache.misses");
                self.demote(*key, entry);
                None
            }
            None => {
                self.stats.misses += 1;
                bcc_obs::inc!("service.cache.misses");
                None
            }
        }
    }

    /// Stores an answer computed under `(epoch, digest)` at the back of
    /// the LRU order, evicting least-recently-used entries beyond
    /// capacity. Overwriting an existing key updates it in place (counted
    /// as `replaced` as well as `inserted`).
    pub fn insert(&mut self, key: CacheKey, epoch: u64, digest: u64, outcome: QueryOutcome) {
        if !self.enabled() {
            return;
        }
        let seq = self.bump_seq();
        let entry = CacheEntry {
            epoch,
            digest,
            seq,
            outcome,
        };
        match self.map.entry(key) {
            Entry::Occupied(mut occ) => {
                let old = std::mem::replace(occ.get_mut(), entry);
                self.order.remove(&old.seq);
                self.stats.replaced += 1;
                bcc_obs::inc!("service.cache.replaced");
            }
            Entry::Vacant(vac) => {
                vac.insert(entry);
            }
        }
        self.order.insert(seq, key);
        self.stats.inserted += 1;
        bcc_obs::inc!("service.cache.inserted");
        while self.map.len() > self.capacity {
            let (_, oldest) = self.order.pop_first().expect("order tracks map");
            self.map.remove(&oldest);
            self.stats.evicted += 1;
            bcc_obs::inc!("service.cache.evicted");
        }
    }

    /// Moves an invalidated entry into the second-chance stale tier at
    /// the back of its LRU order, evicting the oldest stale entries
    /// beyond capacity. A newer demotion of the same key wins.
    fn demote(&mut self, key: CacheKey, entry: CacheEntry) {
        let seq = self.bump_seq();
        if let Some(old) = self.stale.insert(
            key,
            StaleEntry {
                epoch: entry.epoch,
                seq,
                outcome: entry.outcome,
            },
        ) {
            self.stale_order.remove(&old.seq);
        }
        self.stale_order.insert(seq, key);
        while self.stale.len() > self.capacity {
            let (_, oldest) = self
                .stale_order
                .pop_first()
                .expect("order tracks stale map");
            self.stale.remove(&oldest);
        }
    }

    /// Removes and returns the stale-tier entry for `key`, if any, as
    /// `(outcome, age_epochs)` where the age is measured against
    /// `current_epoch`. This is the degraded-serve path: the caller must
    /// label the answer `Tier::StaleCache`, never exact. The removal makes
    /// each stale entry servable at most once, which keeps
    /// `stale_served <= invalidated` an invariant.
    pub fn take_stale(
        &mut self,
        key: &CacheKey,
        current_epoch: u64,
    ) -> Option<(QueryOutcome, u64)> {
        let entry = self.stale.remove(key)?;
        self.stale_order.remove(&entry.seq);
        self.stats.stale_served += 1;
        bcc_obs::inc!("service.cache.stale_served");
        Some((entry.outcome, current_epoch.saturating_sub(entry.epoch)))
    }

    /// Entries currently in the second-chance stale tier.
    pub fn stale_len(&self) -> usize {
        self.stale.len()
    }

    /// Drops every entry, fresh and stale (counters survive).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.stale.clear();
        self.stale_order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::Degradation;

    fn key(start: usize, k: usize, class_idx: usize) -> CacheKey {
        CacheKey {
            start: NodeId::new(start),
            k,
            class_idx,
        }
    }

    fn outcome(tag: usize) -> QueryOutcome {
        QueryOutcome {
            cluster: Some(vec![NodeId::new(tag)]),
            hops: tag,
            path: vec![NodeId::new(tag)],
            degradation: Degradation::default(),
        }
    }

    #[test]
    fn hit_only_on_matching_epoch_and_digest() {
        let mut c = ResultCache::new(8);
        c.insert(key(0, 2, 1), 5, 77, outcome(1));
        assert!(c.lookup(&key(0, 2, 1), 5, 77).is_some());
        // Epoch moved on (churn): entry is invalidated, not served.
        assert!(c.lookup(&key(0, 2, 1), 6, 77).is_none());
        assert_eq!(c.stats().invalidated, 1);
        assert!(c.is_empty());
        // Digest moved with the same epoch (fault window): same treatment.
        c.insert(key(0, 2, 1), 6, 77, outcome(1));
        assert!(c.lookup(&key(0, 2, 1), 6, 78).is_none());
        assert_eq!(c.stats().invalidated, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().lookups, 3);
        assert_eq!(c.stats().disabled, 0);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut c = ResultCache::new(2);
        c.insert(key(0, 2, 0), 1, 1, outcome(0));
        c.insert(key(1, 2, 0), 1, 1, outcome(1));
        c.insert(key(2, 2, 0), 1, 1, outcome(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evicted, 1);
        assert!(c.lookup(&key(0, 2, 0), 1, 1).is_none(), "oldest evicted");
        assert!(c.lookup(&key(2, 2, 0), 1, 1).is_some());
    }

    #[test]
    fn hot_key_survives_capacity_pressure() {
        // The LRU regression test: under the old FIFO behavior (lookup
        // never refreshed recency) the repeatedly-hit key was evicted
        // first and this test fails.
        let mut c = ResultCache::new(2);
        c.insert(key(0, 2, 0), 1, 1, outcome(0)); // hot
        c.insert(key(1, 2, 0), 1, 1, outcome(1)); // cold
        assert!(c.lookup(&key(0, 2, 0), 1, 1).is_some(), "hit refreshes");
        c.insert(key(2, 2, 0), 1, 1, outcome(2)); // pressure: evicts LRU
        assert!(
            c.lookup(&key(0, 2, 0), 1, 1).is_some(),
            "hot key must survive capacity pressure"
        );
        assert!(
            c.lookup(&key(1, 2, 0), 1, 1).is_none(),
            "cold key is the LRU victim"
        );
        assert_eq!(c.stats().evicted, 1);
    }

    #[test]
    fn repeated_hits_keep_key_alive_through_churn_of_inserts() {
        let mut c = ResultCache::new(3);
        c.insert(key(0, 2, 0), 1, 1, outcome(0));
        for i in 1..20 {
            c.insert(key(i, 2, 0), 1, 1, outcome(i));
            assert!(
                c.lookup(&key(0, 2, 0), 1, 1).is_some(),
                "hot key evicted at insert {i}"
            );
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = ResultCache::new(2);
        c.insert(key(0, 2, 0), 1, 1, outcome(0));
        c.insert(key(0, 2, 0), 2, 2, outcome(9));
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.lookup(&key(0, 2, 0), 2, 2)
                .expect("freshly reinserted entry must hit")
                .hops,
            9
        );
        assert_eq!(c.stats().inserted, 2);
        assert_eq!(c.stats().replaced, 1, "overwrite distinguished");
        assert_eq!(c.stats().evicted, 0, "in-place update is not eviction");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        assert!(!c.enabled());
        c.insert(key(0, 2, 0), 1, 1, outcome(0));
        assert!(c.is_empty());
        assert!(c.lookup(&key(0, 2, 0), 1, 1).is_none());
        // A disabled cache reports `disabled`, not a fake miss.
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats().disabled, 1);
        assert_eq!(c.stats().lookups, 1);
    }

    #[test]
    fn invalidated_entries_demote_to_the_stale_tier() {
        let mut c = ResultCache::new(4);
        c.insert(key(0, 2, 1), 5, 77, outcome(9));
        assert!(c.lookup(&key(0, 2, 1), 8, 78).is_none(), "invalidated");
        assert_eq!(c.stale_len(), 1, "demoted, not dropped");
        let (out, age) = c
            .take_stale(&key(0, 2, 1), 8)
            .expect("demoted entry is available to the degraded path");
        assert_eq!(out.hops, 9);
        assert_eq!(age, 3, "computed at epoch 5, now epoch 8");
        assert_eq!(c.stats().stale_served, 1);
    }

    #[test]
    fn stale_entries_serve_at_most_once() {
        let mut c = ResultCache::new(4);
        c.insert(key(0, 2, 0), 1, 1, outcome(0));
        c.lookup(&key(0, 2, 0), 2, 1); // demote
        assert!(c.take_stale(&key(0, 2, 0), 2).is_some());
        assert!(c.take_stale(&key(0, 2, 0), 2).is_none(), "removed on serve");
        assert_eq!(c.stale_len(), 0);
        let s = c.stats();
        assert!(s.stale_served <= s.invalidated);
    }

    #[test]
    fn stale_tier_is_bounded_and_lru() {
        let mut c = ResultCache::new(2);
        for i in 0..4 {
            c.insert(key(i, 2, 0), 1, 1, outcome(i));
            c.lookup(&key(i, 2, 0), 2, 1); // demote each immediately
        }
        assert_eq!(c.stale_len(), 2, "stale tier bounded by capacity");
        assert!(c.take_stale(&key(0, 2, 0), 2).is_none(), "oldest aged out");
        assert!(c.take_stale(&key(3, 2, 0), 2).is_some(), "newest kept");
    }

    #[test]
    fn redemotion_of_a_key_keeps_the_newer_answer() {
        let mut c = ResultCache::new(4);
        c.insert(key(0, 2, 0), 1, 1, outcome(1));
        c.lookup(&key(0, 2, 0), 2, 1); // demote the epoch-1 answer
        c.insert(key(0, 2, 0), 2, 1, outcome(7));
        c.lookup(&key(0, 2, 0), 3, 1); // demote the epoch-2 answer
        let (out, age) = c.take_stale(&key(0, 2, 0), 3).expect("stale entry");
        assert_eq!(out.hops, 7, "newer demotion wins");
        assert_eq!(age, 1);
        assert_eq!(c.stale_len(), 0, "no duplicate slots left behind");
    }

    #[test]
    fn clear_drops_the_stale_tier_too() {
        let mut c = ResultCache::new(4);
        c.insert(key(0, 2, 0), 1, 1, outcome(0));
        c.lookup(&key(0, 2, 0), 2, 1);
        assert_eq!(c.stale_len(), 1);
        c.clear();
        assert_eq!(c.stale_len(), 0);
        assert!(c.take_stale(&key(0, 2, 0), 2).is_none());
    }

    #[test]
    fn counter_identities_hold() {
        let mut c = ResultCache::new(2);
        for i in 0..6 {
            c.insert(key(i % 3, 2, 0), 1, 1, outcome(i));
            c.lookup(&key(i % 4, 2, 0), 1, 1);
            c.lookup(&key(0, 2, 0), 2, 2); // epoch mismatch path
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses + s.disabled, s.lookups);
        assert!(s.invalidated <= s.misses);
        assert!(s.stale_served <= s.invalidated);
        assert!(s.replaced <= s.inserted);
        assert!(s.evicted <= s.inserted);
        assert_eq!(
            c.len() as u64,
            s.inserted - s.replaced - s.evicted - s.invalidated
        );
    }
}
