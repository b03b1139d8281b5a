//! The one store of predicted distances a [`crate::SimNetwork`] reads.
//!
//! In the paper a node derives predicted distances from distance labels
//! (Sec. II-D), so what it holds scales with the hosts it knows, not with
//! every host that might ever exist. The simulator's cache of those
//! distances follows the same rule: a block over *member slots*, sized to
//! the live membership, with a 4-byte slot per universe id.

use bcc_core::Distances;
use bcc_metric::NodeId;

/// Predicted distances over stable member slots.
///
/// Every host with a slot keeps it until it is released, so churn of
/// other hosts never moves its row. Slot 0 is a sentinel whose row and
/// column are `+∞`: a host without a slot maps to it, so every read is
/// `data[slot_of[a] · cap + slot_of[b]]` with no branch, and a host that
/// never joined (or has left) is infinitely far from everyone — the same
/// answer [`crate::fw_label_dist`] gives for a host with no label.
///
/// `cap`, the side of the block, is the next power of two at or above the
/// slots in use plus the sentinel, at most the universe plus one. It grows
/// by doubling under the same bound when a slot is assigned past it, and
/// released slots are reused before fresh ones, so it follows the peak
/// membership and nothing else.
#[derive(Debug, Clone)]
pub(crate) struct MemberStore {
    /// Universe id → slot, 0 for a host with no slot.
    slot_of: Vec<u32>,
    /// Side of `data`.
    cap: usize,
    /// `cap × cap` distances by slot, row-major.
    data: Vec<f64>,
    /// Released slots, reused last-in first-out before a fresh one.
    free: Vec<u32>,
    /// Fresh slots handed out so far: every slot in `1..=fresh` is either
    /// held or free.
    fresh: u32,
}

impl MemberStore {
    /// A store over `universe` ids holding `members`, slots in the order
    /// given, with `dist(a, b)` for every pair (`a` listed before `b`).
    pub(crate) fn build(
        universe: usize,
        members: &[NodeId],
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> Self {
        let mut store = MemberStore {
            slot_of: vec![0; universe],
            cap: 0,
            data: Vec::new(),
            free: Vec::new(),
            fresh: 0,
        };
        store.resize((members.len() + 1).next_power_of_two().min(universe + 1));
        let slots: Vec<u32> = members.iter().map(|&m| store.assign(m)).collect();
        for (i, &a) in members.iter().enumerate() {
            for (&b, &sb) in members[i + 1..].iter().zip(&slots[i + 1..]) {
                store.set(slots[i], sb, dist(a, b));
            }
        }
        store
    }

    /// Number of ids the store maps.
    fn universe(&self) -> usize {
        self.slot_of.len()
    }

    /// Side of the distance block, the sentinel included.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// `host`'s slot, assigning one if it has none: the last released slot
    /// if any, else the next fresh one, doubling the block when that slot
    /// does not fit. A newly assigned slot's row holds stale values (or
    /// `+∞`) until its owner's distances are [`MemberStore::set`].
    pub(crate) fn assign(&mut self, host: NodeId) -> u32 {
        let held = self.slot_of[host.index()];
        if held != 0 {
            return held;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.fresh += 1;
            self.fresh
        });
        if slot as usize >= self.cap {
            self.resize((2 * self.cap).min(self.universe() + 1));
        }
        self.slot_of[host.index()] = slot;
        let s = slot as usize;
        self.data[s * self.cap + s] = 0.0;
        slot
    }

    /// Frees `host`'s slot for the next [`MemberStore::assign`]; `host`
    /// reads `+∞` from then on. A host with no slot is left alone.
    pub(crate) fn release(&mut self, host: NodeId) {
        let slot = std::mem::take(&mut self.slot_of[host.index()]);
        if slot != 0 {
            self.free.push(slot);
        }
    }

    /// Writes the distance between two assigned slots, both orientations.
    ///
    /// # Panics
    ///
    /// Panics on the sentinel: its row and column stay `+∞`.
    pub(crate) fn set(&mut self, a: u32, b: u32, d: f64) {
        assert!(a != 0 && b != 0, "the sentinel slot is never written");
        let (a, b) = (a as usize, b as usize);
        self.data[a * self.cap + b] = d;
        self.data[b * self.cap + a] = d;
    }

    /// Re-lays the block at side `cap`, keeping every entry; new entries
    /// are `+∞`.
    fn resize(&mut self, cap: usize) {
        let old = self.cap;
        let mut data = vec![f64::INFINITY; cap * cap];
        for r in 0..old {
            data[r * cap..r * cap + old].copy_from_slice(&self.data[r * old..(r + 1) * old]);
        }
        self.cap = cap;
        self.data = data;
    }
}

/// The search read path: a visit binds each host to its slot once.
impl Distances for &MemberStore {
    type Key = u32;

    #[inline]
    fn key(&mut self, host: NodeId) -> u32 {
        self.slot_of[host.index()]
    }

    #[inline]
    fn dist(&mut self, a: u32, b: u32) -> f64 {
        debug_assert!(
            a != 0 && b != 0,
            "a search read a host with no slot (two distinct hosts on the sentinel)"
        );
        self.data[a as usize * self.cap + b as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metric::DistanceMatrix;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// `d(a, b)` by id, without the search path's sentinel assertion.
    fn get(store: &MemberStore, a: NodeId, b: NodeId) -> f64 {
        let (sa, sb) = (store.slot_of[a.index()], store.slot_of[b.index()]);
        store.data[sa as usize * store.cap + sb as usize]
    }

    #[test]
    fn an_empty_store_is_the_sentinel_alone() {
        let store = MemberStore::build(5, &[], |_, _| unreachable!());
        assert_eq!(store.capacity(), 1);
        assert_eq!(get(&store, n(0), n(3)), f64::INFINITY);
    }

    #[test]
    fn build_sizes_to_the_members_and_caps_at_the_universe() {
        let line = |a: NodeId, b: NodeId| a.index().abs_diff(b.index()) as f64;
        let three = MemberStore::build(100, &[n(7), n(2), n(40)], line);
        assert_eq!(three.capacity(), 4);
        assert_eq!(get(&three, n(40), n(2)), 38.0);
        assert_eq!(get(&three, n(7), n(7)), 0.0);
        assert_eq!(get(&three, n(7), n(8)), f64::INFINITY);
        let all: Vec<NodeId> = (0..5).map(n).collect();
        assert_eq!(MemberStore::build(5, &all, line).capacity(), 6);
    }

    #[test]
    fn the_search_path_reads_by_slot() {
        let store = MemberStore::build(10, &[n(4), n(9)], |_, _| 2.5);
        let mut read = &store;
        let (a, b) = (read.key(n(9)), read.key(n(4)));
        assert_eq!(read.dist(a, b), 2.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sentinel")]
    fn the_search_path_never_reads_the_sentinel() {
        let store = MemberStore::build(10, &[n(4)], |_, _| 1.0);
        let mut read = &store;
        let (a, b) = (read.key(n(4)), read.key(n(5)));
        let _ = read.dist(a, b);
    }

    /// One step of a membership schedule over ids `0..24`, drawn as
    /// `(kind, a, b)`: kinds 0–2 join `a` (assign a slot if it has none and
    /// write its row against every live id), 3–4 release `a`, 5 rewrites
    /// the live pair `(a, b)`. Steps that do not apply are skipped.
    type Step = (u8, usize, usize);

    /// Cases run by the proptest, and the slot reuses they saw in total.
    const CASES: u32 = 64;
    static SEEN: AtomicU32 = AtomicU32::new(0);
    static REUSES: AtomicU32 = AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn the_store_reads_what_a_universe_matrix_holds(
            universe in 1usize..24,
            steps in prop::collection::vec((0u8..6, 0usize..24, 0usize..24), 1..120),
            seed in any::<u64>(),
        ) {
            let mut store = MemberStore::build(universe, &[], |_, _| unreachable!());
            let mut oracle = DistanceMatrix::new(universe);
            let mut live = vec![false; universe];
            let mut state = seed;
            let mut value = move || {
                // A Weyl step: distinct, exactly representable distances.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                (state >> 40) as f64 / 8.0
            };
            let mut peak = 0usize;
            for (kind, a, b) in steps.into_iter().map(|(k, a, b): Step| (k, a % universe, b % universe)) {
                match kind {
                    0..=2 if !live[a] => {
                        let reused = !store.free.is_empty();
                        let before: Vec<(usize, usize, u64)> = entries(&store, &live);
                        let slot = store.assign(n(a));
                        REUSES.fetch_add(u32::from(reused), Ordering::Relaxed);
                        prop_assert!((slot as usize) < store.capacity());
                        // Assigning (and growing) keeps every live entry.
                        prop_assert_eq!(before, entries(&store, &live));
                        live[a] = true;
                        for b in (0..universe).filter(|&b| live[b] && b != a) {
                            let d = value();
                            oracle.set(a, b, d);
                            store.set(slot, store.slot_of[b], d);
                        }
                    }
                    3 | 4 if live[a] => {
                        store.release(n(a));
                        live[a] = false;
                    }
                    5 if a != b && live[a] && live[b] => {
                        let d = value();
                        oracle.set(a, b, d);
                        store.set(store.slot_of[a], store.slot_of[b], d);
                    }
                    _ => {}
                }
                peak = peak.max(live.iter().filter(|&&l| l).count());
                prop_assert!(store.capacity() <= universe + 1);
                prop_assert!(store.capacity() <= (peak + 1).next_power_of_two());
                for a in 0..universe {
                    for b in (0..universe).filter(|&b| b != a) {
                        let want = if live[a] && live[b] {
                            oracle.get(a, b)
                        } else {
                            f64::INFINITY
                        };
                        prop_assert_eq!(get(&store, n(a), n(b)).to_bits(), want.to_bits(), "d({}, {})", a, b);
                    }
                }
            }
            if SEEN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
                // Not vacuous: the schedules handed released slots out
                // again, on average at least once a case.
                prop_assert!(REUSES.load(Ordering::Relaxed) >= CASES);
            }
        }
    }

    /// Every live ordered pair's entry, as bits.
    fn entries(store: &MemberStore, live: &[bool]) -> Vec<(usize, usize, u64)> {
        let ids: Vec<usize> = (0..live.len()).filter(|&i| live[i]).collect();
        ids.iter()
            .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
            .map(|(a, b)| (a, b, get(store, n(a), n(b)).to_bits()))
            .collect()
    }

    #[test]
    fn released_slots_are_reused_before_fresh_ones() {
        // Six hosts at a time out of eight ids, the window sliding by one
        // each round: after the first round every slot comes off the free
        // list, and the block never grows past six members' need.
        let mut store = MemberStore::build(8, &[], |_, _| unreachable!());
        let mut reuses = 0;
        for round in 0..4 {
            for h in 0..6 {
                let reused = !store.free.is_empty();
                let slot = store.assign(n((h + round) % 8));
                reuses += usize::from(reused);
                assert!(slot as usize <= 6);
            }
            for h in 0..6 {
                store.release(n((h + round) % 8));
            }
        }
        assert_eq!(reuses, 18);
        assert_eq!(store.capacity(), 8);
    }
}
