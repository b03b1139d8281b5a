//! Seeded traffic generators.
//!
//! A workload is a stream of *cycles*: a block of queries (sent one at a
//! time or in bursts) followed by one churn op. The generator keeps its
//! own model of the membership, so every op it emits is valid against the
//! system under test, which only ever sees the generated ops.
//!
//! Two random streams feed a generator. `--seed` drives the query stream:
//! which start host meets which size and class, hot or uniform at each
//! draw, and the order of everything. The churn schedule and the hot pool
//! are fixtures drawn from a constant: one churn op costs between a few
//! and a few hundred milliseconds depending on where the host sits in the
//! anchor tree and a run fits only tens of them, and a handful of hot keys
//! carry most of the hot traffic — if either moved with the seed, two
//! seeds would measure different workloads.

use crate::stats::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// Passes are sized for this many measured seconds; `--seconds` scales the
/// cycle count linearly from it.
pub const REFERENCE_SECONDS: u64 = 15;

/// SplitMix64: small, fast, and stable across toolchains (the stream is
/// part of the benchmark's definition).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A membership operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    Join,
    Leave,
    Crash,
    Recover,
}

impl ChurnKind {
    pub const ALL: [ChurnKind; 4] = [
        ChurnKind::Join,
        ChurnKind::Leave,
        ChurnKind::Crash,
        ChurnKind::Recover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ChurnKind::Join => "join",
            ChurnKind::Leave => "leave",
            ChurnKind::Crash => "crash",
            ChurnKind::Recover => "recover",
        }
    }
}

/// One cluster query: `k` hosts at bandwidth class `class`, submitted at
/// host `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    pub start: u32,
    pub k: usize,
    pub class: usize,
}

/// Number of bandwidth classes every workload queries (see
/// `universe::classes`).
pub const CLASSES: usize = 5;

/// One cycle of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    /// Queries in submission order, grouped into bursts.
    pub bursts: Vec<Vec<Query>>,
    /// The churn op that ends the cycle.
    pub churn: (ChurnKind, u32),
}

/// Which stack a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `ClusterService` over one `DynamicSystem`, UMD-like universe.
    Routed,
    /// [`Stack::Routed`] plus a `SnapshotStore`: every churn op is
    /// journaled, every `snapshot_every`-th cycle of a pass ends in a
    /// snapshot and the pass ends in a recovery.
    Durable { snapshot_every: usize },
    /// `Coordinator` over `shards` shard instances, hierarchy universe with
    /// `per_site` hosts a site.
    Sharded { shards: usize, per_site: usize },
}

/// The frozen shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub stack: Stack,
    /// Universe size.
    pub hosts: usize,
    /// Cluster sizes queried, uniformly.
    pub ks: &'static [usize],
    /// Queries per `submit … drain` round trip.
    pub burst: usize,
    /// Queries between two churn ops.
    pub queries_per_cycle: usize,
    /// Queries per thousand drawn from the hot pool (Zipf, exponent 1).
    pub hot_per_mille: u32,
    /// Distinct keys in the hot pool.
    pub hot_pool: usize,
    /// Every `churn_stride`-th host (ids `≡ stride − 1`) may churn; the
    /// rest stay joined for the whole run and host the hot pool.
    pub churn_stride: usize,
    /// Churning hosts joined at bootstrap.
    pub churners_joined: usize,
    /// Joined churning hosts are held within this band.
    pub churner_band: (usize, usize),
    /// Relative weights of join : leave : crash : recover.
    pub churn_mix: [u32; 4],
    /// Cycles per pass at [`REFERENCE_SECONDS`].
    pub cycles_per_pass: usize,
}

/// The four workloads, sized on a 2-core container so that one pass takes
/// about five seconds.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "routed_uniform",
            stack: Stack::Routed,
            hosts: 512,
            ks: &[16, 32, 64, 128, 192, 256],
            burst: 1,
            queries_per_cycle: 128,
            hot_per_mille: 0,
            hot_pool: 0,
            churn_stride: 4,
            churners_joined: 128,
            churner_band: (112, 128),
            churn_mix: [1, 1, 0, 0],
            cycles_per_pass: 15,
        },
        Spec {
            name: "routed_hot",
            stack: Stack::Routed,
            hosts: 512,
            ks: &[16, 32, 64, 128, 192, 256],
            burst: 16,
            queries_per_cycle: 4096,
            hot_per_mille: 990,
            hot_pool: 64,
            churn_stride: 4,
            churners_joined: 128,
            churner_band: (112, 128),
            churn_mix: [1, 1, 0, 0],
            cycles_per_pass: 16,
        },
        Spec {
            name: "churn_durable",
            stack: Stack::Durable { snapshot_every: 60 },
            hosts: 384,
            ks: &[16, 32, 64, 128, 192, 256],
            burst: 1,
            queries_per_cycle: 12,
            hot_per_mille: 0,
            hot_pool: 0,
            churn_stride: 3,
            churners_joined: 32,
            churner_band: (16, 48),
            churn_mix: [3, 3, 1, 1],
            cycles_per_pass: 160,
        },
        Spec {
            name: "sharded_region",
            stack: Stack::Sharded {
                shards: 4,
                per_site: 16,
            },
            hosts: 768,
            ks: &[8, 16, 32, 64, 128, 192],
            burst: 1,
            queries_per_cycle: 64,
            hot_per_mille: 300,
            hot_pool: 64,
            churn_stride: 4,
            churners_joined: 192,
            churner_band: (176, 192),
            churn_mix: [3, 3, 1, 1],
            cycles_per_pass: 108,
        },
    ]
}

/// The `--smoke` shape of a workload: 64 hosts and passes of about a
/// second, same structure.
pub fn smoke(spec: &Spec) -> Spec {
    let stride = spec.churn_stride;
    let churners = 64 / stride;
    let all_joined = spec.churners_joined * stride == spec.hosts;
    Spec {
        stack: match spec.stack {
            Stack::Routed => Stack::Routed,
            Stack::Durable { .. } => Stack::Durable { snapshot_every: 10 },
            Stack::Sharded { shards, .. } => Stack::Sharded {
                shards,
                per_site: 4,
            },
        },
        hosts: 64,
        ks: &[2, 4, 8, 16, 24, 32],
        queries_per_cycle: spec.queries_per_cycle.min(256),
        hot_pool: spec.hot_pool.min(16),
        churners_joined: if all_joined { churners } else { churners / 4 },
        churner_band: if all_joined {
            (churners - 4, churners)
        } else {
            (churners / 8, churners * 3 / 8)
        },
        cycles_per_pass: 24,
        ..spec.clone()
    }
}

/// The generator's model of who is joined.
#[derive(Debug, Clone)]
struct Membership {
    /// Joined hosts, unordered, with each host's position for O(1) removal.
    active: Vec<u32>,
    pos: Vec<u32>,
    /// Churning hosts by state.
    churn_in: Vec<u32>,
    churn_out: Vec<u32>,
    churn_crashed: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl Membership {
    fn add(&mut self, h: u32) {
        self.pos[h as usize] = self.active.len() as u32;
        self.active.push(h);
    }

    fn remove(&mut self, h: u32) {
        let p = self.pos[h as usize] as usize;
        self.active.swap_remove(p);
        if let Some(&moved) = self.active.get(p) {
            self.pos[moved as usize] = p as u32;
        }
        self.pos[h as usize] = ABSENT;
    }
}

/// A shuffled deck, dealt without replacement and reshuffled when it runs
/// out. Over any window every item comes up equally often, which
/// independent draws only manage on average: a query's cost is set mostly
/// by its `(k, class)` and its start host, so dealing them keeps the work
/// in a pass — and with it every seed's figures — comparable.
#[derive(Debug, Clone, Default)]
struct Deck {
    items: Vec<u32>,
    next: usize,
}

impl Deck {
    /// Deals the next item, first refilling an empty deck from `refill`
    /// and shuffling it.
    fn deal(&mut self, rng: &mut Rng, refill: impl FnOnce() -> Vec<u32>) -> u32 {
        if self.next == self.items.len() {
            self.items = refill();
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// Deterministic op stream of one workload at one seed.
#[derive(Debug, Clone)]
pub struct Generator {
    spec: Spec,
    traffic: Rng,
    schedule: Rng,
    members: Membership,
    hot: Vec<Query>,
    /// Cumulative Zipf(1) weights over hot-pool ranks.
    zipf: Vec<f64>,
    /// `(k, class)` combinations and start hosts of the uniform queries.
    combos: Deck,
    starts: Deck,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let tag = fnv1a(FNV_OFFSET, spec.name.as_bytes());
        let traffic = Rng::new(seed ^ tag);
        let schedule = Rng::new(0x2011_C0DE ^ tag);
        let mut pool = Rng::new(0x2011_B001 ^ tag);
        let is_churner = |h: usize| h % spec.churn_stride == spec.churn_stride - 1;
        let mut members = Membership {
            active: Vec::new(),
            pos: vec![ABSENT; spec.hosts],
            churn_in: Vec::new(),
            churn_out: Vec::new(),
            churn_crashed: Vec::new(),
        };
        let mut stable = Vec::new();
        for h in 0..spec.hosts {
            if !is_churner(h) {
                stable.push(h as u32);
                members.add(h as u32);
            } else if members.churn_in.len() < spec.churners_joined {
                members.churn_in.push(h as u32);
                members.add(h as u32);
            } else {
                members.churn_out.push(h as u32);
            }
        }
        // The hot pool is a fixture like the churn schedule: Zipf puts a
        // third of the hot traffic on its first three keys, so their cost
        // would otherwise set the run's. One key per (k, class) combination
        // in turn, scattered over the ranks by the stride (coprime to the 30
        // combinations); start hosts never churn, so a key never goes
        // invalid.
        let combos = spec.ks.len() * CLASSES;
        let hot = (0..spec.hot_pool)
            .map(|i| {
                let combo = (i * 7 + 3) % combos;
                Query {
                    start: stable[pool.below(stable.len())],
                    k: spec.ks[combo % spec.ks.len()],
                    class: combo / spec.ks.len(),
                }
            })
            .collect();
        let mut acc = 0.0;
        let zipf = (1..=spec.hot_pool)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        Generator {
            spec: spec.clone(),
            traffic,
            schedule,
            members,
            hot,
            zipf,
            combos: Deck::default(),
            starts: Deck::default(),
        }
    }

    /// Hosts the model holds joined, ascending. Asked before the first
    /// cycle, this is the bootstrap membership.
    pub fn joined_hosts(&self) -> Vec<u32> {
        let mut hosts = self.members.active.clone();
        hosts.sort_unstable();
        hosts
    }

    /// Hosts the model holds joined right now.
    pub fn live(&self) -> usize {
        self.members.active.len()
    }

    fn query(&mut self) -> Query {
        if (self.traffic.below(1000) as u32) < self.spec.hot_per_mille {
            let total = *self.zipf.last().expect("hot share needs a hot pool");
            let pick = self.traffic.unit() * total;
            let rank = self.zipf.partition_point(|&c| c <= pick);
            return self.hot[rank.min(self.hot.len() - 1)];
        }
        let ks = self.spec.ks;
        let combo = self.combos.deal(&mut self.traffic, || {
            (0..(ks.len() * CLASSES) as u32).collect()
        }) as usize;
        // A host dealt earlier may have left since the deck was filled.
        let members = &self.members;
        let start = loop {
            let h = self
                .starts
                .deal(&mut self.traffic, || members.active.clone());
            if members.pos[h as usize] != ABSENT {
                break h;
            }
        };
        Query {
            start,
            k: ks[combo % ks.len()],
            class: combo / ks.len(),
        }
    }

    fn churn(&mut self) -> (ChurnKind, u32) {
        let m = &self.members;
        let (lo, hi) = self.spec.churner_band;
        let room = m.churn_in.len() < hi;
        let valid = [
            room && !m.churn_out.is_empty(),
            m.churn_in.len() > lo,
            m.churn_in.len() > lo,
            room && !m.churn_crashed.is_empty(),
        ];
        let weight = |i: usize| if valid[i] { self.spec.churn_mix[i] } else { 0 };
        let total: u32 = (0..4).map(weight).sum();
        assert!(total > 0, "churn band leaves no valid op");
        let mut pick = self.schedule.below(total as usize) as u32;
        let mut kind = 0;
        while pick >= weight(kind) {
            pick -= weight(kind);
            kind += 1;
        }
        let kind = ChurnKind::ALL[kind];
        let m = &mut self.members;
        let pool = match kind {
            ChurnKind::Join => &mut m.churn_out,
            ChurnKind::Leave | ChurnKind::Crash => &mut m.churn_in,
            ChurnKind::Recover => &mut m.churn_crashed,
        };
        let host = pool.swap_remove(self.schedule.below(pool.len()));
        match kind {
            ChurnKind::Join | ChurnKind::Recover => {
                m.churn_in.push(host);
                m.add(host);
            }
            ChurnKind::Leave => {
                m.churn_out.push(host);
                m.remove(host);
            }
            ChurnKind::Crash => {
                m.churn_crashed.push(host);
                m.remove(host);
            }
        }
        (kind, host)
    }

    /// The next cycle of the stream.
    pub fn next_cycle(&mut self) -> Cycle {
        let mut bursts = Vec::with_capacity(self.spec.queries_per_cycle.div_ceil(self.spec.burst));
        let mut left = self.spec.queries_per_cycle;
        while left > 0 {
            let len = left.min(self.spec.burst);
            bursts.push((0..len).map(|_| self.query()).collect());
            left -= len;
        }
        let churn = self.churn();
        Cycle { bursts, churn }
    }
}

/// Digest of a cycle's contents, folded into `h`.
pub fn cycle_digest(mut h: u64, cycle: &Cycle) -> u64 {
    for burst in &cycle.bursts {
        h = fnv1a_u64(h, burst.len() as u64);
        for q in burst {
            h = fnv1a_u64(
                h,
                u64::from(q.start) | (q.k as u64) << 32 | (q.class as u64) << 56,
            );
        }
    }
    fnv1a_u64(h, cycle.churn.0 as u64 | u64::from(cycle.churn.1) << 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_digest(spec: &Spec, seed: u64, cycles: usize) -> u64 {
        let mut g = Generator::new(spec, seed);
        (0..cycles).fold(FNV_OFFSET, |h, _| cycle_digest(h, &g.next_cycle()))
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in specs().iter().map(smoke) {
            let a = stream_digest(&spec, 7, 40);
            assert_eq!(a, stream_digest(&spec, 7, 40), "{}", spec.name);
            assert_ne!(a, stream_digest(&spec, 8, 40), "{}", spec.name);
        }
    }

    #[test]
    fn churn_schedule_is_a_fixture() {
        for spec in specs().iter().map(smoke) {
            let (mut a, mut b) = (Generator::new(&spec, 1), Generator::new(&spec, 2));
            for _ in 0..40 {
                assert_eq!(a.next_cycle().churn, b.next_cycle().churn, "{}", spec.name);
            }
        }
    }

    #[test]
    fn every_op_is_valid_against_the_modelled_membership() {
        for spec in specs()
            .iter()
            .chain(specs().iter().map(smoke).collect::<Vec<_>>().iter())
        {
            let mut g = Generator::new(spec, 3);
            let mut joined: std::collections::BTreeSet<u32> =
                g.joined_hosts().into_iter().collect();
            let mut crashed = std::collections::BTreeSet::new();
            let (lo, hi) = spec.churner_band;
            let stable = joined.len() - spec.churners_joined;
            for _ in 0..200 {
                let cycle = g.next_cycle();
                for q in cycle.bursts.iter().flatten() {
                    assert!(joined.contains(&q.start), "{}: start not joined", spec.name);
                    assert!(spec.ks.contains(&q.k) && q.class < CLASSES);
                }
                let (kind, h) = cycle.churn;
                match kind {
                    ChurnKind::Join => assert!(!crashed.contains(&h) && joined.insert(h)),
                    ChurnKind::Leave => assert!(joined.remove(&h)),
                    ChurnKind::Crash => assert!(joined.remove(&h) && crashed.insert(h)),
                    ChurnKind::Recover => assert!(crashed.remove(&h) && joined.insert(h)),
                }
                assert!((stable + lo..=stable + hi).contains(&joined.len()));
                assert_eq!(g.live(), joined.len());
            }
        }
    }

    #[test]
    fn hot_pool_is_a_fixture_holding_every_combination() {
        let spec = specs()
            .into_iter()
            .find(|s| s.name == "routed_hot")
            .unwrap();
        let pool = Generator::new(&spec, 1).hot;
        assert_eq!(pool, Generator::new(&spec, 2).hot);
        let combos: std::collections::BTreeSet<(usize, usize)> =
            pool.iter().map(|q| (q.k, q.class)).collect();
        assert_eq!(combos.len(), spec.ks.len() * CLASSES);
    }
}
