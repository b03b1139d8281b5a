//! Algorithm 1: centralized cluster search in a tree metric space.
//!
//! `FindCluster(V, d, k, l)` returns `X ⊆ V` with `|X| = k` and
//! `diam(X) ≤ l`, or nothing when no such set exists. The paper proves
//! (Theorem 3.1) that in a tree metric space it suffices to examine, for
//! every node pair `(p, q)`, the *pair-bounded set*
//! `S*_pq = {x : d(x,p) ≤ d(p,q) ∧ d(x,q) ≤ d(p,q)}`, whose diameter is
//! exactly `d(p, q)`. The search is therefore `O(n³)` instead of the
//! NP-complete general-graph `k`-Clique.

use bcc_metric::FiniteMetric;

use crate::rows::LazyRows;

/// Order in which Algorithm 1 scans node pairs.
///
/// The choice does not affect correctness (any satisfying `S*_pq` may be
/// returned) but changes which cluster is found first and how soon an easy
/// query exits — measured by the criterion bench `benches/find_cluster.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairOrder {
    /// Natural row-major order, the paper's presentation.
    #[default]
    RowMajor,
    /// Pairs sorted by ascending `d(p, q)`: finds the *tightest* satisfying
    /// cluster and exits earliest on dense spaces, at an `O(n² log n)`
    /// sorting cost.
    AscendingDiameter,
}

/// Algorithm 1. Finds `k` nodes of `metric` with diameter at most `l`,
/// returning their indices, or `None` when no pair-bounded set satisfies
/// the constraints.
///
/// On a perfect tree metric the result is *complete*: `None` means no such
/// cluster exists (Theorem 3.1). On an approximate tree metric the returned
/// set's true diameter may exceed `l` by the metric's 4PC slack — this is
/// exactly the prediction error the paper's WPR metric measures.
///
/// ```
/// use bcc_core::find_cluster;
/// use bcc_metric::DistanceMatrix;
///
/// // Star metric with radii 1, 1, 1, 10: the three close nodes cluster.
/// let r = [1.0, 1.0, 1.0, 10.0];
/// let d = DistanceMatrix::from_fn(4, |i, j| r[i] + r[j]);
/// let x = find_cluster(&d, 3, 2.5).expect("cluster exists");
/// assert_eq!(x, vec![0, 1, 2]);
/// assert_eq!(find_cluster(&d, 4, 2.5), None);
/// ```
pub fn find_cluster<M: FiniteMetric>(metric: &M, k: usize, l: f64) -> Option<Vec<usize>> {
    find_cluster_ordered(metric, k, l, PairOrder::RowMajor)
}

/// Algorithm 1 over an explicit candidate set of universe ids: runs the
/// row-major sweep of [`find_cluster`] on the sub-metric spanned by `ids`
/// (in the given order) and maps the answer back to ids.
///
/// This is the *shared merge kernel* of region-scoped serving: both the
/// unsharded baseline and the sharded coordinator reduce a query to a
/// candidate id set, and as long as the two sets are equal and presented
/// in the same order (callers pass ids ascending), this kernel makes their
/// answers bit-identical by construction — the scan order, tie-breaks and
/// float comparisons are all decided here, once.
///
/// The kernel has no body of its own: it is the one gated sweep behind
/// [`find_cluster_budgeted`] under [`Unmetered`], over a lazily filled
/// row store of the candidates, with positions mapped back to ids. So
/// `dist` is called only for the rows the sweep opens — at most once per
/// unordered pair, always as `dist(ids[i], ids[j])` with `i < j`, never on
/// the diagonal, and not at all when `k == 0`, `k == 1` or
/// `k > ids.len()`. A caller that counts its `dist` calls (the
/// coordinator's `work_units`) counts evaluations made, not pairs of the
/// candidate set. The sweep's ball gate skips every row whose `l`-ball
/// holds fewer than `k` candidates and every pair closer than the row's
/// `k`-th nearest candidate, so a merge fills a partner row only for a
/// pair whose ball can hold `k` candidates.
pub fn find_cluster_among(
    ids: &[u32],
    k: usize,
    l: f64,
    mut dist: impl FnMut(u32, u32) -> f64,
) -> Option<Vec<u32>> {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "candidate ids must be strictly ascending for canonical answers"
    );
    let mut rows = LazyRows::new(ids.len(), |i, j| dist(ids[i], ids[j]));
    sweep_rows(&mut rows, k, l, &mut Unmetered)
        .into_value()
        .map(|x| x.into_iter().map(|i| ids[i]).collect())
}

/// Algorithm 1 with an explicit pair scan order. See [`find_cluster`].
pub fn find_cluster_ordered<M: FiniteMetric>(
    metric: &M,
    k: usize,
    l: f64,
    order: PairOrder,
) -> Option<Vec<usize>> {
    let _span = bcc_obs::span!("core.find_cluster");
    bcc_obs::inc!("core.find_cluster.calls");
    let n = metric.len();
    if k > n || k == 0 {
        return None;
    }
    if k == 1 {
        return Some(vec![0]);
    }
    let mut scratch = Vec::with_capacity(k);
    // Pairs examined, accumulated locally and flushed once.
    let mut scanned = 0u64;
    let result = 'search: {
        match order {
            PairOrder::RowMajor => {
                for p in 0..n {
                    for q in (p + 1)..n {
                        scanned += 1;
                        let dpq = metric.distance(p, q);
                        // In a tree metric diam(S*_pq) = d(p, q), so the diameter
                        // constraint reduces to d(p, q) <= l and pairs beyond l
                        // are skipped outright.
                        if dpq <= l && check_pair(metric, p, q, dpq, k, &mut scratch) {
                            break 'search Some(scratch);
                        }
                    }
                }
                None
            }
            PairOrder::AscendingDiameter => {
                let mut pairs = pairs_within(metric, l);
                sort_by_distance(&mut pairs);
                for (p, q, dpq) in pairs {
                    scanned += 1;
                    if check_pair(metric, p, q, dpq, k, &mut scratch) {
                        break 'search Some(scratch);
                    }
                }
                None
            }
        }
    };
    bcc_obs::add!("core.find_cluster.pairs_scanned", scanned);
    result
}

/// Pairs scanned between two budget checks in the `_budgeted` kernels.
///
/// Budget exhaustion is only detected at multiples of this block size, so
/// the cut point of an exhausted scan is a deterministic function of the
/// metric and the budget — never of thread count or timing. The block is
/// deliberately small: a space of just six hosts already spans a boundary
/// (15 pairs), so even modest scans are interruptible under an inflated
/// work cost.
pub const BUDGET_BLOCK: usize = 16;

/// What a search charges its work to: the type parameter of every
/// `_budgeted` kernel, of the node-local searches and of the resilient
/// walk.
///
/// The meter is chosen at compile time, so one search body serves both
/// callers. Under [`WorkMeter`] it charges pairs and keeps partials.
/// Under the zero-sized [`Unmetered`], `charge` is `true`, so every block
/// check and exhaustion arm is dead code and compiles away, and so is the
/// partial-answer bookkeeping [`Meter::PARTIAL`] switches off.
pub trait Meter {
    /// `true` when an exhausted search must report the best partial answer
    /// it assembled. The sweep's ball gate floors its radius at one more
    /// than that partial's size, so a meter that keeps none gates at `k`.
    const PARTIAL: bool;

    /// Charges `pairs` pair-examinations and reports whether the budget
    /// still holds.
    fn charge(&mut self, pairs: u64) -> bool;

    /// `true` once the budget is spent.
    fn exhausted(&self) -> bool;

    /// Units charged so far (cost-inflated pair count).
    fn used(&self) -> u64;
}

/// The meter of a search that has no budget: charges nothing and never
/// runs dry, so a `_budgeted` kernel under it always returns
/// [`Budgeted::Done`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unmetered;

impl Meter for Unmetered {
    const PARTIAL: bool = false;

    #[inline]
    fn charge(&mut self, _pairs: u64) -> bool {
        true
    }

    #[inline]
    fn exhausted(&self) -> bool {
        false
    }

    #[inline]
    fn used(&self) -> u64 {
        0
    }
}

/// A deterministic work budget threaded through the `_budgeted` kernels.
///
/// Work is counted in *pairs examined* — the unit behind the
/// `core.find_cluster.pairs_scanned` / `core.pairs_listed` counters — and
/// never in wall-clock time, so every budget decision replays
/// byte-identically. Each pair is charged `cost` units; a chaos nemesis can
/// inflate `cost` to simulate a slow region without touching any clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkMeter {
    limit: u64,
    cost: u64,
    used: u64,
}

impl WorkMeter {
    /// A meter allowing `limit` units of work at unit cost per pair.
    pub fn new(limit: u64) -> Self {
        WorkMeter::with_cost(limit, 1)
    }

    /// A meter allowing `limit` units, charging `cost` (clamped to ≥ 1)
    /// units per pair examined.
    pub fn with_cost(limit: u64, cost: u64) -> Self {
        WorkMeter {
            limit,
            cost: cost.max(1),
            used: 0,
        }
    }

    /// The budget ceiling in work units.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Units charged per pair examined.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

impl Meter for WorkMeter {
    const PARTIAL: bool = true;

    /// Saturating: a meter whose limit is `u64::MAX` can never wrap into
    /// exhaustion.
    fn charge(&mut self, pairs: u64) -> bool {
        self.used = self.used.saturating_add(pairs.saturating_mul(self.cost));
        !self.exhausted()
    }

    /// `true` once more than `limit` units have been charged.
    fn exhausted(&self) -> bool {
        self.used > self.limit
    }

    fn used(&self) -> u64 {
        self.used
    }
}

/// The result of a budgeted kernel: either the full answer, or the best
/// partial answer assembled before the [`WorkMeter`] ran dry.
#[derive(Debug, Clone, PartialEq)]
pub enum Budgeted<T> {
    /// The kernel ran to completion; the value is exact.
    Done(T),
    /// The budget was exhausted mid-scan.
    Exhausted {
        /// Work units charged when the scan was cut (cost-inflated).
        pairs_done: u64,
        /// Best partial answer seen before the cut.
        best_partial: T,
    },
}

impl<T> Budgeted<T> {
    /// `true` when the budget ran out before the scan completed.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Budgeted::Exhausted { .. })
    }

    /// The exact value, or the best partial when exhausted. Callers that
    /// must not confuse the two should match instead.
    pub fn into_value(self) -> T {
        match self {
            Budgeted::Done(v) => v,
            Budgeted::Exhausted { best_partial, .. } => best_partial,
        }
    }
}

/// [`find_cluster`] under a [`Meter`]: the row-major scan checks the
/// budget every [`BUDGET_BLOCK`] pairs and, when it runs dry, returns the
/// largest pair-bounded subset (size ≥ 2) seen so far instead of running to
/// completion.
///
/// Under [`Unmetered`], or a meter that never runs dry, the result is
/// bit-identical to [`find_cluster`] — the same scan order, pair filter
/// and membership test; only the block-boundary budget check is added.
/// The sweep reads `metric` through a lazily filled row store:
/// `distance(i, j)` is asked once per unordered pair of the rows the scan
/// opens, as `i < j`, and the diagonal is taken as `0`. The meter charges
/// pairs scanned, never rows filled.
pub fn find_cluster_budgeted<M: FiniteMetric>(
    metric: &M,
    k: usize,
    l: f64,
    meter: &mut impl Meter,
) -> Budgeted<Option<Vec<usize>>> {
    let mut rows = LazyRows::new(metric.len(), |i, j| metric.distance(i, j));
    sweep_rows(&mut rows, k, l, meter)
}

/// The one sweep: Algorithm 1 row-major over a [`LazyRows`] store, behind
/// [`find_cluster_budgeted`], the merge kernel [`find_cluster_among`] and
/// every node-local search, under whichever [`Meter`] the caller holds.
/// Row `p` is filled on entering it and row `q` before the membership
/// test of a pair the ball gate lets through, so a pair beyond `l` costs
/// one read of row `p` and nothing else.
///
/// **The ball gate** ([`BallGate`]). `S*_pq` lies inside the ball
/// `B(p, d(p, q))`, so a pair whose ball holds fewer than `g` hosts has
/// `|S*_pq| < g`. The sweep skips row `p` when `|B(p, l)| < g` and
/// otherwise runs the membership test only for the pairs with
/// `r_g(p) ≤ d(p, q) ≤ l`, `r_g(p)` the `g`-th smallest entry of the row.
/// With `g = k` a skipped pair cannot answer. A meter that keeps partials
/// ([`Meter::PARTIAL`]) floors the gate at `g = min(k, |best| + 1)`,
/// `best` read at row start, so a skipped pair can neither answer nor
/// strictly grow the partial. Every pair, gated or not, still advances the
/// budget block counter, so answers, charges, cut points and partials are
/// those of the ungated sweep; only rows filled and pairs tested fall.
pub(crate) fn sweep_rows<F: FnMut(usize, usize) -> f64, M: Meter>(
    rows: &mut LazyRows<F>,
    k: usize,
    l: f64,
    meter: &mut M,
) -> Budgeted<Option<Vec<usize>>> {
    let _span = bcc_obs::span!("core.find_cluster");
    bcc_obs::inc!("core.find_cluster.calls");
    let n = rows.len();
    if k > n || k == 0 {
        return Budgeted::Done(None);
    }
    if k == 1 {
        return Budgeted::Done(Some(vec![0]));
    }
    if meter.exhausted() {
        return Budgeted::Exhausted {
            pairs_done: meter.used(),
            best_partial: None,
        };
    }
    let mut scratch = Vec::with_capacity(k);
    let mut radii = Vec::new();
    let mut best: Vec<usize> = Vec::new();
    let (mut scanned, mut gated) = (0u64, 0u64);
    let flush = |scanned: u64, gated: u64| {
        bcc_obs::add!("core.find_cluster.pairs_scanned", scanned);
        bcc_obs::add!("core.find_cluster.pairs_gated", gated);
    };
    let mut block = 0usize;
    for p in 0..n {
        rows.ensure(p);
        let g = if M::PARTIAL { k.min(best.len() + 1) } else { k };
        let Some(mut gate) = BallGate::open(rows.row(p), l, g) else {
            gated += ball(&rows.row(p)[p + 1..], l) as u64;
            if !skip_pairs(&mut block, n - p - 1, meter) {
                flush(scanned, gated);
                return Budgeted::Exhausted {
                    pairs_done: meter.used(),
                    best_partial: (!best.is_empty()).then_some(best),
                };
            }
            continue;
        };
        for q in (p + 1)..n {
            scanned += 1;
            let dpq = rows.row(p)[q];
            // In a tree metric diam(S*_pq) = d(p, q), so the diameter
            // constraint reduces to d(p, q) <= l and pairs beyond l (or
            // NaN) are skipped outright.
            if dpq <= l {
                if gate.admits(rows.row(p), dpq, &mut radii) {
                    // Both rows before either borrow: filling may move them.
                    rows.ensure(q);
                    if members_into(rows.row(p), rows.row(q), dpq, k, &mut scratch) {
                        meter.charge(block as u64 + 1);
                        flush(scanned, gated);
                        return Budgeted::Done(Some(scratch));
                    }
                    if M::PARTIAL && scratch.len() > best.len() && scratch.len() >= 2 {
                        best = scratch.clone();
                    }
                } else {
                    gated += 1;
                }
            }
            block += 1;
            if block == BUDGET_BLOCK {
                block = 0;
                if !meter.charge(BUDGET_BLOCK as u64) {
                    flush(scanned, gated);
                    return Budgeted::Exhausted {
                        pairs_done: meter.used(),
                        best_partial: (!best.is_empty()).then_some(best),
                    };
                }
            }
        }
    }
    meter.charge(block as u64);
    flush(scanned, gated);
    Budgeted::Done(None)
}

/// [`max_cluster_size`] under a [`Meter`]: scans pairs row-major,
/// checking the budget every [`BUDGET_BLOCK`] pairs; when it runs dry it
/// returns the best size established so far (≥ 1 on non-empty spaces).
///
/// Under a meter that does not run dry the result equals
/// [`max_cluster_size`]. Reads `metric` the way [`find_cluster_budgeted`]
/// does.
pub fn max_cluster_size_budgeted<M: FiniteMetric>(
    metric: &M,
    l: f64,
    meter: &mut impl Meter,
) -> Budgeted<usize> {
    let mut rows = LazyRows::new(metric.len(), |i, j| metric.distance(i, j));
    max_size_rows(&mut rows, l, meter)
}

/// The one metered maximum: `max |S*_pq|` over the pairs within `l`,
/// row-major over a [`LazyRows`] store, filled and gated the way
/// [`sweep_rows`] fills and gates it. The gate's floor is `best + 1`, the
/// running maximum read at row start: a skipped pair has
/// `|S*_pq| ≤ best`, so the maximum, exact or cut short, is the ungated
/// one.
pub(crate) fn max_size_rows<F: FnMut(usize, usize) -> f64>(
    rows: &mut LazyRows<F>,
    l: f64,
    meter: &mut impl Meter,
) -> Budgeted<usize> {
    let _span = bcc_obs::span!("core.max_cluster_size");
    bcc_obs::inc!("core.max_cluster_size.calls");
    let n = rows.len();
    if n == 0 {
        return Budgeted::Done(0);
    }
    if meter.exhausted() {
        return Budgeted::Exhausted {
            pairs_done: meter.used(),
            best_partial: 1,
        };
    }
    let mut radii = Vec::new();
    let mut best = 1usize;
    let mut block = 0usize;
    for p in 0..n {
        rows.ensure(p);
        let Some(mut gate) = BallGate::open(rows.row(p), l, best + 1) else {
            if !skip_pairs(&mut block, n - p - 1, meter) {
                return Budgeted::Exhausted {
                    pairs_done: meter.used(),
                    best_partial: best,
                };
            }
            continue;
        };
        for q in (p + 1)..n {
            let dpq = rows.row(p)[q];
            if dpq <= l && gate.admits(rows.row(p), dpq, &mut radii) {
                rows.ensure(q);
                best = best.max(members_count(rows.row(p), rows.row(q), dpq));
            }
            block += 1;
            if block == BUDGET_BLOCK {
                block = 0;
                if !meter.charge(BUDGET_BLOCK as u64) {
                    return Budgeted::Exhausted {
                        pairs_done: meter.used(),
                        best_partial: best,
                    };
                }
            }
        }
    }
    meter.charge(block as u64);
    Budgeted::Done(best)
}

/// `|B(p, d)|` read off row `p`: the entries within `d`, the `0.0`
/// diagonal included. A NaN entry lies within no `d`.
fn ball(row: &[f64], d: f64) -> usize {
    row.iter().filter(|&&x| x <= d).count()
}

/// The ball gate of one row `p` of a sweep at floor `g`: which pairs
/// `(p, q)` within `l` can have `|S*_pq| ≥ g`. Exactly those with
/// `|B(p, d(p, q))| ≥ g`, that is with `d(p, q) ≥ r_g(p)`, the `g`-th
/// smallest entry of the row (every `d ≤ l` is compared against entries
/// within `l` only).
///
/// The row's first pair within `l` is decided by counting its ball, one
/// branch-free pass, so a sweep that answers there pays no selection; the
/// second takes `r_g(p)` once, with `select_nth_unstable_by` over the
/// row's entries within `l` in a reused buffer, and every later pair is
/// one comparison.
struct BallGate {
    g: usize,
    l: f64,
    counted: bool,
    radius: Option<f64>,
}

impl BallGate {
    /// The gate of `row`, or `None` when `|B(p, l)| < g`: no pair of the
    /// row can reach `g`.
    fn open(row: &[f64], l: f64, g: usize) -> Option<Self> {
        (ball(row, l) >= g).then_some(BallGate {
            g,
            l,
            counted: false,
            radius: None,
        })
    }

    /// `|B(p, d)| ≥ g` for a pair at distance `d ≤ l` of `row`.
    fn admits(&mut self, row: &[f64], d: f64, radii: &mut Vec<f64>) -> bool {
        if let Some(r) = self.radius {
            return d >= r;
        }
        if !self.counted {
            self.counted = true;
            return ball(row, d) >= self.g;
        }
        radii.clear();
        radii.extend(row.iter().copied().filter(|&x| x <= self.l));
        let (_, &mut r, _) = radii.select_nth_unstable_by(self.g - 1, f64::total_cmp);
        self.radius = Some(r);
        d >= r
    }
}

/// Advances the budget block counter over `pairs` pairs the gate skipped,
/// charging every block they complete, as the pair loop would have; `false`
/// as soon as a charge runs the meter dry.
fn skip_pairs(block: &mut usize, pairs: usize, meter: &mut impl Meter) -> bool {
    let total = *block + pairs;
    *block = total % BUDGET_BLOCK;
    (0..total / BUDGET_BLOCK).all(|_| meter.charge(BUDGET_BLOCK as u64))
}

/// [`check_pair`] over two filled rows: builds `S*_pq` into `scratch`
/// (cleared first) and returns `true` once it reaches `k` members.
fn members_into(
    row_p: &[f64],
    row_q: &[f64],
    dpq: f64,
    k: usize,
    scratch: &mut Vec<usize>,
) -> bool {
    scratch.clear();
    for (x, (&dxp, &dxq)) in row_p.iter().zip(row_q).enumerate() {
        if dxp <= dpq && dxq <= dpq {
            scratch.push(x);
            if scratch.len() == k {
                return true;
            }
        }
    }
    false
}

/// [`pair_count`] over two filled rows.
fn members_count(row_p: &[f64], row_q: &[f64], dpq: f64) -> usize {
    row_p
        .iter()
        .zip(row_q)
        .filter(|&(&dxp, &dxq)| dxp <= dpq && dxq <= dpq)
        .count()
}

/// Collects the row-major pair list `(p, q, d(p, q))` with `p < q`,
/// pre-filtered to `d(p, q) ≤ l` so pairs that can never bound a satisfying
/// cluster are dropped before any allocation-heavy downstream step. The one
/// pair-list builder behind [`find_cluster_ordered`],
/// [`min_diameter_cluster`] and [`max_cluster_size`].
fn pairs_within<M: FiniteMetric>(metric: &M, l: f64) -> Vec<(usize, usize, f64)> {
    let n = metric.len();
    let mut pairs = Vec::new();
    for p in 0..n {
        for q in (p + 1)..n {
            let d = metric.distance(p, q);
            if d <= l {
                pairs.push((p, q, d));
            }
        }
    }
    bcc_obs::add!("core.pairs_listed", pairs.len() as u64);
    pairs
}

/// Sorts a pair list by ascending distance. The sort is stable, so equal
/// distances keep their row-major order.
fn sort_by_distance(pairs: &mut [(usize, usize, f64)]) {
    pairs.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("distances are comparable"));
}

/// Builds `S*_pq` into `scratch` (cleared first) and returns `true` once it
/// reaches `k` members. The caller-provided buffer keeps the `O(n²)` pair
/// loop from allocating per pair; the caller has already checked
/// `d(p, q) ≤ l`. Shared with the indexed kernels so their surviving pairs
/// run the very same membership test the sweep runs.
pub(crate) fn check_pair<M: FiniteMetric>(
    metric: &M,
    p: usize,
    q: usize,
    dpq: f64,
    k: usize,
    scratch: &mut Vec<usize>,
) -> bool {
    scratch.clear();
    for x in 0..metric.len() {
        if metric.distance(x, p) <= dpq && metric.distance(x, q) <= dpq {
            scratch.push(x);
            if scratch.len() == k {
                return true;
            }
        }
    }
    false
}

/// `|S*_pq|` — the exact pair-bounded count Algorithm 1 maximises, as a
/// plain sweep: [`check_pair`] without the member list or the early exit.
/// The one counter behind [`max_cluster_size`] and its `_budgeted` twin.
pub(crate) fn pair_count<M: FiniteMetric>(metric: &M, p: usize, q: usize, dpq: f64) -> usize {
    let mut count = 0;
    for x in 0..metric.len() {
        if metric.distance(x, p) <= dpq && metric.distance(x, q) <= dpq {
            count += 1;
        }
    }
    count
}

/// The optimization variant of Algorithm 1: the `k`-subset of *minimum*
/// diameter (the problem Aggarwal et al. solve in the plane), exact on tree
/// metric spaces.
///
/// In a tree metric every candidate cluster is pair-bounded, so scanning
/// pairs in ascending `d(p, q)` order and returning the first whose
/// `S*_pq` reaches size `k` yields a minimum-diameter cluster. Returns the
/// members and their diameter, or `None` when `k` exceeds the space
/// (`k == 1` returns a singleton of diameter `0`).
///
/// ```
/// use bcc_core::min_diameter_cluster;
/// use bcc_metric::DistanceMatrix;
///
/// // Line 0-1-2 ... with a tight pair at the end.
/// let pos = [0.0f64, 4.0, 8.0, 12.0, 12.5];
/// let d = DistanceMatrix::from_fn(5, |i, j| (pos[i] - pos[j]).abs());
/// let (cluster, diam) = min_diameter_cluster(&d, 2).unwrap();
/// assert_eq!(cluster, vec![3, 4]);
/// assert_eq!(diam, 0.5);
/// ```
pub fn min_diameter_cluster<M: FiniteMetric>(metric: &M, k: usize) -> Option<(Vec<usize>, f64)> {
    let n = metric.len();
    if k > n || k == 0 {
        return None;
    }
    if k == 1 {
        return Some((vec![0], 0.0));
    }
    let mut pairs = pairs_within(metric, f64::INFINITY);
    sort_by_distance(&mut pairs);
    let mut scratch = Vec::with_capacity(k);
    for (p, q, dpq) in pairs {
        if check_pair(metric, p, q, dpq, k, &mut scratch) {
            return Some((scratch, dpq));
        }
    }
    None
}

/// The largest cluster size achievable under diameter `l`:
/// `max k` such that [`find_cluster`] returns a set.
///
/// Computed directly as the maximum `|S*_pq|` over pairs with
/// `d(p, q) ≤ l` (falling back to `min(1, n)` — a single node is always a
/// diameter-0 cluster). This is the quantity each node's cluster routing
/// table stores per bandwidth class (Algorithm 3, line 8).
pub fn max_cluster_size<M: FiniteMetric>(metric: &M, l: f64) -> usize {
    let _span = bcc_obs::span!("core.max_cluster_size");
    bcc_obs::inc!("core.max_cluster_size.calls");
    let n = metric.len();
    if n == 0 {
        return 0;
    }
    let mut best = 1;
    for (p, q, dpq) in pairs_within(metric, l) {
        best = best.max(pair_count(metric, p, q, dpq));
    }
    best
}

/// The largest cluster size found by *binary search* over `k`, invoking
/// [`find_cluster`] per probe — the strategy Algorithm 3 suggests.
///
/// Exists alongside the direct [`max_cluster_size`] so the ablation bench
/// can compare the two; both return identical values (tested).
pub fn max_cluster_size_binary_search<M: FiniteMetric>(metric: &M, l: f64) -> usize {
    let n = metric.len();
    if n == 0 {
        return 0;
    }
    let (mut lo, mut hi) = (1usize, n); // find_cluster(k=1) always succeeds
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if find_cluster(metric, mid, l).is_some() {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Exact diameter of a node subset under `metric`.
///
/// # Panics
///
/// Panics if `subset` contains an out-of-bounds index.
pub fn diameter<M: FiniteMetric>(metric: &M, subset: &[usize]) -> f64 {
    let mut d = 0.0f64;
    for (i, &a) in subset.iter().enumerate() {
        for &b in &subset[i + 1..] {
            d = d.max(metric.distance(a, b));
        }
    }
    d
}

/// Brute-force reference: does *any* `k`-subset with diameter ≤ `l` exist?
///
/// Exponential; only for cross-checking [`find_cluster`] on small fixtures
/// and property tests.
pub fn exists_cluster_brute_force<M: FiniteMetric>(metric: &M, k: usize, l: f64) -> bool {
    let n = metric.len();
    if k > n {
        return false;
    }
    // Build the threshold graph and search for a k-clique with pruning.
    let adj: Vec<Vec<bool>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| i != j && metric.distance(i, j) <= l)
                .collect()
        })
        .collect();
    fn extend(adj: &[Vec<bool>], clique: &mut Vec<usize>, cand: &[usize], k: usize) -> bool {
        if clique.len() == k {
            return true;
        }
        if clique.len() + cand.len() < k {
            return false;
        }
        for (idx, &v) in cand.iter().enumerate() {
            clique.push(v);
            let next: Vec<usize> = cand[idx + 1..]
                .iter()
                .copied()
                .filter(|&u| adj[v][u])
                .collect();
            if extend(adj, clique, &next, k) {
                return true;
            }
            clique.pop();
        }
        false
    }
    let all: Vec<usize> = (0..n).collect();
    extend(&adj, &mut Vec::new(), &all, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metric::DistanceMatrix;
    use proptest::prelude::*;

    /// The metered sweep as it ran over a materialised matrix before the
    /// row store: the reference [`sweep_rows`] must replay charge for
    /// charge.
    fn dense_find_cluster_budgeted(
        metric: &DistanceMatrix,
        k: usize,
        l: f64,
        meter: &mut WorkMeter,
    ) -> Budgeted<Option<Vec<usize>>> {
        let n = metric.len();
        if k > n || k == 0 {
            return Budgeted::Done(None);
        }
        if k == 1 {
            return Budgeted::Done(Some(vec![0]));
        }
        if meter.exhausted() {
            return Budgeted::Exhausted {
                pairs_done: meter.used(),
                best_partial: None,
            };
        }
        let mut scratch = Vec::with_capacity(k);
        let mut best: Vec<usize> = Vec::new();
        let mut block = 0usize;
        for p in 0..n {
            for q in (p + 1)..n {
                let dpq = metric.distance(p, q);
                if dpq <= l {
                    if check_pair(metric, p, q, dpq, k, &mut scratch) {
                        meter.charge(block as u64 + 1);
                        return Budgeted::Done(Some(scratch));
                    }
                    if scratch.len() > best.len() && scratch.len() >= 2 {
                        best = scratch.clone();
                    }
                }
                block += 1;
                if block == BUDGET_BLOCK {
                    block = 0;
                    if !meter.charge(BUDGET_BLOCK as u64) {
                        return Budgeted::Exhausted {
                            pairs_done: meter.used(),
                            best_partial: (!best.is_empty()).then_some(best),
                        };
                    }
                }
            }
        }
        meter.charge(block as u64);
        Budgeted::Done(None)
    }

    /// The metered maximum over a materialised matrix, the reference of
    /// [`max_size_rows`].
    fn dense_max_cluster_size_budgeted(
        metric: &DistanceMatrix,
        l: f64,
        meter: &mut WorkMeter,
    ) -> Budgeted<usize> {
        let n = metric.len();
        if n == 0 {
            return Budgeted::Done(0);
        }
        if meter.exhausted() {
            return Budgeted::Exhausted {
                pairs_done: meter.used(),
                best_partial: 1,
            };
        }
        let mut best = 1usize;
        let mut block = 0usize;
        for p in 0..n {
            for q in (p + 1)..n {
                let dpq = metric.distance(p, q);
                if dpq <= l {
                    best = best.max(pair_count(metric, p, q, dpq));
                }
                block += 1;
                if block == BUDGET_BLOCK {
                    block = 0;
                    if !meter.charge(BUDGET_BLOCK as u64) {
                        return Budgeted::Exhausted {
                            pairs_done: meter.used(),
                            best_partial: best,
                        };
                    }
                }
            }
        }
        meter.charge(block as u64);
        Budgeted::Done(best)
    }

    /// Constraint values that land on, between and beyond the integer
    /// entries of [`arb_tied_space`].
    const LS: [f64; 8] = [0.0, 1.0, 2.0, 3.0, 4.0, 7.0, 100.0, f64::INFINITY];

    /// `0..=40` hosts with integer distances, nowhere near a tree metric (a
    /// star with per-pair integer noise, or the noise alone), so ties are
    /// the norm; about one pair in ten is `∞` and one in ten NaN.
    fn arb_tied_space() -> impl Strategy<Value = DistanceMatrix> {
        (0usize..=40)
            .prop_flat_map(|m| {
                (
                    proptest::collection::vec(0u8..3, m),
                    proptest::collection::vec(0u8..10, m * m.saturating_sub(1) / 2),
                    any::<bool>(),
                )
            })
            .prop_map(|(radii, noise, star)| {
                let mut noise = noise.into_iter();
                DistanceMatrix::from_fn(radii.len(), |i, j| match noise.next().unwrap() {
                    8 => f64::INFINITY,
                    9 => f64::NAN,
                    e if star => f64::from(radii[i] + radii[j] + e),
                    e => f64::from(e),
                })
            })
    }

    fn star(radii: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(radii.len(), |i, j| radii[i] + radii[j])
    }

    fn line(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn finds_obvious_cluster() {
        let d = star(&[1.0, 1.0, 1.0, 50.0]);
        let x = find_cluster(&d, 3, 2.0).unwrap();
        assert_eq!(x.len(), 3);
        assert!(diameter(&d, &x) <= 2.0);
    }

    #[test]
    fn latency_constrained_clustering_works_unchanged() {
        // The paper's third future-work item: latency is also near-tree,
        // and the machinery is metric-generic. Two data centres 1 ms apart
        // internally, 50 ms across.
        let lat = DistanceMatrix::from_fn(6, |i, j| if (i < 3) == (j < 3) { 1.0 } else { 50.0 });
        assert_eq!(find_cluster(&lat, 3, 2.0), Some(vec![0, 1, 2]));
        assert_eq!(find_cluster(&lat, 4, 2.0), None);
    }

    #[test]
    fn result_satisfies_both_constraints() {
        let d = line(&[0.0, 1.0, 2.0, 3.0, 10.0, 11.0]);
        let x = find_cluster(&d, 4, 3.0).unwrap();
        assert_eq!(x.len(), 4);
        assert!(diameter(&d, &x) <= 3.0);
    }

    #[test]
    fn none_when_no_cluster() {
        let d = line(&[0.0, 10.0, 20.0, 30.0]);
        assert_eq!(find_cluster(&d, 2, 5.0), None);
        assert_eq!(find_cluster(&d, 3, 10.0), None);
    }

    #[test]
    fn k_larger_than_n_is_none() {
        let d = star(&[1.0, 1.0]);
        assert_eq!(find_cluster(&d, 3, 100.0), None);
    }

    #[test]
    fn k_equals_n_when_everything_close() {
        let d = star(&[1.0; 6]);
        let x = find_cluster(&d, 6, 2.0).unwrap();
        assert_eq!(x, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn k_one_degenerate() {
        let d = star(&[1.0, 2.0]);
        assert_eq!(find_cluster(&d, 1, 0.001), Some(vec![0]));
        assert_eq!(find_cluster(&d, 0, 0.001), None);
    }

    #[test]
    fn boundary_diameter_included() {
        // d(0,1) exactly l must qualify (constraint is <=).
        let d = line(&[0.0, 5.0]);
        assert!(find_cluster(&d, 2, 5.0).is_some());
        assert!(find_cluster(&d, 2, 4.999).is_none());
    }

    #[test]
    fn work_meter_charges_and_saturates() {
        let mut m = WorkMeter::new(10);
        assert!(m.charge(10));
        assert!(!m.exhausted());
        assert!(!m.charge(1));
        assert!(m.exhausted());
        assert_eq!(m.used(), 11);
        // Cost inflation multiplies each pair's charge.
        let mut slow = WorkMeter::with_cost(10, 4);
        assert!(!slow.charge(3), "3 pairs at cost 4 exceed 10 units");
        assert_eq!(slow.used(), 12);
        // A meter at the ceiling saturates instead of wrapping into
        // exhaustion.
        let mut ceiling = WorkMeter::new(u64::MAX);
        assert!(ceiling.charge(u64::MAX));
        assert!(ceiling.charge(u64::MAX));
        assert!(!ceiling.exhausted());
        // Zero cost is clamped to one so charging always makes progress.
        assert_eq!(WorkMeter::with_cost(5, 0).cost(), 1);
        // No meter at all: every charge holds and nothing is counted.
        let mut none = Unmetered;
        assert!(none.charge(u64::MAX));
        assert!(!none.exhausted());
        assert_eq!(none.used(), 0);
    }

    #[test]
    fn budgeted_matches_unbudgeted_when_not_exhausted() {
        let spaces = [
            line(&[0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 20.0]),
            star(&[1.0, 1.0, 1.0, 50.0, 2.0]),
            line(&[0.0, 10.0, 20.0, 30.0]),
        ];
        for d in &spaces {
            for k in 1..=d.len() {
                for l in [0.5, 2.0, 3.0, 5.0, 100.0] {
                    let want = Budgeted::Done(find_cluster(d, k, l));
                    let got = find_cluster_budgeted(d, k, l, &mut WorkMeter::new(u64::MAX));
                    assert_eq!(got, want, "k={k} l={l}");
                    assert_eq!(find_cluster_budgeted(d, k, l, &mut Unmetered), want);
                }
                let l = 3.0;
                let want = Budgeted::Done(max_cluster_size(d, l));
                let got = max_cluster_size_budgeted(d, l, &mut WorkMeter::new(u64::MAX));
                assert_eq!(got, want);
                assert_eq!(max_cluster_size_budgeted(d, l, &mut Unmetered), want);
            }
        }
    }

    #[test]
    fn budget_exhaustion_cuts_at_block_boundaries() {
        // A space large enough that the scan spans several blocks, with no
        // satisfying cluster so the scan cannot exit early.
        let pos: Vec<f64> = (0..40).map(|i| i as f64 * 10.0).collect();
        let d = line(&pos);
        let mut meter = WorkMeter::new(BUDGET_BLOCK as u64);
        match find_cluster_budgeted(&d, 3, 5.0, &mut meter) {
            Budgeted::Exhausted { pairs_done, .. } => {
                // One full block fits the budget; the check after the second
                // block trips it. The cut is always a block multiple.
                assert_eq!(pairs_done, 2 * BUDGET_BLOCK as u64);
            }
            done => panic!("expected exhaustion, got {done:?}"),
        }
        // An already-exhausted meter refuses immediately.
        let mut spent = WorkMeter::new(0);
        spent.charge(1);
        assert!(find_cluster_budgeted(&d, 3, 5.0, &mut spent).is_exhausted());
        assert!(max_cluster_size_budgeted(&d, 5.0, &mut spent).is_exhausted());
    }

    #[test]
    fn budgeted_exhaustion_reports_best_partial() {
        // Tight triple at the head of a space wide enough to cross a block
        // boundary; the full k=4 never assembles, so an exhausted scan must
        // surface the size-3 subset it saw.
        let mut pos = vec![0.0, 1.0, 2.0];
        pos.extend((1..=10).map(|i| i as f64 * 100.0));
        let d = line(&pos);
        let mut meter = WorkMeter::new(4);
        match find_cluster_budgeted(&d, 4, 2.5, &mut meter) {
            Budgeted::Exhausted { best_partial, .. } => {
                assert_eq!(best_partial, Some(vec![0, 1, 2]));
            }
            done => panic!("expected exhaustion, got {done:?}"),
        }
        let mut meter = WorkMeter::new(4);
        match max_cluster_size_budgeted(&d, 2.5, &mut meter) {
            Budgeted::Exhausted { best_partial, .. } => assert_eq!(best_partial, 3),
            done => panic!("expected exhaustion, got {done:?}"),
        }
    }

    #[test]
    fn budgeted_cut_is_cost_deterministic() {
        // The same scan under the same budget and cost always cuts at the
        // same pair count — replayed twice, byte-identical.
        let pos: Vec<f64> = (0..30).map(|i| i as f64 * 7.0).collect();
        let d = line(&pos);
        for cost in [1u64, 3, 17] {
            let mut a = WorkMeter::with_cost(200, cost);
            let mut b = WorkMeter::with_cost(200, cost);
            let ra = find_cluster_budgeted(&d, 3, 5.0, &mut a);
            let rb = find_cluster_budgeted(&d, 3, 5.0, &mut b);
            assert_eq!(ra, rb);
            assert_eq!(a.used(), b.used());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The meter charges pairs scanned, never rows filled: for any
        /// budget and cost the row sweep cuts where the dense loop cut,
        /// with the same charge and the same partial answer.
        #[test]
        fn row_sweep_replays_the_dense_loop_charge_for_charge(
            d in arb_tied_space(),
            k_pick in 0usize..6,
            l_pick in 0..LS.len(),
            budget in 0u64..1200,
            cost in 1u64..40,
            spent in any::<bool>(),
        ) {
            let m = d.len();
            let k = [0, 1, 2, 3, m, m + 1][k_pick];
            let l = LS[l_pick];
            // Every fourth case or so starts from a meter already run dry.
            let meter = || {
                let mut meter = WorkMeter::with_cost(budget, cost);
                if spent && budget % 4 == 0 {
                    meter.charge(budget + 1);
                }
                meter
            };
            let (mut dense, mut rows) = (meter(), meter());
            prop_assert_eq!(
                find_cluster_budgeted(&d, k, l, &mut rows),
                dense_find_cluster_budgeted(&d, k, l, &mut dense),
                "find m={} k={} l={} budget={} cost={}", m, k, l, budget, cost
            );
            prop_assert_eq!(rows.used(), dense.used());
            let (mut dense, mut rows) = (meter(), meter());
            prop_assert_eq!(
                max_cluster_size_budgeted(&d, l, &mut rows),
                dense_max_cluster_size_budgeted(&d, l, &mut dense),
                "max m={} l={} budget={} cost={}", m, l, budget, cost
            );
            prop_assert_eq!(rows.used(), dense.used());
        }
    }

    #[test]
    fn matches_brute_force_on_tree_metrics() {
        let d = line(&[0.0, 2.0, 3.0, 7.0, 8.0, 8.5, 15.0]);
        for k in 2..=7 {
            for l in [0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 20.0] {
                let ours = find_cluster(&d, k, l).is_some();
                let brute = exists_cluster_brute_force(&d, k, l);
                assert_eq!(ours, brute, "k={k} l={l}");
            }
        }
    }

    #[test]
    fn ascending_order_finds_tightest_first() {
        let d = line(&[0.0, 1.0, 10.0, 10.1]);
        // Both {0,1} (diam 1) and {2,3} (diam 0.1) satisfy k=2, l=2.
        let x = find_cluster_ordered(&d, 2, 2.0, PairOrder::AscendingDiameter).unwrap();
        assert_eq!(x, vec![2, 3], "tightest pair first");
        let y = find_cluster_ordered(&d, 2, 2.0, PairOrder::RowMajor).unwrap();
        assert_eq!(y, vec![0, 1], "row-major finds (0,1) first");
    }

    #[test]
    fn max_cluster_size_direct() {
        let d = line(&[0.0, 1.0, 2.0, 3.0, 10.0]);
        assert_eq!(max_cluster_size(&d, 3.0), 4);
        assert_eq!(max_cluster_size(&d, 1.0), 2);
        assert_eq!(max_cluster_size(&d, 0.5), 1);
        assert_eq!(max_cluster_size(&d, 100.0), 5);
    }

    #[test]
    fn max_cluster_size_binary_agrees_with_direct() {
        let d = line(&[0.0, 2.0, 3.0, 7.0, 8.0, 8.5, 15.0]);
        for l in [0.1, 0.5, 1.0, 1.5, 4.0, 6.5, 7.0, 15.0, 100.0] {
            assert_eq!(
                max_cluster_size(&d, l),
                max_cluster_size_binary_search(&d, l),
                "l = {l}"
            );
        }
    }

    #[test]
    fn max_cluster_size_empty_space() {
        let d = DistanceMatrix::new(0);
        assert_eq!(max_cluster_size(&d, 1.0), 0);
        assert_eq!(max_cluster_size_binary_search(&d, 1.0), 0);
    }

    #[test]
    fn max_cluster_size_singleton() {
        let d = DistanceMatrix::new(1);
        assert_eq!(max_cluster_size(&d, 1.0), 1);
        assert_eq!(max_cluster_size_binary_search(&d, 1.0), 1);
    }

    #[test]
    fn diameter_of_subsets() {
        let d = line(&[0.0, 3.0, 5.0]);
        assert_eq!(diameter(&d, &[0, 2]), 5.0);
        assert_eq!(diameter(&d, &[1]), 0.0);
        assert_eq!(diameter(&d, &[]), 0.0);
    }

    #[test]
    fn min_diameter_is_optimal_on_tree_metrics() {
        let d = line(&[0.0, 2.0, 3.0, 7.0, 8.0, 8.5]);
        // Brute-force optimum per k.
        fn brute(d: &DistanceMatrix, k: usize) -> f64 {
            let n = d.len();
            let mut best = f64::INFINITY;
            let idx: Vec<usize> = (0..n).collect();
            fn rec(
                d: &DistanceMatrix,
                rest: &[usize],
                chosen: &mut Vec<usize>,
                k: usize,
                best: &mut f64,
            ) {
                if chosen.len() == k {
                    *best = best.min(diameter(d, chosen));
                    return;
                }
                if rest.len() + chosen.len() < k {
                    return;
                }
                let (head, tail) = rest.split_first().unwrap();
                chosen.push(*head);
                rec(d, tail, chosen, k, best);
                chosen.pop();
                rec(d, tail, chosen, k, best);
            }
            rec(d, &idx, &mut Vec::new(), k, &mut best);
            best
        }
        for k in 2..=6 {
            let (cluster, diam) = min_diameter_cluster(&d, k).unwrap();
            assert_eq!(cluster.len(), k);
            assert!((diam - brute(&d, k)).abs() < 1e-12, "k = {k}");
            assert!((diameter(&d, &cluster) - diam).abs() < 1e-12);
        }
    }

    #[test]
    fn min_diameter_edge_cases() {
        let d = line(&[0.0, 5.0]);
        assert_eq!(min_diameter_cluster(&d, 1), Some((vec![0], 0.0)));
        assert_eq!(min_diameter_cluster(&d, 2), Some((vec![0, 1], 5.0)));
        assert_eq!(min_diameter_cluster(&d, 3), None);
        assert_eq!(min_diameter_cluster(&d, 0), None);
    }

    #[test]
    fn min_diameter_consistent_with_find_cluster() {
        let d = line(&[0.0, 1.0, 4.0, 4.5, 9.0]);
        for k in 2..=5 {
            let (_, diam) = min_diameter_cluster(&d, k).unwrap();
            // find_cluster succeeds exactly at l >= diam.
            assert!(find_cluster(&d, k, diam).is_some());
            assert!(find_cluster(&d, k, diam * 0.999).is_none());
        }
    }

    #[test]
    fn brute_force_small_cases() {
        let d = line(&[0.0, 1.0, 2.0]);
        assert!(exists_cluster_brute_force(&d, 3, 2.0));
        assert!(!exists_cluster_brute_force(&d, 3, 1.5));
        assert!(!exists_cluster_brute_force(&d, 4, 100.0));
    }
}
