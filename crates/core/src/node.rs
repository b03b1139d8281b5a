//! Per-node protocol state for decentralized clustering (Sec. III-B).
//!
//! Each participating host keeps:
//!
//! - `aggrNode[v]` for every overlay neighbor `v` — the `n_cut` closest
//!   nodes reachable through `v` (Algorithm 2, *dynamic aggregation of close
//!   nodes*);
//! - its own *clustering space* `V_x = {x} ∪ ⋃_v aggrNode[v]`, the only
//!   nodes it may put in a cluster;
//! - `aggrCRT[v][l]` for every neighbor and bandwidth class — the maximum
//!   cluster size available through `v` (Algorithm 3, the *cluster routing
//!   table*), plus `aggrCRT[x][l]`, the maximum it can build locally.
//!
//! [`ClusterNode`] is pure state plus message construction/consumption; it
//! performs no I/O. The round engine in `bcc-simnet` moves the messages, and
//! [`crate::process_query`] walks the overlay using the CRTs.

use std::borrow::Cow;
use std::collections::BTreeMap;

use bcc_metric::NodeId;

use crate::classes::BandwidthClasses;
use crate::error::ClusterError;
use crate::find_cluster::{max_size_rows, sweep_rows, Budgeted, Meter, Unmetered};
use crate::index::{max_cluster_sizes_indexed, ClusterIndex};
use crate::rows::LazyRows;

/// Configuration shared by every node of a clustering overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Maximum number of node records per neighbor direction (the paper's
    /// `n_cut`; its tradeoff experiment uses 10).
    pub n_cut: usize,
    /// The quantized bandwidth constraints every CRT is keyed by.
    pub classes: BandwidthClasses,
}

impl ProtocolConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `n_cut` is zero.
    pub fn new(n_cut: usize, classes: BandwidthClasses) -> Self {
        assert!(n_cut > 0, "n_cut must be positive");
        ProtocolConfig { n_cut, classes }
    }
}

/// The predicted-distance oracle a node reads its clustering space
/// through — in the paper, the label distance (Sec. II-D).
///
/// A node visit binds each host it reads to a [`Distances::Key`] once and
/// then reads every pair by key, so a store indexed by something other
/// than the host id pays its lookup once per host, not once per pair. Any
/// `FnMut(NodeId, NodeId) -> f64` is an oracle whose key is the id itself.
pub trait Distances {
    /// What a host is bound to for the rest of one visit.
    type Key: Copy;

    /// Binds `host`.
    fn key(&mut self, host: NodeId) -> Self::Key;

    /// The predicted distance between two distinct bound hosts.
    fn dist(&mut self, a: Self::Key, b: Self::Key) -> f64;
}

impl<F: FnMut(NodeId, NodeId) -> f64> Distances for F {
    type Key = NodeId;

    #[inline]
    fn key(&mut self, host: NodeId) -> NodeId {
        host
    }

    #[inline]
    fn dist(&mut self, a: NodeId, b: NodeId) -> f64 {
        self(a, b)
    }
}

/// Lends an oracle to one node visit and keeps it for the next: the
/// routed walks hand one oracle to every node they visit.
pub(crate) struct Lend<'a, D>(pub(crate) &'a mut D);

impl<D: Distances> Distances for Lend<'_, D> {
    type Key = D::Key;

    #[inline]
    fn key(&mut self, host: NodeId) -> D::Key {
        self.0.key(host)
    }

    #[inline]
    fn dist(&mut self, a: D::Key, b: D::Key) -> f64 {
        self.0.dist(a, b)
    }
}

/// `space` bound to `dist`'s keys, position for position.
fn bind<D: Distances>(space: &[NodeId], dist: &mut D) -> Vec<D::Key> {
    space.iter().map(|&u| dist.key(u)).collect()
}

/// Spaces of at least this many hosts keep their sorted rows between
/// recomputes (DESIGN §17, "Which spaces keep their rows"): below it the
/// memory kept outweighs the time a delta saves, and below about 50 hosts
/// a delta costs more than a build.
const KEPT_ROWS_MIN_SPACE: usize = 200;

/// The sorted rows of the space `aggrCRT[x]` was last computed on, kept
/// for a big space so the next recompute applies the space's delta
/// ([`ClusterIndex::apply_churn`]) instead of sorting every row again.
#[derive(Debug, Clone)]
struct KeptRows {
    /// Keyed by host id, so slots are positions in that sorted space.
    index: ClusterIndex,
    /// Members whose distance rows changed since the rows were sorted:
    /// the next update re-sorts them wherever they still are.
    relabelled: Vec<u32>,
}

/// `read(a, b)` with the lower row id first, `0` on the diagonal: the
/// pairs a dense fill of the sorted space reads. Ids and positions of a
/// sorted space order alike, so both kinds of rows read the same values.
fn lower_first(a: u32, b: u32, mut read: impl FnMut(u32, u32) -> f64) -> f64 {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => read(a, b),
        std::cmp::Ordering::Equal => 0.0,
        std::cmp::Ordering::Greater => read(b, a),
    }
}

/// Protocol state of one host.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    id: NodeId,
    neighbors: Vec<NodeId>,
    /// aggrNode[v]: closest nodes reachable via neighbor v.
    aggr_node: BTreeMap<NodeId, Vec<NodeId>>,
    /// V_x = {x} ∪ ⋃_v aggrNode[v], sorted and deduped.
    space: Vec<NodeId>,
    /// aggrCRT[x][l]: the max cluster size buildable from the local space.
    own_max: Vec<usize>,
    /// The space `own_max` was computed on; `None` once invalidated.
    own_max_space: Option<Vec<NodeId>>,
    /// That space's sorted rows, when it is big enough to keep them.
    kept: Option<KeptRows>,
    /// aggrCRT[v][l] for each neighbor v.
    aggr_crt: BTreeMap<NodeId, Vec<usize>>,
    class_count: usize,
}

impl ClusterNode {
    /// Creates a node with its overlay neighbor set.
    pub fn new(id: NodeId, neighbors: Vec<NodeId>, class_count: usize) -> Self {
        ClusterNode {
            id,
            neighbors,
            aggr_node: BTreeMap::new(),
            space: vec![id],
            own_max: vec![0; class_count],
            own_max_space: None,
            kept: None,
            aggr_crt: BTreeMap::new(),
            class_count,
        }
    }

    /// This node's host id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Overlay neighbors.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Clears all aggregated protocol state (a cold restart after a crash).
    ///
    /// The id and overlay neighbor set survive — they come from the anchor
    /// tree, not from gossip — but `aggrNode`, `aggrCRT`, the local maxima
    /// and any kept rows are rebuilt from scratch by subsequent gossip
    /// rounds.
    pub fn reset(&mut self) {
        self.aggr_node.clear();
        self.aggr_crt.clear();
        self.own_max = vec![0; self.class_count];
        self.rebuild_space();
        self.own_max_space = None;
        self.kept = None;
    }

    /// Replaces the overlay neighbor list (an anchor-tree edit adjacent to
    /// this host) and drops the aggregated records of any direction that no
    /// longer exists — stale `aggrNode[v]`/`aggrCRT[v]` entries for a
    /// departed neighbor would otherwise keep polluting
    /// [`ClusterNode::space`] and the CRT folds forever.
    ///
    /// Records for neighbors that remain are kept as-is: they stay valid
    /// gossip state and focused reconvergence refreshes them only where the
    /// senders' reports actually changed.
    pub fn set_neighbors(&mut self, neighbors: Vec<NodeId>) {
        let records = self.aggr_node.len();
        self.aggr_node.retain(|v, _| neighbors.contains(v));
        self.aggr_crt.retain(|v, _| neighbors.contains(v));
        self.neighbors = neighbors;
        if self.aggr_node.len() != records {
            self.rebuild_space();
        }
        self.own_max_space = None;
    }

    /// Algorithm 2, sender side: the `propNode` message for neighbor `to` —
    /// the `n_cut` candidates closest to `to` among `{self} ∪
    /// ⋃_{v ≠ to} aggrNode[v]`.
    ///
    /// `dist` must return the *predicted* distance between two hosts (tree
    /// or label distance).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `to` is not a neighbor.
    pub fn node_info_for(
        &self,
        to: NodeId,
        n_cut: usize,
        mut dist: impl Distances,
    ) -> Result<Vec<NodeId>, ClusterError> {
        if !self.neighbors.contains(&to) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: to.index(),
            });
        }
        let mut cand: Vec<NodeId> = vec![self.id];
        for (&v, nodes) in &self.aggr_node {
            if v == to {
                continue;
            }
            cand.extend(nodes.iter().copied());
        }
        cand.sort_unstable();
        cand.dedup();
        cand.retain(|&u| u != to);
        // Top n_cut by predicted distance to `to`; ties break by id so the
        // protocol is deterministic.
        let target = dist.key(to);
        let mut keyed: Vec<(f64, NodeId)> = cand
            .into_iter()
            .map(|u| {
                let key = dist.key(u);
                (dist.dist(target, key), u)
            })
            .collect();
        let by_dist_then_id = |a: &(f64, NodeId), b: &(f64, NodeId)| {
            a.0.partial_cmp(&b.0)
                .expect("distances are comparable")
                .then(a.1.cmp(&b.1))
        };
        // Ids are distinct, so the order is strict: selecting the n_cut
        // smallest and sorting only those yields the full sort's prefix.
        if n_cut < keyed.len() {
            keyed.select_nth_unstable_by(n_cut, by_dist_then_id);
            keyed.truncate(n_cut);
        }
        keyed.sort_unstable_by(by_dist_then_id);
        Ok(keyed.into_iter().map(|(_, u)| u).collect())
    }

    /// Algorithm 2, receiver side: stores `propNode` received from `from`.
    /// A record equal to the one held changes nothing. Returns whether the
    /// record changed.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `from` is not a
    /// neighbor.
    pub fn receive_node_info(
        &mut self,
        from: NodeId,
        info: Vec<NodeId>,
    ) -> Result<bool, ClusterError> {
        if !self.neighbors.contains(&from) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: from.index(),
            });
        }
        let changed = self.aggr_node.get(&from) != Some(&info);
        if changed {
            self.aggr_node.insert(from, info);
            self.rebuild_space();
        }
        Ok(changed)
    }

    /// Recollects `V_x` from the stored records.
    fn rebuild_space(&mut self) {
        self.space.clear();
        self.space.push(self.id);
        for nodes in self.aggr_node.values() {
            self.space.extend_from_slice(nodes);
        }
        self.space.sort_unstable();
        self.space.dedup();
    }

    /// The node's clustering space `V_x = {x} ∪ ⋃_v aggrNode[v]`, sorted.
    pub fn space(&self) -> &[NodeId] {
        &self.space
    }

    /// An owned copy of [`ClusterNode::space`].
    pub fn clustering_space(&self) -> Vec<NodeId> {
        self.space.clone()
    }

    /// Whether `aggrCRT[x]` must be recomputed (Algorithm 3, line 8): the
    /// space differs from the one [`ClusterNode::recompute_own_max`] last
    /// ran on, or a reset, a neighbor edit or a relabelled host of the
    /// space came since. A new node is stale.
    pub fn own_max_stale(&self) -> bool {
        self.own_max_space.as_ref() != Some(&self.space)
    }

    /// The hosts in `relabelled` got new distance rows (they were
    /// re-embedded), which no record shows. Marks `aggrCRT[x]` stale when
    /// one of them is in the space, and returns whether it did.
    ///
    /// Kept rows note every one of them they hold, whether or not it is
    /// still in the space: a host that left, was relabelled and came back
    /// before the next recompute has a stale row there all the same.
    pub fn relabel(&mut self, relabelled: &[NodeId]) -> bool {
        if let Some(kept) = &mut self.kept {
            kept.relabelled.extend(
                relabelled
                    .iter()
                    .map(|u| u.index() as u32)
                    .filter(|&u| kept.index.slot(u).is_some()),
            );
        }
        let stale = relabelled
            .iter()
            .any(|u| self.space.binary_search(u).is_ok());
        if stale {
            self.own_max_space = None;
        }
        stale
    }

    /// The part of the clustering space `alive` admits, sorted — the
    /// positions every node-local search runs over. `None` when fewer than
    /// `min_len` hosts survive the filter.
    fn live_space(
        &self,
        min_len: usize,
        mut alive: impl FnMut(NodeId) -> bool,
    ) -> Option<Cow<'_, [NodeId]>> {
        let space: Cow<'_, [NodeId]> = if self.space.iter().all(|&u| alive(u)) {
            Cow::Borrowed(&self.space)
        } else {
            self.space.iter().copied().filter(|&u| alive(u)).collect()
        };
        (space.len() >= min_len).then_some(space)
    }

    /// Algorithm 3, line 8: recomputes `aggrCRT[x][l]` for every class by
    /// running the centralized search over the local clustering space.
    ///
    /// This is the all-class exact-maximum access pattern, so it is where
    /// a [`ClusterIndex`] pays for itself: the space's sorted rows, then
    /// one pass of the all-class kernel, which visits the classes in
    /// ascending `l` and opens each pair of the space at most once across
    /// all of them. Every value equals the [`crate::max_cluster_size`]
    /// sweep's. The rows read `dist`, and the kernel reads only the rows:
    /// no matrix of the space is built.
    ///
    /// A space of at least `KEPT_ROWS_MIN_SPACE` hosts keeps its rows,
    /// keyed by host id, and the next recompute brings them up to date
    /// with the space's delta: the hosts that left, and the hosts that
    /// joined or were [relabelled](ClusterNode::relabel) since. Ties break
    /// by ascending id, which is ascending position in the sorted space,
    /// so kept rows order like a fresh build's and `aggrCRT[x]` is the
    /// same bit for bit.
    pub fn recompute_own_max(&mut self, classes: &BandwidthClasses, mut dist: impl Distances) {
        let _span = bcc_obs::span!("core.recompute_own_max");
        bcc_obs::observe!("core.own_max.space_len", self.space.len() as u64);
        let index = self.space_rows(&mut dist);
        self.own_max = max_cluster_sizes_indexed(&index, classes.distances());
        self.own_max_space = Some(self.space.clone());
        self.kept = (index.len() >= KEPT_ROWS_MIN_SPACE).then_some(KeptRows {
            index,
            relabelled: Vec::new(),
        });
    }

    /// The sorted rows of the current space: the kept rows brought up to
    /// date by the space's delta, or a fresh build when none are kept (or
    /// the delta names an id past the kept universe). Rows that may be
    /// kept are keyed by host id; a space below the keep rule is keyed by
    /// position, so its tables are sized to the space.
    fn space_rows<D: Distances>(&mut self, dist: &mut D) -> ClusterIndex {
        let mut by_id = |a: u32, b: u32| {
            lower_first(a, b, |a, b| {
                let (a, b) = (dist.key(NodeId::from(a)), dist.key(NodeId::from(b)));
                dist.dist(a, b)
            })
        };
        if let Some(KeptRows {
            mut index,
            mut relabelled,
        }) = self.kept.take()
        {
            let in_space = |u: u32| self.space.binary_search(&NodeId::from(u)).is_ok();
            let removed: Vec<u32> = index
                .ids()
                .iter()
                .copied()
                .filter(|&u| !in_space(u))
                .collect();
            let mut changed: Vec<u32> = self
                .space
                .iter()
                .map(|u| u.index() as u32)
                .filter(|&u| index.slot(u).is_none())
                .collect();
            relabelled.sort_unstable();
            relabelled.dedup();
            relabelled.retain(|&u| in_space(u));
            changed.extend(relabelled);
            if removed.is_empty() && changed.is_empty() {
                return index;
            }
            if index.apply_churn(&removed, &changed, &mut by_id).is_ok() {
                return index;
            }
        }
        if self.space.len() >= KEPT_ROWS_MIN_SPACE {
            let ids: Vec<u32> = self.space.iter().map(|u| u.index() as u32).collect();
            let universe = ids
                .last()
                .map_or(0, |&u| u as usize + 1)
                .next_power_of_two();
            return ClusterIndex::build(universe, &ids, by_id);
        }
        let keys = bind(&self.space, dist);
        let positions: Vec<u32> = (0..keys.len() as u32).collect();
        ClusterIndex::build(keys.len(), &positions, |a, b| {
            lower_first(a, b, |a, b| dist.dist(keys[a as usize], keys[b as usize]))
        })
    }

    /// Audit accessor: the sorted rows this node keeps for the space
    /// `aggrCRT[x]` was last computed on, keyed by host id — `None` below
    /// the keep rule, and after a reset or a restore until the next
    /// recompute. Used by oracles to check the kept rows against a fresh
    /// [`ClusterIndex::build`].
    pub fn kept_rows(&self) -> Option<&ClusterIndex> {
        self.kept.as_ref().map(|kept| &kept.index)
    }

    /// `aggrCRT[x][l]` — the maximum cluster size this node can build
    /// locally, per class index.
    pub fn own_max(&self) -> &[usize] {
        &self.own_max
    }

    /// Restores `aggrCRT[x]` from a checkpoint without recomputing it —
    /// the warm-restart path, which must reproduce the exporting node's
    /// state bit-for-bit (and skip the local cluster searches
    /// [`ClusterNode::recompute_own_max`] would run), as if computed on the
    /// current space. Kept rows are dropped, so the first recompute after a
    /// restore builds its rows fresh.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ClassCountMismatch`] if the row length does
    /// not match the class count.
    pub fn restore_own_max(&mut self, own_max: Vec<usize>) -> Result<(), ClusterError> {
        self.check_width(&own_max)?;
        self.own_max = own_max;
        self.own_max_space = Some(self.space.clone());
        self.kept = None;
        Ok(())
    }

    /// Algorithm 3, sender side: the `propCRT` row for neighbor `to` —
    /// per class, the best cluster size among this node and every direction
    /// except `to`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `to` is not a neighbor.
    pub fn crt_for(&self, to: NodeId) -> Result<Vec<usize>, ClusterError> {
        if !self.neighbors.contains(&to) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: to.index(),
            });
        }
        let mut row = self.own_max.clone();
        for (&v, crt) in &self.aggr_crt {
            if v == to {
                continue;
            }
            for (slot, &val) in row.iter_mut().zip(crt) {
                *slot = (*slot).max(val);
            }
        }
        Ok(row)
    }

    /// Algorithm 3, receiver side: stores the `propCRT` row from `from`.
    /// Returns whether the row differs from the one held (an absent row
    /// reads as zeros, as in [`ClusterNode::crt_entry`]).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `from` is not a
    /// neighbor, and [`ClusterError::ClassCountMismatch`] if the row
    /// length does not match the class count.
    pub fn receive_crt(&mut self, from: NodeId, row: Vec<usize>) -> Result<bool, ClusterError> {
        if !self.neighbors.contains(&from) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: from.index(),
            });
        }
        self.check_width(&row)?;
        let changed = row
            .iter()
            .enumerate()
            .any(|(c, &s)| self.crt_entry(from, c) != s);
        self.aggr_crt.insert(from, row);
        Ok(changed)
    }

    /// A routing-table row must hold one entry per bandwidth class.
    fn check_width(&self, row: &[usize]) -> Result<(), ClusterError> {
        if row.len() != self.class_count {
            return Err(ClusterError::ClassCountMismatch {
                expected: self.class_count,
                got: row.len(),
            });
        }
        Ok(())
    }

    /// `aggrCRT[v][class_idx]` for a neighbor, `0` when nothing has been
    /// received yet.
    pub fn crt_entry(&self, v: NodeId, class_idx: usize) -> usize {
        self.aggr_crt.get(&v).map_or(0, |row| row[class_idx])
    }

    /// Audit accessor: the `aggrNode[v]` record currently stored for
    /// neighbor `v`, or `None` when no Algorithm 2 message from `v` has
    /// been received yet. Used by consistency oracles to cross-check the
    /// gossip state against the live framework without mutating the node.
    pub fn aggr_node_for(&self, v: NodeId) -> Option<&[NodeId]> {
        self.aggr_node.get(&v).map(Vec::as_slice)
    }

    /// Audit accessor: the number of bandwidth classes this node tracks
    /// (the length of every CRT row).
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Algorithm 4, local half: answers `(k, class_idx)` from the part of
    /// the local clustering space `alive` admits, if `aggrCRT[x][l]` admits
    /// it. [`crate::process_query`] runs the same search under its meter
    /// with its liveness oracle; a caller with no fault detector passes
    /// `|_| true`.
    ///
    /// The clustering space may contain crashed hosts (close-node records
    /// are only as fresh as the last gossip round), so a cluster assembled
    /// from stale state could include dead members. Filtering the space
    /// keeps the answer valid: the diameter constraint is hereditary, so
    /// any subset of a feasible cluster is feasible.
    ///
    /// This is [`ClusterNode::answer_locally_filtered_budgeted`] under
    /// [`Unmetered`].
    pub fn answer_locally_filtered(
        &self,
        k: usize,
        class_idx: usize,
        classes: &BandwidthClasses,
        dist: impl Distances,
        alive: impl FnMut(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        self.answer_locally_filtered_budgeted(k, class_idx, classes, dist, alive, &mut Unmetered)
            .into_value()
    }

    /// Delegates to [`ClusterNode::answer_locally_filtered`]; kept under
    /// this name for the end-to-end benchmark's traced replay.
    pub fn answer_locally_filtered_indexed(
        &self,
        k: usize,
        class_idx: usize,
        classes: &BandwidthClasses,
        dist: impl Distances,
        alive: impl FnMut(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        self.answer_locally_filtered(k, class_idx, classes, dist, alive)
    }

    /// The one node-local search: [`ClusterNode::answer_locally_filtered`]
    /// under a [`Meter`]. The local cluster search charges the meter per
    /// pair examined, and on exhaustion reports the largest live subset
    /// (size ≥ 2) assembled so far as the `best_partial` instead of a full
    /// answer.
    ///
    /// This is a one-shot satisfiable probe behind a CRT gate that already
    /// promised the answer, so it runs the row-major pair sweep, which
    /// exits at the first satisfying pair, and reads `V_x` through a lazily
    /// filled row store: each host of the space is bound to its key once,
    /// and `dist` is asked only for the rows the sweep opens, once per
    /// unordered pair. A [`ClusterIndex`] or a full local matrix
    /// built for the one call costs more than the whole sweep.
    ///
    /// Under a meter that does not run dry the result is bit-identical to
    /// the [`Unmetered`] one.
    pub fn answer_locally_filtered_budgeted(
        &self,
        k: usize,
        class_idx: usize,
        classes: &BandwidthClasses,
        mut dist: impl Distances,
        alive: impl FnMut(NodeId) -> bool,
        meter: &mut impl Meter,
    ) -> Budgeted<Option<Vec<NodeId>>> {
        if k == 0 || k > self.own_max[class_idx] {
            return Budgeted::Done(None);
        }
        let Some(space) = self.live_space(k, alive) else {
            return Budgeted::Done(None);
        };
        let l = classes.distance_of(class_idx);
        let keys = bind(&space, &mut dist);
        let mut rows = LazyRows::new(keys.len(), |i, j| dist.dist(keys[i], keys[j]));
        budgeted_hosts_of(&space, sweep_rows(&mut rows, k, l, meter))
    }

    /// The largest cluster buildable from the *live* part of the local
    /// clustering space, if any of size ≥ 2 exists — the source of partial
    /// results when the full `k` cannot be assembled.
    ///
    /// Both the sizing pass and the member search charge the meter, and
    /// both read the space through one row store, so a row the sizing pass
    /// opened is not asked for again. On exhaustion during sizing no
    /// members are known yet (`best_partial: None`); on exhaustion during
    /// the search the largest subset seen is reported.
    pub fn best_partial_budgeted(
        &self,
        class_idx: usize,
        classes: &BandwidthClasses,
        mut dist: impl Distances,
        alive: impl FnMut(NodeId) -> bool,
        meter: &mut impl Meter,
    ) -> Budgeted<Option<Vec<NodeId>>> {
        let Some(space) = self.live_space(2, alive) else {
            return Budgeted::Done(None);
        };
        let l = classes.distance_of(class_idx);
        let keys = bind(&space, &mut dist);
        let mut rows = LazyRows::new(keys.len(), |i, j| dist.dist(keys[i], keys[j]));
        let m = match max_size_rows(&mut rows, l, meter) {
            Budgeted::Done(m) => m,
            Budgeted::Exhausted { pairs_done, .. } => {
                return Budgeted::Exhausted {
                    pairs_done,
                    best_partial: None,
                }
            }
        };
        if m < 2 {
            return Budgeted::Done(None);
        }
        budgeted_hosts_of(&space, sweep_rows(&mut rows, m, l, meter))
    }

    /// Algorithm 4, routing half: a neighbor whose direction promises a
    /// cluster of size ≥ `k` for this class, picked by `policy`, skipping
    /// `exclude` (the neighbor the query came from) and every neighbor in
    /// `blacklist` (hosts discovered dead while the query was in flight,
    /// which the resilient walk reroutes around).
    pub fn route(
        &self,
        k: usize,
        class_idx: usize,
        exclude: Option<NodeId>,
        blacklist: &[NodeId],
        policy: RoutePolicy,
    ) -> Option<NodeId> {
        let eligible = self
            .neighbors
            .iter()
            .copied()
            .filter(|&v| Some(v) != exclude)
            .filter(|v| !blacklist.contains(v))
            .filter(|&v| self.crt_entry(v, class_idx) >= k);
        match policy {
            RoutePolicy::FirstFit => eligible.min_by_key(|&v| {
                // Neighbor order = parent first, then children (join order):
                // the paper's "any neighbor" reading, made deterministic.
                self.neighbors
                    .iter()
                    .position(|&n| n == v)
                    .expect("eligible is a neighbor")
            }),
            RoutePolicy::BestFit => eligible.max_by_key(|&v| (self.crt_entry(v, class_idx), v)),
            RoutePolicy::TightestFit => eligible.min_by_key(|&v| (self.crt_entry(v, class_idx), v)),
        }
    }
}

/// Maps a kernel answer (positions in the local matrix) back to host ids.
fn hosts_of(space: &[NodeId], idxs: Vec<usize>) -> Vec<NodeId> {
    idxs.into_iter().map(|i| space[i]).collect()
}

/// [`hosts_of`] through either arm of a budgeted kernel answer.
fn budgeted_hosts_of(
    space: &[NodeId],
    answer: Budgeted<Option<Vec<usize>>>,
) -> Budgeted<Option<Vec<NodeId>>> {
    match answer {
        Budgeted::Done(r) => Budgeted::Done(r.map(|idxs| hosts_of(space, idxs))),
        Budgeted::Exhausted {
            pairs_done,
            best_partial,
        } => Budgeted::Exhausted {
            pairs_done,
            best_partial: best_partial.map(|idxs| hosts_of(space, idxs)),
        },
    }
}

/// How a node picks among multiple neighbors whose CRT promises a
/// satisfying cluster (the paper says "any"; the choice affects hop counts
/// but never correctness — measured by the `ablations` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// The first eligible neighbor in overlay order (parent, then children).
    #[default]
    FirstFit,
    /// The neighbor promising the *largest* cluster — heads toward dense
    /// regions, usually minimizing hops.
    BestFit,
    /// The neighbor promising the *smallest* sufficient cluster — leaves
    /// dense regions available for harder queries.
    TightestFit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn classes() -> BandwidthClasses {
        BandwidthClasses::new(vec![25.0, 50.0], RationalTransform::new(100.0))
    }

    /// Line metric over ids: d(i, j) = |i − j|.
    fn line_dist(a: NodeId, b: NodeId) -> f64 {
        (a.index() as f64 - b.index() as f64).abs()
    }

    #[test]
    fn config_rejects_zero_ncut() {
        let result = std::panic::catch_unwind(|| ProtocolConfig::new(0, classes()));
        assert!(result.is_err());
    }

    #[test]
    fn node_info_includes_self_and_caps_at_ncut() {
        let mut m = ClusterNode::new(n(1), vec![n(0), n(2)], 2);
        m.receive_node_info(n(2), vec![n(3), n(4), n(5)]).unwrap();
        // Info for n0: candidates {1} ∪ aggrNode[2] = {1, 3, 4, 5}, closest
        // two to n0 under the line metric are 1 and 3.
        let info = m.node_info_for(n(0), 2, line_dist).unwrap();
        assert_eq!(info, vec![n(1), n(3)]);
    }

    #[test]
    fn node_info_excludes_target_direction() {
        let mut m = ClusterNode::new(n(1), vec![n(0), n(2)], 2);
        m.receive_node_info(n(0), vec![n(9)]).unwrap();
        m.receive_node_info(n(2), vec![n(3)]).unwrap();
        // Info destined to n0 must not echo what came from n0.
        let info = m.node_info_for(n(0), 10, line_dist).unwrap();
        assert_eq!(info, vec![n(1), n(3)]);
    }

    #[test]
    fn node_info_rejects_strangers() {
        let m = ClusterNode::new(n(1), vec![n(0)], 1);
        assert!(matches!(
            m.node_info_for(n(7), 3, line_dist),
            Err(ClusterError::UnknownNeighbor { neighbor: 7 })
        ));
        let mut m2 = m.clone();
        assert!(m2.receive_node_info(n(7), vec![]).is_err());
    }

    #[test]
    fn node_info_matches_full_sort_reference() {
        // Distances with ties (|i − 6| mirrors around 6) so the id
        // tie-break decides which of two equidistant hosts is kept.
        let mut m = ClusterNode::new(n(1), vec![n(0), n(6)], 2);
        let reported: Vec<NodeId> = [12, 3, 9, 5, 7, 4, 8, 2, 10, 11].map(n).to_vec();
        m.receive_node_info(n(0), reported.clone()).unwrap();
        let mut reference: Vec<NodeId> = reported;
        reference.push(n(1));
        reference.sort_by(|&a, &b| {
            line_dist(n(6), a)
                .partial_cmp(&line_dist(n(6), b))
                .unwrap()
                .then(a.cmp(&b))
        });
        let len = reference.len();
        for n_cut in [1, len - 1, len, len + 1] {
            let info = m.node_info_for(n(6), n_cut, line_dist).unwrap();
            assert_eq!(info, reference[..n_cut.min(len)], "n_cut = {n_cut}");
        }
    }

    #[test]
    fn clustering_space_dedups() {
        let mut x = ClusterNode::new(n(0), vec![n(1), n(2)], 2);
        x.receive_node_info(n(1), vec![n(3), n(4)]).unwrap();
        x.receive_node_info(n(2), vec![n(4), n(5)]).unwrap();
        assert_eq!(x.clustering_space(), vec![n(0), n(3), n(4), n(5)]);
    }

    #[test]
    fn own_max_over_local_space() {
        // Space {0, 1, 2, 3} on a line; class distances are 4 (b=25) and
        // 2 (b=50): max sizes 4 and 3.
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        assert_eq!(x.own_max(), &[4, 3]);
    }

    #[test]
    fn own_max_of_a_node_that_heard_nothing_is_itself() {
        // No aggregated record yet: the space is the node alone, which
        // needs no distance and no assertion that the space is non-empty.
        let mut x = ClusterNode::new(n(3), vec![n(1)], 2);
        x.recompute_own_max(&classes(), |_, _| unreachable!("a lone host has no pair"));
        assert_eq!(x.own_max(), &[1, 1]);
        assert_eq!(
            x.answer_locally_filtered(1, 0, &classes(), line_dist, |_| true),
            Some(vec![n(3)])
        );
    }

    #[test]
    fn crt_row_takes_max_over_other_directions() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2), n(3)], 2);
        x.receive_crt(n(0), vec![5, 1]).unwrap();
        x.receive_crt(n(2), vec![2, 4]).unwrap();
        x.receive_crt(n(3), vec![3, 3]).unwrap();
        // Row for n0 excludes n0's own direction.
        assert_eq!(x.crt_for(n(0)).unwrap(), vec![3, 4]);
        // Row for n2 excludes n2: max(own=0, n0, n3).
        assert_eq!(x.crt_for(n(2)).unwrap(), vec![5, 3]);
    }

    #[test]
    fn receiving_reports_whether_the_record_changed() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2)], 2);
        assert_eq!(x.receive_node_info(n(0), vec![n(0)]), Ok(true));
        assert_eq!(x.receive_node_info(n(0), vec![n(0)]), Ok(false));
        assert_eq!(x.receive_node_info(n(0), vec![n(0), n(3)]), Ok(true));
        // An absent CRT row reads as zeros.
        assert_eq!(x.receive_crt(n(2), vec![0, 0]), Ok(false));
        assert_eq!(x.receive_crt(n(2), vec![2, 0]), Ok(true));
        assert_eq!(x.receive_crt(n(2), vec![2, 0]), Ok(false));
    }

    #[test]
    fn crt_row_length_checked() {
        let mut x = ClusterNode::new(n(1), vec![n(0)], 2);
        let wrong = ClusterError::ClassCountMismatch {
            expected: 2,
            got: 1,
        };
        assert_eq!(x.receive_crt(n(0), vec![1]), Err(wrong.clone()));
        assert_eq!(x.restore_own_max(vec![1]), Err(wrong));
        assert!(x.receive_crt(n(0), vec![1, 2]).is_ok());
        assert!(x.restore_own_max(vec![1, 2]).is_ok());
    }

    #[test]
    fn answer_locally_respects_crt_gate() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        // Class 1 (b = 50, l = 2): max is 3.
        let got = x
            .answer_locally_filtered(3, 1, &classes(), line_dist, |_| true)
            .unwrap();
        assert_eq!(got.len(), 3);
        assert!(x
            .answer_locally_filtered(4, 1, &classes(), line_dist, |_| true)
            .is_none());
        assert!(x
            .answer_locally_filtered(0, 1, &classes(), line_dist, |_| true)
            .is_none());
        // Class 0 (l = 4): all four fit.
        assert_eq!(
            x.answer_locally_filtered(4, 0, &classes(), line_dist, |_| true)
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn answered_cluster_satisfies_constraint() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3), n(7), n(8)])
            .unwrap();
        x.recompute_own_max(&classes(), line_dist);
        let got = x
            .answer_locally_filtered(3, 1, &classes(), line_dist, |_| true)
            .unwrap();
        for (i, &a) in got.iter().enumerate() {
            for &b in &got[i + 1..] {
                assert!(line_dist(a, b) <= 2.0, "pair ({a}, {b}) violates l");
            }
        }
    }

    #[test]
    fn routing_skips_excluded_neighbor() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2)], 1);
        x.receive_crt(n(0), vec![5]).unwrap();
        x.receive_crt(n(2), vec![5]).unwrap();
        assert_eq!(
            x.route(4, 0, Some(n(0)), &[], RoutePolicy::FirstFit),
            Some(n(2))
        );
        assert_eq!(x.route(4, 0, None, &[], RoutePolicy::FirstFit), Some(n(0)));
        assert_eq!(x.route(6, 0, None, &[], RoutePolicy::FirstFit), None);
    }

    #[test]
    fn routing_before_any_crt_is_none() {
        let x = ClusterNode::new(n(1), vec![n(0), n(2)], 1);
        assert_eq!(x.route(2, 0, None, &[], RoutePolicy::FirstFit), None);
        assert_eq!(x.crt_entry(n(0), 0), 0);
    }

    #[test]
    fn reset_clears_aggregated_state_but_keeps_identity() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2)]).unwrap();
        x.receive_crt(n(1), vec![3, 2]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        assert!(x.own_max().iter().any(|&m| m > 0));
        x.reset();
        assert_eq!(x.id(), n(0));
        assert_eq!(x.neighbors(), &[n(1)]);
        assert_eq!(x.clustering_space(), vec![n(0)]);
        assert_eq!(x.own_max(), &[0, 0]);
        assert_eq!(x.crt_entry(n(1), 0), 0);
    }

    #[test]
    fn set_neighbors_prunes_stale_directions() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2)], 2);
        x.receive_node_info(n(0), vec![n(0), n(9)]).unwrap();
        x.receive_node_info(n(2), vec![n(2), n(3)]).unwrap();
        x.receive_crt(n(0), vec![5, 4]).unwrap();
        x.receive_crt(n(2), vec![2, 2]).unwrap();
        // An anchor edit swaps neighbor 0 for neighbor 4: records from the
        // kept direction survive, the departed direction's vanish — from
        // the clustering space and the CRT folds alike.
        x.set_neighbors(vec![n(2), n(4)]);
        assert_eq!(x.neighbors(), &[n(2), n(4)]);
        assert_eq!(x.clustering_space(), vec![n(1), n(2), n(3)]);
        assert_eq!(x.crt_entry(n(0), 0), 0);
        assert_eq!(x.crt_entry(n(2), 0), 2);
        assert_eq!(x.aggr_node_for(n(0)), None);
        assert_eq!(x.aggr_node_for(n(2)), Some([n(2), n(3)].as_slice()));
        // Gossip toward the new neighbor works immediately.
        assert!(x.node_info_for(n(4), 2, line_dist).is_ok());
    }

    #[test]
    fn filtered_answer_skips_dead_hosts() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        // Class 1 (l = 2) admits {0, 1, 2}; with host 1 dead only pairs
        // remain, so a live 3-cluster no longer exists.
        let full = x
            .answer_locally_filtered(3, 1, &classes(), line_dist, |_| true)
            .unwrap();
        assert_eq!(full.len(), 3);
        assert!(x
            .answer_locally_filtered(3, 1, &classes(), line_dist, |u| u != n(1))
            .is_none());
        let pair = x
            .answer_locally_filtered(2, 1, &classes(), line_dist, |u| u != n(1))
            .unwrap();
        assert!(!pair.contains(&n(1)));
    }

    #[test]
    fn filtered_indexed_delegate_matches_its_twin() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3), n(7), n(8)])
            .unwrap();
        x.recompute_own_max(&classes(), line_dist);
        let alive_sets: [&dyn Fn(NodeId) -> bool; 3] =
            [&|_| true, &|u| u != n(1), &|u| u.index() > 2];
        for alive in alive_sets {
            for class_idx in 0..2 {
                for k in 0..=7 {
                    assert_eq!(
                        x.answer_locally_filtered_indexed(
                            k,
                            class_idx,
                            &classes(),
                            line_dist,
                            alive
                        ),
                        x.answer_locally_filtered(k, class_idx, &classes(), line_dist, alive),
                        "k={k} class={class_idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn best_partial_returns_largest_live_cluster() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        let mut meter = Unmetered;
        let partial = x
            .best_partial_budgeted(1, &classes(), line_dist, |u| u != n(1), &mut meter)
            .into_value()
            .unwrap();
        assert_eq!(partial.len(), 2, "live space {{0, 2, 3}} admits a pair");
        // Everything dead but the node itself: no partial of size >= 2.
        assert!(x
            .best_partial_budgeted(1, &classes(), line_dist, |u| u == n(0), &mut meter)
            .into_value()
            .is_none());
    }

    #[test]
    fn route_skips_blacklisted_neighbors() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2), n(3)], 1);
        x.receive_crt(n(0), vec![5]).unwrap();
        x.receive_crt(n(2), vec![5]).unwrap();
        x.receive_crt(n(3), vec![5]).unwrap();
        assert_eq!(x.route(4, 0, None, &[], RoutePolicy::FirstFit), Some(n(0)));
        assert_eq!(
            x.route(4, 0, None, &[n(0)], RoutePolicy::FirstFit),
            Some(n(2))
        );
        assert_eq!(
            x.route(4, 0, Some(n(2)), &[n(0), n(3)], RoutePolicy::FirstFit),
            None
        );
    }
}
