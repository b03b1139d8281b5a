//! Algorithm 4: decentralized query processing.
//!
//! A query `(k, b)` enters at any node. The node snaps `b` up to a
//! bandwidth class, tries to answer from its own clustering space, and
//! otherwise forwards toward a neighbor whose CRT column promises a
//! large-enough cluster — never back toward the neighbor it came from, so
//! on the tree overlay the walk is a simple path and always terminates.

use bcc_metric::NodeId;
use serde::{Deserialize, Serialize};

use crate::classes::BandwidthClasses;
use crate::error::ClusterError;
use crate::find_cluster::{Budgeted, Meter};
use crate::node::{ClusterNode, Distances, Lend, RoutePolicy};

/// A reusable description of one `(k, b)` cluster query and the node it
/// enters the overlay at — the unit of work the serving layer batches,
/// caches and routes.
///
/// Construction is cheap and unchecked; [`QueryRequest::validate`] performs
/// the library-boundary checks (`k >= 2`, positive finite `b` that some
/// class admits, known entry node) and returns the snapped class index, so
/// front ends can reject garbage with a typed [`QueryError`](crate::QueryError) before any
/// routing work happens.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Host the query is submitted at (entry node of the overlay walk).
    pub start: NodeId,
    /// Requested cluster size (`k >= 2`).
    pub k: usize,
    /// Requested minimum pairwise bandwidth (Mbps); snapped *up* to the
    /// next configured bandwidth class.
    pub bandwidth: f64,
}

impl QueryRequest {
    /// Creates a request; validation is deferred to
    /// [`QueryRequest::validate`].
    pub fn new(start: NodeId, k: usize, bandwidth: f64) -> Self {
        QueryRequest {
            start,
            k,
            bandwidth,
        }
    }

    /// Validates the request against a class set and a host population of
    /// `hosts` dense ids, returning the snapped bandwidth-class index.
    ///
    /// # Errors
    ///
    /// - [`ClusterError::InvalidSizeConstraint`] when `k < 2`;
    /// - [`ClusterError::InvalidBandwidthConstraint`] when `bandwidth` is
    ///   not positive and finite;
    /// - [`ClusterError::NoMatchingClass`] when `bandwidth` exceeds every
    ///   configured class;
    /// - [`ClusterError::UnknownNeighbor`] when `start` is outside
    ///   `0..hosts`.
    pub fn validate(
        &self,
        classes: &BandwidthClasses,
        hosts: usize,
    ) -> Result<usize, ClusterError> {
        if self.k < 2 {
            return Err(ClusterError::InvalidSizeConstraint { k: self.k });
        }
        let class_idx = classes.snap_up(self.bandwidth)?;
        if self.start.index() >= hosts {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: self.start.index(),
            });
        }
        Ok(class_idx)
    }
}

/// The result of routing one query through the overlay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// The cluster found, if any (host ids).
    pub cluster: Option<Vec<NodeId>>,
    /// Number of forwarding hops (0 when the entry node answered).
    pub hops: usize,
    /// Every node the walk reached, in order (entry node first). On a tree
    /// overlay no host appears twice.
    pub path: Vec<NodeId>,
    /// How degraded the answer is after failures along the way. All-default
    /// (`Degradation::default()`) for a clean, fault-free run.
    pub degradation: Degradation,
}

impl QueryOutcome {
    /// `true` when a full cluster was returned.
    pub fn found(&self) -> bool {
        self.cluster.is_some()
    }

    /// `true` when the query ran without dead neighbors or stale routing
    /// state.
    pub fn clean(&self) -> bool {
        self.degradation == Degradation::default()
    }
}

/// Failure accounting attached to every [`QueryOutcome`]: instead of
/// failing hard when the overlay is degraded, the walk reports *how*
/// degraded its answer is.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Dead hosts encountered — and rerouted around — along the walk.
    pub dead_encountered: usize,
    /// `true` when the walk followed aggregated state that proved stale:
    /// a CRT promise pointing at a dead host, or a locally-aggregated
    /// cluster containing crashed members.
    pub stale_state: bool,
    /// When no full `k`-cluster could be assembled: the largest live
    /// cluster (size ≥ 2) seen along the walk, as a best-effort answer.
    pub partial: Option<Vec<NodeId>>,
}

/// The hop budget of [`process_query`].
///
/// The simulator has no wall clock, so the timeout analogue is a count of
/// forwarding hops: the walk stops when it reaches its `hop_budget`-th hop,
/// as a real deployment would abandon a query whose forwarding chain went
/// quiet. It is never reissued: see [`process_query`] for why a second
/// attempt could only replay the first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// The walk stops at this hop, so beyond the entry node it visits only
    /// nodes fewer than `hop_budget` hops from it.
    pub hop_budget: usize,
}

impl Default for RetryPolicy {
    /// 256 hops. On a tree overlay a walk is a simple path, so the budget
    /// binds only on an overlay of more than 256 hosts.
    fn default() -> Self {
        RetryPolicy { hop_budget: 256 }
    }
}

/// Algorithm 4: routes the query `(k, bandwidth)` starting at `start`,
/// forwarding by `policy`, around crashed hosts and charged to a [`Meter`].
///
/// `nodes` maps dense host ids to protocol state; `dist` is the predicted
/// distance oracle every node consults (labels / prediction tree); `alive`
/// is the caller's liveness oracle (in the simulators: the fault
/// injector's crash set; in a deployment: failure detection). The walk:
///
/// 1. answers from the *live* part of each clustering space — stale
///    close-node records never put crashed hosts into an answer;
/// 2. probes the chosen next hop before forwarding; a dead next hop is
///    skipped and the node picks another eligible direction;
/// 3. never goes back to the node it came from, so on the tree overlay it
///    is a simple path;
/// 4. stops at an answer, at a dead end, at its `retry.hop_budget`-th hop,
///    or once it has made more hops than there are nodes (the net for a
///    graph that is not a tree);
/// 5. never fails hard: without an answer it still reports the best live
///    partial cluster seen, plus staleness accounting, in
///    [`QueryOutcome::degradation`].
///
/// The walk makes one attempt. A dead host skipped at node `x` is a
/// neighbor of `x`, and on a tree it is a neighbor of no other node on the
/// path, since that would close a cycle. So a second attempt from the entry
/// node would take the same route to the same dead end.
///
/// Every node visit and every local cluster search along the walk charges
/// `meter`, and the moment it runs dry the walk stops and reports
/// [`Budgeted::Exhausted`] carrying the degraded outcome assembled so far
/// (partial cluster, path, staleness). Work is charged in pairs examined
/// by the node-local kernels — a deterministic quantity — so where the
/// walk is cut depends only on the overlay state and the budget, never on
/// wall-clock or thread count. Under [`Unmetered`](crate::Unmetered) the
/// walk always returns [`Budgeted::Done`], and under a meter that does not
/// run dry it returns the same outcome.
///
/// # Errors
///
/// - [`ClusterError::InvalidSizeConstraint`] when `k < 2`.
/// - [`ClusterError::InvalidBandwidthConstraint`] when `bandwidth` is not
///   positive and finite.
/// - [`ClusterError::NoMatchingClass`] when `bandwidth` exceeds every
///   configured class.
/// - [`ClusterError::UnknownNeighbor`] when `start` is out of range.
/// - [`ClusterError::NodeUnavailable`] when the entry node itself is dead.
#[allow(clippy::too_many_arguments)]
pub fn process_query(
    nodes: &[ClusterNode],
    start: NodeId,
    k: usize,
    bandwidth: f64,
    classes: &BandwidthClasses,
    mut dist: impl Distances,
    policy: RoutePolicy,
    retry: &RetryPolicy,
    mut alive: impl FnMut(NodeId) -> bool,
    meter: &mut impl Meter,
) -> Result<Budgeted<QueryOutcome>, ClusterError> {
    let class_idx = QueryRequest::new(start, k, bandwidth).validate(classes, nodes.len())?;
    if !alive(start) {
        return Err(ClusterError::NodeUnavailable {
            node: start.index(),
        });
    }

    let mut deg = Degradation::default();
    let mut blacklist: Vec<NodeId> = Vec::new();
    let mut current = start;
    let mut previous: Option<NodeId> = None;
    let mut hops = 0;
    let mut path = vec![start];

    // Folds a node-level partial into the degradation record, keeping the
    // largest live cluster seen anywhere along the walk.
    fn keep_partial(deg: &mut Degradation, p: Option<Vec<NodeId>>) {
        if let Some(p) = p {
            if deg.partial.as_ref().is_none_or(|best| p.len() > best.len()) {
                deg.partial = Some(p);
            }
        }
    }

    // `true` when the meter ran dry; a found cluster returns from inside.
    let exhausted = loop {
        // Every node visit pre-charges one unit (the CRT consultation), so
        // a walk is interruptible at node boundaries even when the local
        // scans are too small to cross a kernel block boundary. Under a
        // saturating work cost this refuses immediately — the budgeted
        // analogue of a deadline that has already expired.
        if !meter.charge(1) {
            break true;
        }
        let node = &nodes[current.index()];
        debug_assert_eq!(node.id(), current, "nodes must be indexed by id");
        match node.answer_locally_filtered_budgeted(
            k,
            class_idx,
            classes,
            Lend(&mut dist),
            &mut alive,
            meter,
        ) {
            Budgeted::Done(Some(cluster)) => {
                deg.partial = None;
                return Ok(Budgeted::Done(QueryOutcome {
                    cluster: Some(cluster),
                    hops,
                    path,
                    degradation: deg,
                }));
            }
            Budgeted::Done(None) => {}
            Budgeted::Exhausted { best_partial, .. } => {
                keep_partial(&mut deg, best_partial);
                break true;
            }
        }
        // The CRT gate promised k here but the live space cannot deliver
        // it: remember the best live cluster as a fallback.
        if k <= node.own_max()[class_idx] {
            deg.stale_state = true;
            match node.best_partial_budgeted(class_idx, classes, Lend(&mut dist), &mut alive, meter)
            {
                Budgeted::Done(p) => keep_partial(&mut deg, p),
                Budgeted::Exhausted { best_partial, .. } => {
                    keep_partial(&mut deg, best_partial);
                    break true;
                }
            }
        }
        // Pick a live next hop, skipping dead ones as discovered (the
        // reroute-around-dead-neighbors step).
        let next = loop {
            match node.route(k, class_idx, previous, &blacklist, policy) {
                Some(next) if !alive(next) => {
                    blacklist.push(next);
                    deg.dead_encountered += 1;
                    deg.stale_state = true;
                }
                next => break next,
            }
        };
        let Some(next) = next else {
            break false; // dead end: nothing eligible
        };
        previous = Some(current);
        current = next;
        hops += 1;
        path.push(current);
        if hops >= retry.hop_budget || hops > nodes.len() {
            break false;
        }
    };

    let outcome = QueryOutcome {
        cluster: None,
        hops,
        path,
        degradation: deg,
    };
    Ok(if exhausted {
        Budgeted::Exhausted {
            pairs_done: meter.used(),
            best_partial: outcome,
        }
    } else {
        Budgeted::Done(outcome)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_cluster::{Unmetered, WorkMeter};
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn classes() -> BandwidthClasses {
        BandwidthClasses::new(vec![50.0], RationalTransform::new(100.0))
    }

    /// Line metric over ids.
    fn line_dist(a: NodeId, b: NodeId) -> f64 {
        (a.index() as f64 - b.index() as f64).abs()
    }

    /// The walk, first fit, unmetered and with everyone alive, over the
    /// line metric.
    fn query(
        nodes: &[ClusterNode],
        start: NodeId,
        k: usize,
        b: f64,
    ) -> Result<QueryOutcome, ClusterError> {
        query_with(nodes, start, k, b, &RetryPolicy::default(), |_| true)
    }

    /// The walk, first fit and unmetered, over the line metric.
    fn query_with(
        nodes: &[ClusterNode],
        start: NodeId,
        k: usize,
        b: f64,
        retry: &RetryPolicy,
        alive: impl FnMut(NodeId) -> bool,
    ) -> Result<QueryOutcome, ClusterError> {
        let cls = classes();
        let policy = RoutePolicy::FirstFit;
        process_query(
            nodes,
            start,
            k,
            b,
            &cls,
            line_dist,
            policy,
            retry,
            alive,
            &mut Unmetered,
        )
        .map(Budgeted::into_value)
    }

    /// A 4-node path overlay 0—1—2—3 where only node 3's corner of the
    /// line metric holds a tight cluster {2,3} plus aggregated {4?}… keep
    /// simple: node 3 aggregates {2, 3} so it can build k=2 clusters; other
    /// nodes know nothing locally but their CRTs point toward 3.
    fn path_overlay() -> Vec<ClusterNode> {
        let cls = classes();
        let mut nodes = vec![
            ClusterNode::new(n(0), vec![n(1)], 1),
            ClusterNode::new(n(1), vec![n(0), n(2)], 1),
            ClusterNode::new(n(2), vec![n(1), n(3)], 1),
            ClusterNode::new(n(3), vec![n(2)], 1),
        ];
        // Node 3 learns about node 2 through its neighbor.
        nodes[3].receive_node_info(n(2), vec![n(2)]).unwrap();
        for node in &mut nodes {
            node.recompute_own_max(&cls, line_dist);
        }
        // Propagate CRTs toward node 0 (3 → 2 → 1 → 0).
        let row = nodes[3].crt_for(n(2)).unwrap();
        nodes[2].receive_crt(n(3), row).unwrap();
        let row = nodes[2].crt_for(n(1)).unwrap();
        nodes[1].receive_crt(n(2), row).unwrap();
        let row = nodes[1].crt_for(n(0)).unwrap();
        nodes[0].receive_crt(n(1), row).unwrap();
        nodes
    }

    #[test]
    fn local_answer_zero_hops() {
        let nodes = path_overlay();
        let out = query(&nodes, n(3), 2, 50.0).unwrap();
        assert!(out.found());
        assert_eq!(out.hops, 0);
        assert_eq!(out.path, vec![n(3)]);
    }

    #[test]
    fn query_routes_across_overlay() {
        let nodes = path_overlay();
        let out = query(&nodes, n(0), 2, 50.0).unwrap();
        assert!(out.found(), "cluster reachable via routing");
        assert_eq!(out.hops, 3);
        assert_eq!(out.path, vec![n(0), n(1), n(2), n(3)]);
        let cluster = out.cluster.unwrap();
        assert_eq!(cluster.len(), 2);
    }

    #[test]
    fn unsatisfiable_query_returns_empty() {
        let nodes = path_overlay();
        let out = query(&nodes, n(0), 4, 50.0).unwrap();
        assert!(!out.found());
    }

    #[test]
    fn no_backtrack_to_sender() {
        // Node 1's only promising direction is back to 0; a query arriving
        // from 0 must not bounce back.
        let cls = classes();
        let mut nodes = vec![
            ClusterNode::new(n(0), vec![n(1)], 1),
            ClusterNode::new(n(1), vec![n(0)], 1),
        ];
        for node in &mut nodes {
            node.recompute_own_max(&cls, line_dist);
        }
        // Node 1 believes direction 0 holds size-2 clusters (stale info).
        nodes[1].receive_crt(n(0), vec![2]).unwrap();
        nodes[0].receive_crt(n(1), vec![2]).unwrap();
        let out = query(&nodes, n(0), 2, 50.0).unwrap();
        // 0 forwards to 1; 1 cannot forward back to 0; returns empty.
        assert!(!out.found());
        assert_eq!(out.hops, 1);
    }

    #[test]
    fn invalid_queries_rejected() {
        let nodes = path_overlay();
        assert!(matches!(
            query(&nodes, n(0), 1, 50.0),
            Err(ClusterError::InvalidSizeConstraint { .. })
        ));
        assert!(matches!(
            query(&nodes, n(0), 2, 90.0),
            Err(ClusterError::NoMatchingClass { .. })
        ));
        assert!(matches!(
            query(&nodes, n(9), 2, 50.0),
            Err(ClusterError::UnknownNeighbor { .. })
        ));
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                query(&nodes, n(0), 2, bad),
                Err(ClusterError::InvalidBandwidthConstraint { .. })
            ));
        }
    }

    #[test]
    fn query_request_validates_at_the_boundary() {
        let cls = classes();
        assert_eq!(QueryRequest::new(n(0), 2, 50.0).validate(&cls, 4), Ok(0));
        assert!(matches!(
            QueryRequest::new(n(0), 1, 50.0).validate(&cls, 4),
            Err(ClusterError::InvalidSizeConstraint { k: 1 })
        ));
        assert!(matches!(
            QueryRequest::new(n(0), 2, -1.0).validate(&cls, 4),
            Err(ClusterError::InvalidBandwidthConstraint { .. })
        ));
        assert!(matches!(
            QueryRequest::new(n(0), 2, 90.0).validate(&cls, 4),
            Err(ClusterError::NoMatchingClass { .. })
        ));
        assert!(matches!(
            QueryRequest::new(n(4), 2, 50.0).validate(&cls, 4),
            Err(ClusterError::UnknownNeighbor { neighbor: 4 })
        ));
    }

    #[test]
    fn routing_policies_pick_different_forks() {
        use crate::node::RoutePolicy;
        // Star overlay: center 1 with neighbors 0 (entry), 2 and 3. Both 2
        // and 3 promise clusters but of different sizes.
        let mut center = ClusterNode::new(n(1), vec![n(0), n(2), n(3)], 1);
        center.receive_crt(n(2), vec![2]).unwrap();
        center.receive_crt(n(3), vec![5]).unwrap();
        assert_eq!(
            center.route(2, 0, Some(n(0)), &[], RoutePolicy::FirstFit),
            Some(n(2))
        );
        assert_eq!(
            center.route(2, 0, Some(n(0)), &[], RoutePolicy::BestFit),
            Some(n(3))
        );
        assert_eq!(
            center.route(2, 0, Some(n(0)), &[], RoutePolicy::TightestFit),
            Some(n(2))
        );
        // Policies only choose among *eligible* directions.
        assert_eq!(
            center.route(3, 0, Some(n(0)), &[], RoutePolicy::TightestFit),
            Some(n(3))
        );
        assert_eq!(
            center.route(6, 0, Some(n(0)), &[], RoutePolicy::BestFit),
            None
        );
    }

    #[test]
    fn policy_variants_agree_on_feasibility() {
        use crate::node::RoutePolicy;
        let nodes = path_overlay();
        for policy in [
            RoutePolicy::FirstFit,
            RoutePolicy::BestFit,
            RoutePolicy::TightestFit,
        ] {
            let out = process_query(
                &nodes,
                n(0),
                2,
                50.0,
                &classes(),
                line_dist,
                policy,
                &RetryPolicy::default(),
                |_| true,
                &mut Unmetered,
            )
            .unwrap()
            .into_value();
            assert!(out.found(), "policy {policy:?}");
        }
    }

    #[test]
    fn fault_free_walk_is_clean() {
        // Every start reaches node 3's pair along the path toward it.
        let nodes = path_overlay();
        for start in 0..4 {
            let out = query(&nodes, n(start), 2, 50.0).unwrap();
            assert_eq!(out.cluster, Some(vec![n(2), n(3)]), "start n{start}");
            assert_eq!(out.hops, 3 - start);
            assert_eq!(out.path, (start..4).map(n).collect::<Vec<_>>());
            assert!(out.clean());
        }
    }

    #[test]
    fn rejects_dead_entry_node() {
        let nodes = path_overlay();
        let err = query_with(&nodes, n(0), 2, 50.0, &RetryPolicy::default(), |u| {
            u != n(0)
        })
        .unwrap_err();
        assert!(matches!(err, ClusterError::NodeUnavailable { node: 0 }));
    }

    #[test]
    fn routes_around_dead_fork() {
        // Star: entry 0 — center 1 — forks 2 (dead) and 3 (alive). Both
        // forks promise a 2-cluster; FirstFit prefers 2, so the walk must
        // detect the dead hop, blacklist it, and take 3 instead.
        let cls = classes();
        let mut nodes = vec![
            ClusterNode::new(n(0), vec![n(1)], 1),
            ClusterNode::new(n(1), vec![n(0), n(2), n(3)], 1),
            ClusterNode::new(n(2), vec![n(1)], 1),
            ClusterNode::new(n(3), vec![n(1)], 1),
        ];
        // Node 3 can build {3, 4} locally (4 is an aggregated non-overlay
        // host under the line metric).
        nodes[3].receive_node_info(n(1), vec![n(4)]).unwrap();
        for node in &mut nodes {
            node.recompute_own_max(&cls, line_dist);
        }
        nodes[1].receive_crt(n(2), vec![2]).unwrap();
        nodes[1].receive_crt(n(3), vec![2]).unwrap();
        nodes[0].receive_crt(n(1), vec![2]).unwrap();

        let out = query_with(&nodes, n(0), 2, 50.0, &RetryPolicy::default(), |u| {
            u != n(2)
        })
        .unwrap();
        assert!(out.found(), "must reroute around the dead fork");
        assert_eq!(out.cluster.unwrap(), vec![n(3), n(4)]);
        assert_eq!(out.degradation.dead_encountered, 1);
        assert!(out.degradation.stale_state);
        assert!(out.path.contains(&n(3)));
        assert!(!out.path.contains(&n(2)));
    }

    #[test]
    fn never_returns_dead_members() {
        // Node 3 aggregates {2, 3}; with host 2 dead the full pair is
        // unbuildable, and the outcome degrades to a partial-free miss
        // (singletons are not clusters).
        let nodes = path_overlay();
        let out = query_with(&nodes, n(3), 2, 50.0, &RetryPolicy::default(), |u| {
            u != n(2)
        })
        .unwrap();
        assert!(!out.found());
        assert!(
            out.degradation.stale_state,
            "CRT promised an unbuildable cluster"
        );
        assert!(out.degradation.partial.is_none());
    }

    #[test]
    fn reports_partial_results() {
        // Node 0's space holds {0..3}: with everyone alive it can build a
        // 3-cluster (l = 2 admits three consecutive line hosts). With host
        // 2 dead only pairs survive — reported as a partial.
        let cls = classes();
        let mut nodes = vec![
            ClusterNode::new(n(0), vec![n(1)], 1),
            ClusterNode::new(n(1), vec![n(0)], 1),
        ];
        nodes[0]
            .receive_node_info(n(1), vec![n(1), n(2), n(3)])
            .unwrap();
        for node in &mut nodes {
            node.recompute_own_max(&cls, line_dist);
        }
        let out = query_with(&nodes, n(0), 3, 50.0, &RetryPolicy::default(), |u| {
            u != n(2)
        })
        .unwrap();
        assert!(!out.found());
        assert!(out.degradation.stale_state);
        let partial = out.degradation.partial.expect("live partial exists");
        assert_eq!(partial.len(), 2);
        assert!(!partial.contains(&n(2)));
    }

    #[test]
    fn hop_budget_bounds_the_walk() {
        // Node 3, the only node that can answer, is 3 hops from node 0:
        // budget 3 stops the walk as it reaches node 3, budget 4 visits it.
        let nodes = path_overlay();
        let budgeted = |hop_budget| {
            query_with(&nodes, n(0), 2, 50.0, &RetryPolicy { hop_budget }, |_| true).unwrap()
        };
        let starved = budgeted(3);
        assert!(!starved.found());
        assert_eq!(starved.hops, 3);
        assert_eq!(starved.path, vec![n(0), n(1), n(2), n(3)]);
        assert!(starved.clean());
        let reached = budgeted(4);
        assert!(reached.found(), "node 3 is within budget 4");
        assert_eq!(reached.hops, 3);
    }

    #[test]
    fn huge_hop_budget_completes_without_overflow() {
        let nodes = path_overlay();
        let out = query_with(
            &nodes,
            n(0),
            2,
            50.0,
            &RetryPolicy {
                hop_budget: usize::MAX,
            },
            |_| true,
        )
        .unwrap();
        assert!(out.found());
    }

    /// The walk from `start` over the line metric under `meter`, everyone
    /// alive.
    fn walk(
        nodes: &[ClusterNode],
        start: NodeId,
        k: usize,
        meter: &mut impl Meter,
    ) -> Result<Budgeted<QueryOutcome>, ClusterError> {
        let (cls, retry) = (classes(), RetryPolicy::default());
        let policy = RoutePolicy::FirstFit;
        process_query(
            nodes,
            start,
            k,
            50.0,
            &cls,
            line_dist,
            policy,
            &retry,
            |_| true,
            meter,
        )
    }

    #[test]
    fn budgeted_walk_matches_unbudgeted_when_not_exhausted() {
        let nodes = path_overlay();
        for start in 0..4 {
            for k in [2usize, 3, 4] {
                let unmetered = walk(&nodes, n(start), k, &mut Unmetered).unwrap();
                assert!(!unmetered.is_exhausted());
                let budgeted = walk(&nodes, n(start), k, &mut WorkMeter::new(u64::MAX / 2));
                assert_eq!(budgeted.unwrap(), unmetered, "start n{start} k={k}");
            }
        }
    }

    #[test]
    fn exhausted_walk_reports_degraded_outcome() {
        // A meter spent before the walk starts: the first node visit
        // refuses and the outcome is a labeled partial miss, not a silent
        // truncation.
        let nodes = path_overlay();
        let mut meter = WorkMeter::new(0);
        meter.charge(1);
        match walk(&nodes, n(3), 2, &mut meter).unwrap() {
            Budgeted::Exhausted {
                pairs_done,
                best_partial,
            } => {
                assert!(pairs_done >= 1);
                assert!(!best_partial.found(), "no exact answer under a dry meter");
                assert_eq!(best_partial.path, vec![n(3)]);
            }
            done => panic!("expected exhaustion, got {done:?}"),
        }
    }

    #[test]
    fn bandwidth_snaps_up_to_class() {
        // b = 30 snaps to class 50 (harder), so the answered cluster also
        // satisfies 30.
        let nodes = path_overlay();
        let out = query(&nodes, n(3), 2, 30.0).unwrap();
        assert!(out.found());
        for c in out.cluster.unwrap().windows(2) {
            assert!(line_dist(c[0], c[1]) <= 2.0);
        }
    }
}
