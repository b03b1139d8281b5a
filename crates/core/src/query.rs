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
    /// Number of forwarding hops (0 when the entry node answered). Under
    /// [`process_query_resilient`] this is the total across all attempts.
    pub hops: usize,
    /// Every node that processed the query, in order (entry node first).
    /// Under [`process_query_resilient`] retries append to the same path,
    /// so the entry node reappears at each attempt boundary.
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

    /// `true` when the query ran without retries, dead neighbors or stale
    /// routing state.
    pub fn clean(&self) -> bool {
        self.degradation == Degradation::default()
    }
}

/// Failure-recovery accounting attached to every [`QueryOutcome`]: instead
/// of failing hard when the overlay is degraded, a resilient query reports
/// *how* degraded its answer is.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Attempts issued after the first (0 = the first walk succeeded).
    pub retries: usize,
    /// Dead hosts encountered — and rerouted around — across all attempts.
    pub dead_encountered: usize,
    /// `true` when the walk followed aggregated state that proved stale:
    /// a CRT promise pointing at a dead host, or a locally-aggregated
    /// cluster containing crashed members.
    pub stale_state: bool,
    /// When no full `k`-cluster could be assembled: the largest live
    /// cluster (size ≥ 2) seen along the walk, as a best-effort answer.
    pub partial: Option<Vec<NodeId>>,
}

/// Retry/timeout/backoff budget for [`process_query_resilient`].
///
/// The simulator has no wall clock, so the timeout analogue is a *hop
/// budget*: an attempt that exceeds it is abandoned (as a real deployment
/// would abandon a query whose forwarding chain went quiet) and reissued
/// from the entry node with a budget grown by `backoff`. Dead hosts
/// discovered in one attempt stay blacklisted in the next, so retries
/// explore different paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts after the first.
    pub max_retries: usize,
    /// Hop budget of the first attempt.
    pub initial_hop_budget: usize,
    /// Budget multiplier applied on every retry (≥ 1.0).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            initial_hop_budget: 32,
            backoff: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Hop budget of the 0-based `attempt`:
    /// `initial_hop_budget · backoff^attempt`, saturating at `usize::MAX`.
    ///
    /// The product is computed in one shot instead of by repeated
    /// multiplication, and every overflow path — a non-finite product, a
    /// product beyond `usize::MAX`, an attempt count beyond `i32::MAX` —
    /// clamps to `usize::MAX` rather than wrapping, so arbitrarily large
    /// retry counts can only ever *widen* the budget.
    pub fn budget_for_attempt(&self, attempt: usize) -> usize {
        let base = self.initial_hop_budget.max(1) as f64;
        let factor = self.backoff.max(1.0);
        let exp = i32::try_from(attempt).unwrap_or(i32::MAX);
        let scaled = base * factor.powi(exp);
        if !scaled.is_finite() || scaled >= usize::MAX as f64 {
            usize::MAX
        } else {
            scaled as usize
        }
    }
}

/// Routes the query `(k, bandwidth)` starting at `start`, forwarding by
/// `policy`.
///
/// `nodes` maps dense host ids to protocol state; `dist` is the predicted
/// distance oracle every node consults (labels / prediction tree).
///
/// # Errors
///
/// - [`ClusterError::InvalidSizeConstraint`] when `k < 2`.
/// - [`ClusterError::InvalidBandwidthConstraint`] when `bandwidth` is not
///   positive and finite.
/// - [`ClusterError::NoMatchingClass`] when `bandwidth` exceeds every
///   configured class.
/// - [`ClusterError::UnknownNeighbor`] when `start` is out of range.
pub fn process_query(
    nodes: &[ClusterNode],
    start: NodeId,
    k: usize,
    bandwidth: f64,
    classes: &BandwidthClasses,
    mut dist: impl Distances,
    policy: RoutePolicy,
) -> Result<QueryOutcome, ClusterError> {
    let class_idx = QueryRequest::new(start, k, bandwidth).validate(classes, nodes.len())?;

    let mut current = start;
    let mut previous: Option<NodeId> = None;
    let mut path = vec![start];
    let mut hops = 0;

    let cluster = loop {
        let node = &nodes[current.index()];
        debug_assert_eq!(node.id(), current, "nodes must be indexed by id");
        if let Some(cluster) =
            node.answer_locally_filtered(k, class_idx, classes, Lend(&mut dist), |_| true)
        {
            break Some(cluster);
        }
        let Some(next) = node.route(k, class_idx, previous, &[], policy) else {
            break None;
        };
        previous = Some(current);
        current = next;
        hops += 1;
        path.push(current);
        // Safety net: on a tree overlay the no-backtrack walk is a simple
        // path, so it can never exceed the node count.
        if hops > nodes.len() {
            break None;
        }
    };
    Ok(QueryOutcome {
        cluster,
        hops,
        path,
        degradation: Degradation::default(),
    })
}

/// [`process_query`] hardened against crashed hosts and charged to a
/// [`Meter`]: Algorithm 4 with retry, hop-budget timeouts and rerouting
/// around dead anchor-tree neighbors.
///
/// `alive` is the caller's liveness oracle (in the simulators: the fault
/// injector's crash set; in a deployment: failure detection). The walk:
///
/// 1. answers from the *live* part of each clustering space — stale
///    close-node records never put crashed hosts into an answer;
/// 2. probes the chosen next hop before forwarding; a dead next hop is
///    blacklisted and the node picks another eligible direction;
/// 3. abandons an attempt that exhausts its hop budget (the timeout
///    analogue) and reissues from the entry node with the budget scaled by
///    `retry.backoff`, keeping the blacklist — so retries route differently;
/// 4. never fails hard: when the budget is spent it still reports the best
///    live partial cluster seen, plus retry/staleness accounting, in
///    [`QueryOutcome::degradation`].
///
/// Every node visit and every local cluster search along the walk charges
/// `meter`, and the moment it runs dry the walk stops and reports
/// [`Budgeted::Exhausted`] carrying the degraded outcome assembled so far
/// (partial cluster, path, retry accounting). Work is charged in pairs
/// examined by the node-local kernels — a deterministic quantity — so
/// where the walk is cut depends only on the overlay state and the budget,
/// never on wall-clock or thread count. Under
/// [`Unmetered`](crate::Unmetered) the walk always returns
/// [`Budgeted::Done`], and under a meter that does not run dry it returns
/// the same outcome.
///
/// With a fault-free overlay (`alive` always true) the outcome is identical
/// to [`process_query`] except for hop-budget truncation.
///
/// # Errors
///
/// The validation errors of [`process_query`], plus
/// [`ClusterError::NodeUnavailable`] when the entry node itself is dead.
#[allow(clippy::too_many_arguments)]
pub fn process_query_resilient(
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
    let mut total_hops = 0;
    let mut full_path = Vec::new();

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
    let exhausted = 'search: {
        for attempt in 0..=retry.max_retries {
            if attempt > 0 {
                deg.retries += 1;
            }
            let hop_budget = retry.budget_for_attempt(attempt);
            let mut current = start;
            let mut previous: Option<NodeId> = None;
            let mut hops_this_attempt = 0;
            let mut progress = false; // learned a new dead host this attempt
            full_path.push(start);

            'walk: loop {
                // Every node visit pre-charges one unit (the CRT
                // consultation), so a walk is interruptible at node
                // boundaries even when the local scans are too small to
                // cross a kernel block boundary. Under a saturating work
                // cost this refuses immediately — the budgeted analogue of
                // a deadline that has already expired.
                if !meter.charge(1) {
                    break 'search true;
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
                            hops: total_hops,
                            path: full_path,
                            degradation: deg,
                        }));
                    }
                    Budgeted::Done(None) => {}
                    Budgeted::Exhausted { best_partial, .. } => {
                        keep_partial(&mut deg, best_partial);
                        break 'search true;
                    }
                }
                // The CRT gate promised k here but the live space cannot
                // deliver it: remember the best live cluster as a fallback.
                if k <= node.own_max()[class_idx] {
                    deg.stale_state = true;
                    match node.best_partial_budgeted(
                        class_idx,
                        classes,
                        Lend(&mut dist),
                        &mut alive,
                        meter,
                    ) {
                        Budgeted::Done(p) => keep_partial(&mut deg, p),
                        Budgeted::Exhausted { best_partial, .. } => {
                            keep_partial(&mut deg, best_partial);
                            break 'search true;
                        }
                    }
                }
                // Pick a live next hop, blacklisting dead ones as discovered
                // (the reroute-around-dead-neighbors step).
                loop {
                    match node.route(k, class_idx, previous, &blacklist, policy) {
                        Some(next) if !alive(next) => {
                            blacklist.push(next);
                            deg.dead_encountered += 1;
                            deg.stale_state = true;
                            progress = true;
                        }
                        Some(next) => {
                            previous = Some(current);
                            current = next;
                            total_hops += 1;
                            hops_this_attempt += 1;
                            full_path.push(current);
                            if hops_this_attempt >= hop_budget || total_hops > 2 * nodes.len() {
                                break 'walk; // timeout: abandon this attempt
                            }
                            continue 'walk;
                        }
                        None => break 'walk, // dead end: nothing eligible
                    }
                }
            }

            // A clean dead end with no new liveness knowledge would replay
            // the exact same walk: further retries are pointless.
            if !progress && hops_this_attempt < hop_budget {
                break;
            }
        }
        false
    };

    let outcome = QueryOutcome {
        cluster: None,
        hops: total_hops,
        path: full_path,
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

    /// The plain walk, first fit, over the line metric.
    fn query(
        nodes: &[ClusterNode],
        start: NodeId,
        k: usize,
        b: f64,
    ) -> Result<QueryOutcome, ClusterError> {
        process_query(
            nodes,
            start,
            k,
            b,
            &classes(),
            line_dist,
            RoutePolicy::FirstFit,
        )
    }

    /// The resilient walk, first fit and unmetered, over the line metric.
    fn resilient(
        nodes: &[ClusterNode],
        start: NodeId,
        k: usize,
        b: f64,
        retry: &RetryPolicy,
        alive: impl FnMut(NodeId) -> bool,
    ) -> Result<QueryOutcome, ClusterError> {
        let cls = classes();
        let policy = RoutePolicy::FirstFit;
        process_query_resilient(
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
            assert!(matches!(
                resilient(&nodes, n(0), 2, bad, &RetryPolicy::default(), |_| true),
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
            let out = process_query(&nodes, n(0), 2, 50.0, &classes(), line_dist, policy).unwrap();
            assert!(out.found(), "policy {policy:?}");
        }
    }

    #[test]
    fn resilient_matches_plain_query_without_faults() {
        let nodes = path_overlay();
        for start in 0..4 {
            let plain = query(&nodes, n(start), 2, 50.0).unwrap();
            let res =
                resilient(&nodes, n(start), 2, 50.0, &RetryPolicy::default(), |_| true).unwrap();
            assert_eq!(res.cluster, plain.cluster, "start n{start}");
            assert_eq!(res.hops, plain.hops);
            assert!(res.clean());
        }
    }

    #[test]
    fn resilient_rejects_dead_entry_node() {
        let nodes = path_overlay();
        let err = resilient(&nodes, n(0), 2, 50.0, &RetryPolicy::default(), |u| {
            u != n(0)
        })
        .unwrap_err();
        assert!(matches!(err, ClusterError::NodeUnavailable { node: 0 }));
    }

    #[test]
    fn resilient_routes_around_dead_fork() {
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

        let out = resilient(&nodes, n(0), 2, 50.0, &RetryPolicy::default(), |u| {
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
    fn resilient_never_returns_dead_members() {
        // Node 3 aggregates {2, 3}; with host 2 dead the full pair is
        // unbuildable, and the outcome degrades to a partial-free miss
        // (singletons are not clusters).
        let nodes = path_overlay();
        let out = resilient(&nodes, n(3), 2, 50.0, &RetryPolicy::default(), |u| {
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
    fn resilient_reports_partial_results() {
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
        let out = resilient(&nodes, n(0), 3, 50.0, &RetryPolicy::default(), |u| {
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
    fn hop_budget_truncates_and_backoff_extends() {
        let nodes = path_overlay();
        // Budget 1 with no retries cannot reach node 3 from node 0.
        let starved = resilient(
            &nodes,
            n(0),
            2,
            50.0,
            &RetryPolicy {
                max_retries: 0,
                initial_hop_budget: 1,
                backoff: 1.0,
            },
            |_| true,
        )
        .unwrap();
        assert!(!starved.found());
        // Backoff 2× per retry: budgets 1, 2, 4 — the third attempt
        // reaches node 3 (3 hops away).
        let retried = resilient(
            &nodes,
            n(0),
            2,
            50.0,
            &RetryPolicy {
                max_retries: 3,
                initial_hop_budget: 1,
                backoff: 2.0,
            },
            |_| true,
        )
        .unwrap();
        assert!(retried.found(), "backoff must eventually reach the answer");
        assert!(retried.degradation.retries >= 2);
    }

    #[test]
    fn backoff_saturates_at_overflow_boundary() {
        // Doubling from 2^40 crosses usize::MAX near attempt 23; the budget
        // must clamp there and stay clamped, never wrap.
        let p = RetryPolicy {
            max_retries: 600,
            initial_hop_budget: 1 << 40,
            backoff: 2.0,
        };
        let mut prev = 0usize;
        for attempt in 0..=p.max_retries {
            let b = p.budget_for_attempt(attempt);
            assert!(b >= prev, "budget shrank at attempt {attempt}");
            prev = b;
        }
        assert_eq!(p.budget_for_attempt(600), usize::MAX);
        // A single extreme backoff step saturates immediately.
        let extreme = RetryPolicy {
            max_retries: 3,
            initial_hop_budget: 7,
            backoff: f64::MAX,
        };
        assert_eq!(extreme.budget_for_attempt(0), 7);
        assert_eq!(extreme.budget_for_attempt(1), usize::MAX);
        assert_eq!(extreme.budget_for_attempt(2), usize::MAX);
        // Sub-1.0 backoff is clamped to 1.0 — budgets never shrink.
        let shrinking = RetryPolicy {
            max_retries: 2,
            initial_hop_budget: 9,
            backoff: 0.25,
        };
        assert_eq!(shrinking.budget_for_attempt(2), 9);
        // The default policy keeps its exact 32, 64, 128, ... ladder.
        let default = RetryPolicy::default();
        assert_eq!(default.budget_for_attempt(0), 32);
        assert_eq!(default.budget_for_attempt(1), 64);
        assert_eq!(default.budget_for_attempt(2), 128);
    }

    #[test]
    fn huge_retry_policy_completes_without_overflow() {
        let nodes = path_overlay();
        let out = resilient(
            &nodes,
            n(0),
            2,
            50.0,
            &RetryPolicy {
                max_retries: 1000,
                initial_hop_budget: usize::MAX / 2,
                backoff: f64::MAX,
            },
            |_| true,
        )
        .unwrap();
        assert!(out.found());
    }

    /// The resilient walk from `start` over the line metric under `meter`,
    /// everyone alive.
    fn walk(
        nodes: &[ClusterNode],
        start: NodeId,
        k: usize,
        meter: &mut impl Meter,
    ) -> Result<Budgeted<QueryOutcome>, ClusterError> {
        let (cls, retry) = (classes(), RetryPolicy::default());
        let policy = RoutePolicy::FirstFit;
        process_query_resilient(
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
