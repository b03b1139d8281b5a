//! A node keeps its clustering space `V_x = {x} ∪ ⋃_v aggrNode[v]` and
//! knows when its local maxima are stale for it. Random schedules of the
//! node's mutators run on one node; after every step the kept space equals
//! the union rebuilt from the stored records, and `own_max_stale()` equals
//! a reference hash gate: hash the space, and recompute when the hash
//! differs from the one taken at the last recompute, a reset, a neighbor
//! edit or an invalidation having zeroed it.
//!
//! On the engine, the gate recomputes exactly the stale nodes: a node
//! whose space and distances did not move keeps its maxima, and a changed
//! distance row reaches every node whose space holds the re-embedded host
//! even when no record moves.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bandwidth_clusters::prelude::*;
use bcc_simnet::{OverlayDelta, SimNetwork};
use proptest::prelude::*;

/// Hosts 0..8; host 0 is the node, hosts 1..=4 may be its neighbors.
const HOSTS: usize = 8;
const CANDIDATE_NEIGHBORS: usize = 4;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn line_dist(a: NodeId, b: NodeId) -> f64 {
    (a.index() as f64 - b.index() as f64).abs()
}

/// The union the node should keep, rebuilt from its records.
fn rebuilt_space(node: &ClusterNode) -> Vec<NodeId> {
    let mut space = vec![node.id()];
    for &v in node.neighbors() {
        space.extend_from_slice(node.aggr_node_for(v).unwrap_or_default());
    }
    space.sort_unstable();
    space.dedup();
    space
}

fn space_hash(space: &[NodeId]) -> u64 {
    let mut h = DefaultHasher::new();
    space.hash(&mut h);
    h.finish()
}

/// One step: `(kind, who, picks)`. `who` names a candidate neighbor and
/// `picks` a few hosts, read by the kinds that need them.
fn arb_schedule() -> impl Strategy<Value = Vec<(usize, usize, Vec<usize>)>> {
    proptest::collection::vec(
        (
            0usize..8,
            1usize..=CANDIDATE_NEIGHBORS,
            proptest::collection::vec(0usize..HOSTS, 0..=4),
        ),
        1..=40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_kept_space_and_its_staleness_follow_the_records(schedule in arb_schedule()) {
        let classes = BandwidthClasses::new(vec![25.0, 50.0], RationalTransform::new(100.0));
        let mut node = ClusterNode::new(n(0), vec![n(1), n(2), n(3)], classes.len());
        // The reference gate's digest; 0 forces a recompute.
        let mut digest = 0u64;
        for (step, (kind, who, picks)) in schedule.into_iter().enumerate() {
            let hosts: Vec<NodeId> = picks.iter().map(|&i| n(i)).collect();
            match kind {
                // New records, the likeliest step: a host often leaves one
                // direction's record and enters another's between two
                // recomputes, which leaves the union as it was.
                0..=2 => {
                    let known = node.neighbors().contains(&n(who));
                    prop_assert_eq!(node.receive_node_info(n(who), hosts).is_ok(), known);
                }
                // The record held, sent again.
                3 => {
                    if let Some(held) = node.aggr_node_for(n(who)).map(<[NodeId]>::to_vec) {
                        node.receive_node_info(n(who), held).unwrap();
                    }
                }
                4 => {
                    let mut neighbors: Vec<NodeId> = picks
                        .iter()
                        .map(|&i| n(1 + i % CANDIDATE_NEIGHBORS))
                        .collect();
                    neighbors.sort_unstable();
                    neighbors.dedup();
                    node.set_neighbors(neighbors);
                    digest = 0;
                }
                5 => {
                    node.reset();
                    digest = 0;
                }
                6 => {
                    node.invalidate_own_max();
                    digest = 0;
                }
                _ => {
                    node.recompute_own_max(&classes, line_dist);
                    digest = space_hash(&rebuilt_space(&node));
                }
            }
            let space = rebuilt_space(&node);
            prop_assert_eq!(node.space(), space.as_slice(), "step {}", step);
            prop_assert_eq!(node.clustering_space(), space.clone(), "step {}", step);
            prop_assert_eq!(
                node.own_max_stale(),
                space_hash(&space) != digest,
                "step {} (kind {})",
                step,
                kind
            );
        }
    }
}

/// Six hosts on a line, two apart; classes of diameter 4 and 2.
fn line_network(predicted: DistanceMatrix, n_cut: usize) -> SimNetwork {
    let line = DistanceMatrix::from_fn(6, |i, j| 2.0 * i.abs_diff(j) as f64);
    let fw = PredictionFramework::build_from_matrix(&line, FrameworkConfig::default());
    let classes = BandwidthClasses::new(vec![25.0, 50.0], RationalTransform::new(100.0));
    SimNetwork::new(fw.anchor(), predicted, ProtocolConfig::new(n_cut, classes))
}

fn line(i: usize, j: usize) -> f64 {
    2.0 * i.abs_diff(j) as f64
}

#[test]
fn the_gate_recomputes_only_stale_maxima() {
    let mut net = line_network(DistanceMatrix::from_fn(6, line), 3);
    net.run_to_convergence(100).expect("a line converges");
    let converged = net.digest();
    // Wrong maxima on a node whose space stays put: a round must not
    // recompute them, so they survive it.
    let width = net.nodes()[2].own_max().len();
    net.nodes_mut()[2].restore_own_max(vec![0; width]).unwrap();
    net.run_round();
    assert_eq!(net.nodes()[2].own_max(), vec![0; width].as_slice());
    // Marked stale, the next round recomputes them.
    net.nodes_mut()[2].invalidate_own_max();
    net.run_round();
    assert_eq!(net.digest(), converged);
}

#[test]
fn a_moved_distance_row_reaches_every_space_that_holds_the_host() {
    // n_cut above the host count: every space is the whole overlay, so no
    // record shows that host 5's distances moved.
    let mut net = line_network(DistanceMatrix::from_fn(6, line), 8);
    net.run_to_convergence(100).expect("a line converges");
    // Host 5 re-embeds onto host 4's position, which grows both classes'
    // largest clusters.
    let moved = |a: NodeId, b: NodeId| line(a.index().min(4), b.index().min(4));
    let hosts: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    net.update_predicted_rows(&[NodeId::new(5)], &hosts, moved);
    let delta = OverlayDelta {
        reset: vec![NodeId::new(5)],
        neighbors: Vec::new(),
    };
    let seeds = net.apply_churn_delta(&delta, &hosts);
    net.reconverge_focused(&seeds, 100)
        .expect("focused repair settles");

    let mut cold = line_network(
        DistanceMatrix::from_fn(6, |i, j| line(i.min(4), j.min(4))),
        8,
    );
    cold.run_to_convergence(100).expect("a line converges");
    assert_eq!(net.nodes()[0].own_max(), cold.nodes()[0].own_max());
    assert_eq!(net.digest(), cold.digest());
}
