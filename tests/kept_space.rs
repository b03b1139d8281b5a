//! A node keeps its clustering space `V_x = {x} ∪ ⋃_v aggrNode[v]` and
//! knows when its local maxima are stale for it. Random schedules of the
//! node's mutators run on one node; after every step the kept space equals
//! the union rebuilt from the stored records, and `own_max_stale()` equals
//! a reference hash gate: hash the space, and recompute when the hash
//! differs from the one taken at the last recompute, a reset, a neighbor
//! edit or a relabelled host of the space having zeroed it.
//!
//! On the engine, the gate recomputes exactly the stale nodes: a node
//! whose space and distances did not move keeps its maxima, and a changed
//! distance row reaches every node whose space holds the re-embedded host
//! even when no record moves.
//!
//! A space of at least `KEPT_ROWS_MIN_SPACE` hosts keeps its sorted rows,
//! and the next recompute updates them by the space's delta: hosts that
//! left, hosts that joined, and hosts relabelled since. Random deltas on
//! spaces around the rule check after every recompute that the kept rows
//! equal a fresh build and the maxima a fresh node's; a reset, a restore
//! and a gossip import leave no kept rows behind.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use bandwidth_clusters::core::ClusterIndex;
use bandwidth_clusters::embed::AnchorTree;
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
                // Relabelled hosts: stale exactly when one is in the space.
                6 => {
                    if node.relabel(&hosts) {
                        digest = 0;
                    }
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
    assert!(net.nodes_mut()[2].relabel(&[NodeId::new(2)]));
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

/// The keep rule: spaces of at least this many hosts keep their rows.
const KEPT_ROWS_MIN_SPACE: usize = 200;
/// Hosts of the kept-rows schedules. Node 0 starts out hearing of all of
/// them, so its space starts above the rule and churn moves it across.
const WIDE: usize = 216;

/// Classes whose distances (5, 4, 2, 1) are pair distances of
/// [`wide_dist`] too, so class boundaries fall on ties.
fn wide_classes() -> BandwidthClasses {
    BandwidthClasses::new(vec![20.0, 25.0, 50.0, 100.0], RationalTransform::new(100.0))
}

/// Small integer distances from a per-host label, plus a symmetric
/// per-pair term: ties are the norm, and the metric is nowhere near a
/// tree's.
fn wide_dist(label: &[u8]) -> impl Fn(NodeId, NodeId) -> f64 + '_ {
    move |a, b| {
        let (i, j) = (a.index(), b.index());
        f64::from(label[i].abs_diff(label[j])) + ((i * j) % 3) as f64
    }
}

/// The three records node 0 starts with: overlapping id ranges covering
/// every host.
fn wide_records() -> [Vec<NodeId>; 3] {
    [
        (1..90).map(n).collect(),
        (80..170).map(n).collect(),
        (160..WIDE).map(n).collect(),
    ]
}

/// Node 0 with neighbors 1, 2, 3 holding `records`.
fn wide_node(records: &[Vec<NodeId>; 3]) -> ClusterNode {
    let mut node = ClusterNode::new(n(0), vec![n(1), n(2), n(3)], wide_classes().len());
    for (v, record) in records.iter().enumerate() {
        node.receive_node_info(n(v + 1), record.clone()).unwrap();
    }
    node
}

/// What a fresh node holding `records` computes under `label`.
fn fresh_own_max(records: &[Vec<NodeId>; 3], label: &[u8]) -> Vec<usize> {
    let mut fresh = wide_node(records);
    fresh.recompute_own_max(&wide_classes(), wide_dist(label));
    fresh.own_max().to_vec()
}

/// After a recompute: rows are kept exactly for a space at or above the
/// rule, they equal a fresh build over the space, and the maxima equal a
/// fresh node's.
fn check_recompute(node: &ClusterNode, records: &[Vec<NodeId>; 3], label: &[u8]) {
    let ids: Vec<u32> = node.space().iter().map(|u| u.index() as u32).collect();
    match node.kept_rows() {
        Some(kept) => {
            assert!(ids.len() >= KEPT_ROWS_MIN_SPACE, "{} hosts kept", ids.len());
            assert_eq!(kept.ids(), ids.as_slice());
            let dist = wide_dist(label);
            let fresh = ClusterIndex::build(WIDE, &ids, |a, b| {
                if a == b {
                    0.0
                } else {
                    dist(NodeId::from(a), NodeId::from(b))
                }
            });
            assert_eq!(kept.digest(), fresh.digest(), "kept rows drifted");
        }
        None => assert!(
            ids.len() < KEPT_ROWS_MIN_SPACE,
            "{} hosts dropped",
            ids.len()
        ),
    }
    assert_eq!(node.own_max(), fresh_own_max(records, label).as_slice());
}

/// One delta: `(kind, who, picks, label, recompute)`. Kinds 0–2 swap the
/// picked hosts in or out of record `who`; kind 3 relabels them. The
/// recompute flag lets deltas pile up between recomputes.
type Delta = (u8, usize, Vec<usize>, u8, bool);

fn arb_deltas() -> impl Strategy<Value = (Vec<u8>, Vec<Delta>)> {
    (
        proptest::collection::vec(0u8..6, WIDE),
        proptest::collection::vec(
            (
                0u8..4,
                0usize..3,
                proptest::collection::vec(1usize..WIDE, 1..=4),
                0u8..6,
                any::<bool>(),
            ),
            1..=6,
        ),
    )
}

/// Recomputes `node`'s maxima and returns how many deltas its kept rows
/// took: kept rows that stay kept are updated, never rebuilt.
fn recompute_kept(node: &mut ClusterNode, label: &[u8]) -> u64 {
    let before = node.kept_rows().map(ClusterIndex::stats);
    node.recompute_own_max(&wide_classes(), wide_dist(label));
    match (before, node.kept_rows().map(ClusterIndex::stats)) {
        (Some(before), Some(after)) => {
            assert_eq!(after.full_builds, 1, "kept rows were rebuilt");
            after.incremental_updates - before.incremental_updates
        }
        _ => 0,
    }
}

/// Cases the proptest runs, and the kept-row deltas they took in total.
const CASES: u32 = 12;
static SEEN: AtomicU32 = AtomicU32::new(0);
static UPDATES: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn kept_rows_follow_random_space_deltas((label, deltas) in arb_deltas()) {
        let mut label = label;
        let mut records = wide_records();
        let mut node = wide_node(&records);
        recompute_kept(&mut node, &label);
        check_recompute(&node, &records, &label);
        let last = deltas.len() - 1;
        for (step, (kind, who, picks, value, recompute)) in deltas.into_iter().enumerate() {
            let hosts: Vec<NodeId> = picks.into_iter().map(n).collect();
            if kind < 3 {
                // A picked host in the record leaves it; one not in it joins.
                let record = &mut records[who];
                for &h in &hosts {
                    match record.iter().position(|&u| u == h) {
                        Some(at) => {
                            record.remove(at);
                        }
                        None => record.push(h),
                    }
                }
                node.receive_node_info(n(who + 1), record.clone()).unwrap();
            } else {
                for &h in &hosts {
                    label[h.index()] = value;
                }
                let in_space = hosts.iter().any(|h| node.space().contains(h));
                prop_assert_eq!(node.relabel(&hosts), in_space);
            }
            if recompute || step == last {
                let updates = recompute_kept(&mut node, &label);
                UPDATES.fetch_add(updates, Ordering::Relaxed);
                check_recompute(&node, &records, &label);
            }
        }
        if SEEN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            // Not vacuous: the schedules took the kept path, on average
            // more than once a case.
            prop_assert!(UPDATES.load(Ordering::Relaxed) > u64::from(CASES));
        }
    }
}

#[test]
fn a_host_that_leaves_is_relabelled_and_returns_gets_a_fresh_row() {
    let mut label: Vec<u8> = (0..WIDE).map(|i| (i % 5) as u8).collect();
    let mut records = wide_records();
    let mut node = wide_node(&records);
    node.recompute_own_max(&wide_classes(), wide_dist(&label));
    assert!(node.kept_rows().is_some(), "{} hosts", node.space().len());
    // Host 40 is only in the first record. It leaves the space, is
    // relabelled while out of it, and comes back before the next
    // recompute: to the current space it was never relabelled, but its
    // kept row is stale.
    let host = n(40);
    records[0].retain(|&u| u != host);
    node.receive_node_info(n(1), records[0].clone()).unwrap();
    assert!(!node.space().contains(&host));
    label[host.index()] = 5;
    assert!(!node.relabel(&[host]), "the host is not in the space");
    records[0].push(host);
    node.receive_node_info(n(1), records[0].clone()).unwrap();
    node.recompute_own_max(&wide_classes(), wide_dist(&label));
    check_recompute(&node, &records, &label);
    let stats = node.kept_rows().expect("still above the rule").stats();
    assert_eq!((stats.full_builds, stats.incremental_updates), (1, 1));
}

#[test]
fn a_reset_a_restore_and_an_import_drop_the_kept_rows() {
    let label: Vec<u8> = (0..WIDE).map(|i| (i % 5) as u8).collect();
    let records = wide_records();
    let kept = || {
        let mut node = wide_node(&records);
        node.recompute_own_max(&wide_classes(), wide_dist(&label));
        assert!(node.kept_rows().is_some());
        node
    };
    let mut reset = kept();
    reset.reset();
    assert!(reset.kept_rows().is_none(), "a cold restart keeps no rows");
    let mut restored = kept();
    let own_max = restored.own_max().to_vec();
    restored.restore_own_max(own_max).unwrap();
    assert!(restored.kept_rows().is_none(), "a restore keeps no rows");
    // After either, the next recompute over the same records and labels
    // builds rows afresh, equal to those never dropped.
    for mut node in [reset, restored] {
        for (v, record) in records.iter().enumerate() {
            node.receive_node_info(n(v + 1), record.clone()).unwrap();
        }
        node.recompute_own_max(&wide_classes(), wide_dist(&label));
        let stats = node.kept_rows().expect("rebuilt").stats();
        assert_eq!((stats.full_builds, stats.incremental_updates), (1, 0));
        check_recompute(&node, &records, &label);
    }
}

/// `d(i, j)` on a star: the hub (host 0, radius 0) sits `radius[i]` from
/// host `i`, and two leaves are the sum of their radii apart.
fn star(radius: &[u8], i: usize, j: usize) -> f64 {
    f64::from(radius[i] + radius[j])
}

/// A star overlay over `radius.len()` hosts, hub 0. With `n_cut = 1`
/// each leaf reports only itself, so the hub's space is every host and
/// keeps its rows, while a leaf's space is itself and the hub.
fn star_network(radius: &[u8]) -> SimNetwork {
    let mut anchor = AnchorTree::new();
    anchor.add_root(n(0)).unwrap();
    for leaf in 1..radius.len() {
        anchor.add_child(n(leaf), n(0)).unwrap();
    }
    let predicted = DistanceMatrix::from_fn(radius.len(), |i, j| star(radius, i, j));
    SimNetwork::new(&anchor, predicted, ProtocolConfig::new(1, wide_classes()))
}

/// Leaf radii 1..=3, hub 0.
fn star_radii() -> Vec<u8> {
    (0..WIDE)
        .map(|i| if i == 0 { 0 } else { 1 + (i % 3) as u8 })
        .collect()
}

#[test]
fn the_engine_hands_relabelled_hosts_to_the_kept_rows() {
    let mut radius = star_radii();
    let mut net = star_network(&radius);
    net.run_to_convergence(100).expect("a star converges");
    let stats = |net: &SimNetwork| {
        let stats = net.nodes()[0]
            .kept_rows()
            .expect("the hub keeps rows")
            .stats();
        (stats.full_builds, stats.incremental_updates)
    };
    assert_eq!(net.nodes()[0].space().len(), WIDE);
    assert_eq!(stats(&net), (1, 0));
    // Leaf 8 re-embeds next to the hub. No record moves (every leaf still
    // reports itself), yet the hub's tightest class gains a member.
    radius[8] = 1;
    let hosts: Vec<NodeId> = (0..WIDE).map(n).collect();
    net.update_predicted_rows(&[n(8)], &hosts, |a, b| star(&radius, a.index(), b.index()));
    let delta = OverlayDelta {
        reset: vec![n(8)],
        neighbors: Vec::new(),
    };
    let seeds = net.apply_churn_delta(&delta, &hosts);
    net.reconverge_focused(&seeds, 100)
        .expect("focused repair settles");
    assert_eq!(stats(&net), (1, 1), "one delta, no rebuild");

    let mut cold = star_network(&radius);
    cold.run_to_convergence(100).expect("a star converges");
    let (live, fresh) = (&net.nodes()[0], &cold.nodes()[0]);
    assert_eq!(live.own_max(), fresh.own_max());
    assert_eq!(
        live.kept_rows().map(ClusterIndex::digest),
        fresh.kept_rows().map(ClusterIndex::digest)
    );
    assert_eq!(net.digest(), cold.digest());

    // A gossip import restores every node's maxima: none keeps rows, and
    // the state is the same.
    let digest = net.digest();
    net.import_gossip(net.export_gossip()).unwrap();
    assert!(
        net.nodes()[0].kept_rows().is_none(),
        "an import keeps no rows"
    );
    assert_eq!(net.digest(), digest);
}
