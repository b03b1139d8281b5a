//! Logical gates on what a recompute and a served query build and
//! evaluate, read off the process-global `core.index.*` and `core.rows.*`
//! counters: a recompute builds one [`bcc_core::ClusterIndex`], or updates
//! the rows a big space keeps; a served query builds none, and opens at
//! most half the pairs of the spaces its node visits. One test in a binary
//! of its own, so no concurrent test moves the counters.

use bcc_core::{BandwidthClasses, ClusterNode};
use bcc_metric::{NodeId, RationalTransform};
use bcc_service::{seeded_service, ClusterQuery, ServiceConfig};

fn index_builds() -> u64 {
    bcc_obs::registry().counter("core.index.builds").get()
}

/// `(core.index.builds, core.index.incremental_updates)`.
fn index_work() -> (u64, u64) {
    let updates = bcc_obs::registry()
        .counter("core.index.incremental_updates")
        .get();
    (index_builds(), updates)
}

/// `core.rows.{spaces, filled, evals, pairs}`.
fn rows() -> [u64; 4] {
    ["spaces", "filled", "evals", "pairs"].map(|what| {
        bcc_obs::registry()
            .counter(&format!("core.rows.{what}"))
            .get()
    })
}

#[test]
fn index_builds_follow_the_access_pattern() {
    bcc_obs::set_enabled(true);

    // All-class maxima: one build per recompute, whatever the class count.
    for class_count in [1usize, 2, 6] {
        let classes =
            BandwidthClasses::linspace(10.0, 80.0, class_count, RationalTransform::default());
        let mut node = ClusterNode::new(NodeId::new(0), vec![NodeId::new(1)], class_count);
        node.receive_node_info(NodeId::new(1), (1..9).map(NodeId::new).collect())
            .unwrap();
        let before = index_builds();
        node.recompute_own_max(&classes, |a: NodeId, b: NodeId| {
            a.index().abs_diff(b.index()) as f64
        });
        assert_eq!(index_builds() - before, 1, "{class_count} classes");
        // A small space keeps no rows: the next recompute builds again.
        node.receive_node_info(NodeId::new(1), (2..10).map(NodeId::new).collect())
            .unwrap();
        let before = index_work();
        node.recompute_own_max(&classes, |a: NodeId, b: NodeId| {
            a.index().abs_diff(b.index()) as f64
        });
        assert_eq!(index_work(), (before.0 + 1, before.1), "a small space");
    }

    // A space at or above the keep rule (200 hosts) is built once. After
    // that, a recompute over a small delta (one host out, one in, one
    // relabelled) is one incremental update and no build.
    let classes = BandwidthClasses::linspace(10.0, 80.0, 3, RationalTransform::default());
    let mut node = ClusterNode::new(NodeId::new(0), vec![NodeId::new(1)], classes.len());
    let line = |a: NodeId, b: NodeId| (a.index() % 7).abs_diff(b.index() % 7) as f64;
    node.receive_node_info(NodeId::new(1), (1..220).map(NodeId::new).collect())
        .unwrap();
    let before = index_work();
    node.recompute_own_max(&classes, line);
    assert_eq!(index_work(), (before.0 + 1, before.1), "first recompute");
    node.receive_node_info(NodeId::new(1), (2..221).map(NodeId::new).collect())
        .unwrap();
    assert!(node.relabel(&[NodeId::new(50)]));
    let before = index_work();
    node.recompute_own_max(&classes, line);
    assert_eq!(
        index_work(),
        (before.0, before.1 + 1),
        "a kept space's delta"
    );

    // One-shot probes: a drained batch of uncached queries on a converged
    // system routes, searches and answers without building anything.
    let mut service = seeded_service(2011, 16, ServiceConfig::default().uncached());
    for h in 0..12 {
        service.join(NodeId::new(h)).unwrap();
    }
    for start in 0..12 {
        for k in 2..=4 {
            for b in [20.0, 55.0] {
                service
                    .submit(ClusterQuery::new(NodeId::new(start), k, b))
                    .unwrap();
            }
        }
    }
    let (before, rows_before) = (index_builds(), rows());
    let responses = service.drain();
    assert_eq!(index_builds(), before, "a served query built an index");
    assert_eq!(responses.len(), 72);
    assert!(responses.iter().all(|r| !r.cached));

    // Every query is distinct, so each response is one walk. A visit opens
    // its node's space exactly when the CRT gate admits `k` (on a converged
    // system the search then succeeds, so no partial search follows): the
    // counters must say what the paths say, and the sweeps must have
    // evaluated at most half of what materialising those spaces would.
    let [spaces, filled, evals, pairs] = {
        let after = rows();
        [0, 1, 2, 3].map(|i| after[i] - rows_before[i])
    };
    let nodes = service.system().network().expect("bootstrapped").nodes();
    let (mut opened, mut opened_pairs) = (0u64, 0u64);
    for r in &responses {
        for v in &r.outcome.as_ref().expect("no faults injected").path {
            let node = &nodes[v.index()];
            if r.query.k <= node.own_max()[r.class_idx] {
                let m = node.clustering_space().len() as u64;
                opened += 1;
                opened_pairs += m * (m - 1) / 2;
            }
        }
    }
    assert_eq!((spaces, pairs), (opened, opened_pairs));
    assert!(
        spaces > 0 && filled >= spaces,
        "{spaces} spaces, {filled} rows"
    );
    assert!(
        2 * evals <= pairs,
        "node visits evaluated {evals} of the {pairs} pairs of the spaces they opened"
    );
    let found = responses
        .iter()
        .filter(|r| r.outcome.as_ref().is_ok_and(|o| o.found()))
        .count();
    assert!(found > 0, "the batch must exercise the local search");
}
