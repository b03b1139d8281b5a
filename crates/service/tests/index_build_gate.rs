//! Logical gate on where a [`bcc_core::ClusterIndex`] gets built, read off
//! the process-global `core.index.builds` counter. One test in a binary of
//! its own, so no concurrent test moves the counter.

use bcc_core::{BandwidthClasses, ClusterNode};
use bcc_metric::{NodeId, RationalTransform};
use bcc_service::{seeded_service, ClusterQuery, ServiceConfig};

fn index_builds() -> u64 {
    bcc_obs::registry().counter("core.index.builds").get()
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
        node.recompute_own_max(&classes, |a, b| a.index().abs_diff(b.index()) as f64);
        assert_eq!(index_builds() - before, 1, "{class_count} classes");
    }

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
    let before = index_builds();
    let responses = service.drain();
    assert_eq!(index_builds(), before, "a served query built an index");
    assert_eq!(responses.len(), 72);
    assert!(responses.iter().all(|r| !r.cached));
    let found = responses
        .iter()
        .filter(|r| r.outcome.as_ref().is_ok_and(|o| o.found()))
        .count();
    assert!(found > 0, "the batch must exercise the local search");
}
