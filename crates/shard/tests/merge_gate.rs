//! Logical gates on what an uncached coordinator query scans and spawns,
//! read off the process-global `core.find_cluster.pairs_scanned` and
//! `par.calls` counters: the merge kernel opens no pair of a row whose
//! `l`-ball cannot hold `k` hosts, still fills (and reports) the rows it
//! gates, and no query reaches the `bcc-par` pool. One test in a binary of
//! its own, so no concurrent test moves the counters.

use bcc_metric::{BandwidthMatrix, NodeId};
use bcc_service::ServiceConfig;
use bcc_shard::{Coordinator, ShardPlan};
use bcc_simnet::chaos::chaos_classes;
use bcc_simnet::SystemConfig;

const UNIVERSE: usize = 40;
const GROUP: usize = UNIVERSE / 4;

/// The two-level block universe of `bcc-bench shard`: 100 Mbps inside a
/// group of ten, 15 Mbps between the two groups of a super-group, 5 Mbps
/// across super-groups. At b = 24 (class 25, `l` = 4) a host's `l`-ball is
/// its group and its `2l`-ball its super-group.
fn block_bandwidth() -> BandwidthMatrix {
    BandwidthMatrix::from_fn(UNIVERSE, |i, j| {
        if i / GROUP == j / GROUP {
            100.0
        } else if i / (2 * GROUP) == j / (2 * GROUP) {
            15.0
        } else {
            5.0
        }
    })
}

fn counter(name: &str) -> u64 {
    bcc_obs::registry().counter(name).get()
}

#[test]
fn a_coordinator_query_scans_no_dead_row_and_spawns_no_thread() {
    bcc_obs::set_enabled(true);
    let hosts: Vec<NodeId> = (0..UNIVERSE).map(NodeId::new).collect();
    // (shards, work_units at k = 11, work_units at k = 10): the kernel's
    // row fills plus one certificate per other shard and, at S = 4, the
    // scan of the sibling group's ten members.
    for (shards, unsat_work, sat_work) in [(1usize, 190u64, 37u64), (2, 191, 38), (4, 203, 50)] {
        let mut coord = Coordinator::bootstrap(
            block_bandwidth(),
            SystemConfig::new(chaos_classes()),
            ShardPlan::contiguous(UNIVERSE, shards),
            ServiceConfig::default(),
            &hosts,
        )
        .expect("valid block deployment");
        let par_before = counter("par.calls");
        for start in [0usize, 13, 27] {
            let start = NodeId::new(start);

            // Twenty candidates, every row's ball its group of ten: each
            // row is filled (190 evaluations) and gated, none is scanned.
            let before = counter("core.find_cluster.pairs_scanned");
            let resp = coord.cluster_near_uncached(start, GROUP + 1, 24.0).unwrap();
            assert_eq!(resp.candidates, 2 * GROUP, "S = {shards}");
            assert_eq!(resp.outcome.cluster(), None, "S = {shards}");
            assert_eq!(
                counter("core.find_cluster.pairs_scanned") - before,
                0,
                "S = {shards}: a gated row was scanned"
            );
            assert_eq!(resp.work_units, unsat_work, "S = {shards}");

            // k = |B(p, l)| passes the gate at the first row, and its first
            // pair is the answer: two rows filled, one pair scanned.
            let before = counter("core.find_cluster.pairs_scanned");
            let resp = coord.cluster_near_uncached(start, GROUP, 24.0).unwrap();
            let first = start.index() / (2 * GROUP) * (2 * GROUP);
            let want: Vec<NodeId> = (first..first + GROUP).map(NodeId::new).collect();
            assert_eq!(resp.outcome.cluster(), Some(&want), "S = {shards}");
            assert_eq!(
                counter("core.find_cluster.pairs_scanned") - before,
                1,
                "S = {shards}"
            );
            assert_eq!(resp.work_units, sat_work, "S = {shards}");

            // The cached path, miss then hit, spawns nothing either.
            for _ in 0..2 {
                coord.cluster_near(start, 3, 59.0).unwrap();
            }
        }
        assert_eq!(
            counter("par.calls"),
            par_before,
            "S = {shards}: a coordinator query reached the bcc-par pool"
        );
    }
}
