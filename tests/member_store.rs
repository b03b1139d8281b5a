//! The overlay's predicted distances are sized to its membership, through
//! the facade. A dynamic system runs a churn schedule in which departed
//! hosts' member slots go to new hosts, and after every op its live
//! overlay equals a cold restart while its store stays no wider than the
//! peak membership needs. A four-shard coordinator's shards each hold a
//! store for their own members, never one for the whole universe.

mod common;

use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::ChurnOp;
use bcc_shard::{Coordinator, ShardPlan};
use common::{hierarchy, HOSTS, SCHEDULE};

fn config() -> SystemConfig {
    SystemConfig::new(BandwidthClasses::linspace(
        30.0,
        110.0,
        5,
        RationalTransform::default(),
    ))
}

/// Side of `sys`'s predicted-distance block.
fn capacity(sys: &DynamicSystem) -> usize {
    sys.network().map_or(0, |net| net.predicted_capacity())
}

#[test]
fn freed_slots_go_to_new_hosts_and_the_store_follows_the_peak() {
    use ChurnOp::{Crash, Join, Leave, Recover};
    let mut sys = DynamicSystem::new(hierarchy(), config());
    // Seven members fill slots 1..=7 of an 8-wide block. From then on a
    // joiner fits only in a slot a departure freed: a fresh slot 8 would
    // double the block past what a peak of seven members needs, and the
    // bound below fails.
    let mut schedule: Vec<(ChurnOp, usize)> = (0..7).map(|h| (Join, h * 9)).collect();
    schedule.extend([
        (Leave, 27),
        (Join, 40),
        (Crash, 45),
        (Join, 41),
        (Leave, 0),
        (Recover, 45),
        (Join, 1),
        (Crash, 9),
        (Leave, 40),
        (Join, 2),
        (Recover, 9),
        (Join, 27),
    ]);
    let mut peak = 0;
    for (step, &(op, host)) in schedule.iter().enumerate() {
        sys.apply(op, NodeId::new(host))
            .unwrap_or_else(|e| panic!("op {step} {op:?} {host}: {e}"));
        peak = peak.max(sys.len());
        assert_eq!(
            sys.live_digest(),
            sys.cold_restart_digest().unwrap(),
            "op {step}: live overlay against a cold restart"
        );
        let cap = capacity(&sys);
        assert!(
            cap <= (peak + 1).next_power_of_two(),
            "op {step}: block of side {cap} for a peak of {peak} members"
        );
        assert!(cap <= sys.universe_size() + 1, "op {step}");
    }
    assert_eq!(peak, 9);
    assert_eq!(sys.len(), 9);

    // A universe joined in full holds one slot per host and the sentinel.
    let mut full = DynamicSystem::new(BandwidthMatrix::from_fn(6, |_, _| 50.0), config());
    for h in 0..6 {
        full.join(NodeId::new(h)).unwrap();
    }
    assert_eq!(capacity(&full), 7);
    assert_eq!(full.live_digest(), full.cold_restart_digest().unwrap());
}

#[test]
fn no_shard_holds_a_store_wider_than_its_members_need() {
    let joined: Vec<NodeId> = (0..56).map(NodeId::new).collect();
    let mut coord = Coordinator::bootstrap(
        hierarchy(),
        config(),
        ShardPlan::contiguous(HOSTS, 4),
        ServiceConfig::default(),
        &joined,
    )
    .unwrap();
    let mut peaks = vec![0usize; 4];
    for step in 0..=SCHEDULE.len() {
        if let Some(&(op, host)) = step.checked_sub(1).map(|i| &SCHEDULE[i]) {
            let _ = coord.apply(op, NodeId::new(host));
        }
        for (shard, peak) in coord.shards().iter().zip(&mut peaks) {
            let sys = shard.service().system();
            *peak = (*peak).max(sys.len());
            let cap = capacity(sys);
            assert!(
                cap <= (*peak + 1).next_power_of_two(),
                "op {step} shard {}: block of side {cap} for a peak of {peak} members",
                shard.id()
            );
            assert!(
                cap < sys.universe_size(),
                "op {step} shard {}: {cap}",
                shard.id()
            );
        }
    }
    assert!(peaks.iter().all(|&p| p > 0), "every shard has members");
}
