//! The node-local kernels through the whole dynamic stack: after every
//! membership op the incrementally repaired gossip state (whose
//! `aggrCRT[x]` rows come from the indexed all-class maxima) must equal a
//! cold restart's fixpoint, the index digest read on demand must equal a
//! cold rebuild's, and every routed answer (one swept probe per node
//! visit) must be a real cluster of live hosts. The walk behind those
//! answers is one body whichever meter it is charged to.

use bandwidth_clusters::core::{process_query, Budgeted, Meter, RoutePolicy, Unmetered, WorkMeter};
use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::{fw_label_dist, ChurnOp};
use bcc_datasets::{generate, SynthConfig};

fn small_system(classes: &BandwidthClasses) -> DynamicSystem {
    let mut cfg = SynthConfig::small(2011);
    cfg.nodes = 64;
    let joined: Vec<NodeId> = (0..48).map(NodeId::new).collect();
    DynamicSystem::bootstrap(generate(&cfg), SystemConfig::new(classes.clone()), &joined).unwrap()
}

/// A clone carries the digest memo with it; churning either side must
/// clear that side's memo and leave the other side's alone.
#[test]
fn index_digest_of_a_clone_and_its_original_follow_their_own_rows() {
    let classes = BandwidthClasses::linspace(10.0, 80.0, 4, RationalTransform::default());
    let mut original = small_system(&classes);
    let before = original.cluster_index().digest();
    let mut copy = original.clone();
    assert_eq!(copy.cluster_index().digest(), before);

    copy.leave(NodeId::new(5)).unwrap();
    assert_eq!(
        copy.cluster_index().digest(),
        copy.rebuild_index_cold().digest()
    );
    assert_ne!(copy.cluster_index().digest(), before);
    assert_eq!(original.cluster_index().digest(), before);
    assert_eq!(before, original.rebuild_index_cold().digest());

    original.join(NodeId::new(60)).unwrap();
    assert_eq!(
        original.cluster_index().digest(),
        original.rebuild_index_cold().digest()
    );
    assert_eq!(
        copy.cluster_index().digest(),
        copy.rebuild_index_cold().digest()
    );
    assert_ne!(
        original.cluster_index().digest(),
        copy.cluster_index().digest()
    );
}

#[test]
fn gossip_fixpoint_and_served_answers_hold_under_churn() {
    let classes = BandwidthClasses::linspace(10.0, 80.0, 4, RationalTransform::default());
    let mut system = small_system(&classes);
    let retry = RetryPolicy::default();

    use ChurnOp::*;
    let schedule = [
        (Join, 50),
        (Leave, 3),
        (Crash, 17),
        (Join, 63),
        (Leave, 0), // the overlay root
        (Recover, 17),
        (Crash, 50),
        (Crash, 21),
        (Join, 3),
        (Recover, 21),
        (Leave, 63),
        (Recover, 50),
    ];
    let mut found = 0usize;
    for (step, &(op, host)) in schedule.iter().enumerate() {
        // Read before the op, so the digest memo is full when the op runs:
        // a memo that outlived the rows would show below.
        assert_eq!(
            system.cluster_index().digest(),
            system.rebuild_index_cold().digest(),
            "step {step}: index digest before the op"
        );
        system
            .apply(op, NodeId::new(host))
            .unwrap_or_else(|e| panic!("step {step}: {e}"));

        assert_eq!(
            system.live_digest(),
            system.cold_restart_digest().unwrap(),
            "step {step}: repaired overlay left the cold-restart fixpoint"
        );
        assert_eq!(
            system.cluster_index().digest(),
            system.rebuild_index_cold().digest(),
            "step {step}: index digest after the op"
        );
        // Message counts are baselines, not contracts. The structure is:
        // a round carries at most one report and one CRT row per directed
        // overlay edge.
        let directed_edges: usize = system
            .network()
            .unwrap()
            .nodes()
            .iter()
            .map(|node| node.neighbors().len())
            .sum();
        let stats = system.overlay_stats();
        assert!(
            stats.last_messages <= 2 * directed_edges as u64 * stats.last_rounds,
            "step {step}: {} messages over {directed_edges} directed edges in {} rounds",
            stats.last_messages,
            stats.last_rounds
        );

        let live: Vec<NodeId> = system.active().collect();
        let fw = system.framework();
        for &start in &live {
            for k in [2usize, 5, 11] {
                for (class_idx, &b) in classes.bandwidths().iter().enumerate() {
                    let out = system.query_resilient(start, k, b, &retry).unwrap();
                    let Some(cluster) = out.cluster else { continue };
                    found += 1;
                    let at = format!("step {step} start {start} k {k} b {b}");
                    let mut members = cluster.clone();
                    members.sort_unstable();
                    members.dedup();
                    assert_eq!(members.len(), k, "{at}: not k distinct members");
                    let l = classes.distance_of(class_idx);
                    for (i, &u) in cluster.iter().enumerate() {
                        assert!(live.contains(&u), "{at}: {u} is not live");
                        for &v in &cluster[i + 1..] {
                            let d = fw_label_dist(fw, u.index() as u32, v.index() as u32);
                            assert!(d <= l, "{at}: d({u},{v}) = {d} > {l}");
                        }
                    }
                }
            }
        }
    }
    assert!(
        found > 1000,
        "the sweep must not be vacuous: {found} answers"
    );
}

/// The walk over `system`'s overlay under `meter`, `alive`
/// standing in for the fault detector.
fn walk(
    system: &DynamicSystem,
    (start, k, b): (NodeId, usize, f64),
    alive: &dyn Fn(NodeId) -> bool,
    meter: &mut impl Meter,
) -> Budgeted<QueryOutcome> {
    let fw = system.framework();
    let dist = |u: NodeId, v: NodeId| fw_label_dist(fw, u.index() as u32, v.index() as u32);
    let nodes = system.network().unwrap().nodes();
    let classes = &system.config().protocol.classes;
    let (policy, retry) = (RoutePolicy::FirstFit, RetryPolicy::default());
    process_query(
        nodes, start, k, b, classes, dist, policy, &retry, alive, meter,
    )
    .unwrap()
}

/// The meter is a type parameter, so the served walk and the budgeted one
/// are one body. On the shared fixture, with every host alive and with one
/// host crashed under the overlay's feet, every outcome, degradation
/// included, is the same under `Unmetered` as under a `WorkMeter` with
/// headroom. So is every `DynamicSystem` answer once the crash is applied.
/// And a zero budget refuses every query at its first node visit.
#[test]
fn one_walk_under_either_meter() {
    let classes = BandwidthClasses::linspace(10.0, 80.0, 4, RationalTransform::default());
    let mut system = small_system(&classes);
    let retry = RetryPolicy::default();
    let dead = NodeId::new(17);
    let (mut found, mut degraded) = (0usize, 0usize);
    let alives: [&dyn Fn(NodeId) -> bool; 2] = [&|_| true, &|u| u != dead];
    for alive in alives {
        for start in system.active().filter(|&u| alive(u)) {
            for k in [2usize, 5, 11] {
                for &b in classes.bandwidths() {
                    let at = format!("start {start} k {k} b {b}");
                    let mut meter = WorkMeter::new(u64::MAX);
                    let metered = walk(&system, (start, k, b), alive, &mut meter);
                    let unmetered = walk(&system, (start, k, b), alive, &mut Unmetered);
                    assert_eq!(metered, unmetered, "{at}");
                    assert!(meter.used() > 0, "{at}: a walk visits at least one node");
                    let Budgeted::Done(out) = unmetered else {
                        panic!("{at}: an unmetered walk ran dry");
                    };
                    found += usize::from(out.found());
                    degraded += usize::from(!out.clean());
                }
            }
        }
    }
    assert!(found > 100, "{found} answers");
    assert!(degraded > 0, "the crashed host must degrade some walk");

    for crashed in [false, true] {
        if crashed {
            system.crash(dead).unwrap();
        }
        for start in (0..48).map(NodeId::new) {
            for k in [2usize, 5, 11] {
                for &b in classes.bandwidths() {
                    let at = format!("crashed {crashed} start {start} k {k} b {b}");
                    let served = system.query_resilient(start, k, b, &retry);
                    let budgeted = system.query_budgeted(start, k, b, &retry, u64::MAX);
                    assert_eq!(budgeted, served.clone().map(Budgeted::Done), "{at}");
                    if served.is_err() {
                        assert_eq!(start, dead, "{at}: only the crashed host refuses");
                        continue;
                    }
                    match system.query_budgeted(start, k, b, &retry, 0).unwrap() {
                        Budgeted::Exhausted {
                            pairs_done,
                            best_partial,
                        } => {
                            assert_eq!(pairs_done, 1, "{at}: one unit for the first visit");
                            assert_eq!(best_partial.path, vec![start], "{at}");
                            assert!(!best_partial.found(), "{at}");
                        }
                        done => panic!("{at}: a zero budget answered {done:?}"),
                    }
                }
            }
        }
    }
}
