//! Fault injection and failure recovery, end to end.
//!
//! Part 1 drives a raw [`SimNetwork`] through a seeded [`FaultPlan`]:
//! 30 % background message loss from the start, then a crash-stop wave,
//! then failure-aware queries that retry and reroute around the corpses.
//!
//! Part 2 shows membership-level recovery on a [`DynamicSystem`]: a host
//! crashes (involuntary leave, orphans re-adopted), queries keep working,
//! and the host later recovers via the join path.
//!
//! ```sh
//! cargo run --release --example faults
//! ```

use bandwidth_clusters::core::Unmetered;
use bandwidth_clusters::prelude::*;
use bandwidth_clusters::simnet::SimNetwork;

fn main() -> Result<(), ClusterError> {
    let hosts = 32;
    // Four access-link tiers; pairwise BW = min of the two capacities.
    let tiers = [100.0f64, 60.0, 30.0, 12.0];
    let bw = BandwidthMatrix::from_fn(hosts, |i, j| tiers[i % 4].min(tiers[j % 4]));
    let classes = BandwidthClasses::linspace(10.0, 110.0, 12, RationalTransform::default());

    // ---- Part 1: a seeded fault schedule on the simulator -------------
    let d = RationalTransform::default().distance_matrix(&bw);
    let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
    let proto = ProtocolConfig::new(8, classes.clone());
    let mut net = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto);
    net.enable_tracing(4096);

    let plan = FaultPlan::new(0xFA17)
        .uniform_loss(0.0, 0.3, None) // 30 % loss, never heals
        .random_crashes(40.0, hosts, 0.1); // 10 % of hosts die at round 40
    net.inject_faults(&plan);

    for _ in 0..48 {
        net.run_round();
    }
    let settled = net.run_to_convergence(512).expect("survivors settle");
    let down: Vec<_> = (0..hosts)
        .map(NodeId::new)
        .filter(|&n| net.is_down(n))
        .collect();
    let t = net.traffic();
    println!("== simulator under a fault plan ({hosts} hosts) ==");
    println!("crashed hosts: {down:?}");
    println!(
        "settled {settled} rounds after the crash wave; \
         {}/{} messages lost ({:.1} % observed vs 30 % injected)",
        t.dropped,
        t.messages,
        100.0 * t.dropped as f64 / t.messages as f64
    );

    let retry = RetryPolicy::default();
    let start = (0..hosts)
        .map(NodeId::new)
        .find(|&n| !net.is_down(n))
        .expect("someone survives");
    let out = net
        .query_resilient(start, 4, 60.0, &retry, &mut Unmetered)?
        .into_value();
    match &out.cluster {
        Some(c) => println!(
            "query (k=4, b=60) from {start}: found {c:?} in {} hops, \
             {} dead hosts encountered",
            out.hops, out.degradation.dead_encountered
        ),
        None => println!(
            "query (k=4, b=60) from {start}: no cluster (partial: {:?})",
            out.degradation.partial
        ),
    }

    // ---- Part 2: crash + recovery on a live membership ----------------
    let mut sys = DynamicSystem::new(bw, SystemConfig::new(classes));
    for i in 0..hosts {
        sys.join(NodeId::new(i)).expect("join");
    }
    let victim = NodeId::new(1); // a fast host
    sys.crash(victim).expect("crash");
    println!("\n== dynamic membership ({hosts} hosts) ==");
    println!("crashed {victim}; active = {}", sys.len());

    let out = sys.query_resilient(NodeId::new(0), 4, 60.0, &retry)?;
    let c = out.cluster.expect("enough fast hosts survive");
    assert!(!c.contains(&victim), "dead host never appears in an answer");
    println!("query while down: {c:?} (victim excluded)");

    sys.recover(victim).expect("recover");
    let out = sys.query(victim, 4, 60.0)?;
    println!(
        "query from the recovered host itself: {:?}",
        out.cluster.expect("full capability restored")
    );
    Ok(())
}
