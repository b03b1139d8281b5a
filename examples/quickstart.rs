//! Quickstart: build a decentralized clustering system over a handful of
//! hosts and answer a bandwidth-constrained query.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bandwidth_clusters::prelude::*;

fn main() {
    // Ground truth: six hosts behind access links of varying capacity.
    // Bandwidth between two hosts is bottlenecked at the slower link —
    // the access-link model that makes bandwidth a tree metric.
    let caps = [1000.0f64, 1000.0, 1000.0, 100.0, 100.0, 10.0];
    let bw = BandwidthMatrix::from_fn(caps.len(), |i, j| caps[i].min(caps[j]));
    println!("hosts: {} (access links: {caps:?} Mbps)", caps.len());

    // The decentralized protocol quantizes query constraints into
    // bandwidth classes (this bounds each node's routing table).
    let classes = BandwidthClasses::new(vec![50.0, 200.0, 800.0], RationalTransform::default());

    // Build the full stack: every host joins the prediction tree, the
    // anchor-tree overlay forms, and the gossip protocol runs to
    // convergence.
    let hosts: Vec<NodeId> = (0..caps.len()).map(NodeId::new).collect();
    let system = DynamicSystem::bootstrap(bw, SystemConfig::new(classes), &hosts)
        .expect("every host is in the universe once");
    let overlay = system.network().expect("hosts joined");
    println!(
        "overlay converged after {} gossip rounds, {} messages ({} bytes)",
        overlay.rounds_run(),
        overlay.traffic().messages,
        overlay.traffic().bytes,
    );

    // Ask the *slowest* host for 3 nodes with pairwise >= 800 Mbps. The
    // query routes along the overlay toward where the cluster exists.
    let outcome = system
        .query(NodeId::new(5), 3, 800.0)
        .expect("well-formed query");
    match &outcome.cluster {
        Some(cluster) => {
            println!(
                "found {cluster:?} in {} hops (path {:?})",
                outcome.hops, outcome.path
            );
            for (i, &u) in cluster.iter().enumerate() {
                for &v in &cluster[i + 1..] {
                    println!(
                        "  real BW({u}, {v}) = {:.0} Mbps",
                        system.real_bandwidth(u, v)
                    );
                }
            }
        }
        None => println!("no cluster satisfies the constraints"),
    }

    // An impossible query returns empty rather than a wrong answer.
    let impossible = system
        .query(NodeId::new(0), 4, 800.0)
        .expect("well-formed query");
    assert!(impossible.cluster.is_none());
    println!("4 hosts @ 800 Mbps: correctly reported unsatisfiable");
}
