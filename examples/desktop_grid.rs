//! P2P desktop grid scheduling — the paper's motivating application.
//!
//! A data-intensive workflow (CyberShake-style: every task exchanges large
//! intermediate files with every other task) must be placed on `k` grid
//! nodes. Placing it on a bandwidth-constrained cluster minimizes the
//! all-pairs transfer time; this example compares cluster placement against
//! random placement on a realistic synthetic PlanetLab-like deployment.
//!
//! ```sh
//! cargo run --release --example desktop_grid
//! ```

use bandwidth_clusters::datasets::{generate, SynthConfig};
use bandwidth_clusters::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Estimated time to exchange `gb` gigabytes between every task pair,
/// bottlenecked by the slowest pair in the placement.
fn workflow_transfer_time(system: &DynamicSystem, placement: &[NodeId], gb: f64) -> f64 {
    let mut worst_bw = f64::INFINITY;
    for (i, &u) in placement.iter().enumerate() {
        for &v in &placement[i + 1..] {
            worst_bw = worst_bw.min(system.real_bandwidth(u, v));
        }
    }
    gb * 8.0 * 1000.0 / worst_bw // GB → Mbit, divided by Mbps → seconds
}

fn main() {
    // A 60-node desktop grid with heterogeneous links.
    let mut cfg = SynthConfig::small(2024);
    cfg.nodes = 60;
    let bw = generate(&cfg);

    let classes = BandwidthClasses::linspace(10.0, 100.0, 10, RationalTransform::default());
    let all: Vec<NodeId> = (0..bw.len()).map(NodeId::new).collect();
    let system = DynamicSystem::bootstrap(bw, SystemConfig::new(classes), &all)
        .expect("every host is in the universe once");

    let k = 8; // tasks in the workflow
    let data_gb = 5.0; // data exchanged per task pair

    // Ask any node for a cluster with >= 60 Mbps pairwise.
    let outcome = system.query(NodeId::new(0), k, 60.0).expect("valid query");
    let Some(cluster) = outcome.cluster else {
        println!("no {k}-node cluster at 60 Mbps; try a lower class");
        return;
    };
    let t_cluster = workflow_transfer_time(&system, &cluster, data_gb);
    println!(
        "cluster placement ({} hops to find): {cluster:?}",
        outcome.hops
    );
    println!("  workflow transfer time: {t_cluster:.0} s");

    // Baseline: random placement, averaged over a few draws.
    let mut rng = StdRng::seed_from_u64(7);
    let mut t_random_total = 0.0;
    let draws = 20;
    for _ in 0..draws {
        let mut pick = all.clone();
        pick.shuffle(&mut rng);
        pick.truncate(k);
        t_random_total += workflow_transfer_time(&system, &pick, data_gb);
    }
    let t_random = t_random_total / draws as f64;
    println!("random placement (mean of {draws} draws):");
    println!("  workflow transfer time: {t_random:.0} s");
    println!(
        "speedup from bandwidth-constrained clustering: {:.1}x",
        t_random / t_cluster
    );

    assert!(
        t_cluster <= t_random,
        "cluster placement must not be slower than random"
    );
}
