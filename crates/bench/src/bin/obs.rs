//! `obs` — observability smoke: runs a fixed seeded serving workload
//! twice in logical-time mode and asserts the two [`bcc_obs`] snapshots
//! are **byte-identical**. This is the determinism contract for the
//! observability layer itself: at a fixed seed and thread count, counters,
//! histogram buckets, and the rendered JSON must not depend on scheduling.
//!
//! ```sh
//! cargo run --release -p bcc-bench --bin obs
//! cargo run --release -p bcc-bench --bin obs -- --json out.json
//! ```
//!
//! Exits non-zero (panics) if the two snapshots differ.

use bcc_bench::BenchArgs;
use bcc_metric::NodeId;
use bcc_service::{seeded_service, ClusterQuery, ClusterService, ServiceConfig};

const SEED: u64 = 2011;
const UNIVERSE: usize = 32;
const JOINED: usize = 32;
const POOL: usize = 8;
const REPEATS: usize = 6;

fn build() -> ClusterService {
    let mut service = seeded_service(SEED, UNIVERSE, ServiceConfig::default());
    for h in 0..JOINED {
        service.join(NodeId::new(h)).expect("join fresh host");
    }
    service
}

/// One full instrumented pass: serve the repeated workload, publish the
/// service/cache stats bridge, and render the registry snapshot.
fn instrumented_pass() -> String {
    let ks = [8usize, 16, 24];
    let bands = [20.0f64, 55.0];
    let mut service = build();
    for r in 0..REPEATS {
        for i in 0..POOL {
            let q = ClusterQuery::new(
                NodeId::new(i % JOINED),
                ks[i % ks.len()],
                bands[(i + r) % bands.len()],
            );
            service.submit(q).expect("workload query admitted");
            if service.in_flight() >= service.config().batch_max {
                let _ = service.drain();
            }
        }
    }
    let _ = service.drain();
    service.publish_obs();
    bcc_obs::snapshot().to_json()
}

fn main() {
    let args = BenchArgs::from_env();
    let json_path = args.value("--json").map(str::to_string);

    // Logical time from the very first span: durations become per-histogram
    // ordinals × step, a pure function of span counts.
    bcc_obs::set_logical_time(1_000);
    // Exercise the trace sink too; only counts are compared (event order in
    // the ring depends on worker interleaving, the multiset does not).
    bcc_obs::enable_span_ring(256);

    println!("=== obs — observability byte-stability smoke ===");
    println!("seed = {SEED}");

    let first = instrumented_pass();
    let (events, evicted) = bcc_obs::span_events();
    println!(
        "first pass: {} bytes, {} ring events ({} evicted)",
        first.len(),
        events.len(),
        evicted
    );

    bcc_obs::reset();
    let second = instrumented_pass();
    println!("second pass: {} bytes", second.len());

    if let Some(path) = json_path {
        if path == "-" {
            println!("{first}");
        } else {
            std::fs::write(&path, &first).expect("write obs snapshot");
            println!("wrote {path}");
        }
    }

    assert_eq!(
        first, second,
        "obs snapshot must be byte-stable across identical runs"
    );
    println!("snapshots byte-identical: true");
}
