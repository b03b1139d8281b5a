//! `serve` — throughput and correctness baseline of the `bcc-service`
//! serving layer, checked in as `BENCH_service.json`.
//!
//! ```sh
//! cargo run --release -p bcc-bench --bin serve
//! cargo run --release -p bcc-bench --bin serve -- --smoke
//! cargo run --release -p bcc-bench --bin serve -- --json out.json
//! ```
//!
//! **Throughput** — a repeated-query workload (a small pool of distinct
//! `(start, k, b)` queries, each submitted many times) served twice over
//! identical systems: once by the uncached baseline, once with the
//! churn-aware cache. The binary asserts the two response streams are
//! bit-identical and reports the speedup (the acceptance bar for the
//! serving layer is ≥ 5×). That no cached answer goes stale under churn
//! and fault windows is checked by the service column of the differential
//! chaos run (`bcc_shard::harness::differential`, swept by
//! `bcc-bench chaos`).
//!
//! The obs snapshot additionally carries a sharded-deployment section: a
//! small [`bcc_shard::Coordinator`] serves a deterministic region-query
//! stream and publishes its `shard.<id>.*` gauges (queries, forwarded,
//! merge_candidates, epoch) plus the `coord.*` totals.

use std::time::Instant;

use bcc_bench::BenchArgs;
use bcc_metric::NodeId;
use bcc_service::{seeded_service, ClusterQuery, ClusterService, ServiceConfig, ServiceResponse};

const SEED: u64 = 2011;

/// The repeated workload: `pool` distinct queries over the first `joined`
/// hosts, submitted round-robin `repeats` times each. Sizes are chosen so
/// queries route multiple hops (k ≥ 8) — the serving regime where compute
/// dominates and a cache can actually help; bandwidths snap to both
/// classes of the seeded universe.
fn workload(joined: usize, pool: usize, repeats: usize) -> Vec<ClusterQuery> {
    let ks = [16usize, 24, 32];
    let bands = [20.0f64, 55.0];
    let distinct: Vec<ClusterQuery> = (0..pool)
        .map(|i| {
            ClusterQuery::new(
                NodeId::new(i % joined),
                ks[i % ks.len()],
                bands[(i / ks.len()) % bands.len()],
            )
        })
        .collect();
    let mut all = Vec::with_capacity(pool * repeats);
    for _ in 0..repeats {
        all.extend(distinct.iter().copied());
    }
    all
}

fn build(universe: usize, joined: usize, config: ServiceConfig) -> ClusterService {
    let mut service = seeded_service(SEED, universe, config);
    for h in 0..joined {
        service.join(NodeId::new(h)).expect("join fresh host");
    }
    service
}

/// Serves the whole workload, returning wall time (ms) and the responses.
fn run(service: &mut ClusterService, queries: &[ClusterQuery]) -> (f64, Vec<ServiceResponse>) {
    let start = Instant::now();
    let mut responses = Vec::with_capacity(queries.len());
    for &q in queries {
        service.submit(q).expect("workload query admitted");
        // Keep the queue bounded: drain whenever a full batch is ready.
        if service.in_flight() >= service.config().batch_max {
            responses.extend(service.drain());
        }
    }
    responses.extend(service.drain());
    (start.elapsed().as_secs_f64() * 1e3, responses)
}

fn main() {
    let args = BenchArgs::from_env();
    let smoke = args.flag("--smoke");
    let json_path = args
        .value("--json")
        .unwrap_or("BENCH_service.json")
        .to_string();
    let obs_path = args.value("--obs").unwrap_or("BENCH_obs.json").to_string();

    let (universe, joined, pool, repeats) = if smoke {
        (48, 48, 12, 16)
    } else {
        (128, 128, 24, 48)
    };

    // Smoke runs record span durations in deterministic logical time, so
    // the obs snapshot is byte-stable across runs at a fixed seed, at any
    // thread count (nothing below touches the pool) — what the CI obs job
    // diffs. Full runs keep wall-clock timings (real latencies, not
    // reproducible bit-for-bit).
    if smoke {
        bcc_obs::set_logical_time(1_000);
    }

    println!("=== serve — batched, churn-aware cluster-query serving ===");
    println!("smoke = {smoke}, universe = {universe}, joined = {joined}");
    println!();

    // Throughput: identical workload, identical system, cache off vs on.
    let queries = workload(joined, pool, repeats);
    let mut baseline = build(universe, joined, ServiceConfig::default().uncached());
    // Logical gate: serving is one-shot probes, so executing the uncached
    // workload on the converged system must not build a cluster index.
    let index_builds = || bcc_obs::registry().counter("core.index.builds").get();
    let builds_before = index_builds();
    // Logical gate: a node visit reads the rows its sweep opens, so the
    // workload evaluates at most half the pairs of the spaces it opened
    // (`pairs` is what materialising each space would have cost).
    let rows = |what: &str| {
        bcc_obs::registry()
            .counter(&format!("core.rows.{what}"))
            .get()
    };
    let (evals_before, pairs_before) = (rows("evals"), rows("pairs"));
    let (uncached_ms, uncached_responses) = run(&mut baseline, &queries);
    assert_eq!(
        index_builds(),
        builds_before,
        "an executed query built a ClusterIndex"
    );
    let (evals, pairs) = (rows("evals") - evals_before, rows("pairs") - pairs_before);
    assert!(
        2 * evals <= pairs && (pairs > 0 || !bcc_obs::enabled()),
        "node visits evaluated {evals} of the {pairs} pairs of the spaces they opened"
    );
    let mut cached = build(universe, joined, ServiceConfig::default());
    // Logical gate: no churn during the run, so every batch stamps its
    // answers with the one overlay state's digest, hashed once (the
    // counter stays at zero under `BCC_OBS=0`).
    let digest_computes = || bcc_obs::registry().counter("simnet.digest.computes").get();
    let computes_before = digest_computes();
    let (cached_ms, cached_responses) = run(&mut cached, &queries);
    assert!(
        digest_computes() - computes_before <= 1,
        "a batch re-hashed an unchanged overlay"
    );

    let identical = uncached_responses.len() == cached_responses.len()
        && uncached_responses
            .iter()
            .zip(&cached_responses)
            .all(|(u, c)| u.ticket == c.ticket && u.outcome == c.outcome);
    let speedup = if cached_ms > 0.0 {
        uncached_ms / cached_ms
    } else {
        f64::INFINITY
    };
    let stats = cached.cache_stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;

    println!(
        "workload: {} queries ({} distinct × {} repeats)",
        queries.len(),
        pool,
        repeats
    );
    println!("  uncached: {uncached_ms:>10.2} ms");
    println!("  cached:   {cached_ms:>10.2} ms   ({speedup:.1}x, hit rate {hit_rate:.2})");
    println!("  bit-identical responses: {identical}");
    println!();

    let json = format!(
        "{{\n  \"bench\": \"service\",\n  \"seed\": {SEED},\n  \
         \"smoke\": {smoke},\n  \"workload\": {{\"queries\": {}, \"distinct\": {pool}, \
         \"repeats\": {repeats}, \"uncached_ms\": {uncached_ms:.3}, \"cached_ms\": {cached_ms:.3}, \
         \"speedup\": {speedup:.3}, \"hit_rate\": {hit_rate:.4}, \"identical\": {identical}}}\n}}\n",
        queries.len(),
    );
    if json_path == "-" {
        println!("{json}");
    } else {
        std::fs::write(&json_path, json).expect("write JSON output");
        println!("wrote {json_path}");
    }

    // Sharded deployment gauges: a 4-shard coordinator over a small
    // universe serves every live host once per class, then publishes its
    // per-shard gauges into the same registry the snapshot below reads.
    // Counters only — deterministic at a fixed seed.
    let mut coord = bcc_shard::harness::seeded_coordinator(SEED, 12, 4);
    for h in 0..12 {
        coord.join(NodeId::new(h)).expect("join fresh host");
    }
    let mut shard_exact = 0u64;
    for h in 0..12 {
        for b in [24.0, 59.0] {
            let resp = coord
                .cluster_near(NodeId::new(h), 3, b)
                .expect("live start");
            if resp.outcome.is_exact() {
                shard_exact += 1;
            }
        }
    }
    coord.publish_obs();
    let coord_stats = coord.stats();
    println!(
        "shard: 4 shards over 12 hosts, {} queries ({shard_exact} exact, {} cache hits, \
         {} pruned)",
        coord_stats.queries, coord_stats.cache_hits, coord_stats.pruned
    );
    println!();

    // Unified observability snapshot: the instrumented hot paths' counters
    // and latency histograms, plus the ServiceStats/CacheStats bridge.
    cached.publish_obs();
    let snapshot = bcc_obs::snapshot();
    for name in [
        "service.query",
        "service.batch.execute",
        "service.cache.lookup",
    ] {
        if let Some((_, h)) = snapshot.histograms.iter().find(|(n, _)| n == name) {
            println!(
                "obs {name}: count {} p50 {} p95 {} p99 {}",
                h.count,
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
    }
    if obs_path == "-" {
        println!("{}", snapshot.to_json());
    } else {
        std::fs::write(&obs_path, snapshot.to_json()).expect("write obs snapshot");
        println!("wrote {obs_path}");
    }

    assert!(
        identical,
        "cached and uncached serving must return bit-identical responses"
    );
}
