//! The metric tables — the names `BENCHMARK.json` declares — and the
//! arithmetic that turns passes, spans and counters into per-layer values.

use std::collections::BTreeMap;

use crate::gen::ChurnKind;
use crate::pass::Pass;
use crate::spans::{unattributed_share, LayerTime};
use crate::stats::ratio;
use crate::target::Counters;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// A logical count: equal across runs at one seed, so the A/A check
    /// compares it for equality rather than against a bound.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    timed("setup_s", "s"),
    timed("ops_per_s", "ops/s"),
    timed("query_p50_us", "us"),
    timed("query_p99_us", "us"),
    timed("churn_p50_ms", "ms"),
    timed("peak_rss_mb", "MiB"),
];

/// Single layers; printed with `--trace 1`. A layer a workload bypasses
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Coordinator and shards.
    timed("shard.coord_query_us", "us"),
    timed("shard.coord_self_us", "us"),
    timed("shard.scatter_us", "us"),
    timed("shard.hit_path_ns", "ns"),
    exact("shard.cache_hit_share", "ratio"),
    exact("shard.pruned_per_query", "count"),
    exact("shard.consulted_per_query", "count"),
    exact("shard.candidates_per_query", "count"),
    exact("shard.work_units_per_query", "count"),
    exact("shard.degraded_count", "count"),
    timed("shard.churn_ms", "ms"),
    exact("shard.regions_per_churn_op", "count"),
    timed("shard.bootstrap_s", "s"),
    // Serving layer.
    timed("service.submit_us", "us"),
    timed("service.tick_us", "us"),
    timed("service.self_us", "us"),
    timed("service.hit_path_ns", "ns"),
    exact("service.cache_hit_share", "ratio"),
    exact("service.cache_invalidated_per_churn_op", "count"),
    exact("service.cache_evicted", "count"),
    exact("service.coalesced_share", "ratio"),
    exact("service.batch_size_mean", "count"),
    exact("service.shed_count", "count"),
    exact("service.breaker_shed_count", "count"),
    exact("service.degraded_count", "count"),
    // Overlay: routing, then churn repair.
    timed("simnet.query_us", "us"),
    timed("simnet.routing_self_us", "us"),
    exact("simnet.hops_per_query", "count"),
    timed("simnet.label_dist_ns", "ns"),
    timed("simnet.join_ms", "ms"),
    timed("simnet.leave_ms", "ms"),
    timed("simnet.crash_ms", "ms"),
    timed("simnet.recover_ms", "ms"),
    timed("simnet.overlay_repair_ms", "ms"),
    exact("simnet.overlay_messages_per_op", "count"),
    exact("simnet.overlay_rounds_per_op", "count"),
    exact("simnet.overlay_region_per_op", "count"),
    exact("simnet.predicted_entries_per_op", "count"),
    exact("simnet.full_reconvergences", "count"),
    timed("simnet.bootstrap_s", "s"),
    // Node-local search and the cluster index.
    timed("core.node_visit_us", "us"),
    timed("core.space_matrix_us", "us"),
    timed("core.index_build_us", "us"),
    timed("core.kernel_us", "us"),
    timed("core.node_visit_sweep_us", "us"),
    exact("core.visits_per_query", "count"),
    exact("core.space_size_mean", "count"),
    exact("core.pairs_scanned_per_query", "count"),
    exact("core.rows_pruned_per_query", "count"),
    timed("core.index_ball_us", "us"),
    timed("core.merge_kernel_us", "us"),
    timed("core.index_apply_churn_ms", "ms"),
    exact("core.index_rows_rebuilt_per_op", "count"),
    exact("core.index_full_builds", "count"),
    timed("core.index_cold_build_s", "s"),
    // Embedding.
    timed("embed.join_ms", "ms"),
    timed("embed.leave_ms", "ms"),
    exact("embed.orphans_per_leave", "count"),
    // Durability.
    timed("persist.journal_append_us", "us"),
    exact("persist.journal_bytes_per_op", "bytes"),
    timed("persist.snapshot_ms", "ms"),
    timed("persist.capture_ms", "ms"),
    timed("persist.encode_ms", "ms"),
    exact("persist.snapshot_bytes", "bytes"),
    exact("persist.snapshot_bytes_per_host", "bytes"),
    timed("persist.recover_ms", "ms"),
    timed("persist.decode_ms", "ms"),
    timed("persist.restore_ms", "ms"),
    timed("persist.replay_ms", "ms"),
    exact("persist.replayed_ops", "count"),
    // Set-up, runtime, and the cost of looking.
    timed("metric.distance_matrix_ms", "ms"),
    timed("datasets.generate_ms", "ms"),
    exact("par.calls_per_op", "count"),
    exact("par.tasks_per_op", "count"),
    exact("par.threads", "count"),
    timed("obs.overhead_share", "ratio"),
    timed("trace.overhead_share", "ratio"),
    timed("trace.unattributed_share", "ratio"),
    // Whole-workload figures that are not bounded end to end.
    exact("found_share", "ratio"),
    timed("churn.p95_ms", "ms"),
];

/// Everything a traced run gathered.
pub struct TraceData<'a> {
    /// Set-up spans, aggregated.
    pub setup: &'a BTreeMap<&'static str, LayerTime>,
    /// Traced-pass spans, aggregated.
    pub layers: &'a BTreeMap<&'static str, LayerTime>,
    /// Counter deltas over the untraced counted pass.
    pub counts: &'a Counters,
    /// Counter deltas over the traced pass (replay-only observations).
    pub replay_counts: &'a Counters,
    /// The untraced counted pass, the traced pass, the obs-off pass.
    pub counted: &'a Pass,
    pub traced: &'a Pass,
    pub obs_off: &'a Pass,
    pub label_dist_ns: f64,
    pub snapshot_bytes: Option<usize>,
    pub live_hosts: usize,
    pub threads: usize,
    /// Highest supported churn percentile at or below p95, over the
    /// counted pass.
    pub churn_p95_ms: f64,
}

/// Values for every [`PER_LAYER`] metric, in table order.
pub fn per_layer(d: &TraceData<'_>) -> Vec<f64> {
    let layer = |name: &str| d.layers.get(name).copied().unwrap_or_default();
    let setup = |name: &str| d.setup.get(name).copied().unwrap_or_default();
    let count = |name: &str| d.counts.get(name).copied().unwrap_or(0) as f64;
    let replayed = |name: &str| d.replay_counts.get(name).copied().unwrap_or(0) as f64;
    let mean_us = |name: &str| layer(name).mean_ns() / 1e3;
    let mean_ms = |name: &str| layer(name).mean_ns() / 1e6;
    // The four churn spans of one layer prefix, pooled.
    let churn = |prefix: &str| {
        ChurnKind::ALL
            .iter()
            .fold(LayerTime::default(), |acc, kind| {
                acc.plus(layer(&format!("{prefix}.{}", kind.name())))
            })
    };
    let queries = count("queries");
    let executed = count("executed");
    let churn_ops = count("churn_ops");
    let ops = d.counted.ops as f64;
    let hit_path_ns = ratio(d.counted.hit_ns as f64, d.counted.hit_queries as f64);

    let value = |name: &str| -> f64 {
        match name {
            "shard.coord_query_us" => mean_us("shard.cluster_near"),
            "shard.coord_self_us" => layer("shard.cluster_near").self_mean_ns() / 1e3,
            "shard.scatter_us" => mean_us("shard.scatter"),
            "shard.cache_hit_share" => ratio(count("shard.cache_hits"), queries),
            "shard.pruned_per_query" => ratio(count("shard.pruned"), queries),
            "shard.consulted_per_query" => ratio(count("shard.consulted"), queries),
            "shard.candidates_per_query" => ratio(count("shard.candidates"), queries),
            "shard.work_units_per_query" => ratio(count("shard.work_units"), queries),
            "shard.degraded_count" => count("shard.degraded"),
            "shard.churn_ms" => churn("shard").mean_ns() / 1e6,
            "shard.regions_per_churn_op" => ratio(count("shard.regions_touched"), churn_ops),
            "shard.bootstrap_s" => setup("shard.bootstrap").mean_ns() / 1e9,

            "service.submit_us" => ratio(
                layer("service.submit").total_ns as f64 / 1e3,
                d.traced.queries as f64,
            ),
            "service.tick_us" => mean_us("service.tick"),
            "service.self_us" => layer("service.tick").self_mean_ns() / 1e3,
            // A burst served wholly from cache: the service's result cache
            // on the routed stacks, the coordinator's on the sharded one.
            "service.hit_path_ns" if d.counts.contains_key("service.submitted") => hit_path_ns,
            "shard.hit_path_ns" if d.counts.contains_key("shard.cache_hits") => hit_path_ns,
            "service.hit_path_ns" | "shard.hit_path_ns" => 0.0,
            "service.cache_hit_share" => {
                ratio(count("service.cache_hits"), count("service.cache_lookups"))
            }
            "service.cache_invalidated_per_churn_op" => {
                ratio(count("service.cache_invalidated"), churn_ops)
            }
            "service.cache_evicted" => count("service.cache_evicted"),
            "service.coalesced_share" => {
                ratio(count("service.coalesced"), count("service.submitted"))
            }
            "service.batch_size_mean" => {
                ratio(count("service.submitted"), count("service.batches"))
            }
            "service.shed_count" => count("service.shed"),
            "service.breaker_shed_count" => count("service.breaker_shed"),
            "service.degraded_count" => count("service.degraded"),

            "simnet.query_us" => mean_us("simnet.query"),
            "simnet.routing_self_us" => layer("simnet.query").self_mean_ns() / 1e3,
            "simnet.hops_per_query" => ratio(count("hops"), executed),
            "simnet.label_dist_ns" => d.label_dist_ns,
            "simnet.join_ms" => mean_ms("simnet.join"),
            "simnet.leave_ms" => mean_ms("simnet.leave"),
            "simnet.crash_ms" => mean_ms("simnet.crash"),
            "simnet.recover_ms" => mean_ms("simnet.recover"),
            "simnet.overlay_repair_ms" => churn("simnet").self_mean_ns() / 1e6,
            "simnet.overlay_messages_per_op" => ratio(count("overlay.messages"), churn_ops),
            "simnet.overlay_rounds_per_op" => ratio(count("overlay.rounds"), churn_ops),
            "simnet.overlay_region_per_op" => ratio(count("overlay.region"), churn_ops),
            "simnet.predicted_entries_per_op" => {
                ratio(count("overlay.predicted_entries"), churn_ops)
            }
            "simnet.full_reconvergences" => count("overlay.full_reconvergences"),
            "simnet.bootstrap_s" => setup("simnet.bootstrap").mean_ns() / 1e9,

            "core.node_visit_us" => mean_us("core.node_visit"),
            "core.space_matrix_us" => mean_us("core.space_matrix"),
            "core.index_build_us" => mean_us("core.index_build"),
            "core.kernel_us" => mean_us("core.kernel"),
            "core.node_visit_sweep_us" => mean_us("ref.node_visit_sweep"),
            "core.visits_per_query" => ratio(count("visits"), executed),
            "core.space_size_mean" => {
                ratio(replayed("replay.space_hosts"), replayed("replay.spaces"))
            }
            "core.pairs_scanned_per_query" => ratio(
                count("core.find_cluster.pairs_scanned") + count("core.index.pair_candidates"),
                queries,
            ),
            "core.rows_pruned_per_query" => ratio(count("core.index.rows_pruned"), queries),
            "core.index_ball_us" => mean_us("core.index_ball"),
            "core.merge_kernel_us" => mean_us("core.merge_kernel"),
            "core.index_apply_churn_ms" => mean_ms("core.index_apply_churn"),
            "core.index_rows_rebuilt_per_op" => ratio(count("index.rows_rebuilt"), churn_ops),
            "core.index_full_builds" => count("index.full_builds"),
            "core.index_cold_build_s" => setup("core.index_cold_build").mean_ns() / 1e9,

            "embed.join_ms" => mean_ms("embed.join"),
            "embed.leave_ms" => mean_ms("embed.leave"),
            "embed.orphans_per_leave" => {
                ratio(replayed("replay.orphans"), replayed("replay.leaves"))
            }

            "persist.journal_append_us" => mean_us("persist.log"),
            "persist.journal_bytes_per_op" => {
                ratio(count("persist.journal_bytes"), count("persist.journal_ops"))
            }
            "persist.snapshot_ms" => mean_ms("persist.snapshot"),
            "persist.capture_ms" => mean_ms("persist.capture"),
            "persist.encode_ms" => mean_ms("persist.encode"),
            "persist.snapshot_bytes" => d.snapshot_bytes.unwrap_or(0) as f64,
            "persist.snapshot_bytes_per_host" => {
                ratio(d.snapshot_bytes.unwrap_or(0) as f64, d.live_hosts as f64)
            }
            "persist.recover_ms" => mean_ms("persist.recover"),
            "persist.decode_ms" => mean_ms("persist.decode"),
            "persist.restore_ms" => mean_ms("persist.restore"),
            "persist.replay_ms" => layer("persist.recover").self_mean_ns() / 1e6,
            "persist.replayed_ops" => {
                ratio(count("persist.replayed_ops"), count("persist.recoveries"))
            }

            "metric.distance_matrix_ms" => setup("metric.distance_matrix").mean_ns() / 1e6,
            "datasets.generate_ms" => setup("datasets.generate").mean_ns() / 1e6,
            "par.calls_per_op" => ratio(count("par.calls"), ops),
            "par.tasks_per_op" => ratio(count("par.tasks"), ops),
            "par.threads" => d.threads as f64,
            "obs.overhead_share" => 1.0 - ratio(d.counted.ops_per_s(), d.obs_off.ops_per_s()),
            "trace.overhead_share" => 1.0 - ratio(d.traced.ops_per_s(), d.counted.ops_per_s()),
            "trace.unattributed_share" => unattributed_share(d.layers),

            "found_share" => ratio(d.counted.found as f64, d.counted.queries as f64),
            "churn.p95_ms" => d.churn_p95_ms,
            other => unreachable!("per-layer metric {other} has no formula"),
        }
    };
    PER_LAYER.iter().map(|m| value(m.name)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let table = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let specs: Vec<String> = crate::gen::specs()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(workloads, specs);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::gen::REFERENCE_SECONDS as f64)
        );
    }

    #[test]
    fn every_per_layer_metric_has_a_formula() {
        let empty = BTreeMap::new();
        let counts = Counters::new();
        let pass = Pass::default();
        let values = per_layer(&TraceData {
            setup: &empty,
            layers: &empty,
            counts: &counts,
            replay_counts: &counts,
            counted: &pass,
            traced: &pass,
            obs_off: &pass,
            label_dist_ns: 0.0,
            snapshot_bytes: None,
            live_hosts: 0,
            threads: 2,
            churn_p95_ms: 0.0,
        });
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values.iter().all(|v| v.is_finite()));
    }
}
