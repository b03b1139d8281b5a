//! Criterion benches for the end-to-end system: full stack construction,
//! gossip convergence, and decentralized vs centralized query latency.

use bcc_core::{find_cluster, BandwidthClasses};
use bcc_datasets::{generate, SynthConfig};
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_simnet::{DynamicSystem, SystemConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Every host of `bw` bootstrapped into one served system.
fn build(bw: BandwidthMatrix) -> DynamicSystem {
    let classes = BandwidthClasses::linspace(10.0, 80.0, 10, RationalTransform::default());
    let hosts: Vec<NodeId> = (0..bw.len()).map(NodeId::new).collect();
    DynamicSystem::bootstrap(bw, SystemConfig::new(classes), &hosts).unwrap()
}

fn system(n: usize) -> DynamicSystem {
    let mut cfg = SynthConfig::small(888);
    cfg.nodes = n;
    build(generate(&cfg))
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("system_build");
    group.sample_size(10);
    for &n in &[50usize, 100] {
        let mut cfg = SynthConfig::small(888);
        cfg.nodes = n;
        let bw = generate(&cfg);
        group.bench_with_input(BenchmarkId::from_parameter(n), &bw, |b, bw| {
            b.iter(|| black_box(build(bw.clone())))
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let sys = system(100);
    let predicted = sys.framework().predicted_matrix();
    let t = RationalTransform::default();
    let mut group = c.benchmark_group("query");
    group.bench_function("decentralized_easy", |b| {
        b.iter(|| black_box(sys.query(NodeId::new(0), 4, 30.0).unwrap()))
    });
    group.bench_function("decentralized_hard", |b| {
        b.iter(|| black_box(sys.query(NodeId::new(0), 40, 70.0).unwrap()))
    });
    group.bench_function("centralized_easy", |b| {
        b.iter(|| black_box(find_cluster(&predicted, 4, t.distance_constraint(30.0))))
    });
    group.bench_function("centralized_hard", |b| {
        b.iter(|| black_box(find_cluster(&predicted, 40, t.distance_constraint(70.0))))
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
