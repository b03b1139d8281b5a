//! Criterion benches for the extension kernels: hub search, the
//! minimum-diameter variant, the SWORD-style budgeted search, and ensemble
//! construction.

use bcc_core::{hub, min_diameter_cluster, sword};
use bcc_datasets::{generate, SynthConfig};
use bcc_embed::{EnsembleConfig, TreeEnsemble};
use bcc_metric::RationalTransform;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn dataset(n: usize) -> bcc_metric::DistanceMatrix {
    let mut cfg = SynthConfig::small(777);
    cfg.nodes = n;
    RationalTransform::default().distance_matrix(&generate(&cfg))
}

fn bench_hub(c: &mut Criterion) {
    let mut group = c.benchmark_group("hub_search");
    for &n in &[50usize, 200] {
        let d = dataset(n);
        let targets: Vec<usize> = (0..8).collect();
        group.bench_with_input(BenchmarkId::new("best_hub", n), &d, |b, d| {
            b.iter(|| black_box(hub::best_hub(d, &targets)))
        });
        group.bench_with_input(BenchmarkId::new("rank_hubs", n), &d, |b, d| {
            b.iter(|| black_box(hub::rank_hubs(d, &targets)))
        });
    }
    group.finish();
}

fn bench_min_diameter(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_diameter_cluster");
    for &n in &[50usize, 100] {
        let d = dataset(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &d, |b, d| {
            b.iter(|| black_box(min_diameter_cluster(d, n / 10)))
        });
    }
    group.finish();
}

fn bench_sword(c: &mut Criterion) {
    let d = dataset(80);
    let l = RationalTransform::default().distance_constraint(40.0);
    let mut group = c.benchmark_group("sword_budgeted");
    group.bench_function("satisfiable_k6", |b| {
        b.iter(|| black_box(sword::exhaustive_search(&d, 6, l, 100_000, 1)))
    });
    let k_unsat = bcc_core::max_cluster_size(&d, l) + 1;
    group.bench_function("unsatisfiable", |b| {
        b.iter(|| black_box(sword::exhaustive_search(&d, k_unsat, l, 100_000, 1)))
    });
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    let d = dataset(80);
    let mut group = c.benchmark_group("ensemble_build");
    group.sample_size(10);
    for &members in &[1usize, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(members), &d, |b, d| {
            b.iter(|| {
                let cfg = EnsembleConfig {
                    members,
                    ..Default::default()
                };
                black_box(TreeEnsemble::build_from_matrix(d, cfg))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hub,
    bench_min_diameter,
    bench_sword,
    bench_ensemble
);
criterion_main!(benches);
