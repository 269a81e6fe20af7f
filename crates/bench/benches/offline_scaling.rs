//! E1 (criterion form): off-line solver scaling in n and m.
//!
//! `cargo bench -p mcc-bench --bench offline_scaling`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcc_core::offline::{solve_fast, solve_naive, solve_quadratic};
use mcc_workloads::{CommonParams, PoissonWorkload, Workload};

fn scaling_in_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline/scaling-n(m=16)");
    group.sample_size(10);
    for &n in &[1_000usize, 4_000, 16_000] {
        let inst = PoissonWorkload::uniform(
            CommonParams {
                servers: 16,
                requests: n,
                mu: 1.0,
                lambda: 1.0,
            },
            1.0,
        )
        .generate(42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fast", n), &inst, |b, inst| {
            b.iter(|| solve_fast(inst).optimal_cost())
        });
        group.bench_with_input(BenchmarkId::new("windowed", n), &inst, |b, inst| {
            b.iter(|| solve_naive(inst).optimal_cost())
        });
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("quadratic", n), &inst, |b, inst| {
                b.iter(|| solve_quadratic(inst).optimal_cost())
            });
        }
    }
    group.finish();
}

fn scaling_in_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline/scaling-m(n=4000)");
    group.sample_size(10);
    for &m in &[4usize, 16, 64, 256] {
        let inst = PoissonWorkload::uniform(
            CommonParams {
                servers: m,
                requests: 4_000,
                mu: 1.0,
                lambda: 1.0,
            },
            1.0,
        )
        .generate(42);
        group.bench_with_input(BenchmarkId::new("fast", m), &inst, |b, inst| {
            b.iter(|| solve_fast(inst).optimal_cost())
        });
        group.bench_with_input(BenchmarkId::new("windowed", m), &inst, |b, inst| {
            b.iter(|| solve_naive(inst).optimal_cost())
        });
    }
    group.finish();
}

fn reconstruction(c: &mut Criterion) {
    let inst = PoissonWorkload::uniform(
        CommonParams {
            servers: 16,
            requests: 4_000,
            mu: 1.0,
            lambda: 1.0,
        },
        1.0,
    )
    .generate(42);
    c.bench_function("offline/optimal_schedule(n=4000,m=16)", |b| {
        b.iter(|| mcc_core::offline::optimal_schedule(&inst))
    });
}

criterion_group!(benches, scaling_in_n, scaling_in_m, reconstruction);
criterion_main!(benches);
