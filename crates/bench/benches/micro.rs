//! Micro-benchmarks of the hot kernels: candidate construction, best
//! response, contract evaluation, trace generation.

// Benchmark harnesses are measurement code, not library surface;
// panicking on a broken setup is the correct failure mode here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcc_core::{best_response, build_candidate, Discretization, ModelParams};
use dcc_numerics::Quadratic;
use dcc_trace::SyntheticConfig;
use std::hint::black_box;

fn bench_candidate(c: &mut Criterion) {
    let params = ModelParams {
        mu: 1.0,
        omega: 0.0,
        ..ModelParams::default()
    };
    let psi = Quadratic::new(-0.15, 2.5, 1.0);
    let mut group = c.benchmark_group("micro_candidate");
    for m in [10usize, 40, 160] {
        let disc = Discretization::covering(m, 7.0).unwrap();
        group.bench_with_input(BenchmarkId::new("build", m), &m, |b, &m| {
            b.iter(|| build_candidate(&params, &disc, &psi, black_box(m / 2)).expect("cand"));
        });
        let cand = build_candidate(&params, &disc, &psi, m / 2).unwrap();
        group.bench_with_input(BenchmarkId::new("best_response", m), &cand, |b, cand| {
            b.iter(|| best_response(&params, &psi, black_box(&cand.contract)).expect("br"));
        });
        group.bench_with_input(BenchmarkId::new("compensation", m), &cand, |b, cand| {
            b.iter(|| black_box(&cand.contract).compensation(black_box(7.3)));
        });
    }
    group.finish();
}

fn bench_trace_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_trace");
    group.sample_size(10);
    group.bench_function("generate_small", |b| {
        b.iter(|| SyntheticConfig::small(black_box(1)).generate());
    });
    group.finish();
}

criterion_group!(benches, bench_candidate, bench_trace_gen);
criterion_main!(benches);
