//! Batch scheduler bench: cold vs warm grid throughput against the
//! naive per-scenario engine loop, on a 16-scenario μ-sweep.
//!
//! The batch runner is required to be **bit-identical** to the serial
//! per-scenario loop (see `dcc-batch`'s property tests), so the only
//! question here is wall-clock cost: how much does the shared
//! detect/fit/solve memo save when scenarios repeat the expensive
//! stages, and how much does scenario fan-out add on top. Besides the
//! criterion groups, `main` prints a throughput report for
//! `make batch-bench` that gates warm-cache throughput at >= 2x the
//! naive loop.

// Benchmark harnesses are measurement code, not library surface;
// panicking on a broken setup is the correct failure mode here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark times its runs with the wall clock"
)]

use criterion::{criterion_group, Criterion};
use dcc_batch::{BatchOptions, BatchRunner, ScenarioGrid};
use dcc_engine::{Engine, EngineConfig, PoolSize, RoundContext, StageKind};
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::hint::black_box;
use std::time::Instant;

/// The 16-scenario μ-sweep the acceptance gate measures.
const MUS: [f64; 16] = [
    2.0, 1.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5,
];

fn trace() -> TraceDataset {
    let mut cfg = SyntheticConfig::small(2024);
    cfg.n_honest = 150;
    cfg.n_ncm = 40;
    cfg.n_cm_target = 40;
    cfg.n_products = 500;
    cfg.generate()
}

fn grid(trace: &TraceDataset) -> ScenarioGrid {
    ScenarioGrid::for_trace(trace.clone(), &MUS)
}

/// The baseline the memo competes with: a fresh engine context per
/// scenario, so detection and the ψ-fits rerun for every μ.
fn naive_sweep(trace: &TraceDataset) -> f64 {
    let mut total = 0.0;
    for &mu in &MUS {
        let mut config = EngineConfig::for_trace(trace.clone());
        config.design.params.mu = mu;
        let mut ctx = RoundContext::new(config);
        Engine::new()
            .run_to(&mut ctx, StageKind::ConstructContracts)
            .expect("design");
        total += ctx.design().expect("design ran").total_requester_utility;
    }
    total
}

fn batch_sweep(runner: &BatchRunner, grid: &ScenarioGrid) -> f64 {
    let report = runner.run(grid).expect("batch run");
    report
        .records
        .iter()
        .map(|r| {
            r.outcome()
                .expect("scenario succeeds")
                .design
                .total_requester_utility
        })
        .sum()
}

fn bench_batch_grid(c: &mut Criterion) {
    let trace = trace();
    let grid = grid(&trace);
    let mut group = c.benchmark_group("batch_grid");
    group.sample_size(10);

    group.bench_function("naive_loop", |b| {
        b.iter(|| black_box(naive_sweep(&trace)));
    });
    group.bench_function("batch_cold", |b| {
        b.iter(|| {
            let runner = BatchRunner::with_options(BatchOptions {
                pool: PoolSize::Sequential,
                ..BatchOptions::default()
            });
            black_box(batch_sweep(&runner, &grid))
        });
    });
    let warm = BatchRunner::with_options(BatchOptions {
        pool: PoolSize::Sequential,
        ..BatchOptions::default()
    });
    batch_sweep(&warm, &grid); // prime the memo
    group.bench_function("batch_warm", |b| {
        b.iter(|| black_box(batch_sweep(&warm, &grid)));
    });
    group.finish();
}

criterion_group!(batch_benches, bench_batch_grid);

/// Times `f` over `reps` runs and returns the best (least noisy) run.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The throughput report and acceptance gate consumed by
/// `make batch-bench`: on the 16-scenario μ-sweep, a warm-memo batch
/// run must deliver at least 2x the naive per-scenario throughput —
/// that is what the shared detect/fit/solve memo exists for. The gate
/// uses the sequential pool, so the speedup measured is pure cache
/// reuse; the pooled number is reported on top.
fn throughput_report() {
    let trace = trace();
    let grid = grid(&trace);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n== batch grid throughput ({} scenarios, {} reviewers, {host} CPU(s) visible) ==",
        MUS.len(),
        trace.reviewers().len()
    );

    let reference = naive_sweep(&trace);
    let naive = best_secs(3, || {
        black_box(naive_sweep(&trace));
    });
    println!(
        "naive per-scenario loop:  {naive:.3}s ({:.1} scenarios/s)",
        MUS.len() as f64 / naive
    );

    let cold = best_secs(3, || {
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Sequential,
            ..BatchOptions::default()
        });
        black_box(batch_sweep(&runner, &grid));
    });
    println!(
        "cold batch (serial):      {cold:.3}s ({:.1} scenarios/s, {:.2}x naive)",
        MUS.len() as f64 / cold,
        naive / cold
    );

    let warm_runner = BatchRunner::with_options(BatchOptions {
        pool: PoolSize::Sequential,
        ..BatchOptions::default()
    });
    let warm_total = batch_sweep(&warm_runner, &grid); // prime the memo
    assert!(
        (warm_total - reference).abs() <= 1e-9 * reference.abs().max(1.0),
        "batch total utility {warm_total} diverges from the naive loop's {reference}"
    );
    let warm = best_secs(3, || {
        black_box(batch_sweep(&warm_runner, &grid));
    });
    let speedup = naive / warm;
    println!(
        "warm batch (serial):      {warm:.3}s ({:.1} scenarios/s, {speedup:.2}x naive)",
        MUS.len() as f64 / warm
    );

    let pooled_runner = BatchRunner::new();
    batch_sweep(&pooled_runner, &grid);
    let pooled = best_secs(3, || {
        black_box(batch_sweep(&pooled_runner, &grid));
    });
    println!(
        "warm batch (auto pool):   {pooled:.3}s ({:.1} scenarios/s, {:.2}x naive)",
        MUS.len() as f64 / pooled,
        naive / pooled
    );
    if host == 1 {
        println!("note: only 1 CPU visible — the pooled run serializes, expect it near the serial number.");
    }

    assert!(
        speedup >= 2.0,
        "warm-cache grid throughput must be >= 2x the naive per-scenario loop, measured {speedup:.2}x"
    );
    println!("warm-cache speedup {speedup:.2}x meets the 2x gate");
}

fn main() {
    batch_benches();
    throughput_report();
}
