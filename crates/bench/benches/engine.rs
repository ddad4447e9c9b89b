//! Engine bench: sequential vs pooled subproblem solving, and the cost
//! of the solve's observability. (The value of stage reuse on a μ sweep
//! is `make batch-bench`'s naive-versus-memo comparison.)
//!
//! The pooled solve is required to be **bit-identical** to the
//! sequential one (see `dcc-engine`'s property tests), so the only
//! question this bench answers is wall-clock cost. Besides the criterion
//! groups, `main` prints a direct speedup report for `make engine-bench`;
//! on a single-CPU host the pool degenerates to the sequential path and
//! the honest answer is ~1.0×, which the report states rather than hides.

// Benchmark harnesses are measurement code, not library surface;
// panicking on a broken setup is the correct failure mode here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark times its runs with the wall clock"
)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use dcc_core::{
    solve_subproblems, BipSolution, BuiltContract, CandidateSet, ContractBuilder, DesignConfig,
    FailurePolicy, ModelParams, Subproblem,
};
use dcc_engine::{Engine, EngineConfig, RoundContext, StageKind};
use dcc_numerics::Quadratic;
use dcc_obs::{JsonRecorder, Metrics};
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Pool scales the ISSUE calls for: sequential, one-socket, oversubscribed.
const POOLS: [usize; 3] = [1, 4, 16];

fn trace() -> TraceDataset {
    SyntheticConfig::small(2024).generate()
}

/// A design config with a fine effort grid, so each subproblem carries
/// enough solve work for the pool split to be measurable.
fn design_config() -> DesignConfig {
    DesignConfig {
        intervals: 80,
        ..DesignConfig::default()
    }
}

fn prepared_context(trace: &TraceDataset) -> RoundContext {
    let mut config = EngineConfig::for_trace(trace.clone());
    config.design = design_config();
    let mut ctx = RoundContext::new(config);
    Engine::new()
        .run_to(&mut ctx, StageKind::FitEffort)
        .expect("fit stage succeeds on a synthetic trace");
    ctx
}

/// Synthetic subproblems for the scale sweep, mirroring the shape the
/// fit stage produces without paying detection cost at every size.
fn synthetic_subproblems(n: usize, m: usize) -> Vec<Subproblem> {
    let disc = dcc_core::Discretization::covering(m, 7.0).unwrap();
    (0..n)
        .map(|i| Subproblem {
            id: i,
            members: vec![i].into(),
            omega: if i % 4 == 0 { 0.5 } else { 0.0 },
            weight: 0.3 + (i % 7) as f64 * 0.5,
            psi: Quadratic::new(-0.15, 2.5, 1.0),
            disc,
        })
        .collect()
}

fn params() -> ModelParams {
    design_config().params
}

/// The one solve on `pool` threads, failing loudly.
fn solve(sps: &[Subproblem], params: &ModelParams, pool: usize, metrics: &Metrics) -> BipSolution {
    solve_subproblems(sps, params, pool, FailurePolicy::Abort, metrics)
        .expect("solve")
        .0
}

/// The uninstrumented reference of the overhead gate: the solve's two
/// halves in a plain serial loop — one `ContractBuilder::candidates` per
/// distinct (ω, ψ, δ) key, one `CandidateSet::select` per subproblem —
/// with no pool, failure policy, or recorder around them.
fn candidate_set_loop(sps: &[Subproblem], params: &ModelParams) -> Vec<BuiltContract> {
    let mut sets: BTreeMap<[u64; 6], CandidateSet> = BTreeMap::new();
    sps.iter()
        .map(|sp| {
            let key = [
                sp.omega.to_bits(),
                sp.psi.r2().to_bits(),
                sp.psi.r1().to_bits(),
                sp.psi.r0().to_bits(),
                sp.disc.intervals() as u64,
                sp.disc.delta().to_bits(),
            ];
            sets.entry(key)
                .or_insert_with(|| {
                    ContractBuilder::new(*params, sp.disc, sp.psi)
                        .malicious(sp.omega)
                        .candidates()
                        .expect("candidates")
                })
                .select(sp.weight)
                .expect("select")
        })
        .collect()
}

/// Every subproblem built alone by `ContractBuilder::build`, sharing no
/// candidate set; timed for information only.
fn builder_loop(sps: &[Subproblem], params: &ModelParams) -> Vec<BuiltContract> {
    sps.iter()
        .map(|sp| {
            ContractBuilder::new(*params, sp.disc, sp.psi)
                .malicious(sp.omega)
                .weight(sp.weight)
                .build()
                .expect("build")
        })
        .collect()
}

fn bench_pooled_solve(c: &mut Criterion) {
    let trace = trace();
    let ctx = prepared_context(&trace);
    let sps = ctx.prep().expect("prep stage ran").subproblems.clone();
    let params = params();
    let quiet = Metrics::noop();

    let mut group = c.benchmark_group("engine_solve_trace");
    group.sample_size(10);
    for pool in POOLS {
        group.bench_with_input(BenchmarkId::new("pool", pool), &pool, |b, &pool| {
            b.iter(|| solve(black_box(&sps), &params, pool, &quiet));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("engine_solve_scale");
    group.sample_size(10);
    for n in [256usize, 2048] {
        let sps = synthetic_subproblems(n, 80);
        for pool in POOLS {
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}_pool"), pool),
                &pool,
                |b, &pool| {
                    b.iter(|| solve(black_box(&sps), &params, pool, &quiet));
                },
            );
        }
    }
    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    let sps = synthetic_subproblems(256, 80);
    let params = params();
    let mut group = c.benchmark_group("engine_obs");
    group.sample_size(10);
    group.bench_function("candidate_set_loop", |b| {
        b.iter(|| candidate_set_loop(black_box(&sps), &params));
    });
    group.bench_function("builder_loop", |b| {
        b.iter(|| builder_loop(black_box(&sps), &params));
    });
    group.bench_function("solve_noop_recorder", |b| {
        let metrics = Metrics::noop();
        b.iter(|| solve(black_box(&sps), &params, 1, &metrics));
    });
    group.bench_function("solve_json_recorder", |b| {
        b.iter(|| {
            let metrics = Metrics::new(Arc::new(JsonRecorder::new()));
            solve(black_box(&sps), &params, 1, &metrics)
        });
    });
    group.finish();
}

criterion_group!(engine_benches, bench_pooled_solve, bench_obs_overhead);

/// Seconds one call of `f` takes.
fn secs<F: FnMut()>(mut f: F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Times `f` over `reps` runs and returns the best (least noisy) run.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| secs(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// The direct speedup report consumed by `make engine-bench`.
fn speedup_report() {
    let sps = synthetic_subproblems(2048, 80);
    let params = params();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n== pooled solve speedup (2048 subproblems, m=80, {host} CPU(s) visible) ==");

    let quiet = Metrics::noop();
    let seq = best_secs(3, || {
        black_box(solve(&sps, &params, 1, &quiet));
    });
    let reference = solve(&sps, &params, 1, &quiet);
    println!("pool=1 (sequential): {:.3}s", seq);

    for pool in [4usize, 16] {
        let pooled = best_secs(3, || {
            black_box(solve(&sps, &params, pool, &quiet));
        });
        let out = solve(&sps, &params, pool, &quiet);
        let identical = out
            .solutions
            .iter()
            .zip(&reference.solutions)
            .all(|(a, b)| {
                a.built.requester_utility().to_bits() == b.built.requester_utility().to_bits()
            });
        println!(
            "speedup at pool={pool}: {:.2}x ({:.3}s, bit-identical to sequential: {identical})",
            seq / pooled,
            pooled
        );
    }
    if host == 1 {
        println!("note: only 1 CPU visible — pooled threads serialize, expect ~1.0x here.");
    }
}

/// Rounds of the overhead gate; odd, so the median is one round's ratio.
const OVERHEAD_ROUNDS: usize = 9;

/// The disabled-recorder overhead gate: `solve_subproblems` with a
/// `NoopRecorder` must cost the same as a plain loop over the same two
/// halves, `candidates` per key and `select` per subproblem (it branches
/// on `Metrics::enabled` and reads no clock), so any regression beyond
/// noise means instrumentation or solve bookkeeping leaked into the hot
/// path. The 2,048 subproblems fall into two keys, so building each
/// subproblem alone would be a reference the solve beats by orders of
/// magnitude; its time is printed for information only.
/// Every side runs on one thread, so thread scheduling adds no noise.
/// Each round times the sides back to back and the gate reads the
/// median of the per-round ratios: on a shared 2-vCPU host the machine's
/// speed moves by more than 10% between runs seconds apart, which moves
/// a ratio of best times by as much even with identical code on both
/// sides, while a slowdown within a round lands on both of its runs.
/// Panics — and thereby fails `make engine-bench` — above 2%.
fn obs_overhead_report() {
    let sps = synthetic_subproblems(2048, 80);
    let params = params();
    println!("\n== observability overhead (2048 subproblems, m=80, pool=1) ==");

    let noop = Metrics::noop();
    let rounds: Vec<[f64; 3]> = (0..OVERHEAD_ROUNDS)
        .map(|_| {
            let plain = secs(|| {
                black_box(candidate_set_loop(&sps, &params));
            });
            let with_noop = secs(|| {
                black_box(solve(&sps, &params, 1, &noop));
            });
            let with_json = secs(|| {
                let metrics = Metrics::new(Arc::new(JsonRecorder::new()));
                black_box(solve(&sps, &params, 1, &metrics));
            });
            [plain, with_noop, with_json]
        })
        .collect();
    let best = |side: usize| rounds.iter().map(|r| r[side]).fold(f64::INFINITY, f64::min);
    let median_pct = |side: usize| {
        let mut ratios: Vec<f64> = rounds.iter().map(|r| r[side] / r[0]).collect();
        ratios.sort_by(f64::total_cmp);
        100.0 * (ratios[OVERHEAD_ROUNDS / 2] - 1.0)
    };

    let overhead_pct = median_pct(1);
    println!(
        "candidate-set loop:   {:.4}s best of {OVERHEAD_ROUNDS}",
        best(0)
    );
    println!(
        "noop recorder:        {:.4}s best, median {overhead_pct:+.2}% vs candidate-set loop",
        best(1)
    );
    println!(
        "json recorder:        {:.4}s best, median {:+.2}% vs candidate-set loop",
        best(2),
        median_pct(2)
    );
    println!(
        "builder loop:         {:.4}s best of 3 (per-subproblem build; information only)",
        best_secs(3, || {
            black_box(builder_loop(&sps, &params));
        })
    );
    assert!(
        overhead_pct < 2.0,
        "disabled recorder must stay within 2% of the candidate-set loop, measured {overhead_pct:+.2}%"
    );
    println!("noop overhead within the 2% budget");
}

fn main() {
    engine_benches();
    speedup_report();
    obs_overhead_report();
}
