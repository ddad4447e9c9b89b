//! Scale bench: million-worker throughput of the columnar trace path.
//!
//! For each requested multiple of the paper's §V workload (~19.7k
//! workers at 1×) this harness:
//!
//! 1. streams a synthetic trace straight into a `dcc-trace-col/2`
//!    columnar buffer (`generate_columnar` — no `Vec<Reviewer>` is ever
//!    materialized),
//! 2. builds per-worker §IV-B subproblems directly from the column view
//!    (ground-truth classes; detection cost is not what this measures),
//!    and solves them with `solve_subproblems` in fixed-size chunks of
//!    rows so memory stays flat while utilities accumulate in input
//!    order,
//! 3. reports workers/sec for both phases plus peak RSS (`VmHWM`).
//!
//! Knobs (also used by CI):
//! - `DCC_SCALE_BENCH_SCALES` — comma-separated multiples, default
//!   `10,100`.
//! - `DCC_SCALE_BENCH_MIN_WPS` — optional floor on the workers/sec of
//!   generation plus the solve (no detect, fit or construct); the run
//!   panics (fails `make scale-bench`) below it.

// Benchmark harnesses are measurement code, not library surface;
// panicking on a broken setup is the correct failure mode here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
#![allow(clippy::cast_precision_loss)]
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark times its runs with the wall clock"
)]

use dcc_core::{solve_subproblems, Discretization, FailurePolicy, ModelParams, Subproblem};
use dcc_numerics::Quadratic;
use dcc_obs::Metrics;
use dcc_trace::SyntheticConfig;
use std::time::Instant;

/// Subproblems per solve chunk: large enough to amortize dispatch,
/// small enough that the transient chunk of rows stays small and
/// memory stays flat at 10M workers.
const CHUNK: usize = 65_536;

fn scaled(scale: usize, seed: u64) -> SyntheticConfig {
    let mut config = SyntheticConfig::paper_scale(seed);
    config.n_honest *= scale;
    config.n_ncm *= scale;
    config.n_cm_target *= scale;
    config.n_products *= scale;
    config
}

/// Peak resident set (VmHWM) in MiB, when the platform exposes it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one scale multiple; returns the workers/sec of generation plus
/// the solve.
fn run_scale(scale: usize, pool: usize) -> f64 {
    let config = scaled(scale, 42);

    let t = Instant::now();
    let col = config.generate_columnar();
    let gen_secs = t.elapsed().as_secs_f64();
    let workers = col.n_reviewers();
    println!(
        "scale {scale}x: generated {workers} workers / {} reviews -> {} MiB columnar \
         in {gen_secs:.2}s ({:.0} workers/sec)",
        col.n_reviews(),
        col.as_bytes().len() / (1024 * 1024),
        workers as f64 / gen_secs
    );

    let params = ModelParams::default();
    let disc = Discretization::covering(20, 7.0).expect("discretization");
    let psi = Quadratic::new(-0.15, 2.5, 1.0);
    let columns = col.columns();

    let quiet = Metrics::noop();
    let t = Instant::now();
    let mut total_utility = 0.0f64;
    let mut start = 0usize;
    while start < workers {
        let end = (start + CHUNK).min(workers);
        let chunk: Vec<Subproblem> = (start..end)
            .map(|i| {
                // Ground-truth class straight from the borrowed column:
                // 0 = honest, otherwise malicious (ω-constrained).
                let malicious = columns.reviewer_class.get(i).copied().unwrap_or(0) != 0;
                Subproblem {
                    id: i,
                    members: vec![i].into(),
                    omega: if malicious { 0.5 } else { 0.0 },
                    weight: 0.3 + (i % 7) as f64 * 0.5,
                    psi,
                    disc,
                }
            })
            .collect();
        let (solution, _) =
            solve_subproblems(&chunk, &params, pool, FailurePolicy::Abort, &quiet).expect("solve");
        // Fixed-order accumulation; the solutions are dropped per chunk.
        for s in &solution.solutions {
            total_utility += s.built.requester_utility();
        }
        start = end;
    }
    let solve_secs = t.elapsed().as_secs_f64();
    let wps = workers as f64 / (gen_secs + solve_secs);
    println!(
        "scale {scale}x: solved {workers} subproblems (pool={pool}) in {solve_secs:.2}s \
         ({:.0} workers/sec), total requester utility {total_utility:.3}",
        workers as f64 / solve_secs
    );
    let rss = peak_rss_mib().map_or_else(|| "unavailable".into(), |mib| format!("{mib:.0} MiB"));
    println!("scale {scale}x: generation + solve {wps:.0} workers/sec, peak RSS {rss}");
    wps
}

fn main() {
    let scales: Vec<usize> = std::env::var("DCC_SCALE_BENCH_SCALES")
        .unwrap_or_else(|_| "10,100".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let min_wps: Option<f64> = std::env::var("DCC_SCALE_BENCH_MIN_WPS")
        .ok()
        .and_then(|s| s.parse().ok());
    let pool = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== columnar scale bench (paper scale ~19.7k workers at 1x, pool={pool}) ==\n\
         scales: {scales:?}, floor: {min_wps:?} workers/sec"
    );
    for &scale in &scales {
        let wps = run_scale(scale, pool);
        if let Some(floor) = min_wps {
            assert!(
                wps >= floor,
                "scale {scale}x: generation + solve throughput {wps:.0} workers/sec is \
                 below the DCC_SCALE_BENCH_MIN_WPS floor of {floor:.0}"
            );
        }
    }
}
