//! # dcc-bench
//!
//! Criterion benchmarks for the `dyncontract` workspace: ablation
//! benches for the design choices DESIGN.md calls out (decomposed vs
//! joint solving, parallel vs serial, discretization sweeps),
//! micro-benchmarks of the hot kernels, the extension benches, the
//! engine and batch speedup gates (`make engine-bench`, `make
//! batch-bench`) and the columnar scale bench (`make scale-bench`). The
//! paper's tables and figures are regenerated by `dcc-experiments`, not
//! timed here.
//!
//! Run with `cargo bench --workspace`. The benches default to the small
//! experiment scale so a full sweep completes in minutes; the shapes they
//! measure are scale-independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcc_experiments::ExperimentScale;
use dcc_trace::TraceDataset;

/// The scale benches run at.
pub const BENCH_SCALE: ExperimentScale = ExperimentScale::Small;

/// The seed benches share.
pub const BENCH_SEED: u64 = 42;

/// Generates the shared bench trace.
pub fn bench_trace() -> TraceDataset {
    BENCH_SCALE.generate(BENCH_SEED)
}
