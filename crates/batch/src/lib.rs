//! # dcc-batch
//!
//! Deterministic multi-scenario batch scheduler for the dyncontract
//! engine — the first scale-out layer of the codebase.
//!
//! A [`ScenarioGrid`] describes a cartesian sweep (traces × μ values ×
//! budget fractions × strategies) plus the shared detection, design,
//! and simulation configuration. The [`BatchRunner`] fans the expanded
//! scenario list across a bounded `std::thread::scope` worker pool and
//! merges results back **in input order**, so batched output is
//! bit-identical to running every scenario serially through
//! [`dcc_engine::Engine`] — the property `tests/differential.rs`
//! proves across pool sizes 1–16.
//!
//! The throughput win comes from the [`StageMemo`]: a content-addressed
//! cache for the Detect, Fit, Solve and Simulate stage outputs, keyed on
//! a trace fingerprint plus the stage configuration. A 16-point μ-sweep
//! detects and fits once and solves 16 times, a budget sweep simulates
//! each (design, strategy) once, and the memo is shared *across*
//! scenarios, traces, and runner invocations (warm reruns skip the
//! solve and the simulation too). A scenario calls the stage functions
//! themselves (`run_pipeline`, `prepare_design`, `solve_subproblems` →
//! `assemble_design`, `BaselineStrategy::assemble` → `Simulation::run`),
//! as `dcc serve` does.
//!
//! Every scenario executes once under **supervision**
//! ([`BatchRunner::run_supervised`]): panics are caught and isolated
//! (a poisoned scenario can neither wedge nor contaminate the shared
//! memo), an optional logical work-budget bounds each scenario, and a
//! failed scenario is quarantined: its record carries a typed
//! [`ScenarioFailure`] ([`BatchReport::failures`]) and the sweep goes
//! on. A scenario is a pure function of its trace and configuration,
//! so it is never run again. With a [`CheckpointConfig`] the runner
//! writes versioned `dcc-batch-ckpt/3` snapshots and can resume an
//! interrupted sweep with output byte-identical to an uninterrupted
//! run at every pool size — see `docs/batch.md` and
//! `docs/robustness.md`.
//!
//! ```
//! use dcc_batch::{BatchRunner, ScenarioGrid};
//! use dcc_trace::SyntheticConfig;
//!
//! # fn main() -> Result<(), dcc_batch::BatchError> {
//! let mut cfg = SyntheticConfig::small(7);
//! cfg.n_honest = 12;
//! cfg.n_ncm = 4;
//! cfg.n_cm_target = 4;
//! cfg.n_products = 80;
//! cfg.n_rounds = 2;
//! let grid = ScenarioGrid::for_trace(cfg.generate(), &[1.5, 1.0]);
//! let report = BatchRunner::new().run(&grid)?;
//! assert_eq!(report.records.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ckpt;
mod grid;
mod memo;
mod runner;
mod supervisor;

pub use ckpt::{AgentSummary, ScenarioSummary, SimSummary, CKPT_SCHEMA};
pub use grid::{parse_strategy, strategy_label, Scenario, ScenarioGrid, TraceSpec, GRID_SCHEMA};
pub use memo::{CacheStats, MemoStats, StageMemo};
pub use runner::{
    BatchError, BatchOptions, BatchReport, BatchRunner, ScenarioOutcome, ScenarioRecord,
    ScenarioResult,
};
pub use supervisor::{
    BatchFaultPlan, BatchOutcome, CheckpointConfig, FailureKind, FaultMode, FaultPoint,
    ScenarioFailure, ScenarioFault, SupervisorOptions,
};

#[cfg(test)]
mod temp_dir {
    #![allow(clippy::expect_used)]
    use std::path::PathBuf;

    /// A fresh directory of one test's own under the system temp dir,
    /// removed with everything in it when dropped, so also when the test
    /// fails.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        /// The path of `file` inside the directory.
        pub(crate) fn join(&self, file: &str) -> PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
