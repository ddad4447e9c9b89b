//! # dcc-faults
//!
//! Fault injection for the dyncontract simulation, and the checkpoint
//! document the batch and serve runs share.
//!
//! Crowdsourcing platforms are distributed systems: workers drop out and
//! rejoin, feedback reports get lost or corrupted in flight, and
//! payments land late. This crate makes all of that *reproducible*:
//!
//! - [`FaultPlan`] / [`FaultPlanConfig`] — a fully materialized,
//!   JSON-serializable schedule of faults. All randomness is spent at
//!   plan-generation time, so a `(simulation seed, plan)` pair pins down
//!   the entire faulty run.
//! - [`FaultInjector`] — implements [`dcc_core::RoundFaults`] from a
//!   plan; pure in `(agent, round)` apart from its [`FaultHitCounts`]
//!   tally of the faults that fired.
//! - [`checkpoint`] — the one checkpoint document the resumable runs
//!   (batch, serve) write atomically and load with a schema check.
//!
//! ## Example: a faulty run is a function of its seed and plan
//!
//! ```
//! use dcc_faults::{FaultInjector, FaultPlanConfig};
//! use dcc_core::{ModelParams, Simulation, SimulationConfig};
//!
//! # fn main() -> Result<(), dcc_core::CoreError> {
//! let plan = FaultPlanConfig { agents: 0, rounds: 8, seed: 5, ..Default::default() }
//!     .generate()?;
//! let config = SimulationConfig { rounds: 8, feedback_noise_sd: 0.0, seed: 1 };
//! let sim = Simulation::new(ModelParams::default(), config);
//!
//! // A rerun with a fresh injector from the same plan is bit-identical.
//! let mut injector = FaultInjector::new(&plan);
//! let outcome = sim.run_with_faults(&[], &mut injector)?;
//! assert_eq!(outcome, sim.run_with_faults(&[], &mut FaultInjector::new(&plan))?);
//! assert_eq!(injector.hit_counts().total(), 0, "no agents, nothing to hit");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod injector;
mod plan;

pub use checkpoint::{
    check_fingerprint, checkpoint_document, fingerprint_json, load_checkpoint_payload,
    save_json_atomic,
};
pub use injector::{FaultHitCounts, FaultInjector};
// The JSON value moved to the bottom of the workspace (`dcc-numerics`)
// so `dcc-trace` can serialize adversary plans; the re-export keeps
// every existing `dcc_faults::Json` call site working.
pub use dcc_numerics::{Json, JsonError};
pub use plan::{
    Corruption, CorruptFeedback, DropoutWindow, FaultPlan, FaultPlanConfig, MissingFeedback,
    PaymentDelay,
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
