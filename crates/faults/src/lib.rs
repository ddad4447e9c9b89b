//! # dcc-faults
//!
//! Fault injection and checkpoint/resume for the dyncontract
//! simulation pipeline.
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
//!   plan; pure in `(agent, round)` apart from a log of fired faults.
//! - [`checkpoint`] — the one checkpoint document every resumable run
//!   (simulation, batch, serve) writes atomically and loads with a
//!   schema check, and the simulation checkpoint on top of it: an input
//!   fingerprint plus the number of completed rounds, which a resume
//!   replays.
//!
//! ## Example: a faulty run killed mid-way and resumed by replay
//!
//! ```
//! use dcc_faults::{load_sim_checkpoint, save_json_atomic, sim_checkpoint, sim_fingerprint};
//! use dcc_faults::{FaultInjector, FaultPlanConfig};
//! use dcc_core::{ModelParams, Simulation, SimulationConfig};
//!
//! # fn main() -> Result<(), dcc_core::CoreError> {
//! let plan = FaultPlanConfig { agents: 0, rounds: 8, seed: 5, ..Default::default() }
//!     .generate()?;
//! let params = ModelParams::default();
//! let config = SimulationConfig { rounds: 8, feedback_noise_sd: 0.0, seed: 1 };
//! let sim = Simulation::new(params, config);
//! let fingerprint = sim_fingerprint(&params, &config, &plan, &[]);
//! let path = std::env::temp_dir().join("dcc-faults-doc.ckpt.json");
//!
//! // Run three rounds, checkpointing each, then "crash".
//! let mut injector = FaultInjector::new(&plan);
//! let mut state = sim.start(&[])?;
//! for _ in 0..3 {
//!     sim.step(&[], &mut state, &mut injector);
//!     save_json_atomic(&path, &sim_checkpoint(fingerprint, state.next_round))?;
//! }
//!
//! // Resume: check that the checkpoint belongs to this run, then replay
//! // its `done` rounds from a fresh start and go on (one loop does both).
//! let done = load_sim_checkpoint(&path, fingerprint, config.rounds)?;
//! assert_eq!(done, 3);
//! let mut injector = FaultInjector::new(&plan);
//! let mut state = sim.start(&[])?;
//! while sim.step(&[], &mut state, &mut injector) {}
//! assert_eq!(sim.outcome_of(&state)?, sim.run_with_faults(&[], &mut FaultInjector::new(&plan))?);
//! # std::fs::remove_file(&path).ok();
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
    load_sim_checkpoint, save_json_atomic, sim_checkpoint, sim_fingerprint, SIM_CKPT_SCHEMA,
};
pub use injector::{FaultHitCounts, FaultInjector, FiredFault};
// The JSON value moved to the bottom of the workspace (`dcc-numerics`)
// so `dcc-trace` can serialize adversary plans; the re-export keeps
// every existing `dcc_faults::Json` call site working.
pub use dcc_numerics::{Json, JsonError};
pub use plan::{
    Corruption, CorruptFeedback, DropoutWindow, FaultPlan, FaultPlanConfig, MissingFeedback,
    PaymentDelay,
};
