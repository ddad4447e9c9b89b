//! # dcc-engine
//!
//! A staged pipeline engine unifying the paper's end-to-end flow —
//! `Ingest → Detect → FitEffort → SolveSubproblems → ConstructContracts
//! → Simulate` — over a shared [`RoundContext`].
//!
//! Before the engine, every consumer (CLI commands, the figure/table
//! experiments, the benches) hand-wired the same
//! `run_pipeline → design_contracts → Simulation` chain. The engine
//! wires it once:
//!
//! - **Caching** — each stage's output lives in the context, and
//!   [`Engine::run_to`] skips a stage whose output the context already
//!   holds, so a context run through `ConstructContracts` and then
//!   through `Simulate` designs once. A context's configuration is
//!   fixed when it is built; sweeps that share stage outputs across
//!   settings (a μ sweep, a strategy comparison) go through the batch
//!   runner's memo (`dcc-batch`).
//! - **Determinism** — the solve stage fans the independent subproblems
//!   across a `std::thread::scope` worker pool with a deterministic
//!   chunked merge, so results are **bit-identical** to the sequential
//!   path at every pool size ([`PoolSize`] is a pure throughput knob).
//! - **Seeding** — the output setters take an owned value or an `Arc`,
//!   so a caller can hand a context a stage output it computed itself
//!   (a test corrupting one subproblem's ψ, say) and run the rest.
//!
//! ## Example
//!
//! ```
//! use dcc_engine::{Engine, EngineConfig, RoundContext, StageKind};
//! use dcc_trace::SyntheticConfig;
//!
//! # fn main() -> Result<(), dcc_engine::EngineError> {
//! let trace = SyntheticConfig::small(7).generate();
//! let mut ctx = RoundContext::new(EngineConfig::for_trace(trace));
//! let engine = Engine::new();
//!
//! // Design contracts (stop before the simulation)…
//! engine.run_to(&mut ctx, StageKind::ConstructContracts)?;
//! let designed = ctx.design()?.agents.len();
//! assert!(designed > 0);
//!
//! // …then simulate them: the design stages stay cached.
//! let report = engine.run(&mut ctx)?;
//! assert!(report.was_cached(StageKind::ConstructContracts));
//! assert!(!report.was_cached(StageKind::Simulate));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod engine;
mod error;
mod stages;

pub use context::{EngineConfig, EngineSimOutcome, PoolSize, RoundContext, TraceSource};
pub use engine::{Engine, EngineReport, StageRun};
pub use error::EngineError;
pub use stages::StageKind;
