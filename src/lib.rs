//! # dyncontract
//!
//! A complete Rust implementation of *Dynamic Contract Design for
//! Heterogenous Workers in Crowdsourcing for Quality Control*
//! (Qiu, Squicciarini, Rajtmajer, Caverlee — ICDCS 2017).
//!
//! This meta-crate re-exports the whole workspace under stable paths:
//!
//! - [`numerics`] — dense linear algebra, polynomial least squares,
//!   piecewise-linear functions, statistics.
//! - [`graph`] — undirected graphs, connected components, union-find,
//!   bipartite projection.
//! - [`trace`] — synthetic Amazon-like review traces with honest,
//!   non-collusive malicious, and collusive malicious workers.
//! - [`detect`] — expert consensus, malicious-probability estimation,
//!   collusive community clustering, feedback weights (Eq. 5).
//! - [`core`] — the paper's contribution: the Stackelberg/bilevel contract
//!   design problem, the candidate-contract algorithm (§IV-C) with its
//!   theoretical bounds (Lemmas 4.2/4.3, Theorem 4.1), problem
//!   decomposition (§IV-B), baselines, and the multi-round simulation.
//! - [`label`] — the classification-task extension of §VII: binary
//!   labeling workers, majority-vote aggregation, and contract design on
//!   agreement feedback.
//! - [`experiments`] — runners that regenerate every table and figure of
//!   the paper's evaluation (§V).
//! - [`faults`] — deterministic fault injection (dropouts, lost and
//!   corrupted feedback, payment delays) into the simulation, and the
//!   checkpoint document the batch and serve runs share.
//! - [`engine`] — the staged `Ingest → Detect → FitEffort →
//!   SolveSubproblems → ConstructContracts → Simulate` pipeline with
//!   cached stage outputs and a deterministic parallel solve.
//! - [`obs`] — the dependency-free observability layer: span stack,
//!   typed counters/gauges/histograms, and the `Noop`/`Json` recorders
//!   the engine publishes its stage spans and solve/sim metrics
//!   through.
//! - [`batch`] — the deterministic multi-scenario batch scheduler:
//!   scenario grids (μ × budget × strategy × trace), a shared
//!   content-addressed detect/fit/solve memo, and an in-order merge
//!   that keeps batched output bit-identical to serial runs.
//! - [`serve`] — the streaming contract service: event ingestion
//!   (`dcc serve`), the batch pipeline rerun over the grown trace at
//!   every round boundary, and checkpointed crash recovery.
//!
//! ## Quickstart
//!
//! ```
//! use dyncontract::core::{ContractBuilder, Discretization, ModelParams};
//! use dyncontract::numerics::Quadratic;
//!
//! # fn main() -> Result<(), dyncontract::core::CoreError> {
//! // A concave increasing effort->feedback response fitted from data.
//! let psi = Quadratic::new(-0.05, 2.0, 0.5);
//! let params = ModelParams::default();
//! let disc = Discretization::new(20, 0.5)?;
//!
//! // Build the near-optimal contract for an honest worker (omega = 0).
//! let built = ContractBuilder::new(params, disc, psi)
//!     .honest()
//!     .weight(1.0)
//!     .build()?;
//!
//! println!(
//!     "induced effort {:.3}, compensation {:.3}, requester utility {:.3}",
//!     built.induced_effort(),
//!     built.compensation(),
//!     built.requester_utility()
//! );
//! # Ok(())
//! # }
//! ```

pub use dcc_batch as batch;
pub use dcc_core as core;
pub use dcc_detect as detect;
pub use dcc_engine as engine;
pub use dcc_experiments as experiments;
pub use dcc_faults as faults;
pub use dcc_graph as graph;
pub use dcc_label as label;
pub use dcc_numerics as numerics;
pub use dcc_obs as obs;
pub use dcc_serve as serve;
pub use dcc_trace as trace;
