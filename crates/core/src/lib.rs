//! # dcc-core
//!
//! The paper's contribution: dynamic contract design for heterogeneous
//! crowdsourcing workers (ICDCS 2017).
//!
//! A task requester repeatedly posts tasks to a pool of honest,
//! non-collusive malicious, and collusive malicious workers. Each round it
//! offers every worker a *contract* — a monotone piecewise-linear map from
//! the worker's previous-round feedback to this round's compensation
//! (Eq. 1, 6) — and each worker best-responds with an effort level
//! maximizing its own utility (Eq. 11 honest, Eq. 14 malicious). The
//! requester wants contracts maximizing
//! `U_req = Σ w_i·q_i − μ·Σ c_i` (Eq. 7), a bilevel program that this
//! crate solves per §IV:
//!
//! - [`ContractBuilder`] — the candidate-contract algorithm of §IV-C:
//!   for every target effort interval `[(k−1)δ, kδ)` construct a
//!   candidate `ξ^(k)` whose slopes follow the Eq. (39)–(40) recurrence
//!   inside the Case-III window of Lemma 4.1, then keep the candidate
//!   with the highest requester utility. The candidates and their
//!   verified best responses ([`ContractBuilder::candidates`]) do not
//!   depend on the worker's weight; only the Eq. 43 choice
//!   ([`CandidateSet::select`]) does, so workers sharing ω, ψ and δ
//!   share one [`CandidateSet`].
//! - [`bounds`] — Lemma 4.2 / 4.3 compensation bounds and the
//!   Theorem 4.1 requester-utility bracket.
//! - [`best_response`] — a worker's exact best response to an arbitrary
//!   contract (used to *verify* incentives rather than assume them).
//! - [`solve_subproblems`] / [`design_contracts`] — the §IV-B
//!   decomposition into per-worker / per-community subproblems, solved in
//!   parallel on scoped threads with one candidate set per shared
//!   (ω, ψ, δ); the one solve entry point, with an explicit pool size,
//!   [`FailurePolicy`], and `dcc_obs::Metrics` sink.
//! - [`Simulation`] — the repeated Stackelberg game over `T` rounds with
//!   lagged payments and stochastic feedback, plus the exclusion and
//!   fixed-payment baselines of §V.
//!
//! ## Example
//!
//! ```
//! use dcc_core::{ContractBuilder, Discretization, ModelParams};
//! use dcc_numerics::Quadratic;
//!
//! # fn main() -> Result<(), dcc_core::CoreError> {
//! let psi = Quadratic::new(-0.05, 2.0, 0.5);
//! let built = ContractBuilder::new(ModelParams::default(), Discretization::new(20, 0.5)?, psi)
//!     .honest()
//!     .weight(1.0)
//!     .build()?;
//! assert!(built.contract().is_monotone());
//! assert!(built.requester_utility().is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod bandit;
mod baseline;
mod budget;
mod behavior;
mod bip;
pub mod bounds;
mod builder;
mod candidate;
mod cases;
mod contract;
mod design;
mod effort;
mod error;
mod optimal;
mod params;
pub mod proofness;
mod replay;
mod response;
mod risk;
mod sim;
pub mod utilities;

pub use adaptive::{AdaptiveAgent, AdaptiveConfig, AdaptiveOutcome, AdaptiveSimulation};
pub use bandit::{BanditOutcome, LinearPricingBandit};
pub use budget::{select_within_budget, BudgetedSelection};
pub use baseline::{BaselineStrategy, StrategyKind};
pub use behavior::ConductModel;
pub use bip::{
    solve_subproblems, BipSolution, DegradationAction, DegradationReport, DegradedSubproblem,
    FailurePolicy, Subproblem, SubproblemSolution,
};
pub use builder::{BuiltContract, CandidateDiagnostics, CandidateSet, ContractBuilder};
pub use candidate::{build_candidate, build_candidate_with_margin, Candidate};
pub use cases::{case_of_slope, interval_optimum, SlopeCase};
pub use contract::Contract;
pub use design::{
    assemble_design, design_contracts, prepare_design, AgentContract, ContractDesign,
    DesignConfig, DesignPrep,
};
pub use effort::{
    fit_class_effort, fit_effort_function, nor_table, validate_effort_function, EffortFit,
};
pub use error::{CoreError, IoSource};
pub use optimal::{exhaustive_best_utility, first_best_utility, incentive_cost};
pub use params::{Discretization, ModelParams, MAX_INTERVALS};
pub use proofness::{
    best_effort, coalition_payment, coalition_utility, compliant_utility, member_utility,
    worker_bias, CoalitionMember, CollusionProofParams, Deviation,
};
pub use replay::{replay_trace, ReplayOutcome};
pub use response::{best_response, BestResponse};
pub use risk::{best_response_risk_averse, risk_effort_drop, RiskProfile};
pub use sim::{
    AgentSpec, NoFaults, RoundFaults, RoundRecord, Simulation, SimulationConfig, SimulationOutcome,
};
