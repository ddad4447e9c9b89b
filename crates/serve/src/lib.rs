//! # dcc-serve
//!
//! Streaming contract service for the `dyncontract` workspace: the
//! long-running counterpart of the one-shot batch pipeline
//! (`dcc_detect::run_pipeline` → `dcc_core::design_contracts`).
//!
//! The service ingests worker-feedback events ([`ServeEvent`]: products
//! appearing, workers joining, reviews arriving, round boundaries) as
//! JSON lines — from stdin, an events file, or derived from an existing
//! trace by [`events_from_trace`] (`dcc serve --replay`). Between round
//! boundaries it grows its trace; at every boundary it runs the batch
//! passes over the whole trace: the §IV detection, then the contract
//! design (refit every class ψ, solve every subproblem, assemble).
//!
//! **Correctness contract**: after *any* prefix of the event stream,
//! the served design is bit-identical (`f64::to_bits`) to a cold batch
//! recompute over the same prefix, at every pool size. A boundary calls
//! the batch functions, so this holds by construction;
//! `tests/serve_differential.rs` checks it over random streams and
//! `--verify` checks it in production at every round.
//!
//! Crash recovery reuses the `dcc-faults` checkpoint document and
//! atomic writer: at every round boundary the service checkpoints its
//! [`EventLog`] ([`save_checkpoint`]) — the number of events applied
//! and a running fingerprint of them, a few hundred bytes — and a
//! resumed run refolds the same prefix of its own input, refuses a
//! checkpoint whose fingerprints differ ([`load_checkpoint`] names the
//! first differing round), and re-applies that prefix silently, making
//! the concatenated output of a killed + resumed run byte-identical to
//! an uninterrupted one (exercised by `make chaos-serve`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
mod event;
mod service;
mod state;

pub use ckpt::{load_checkpoint, save_checkpoint, EventLog, CKPT_FORMAT};
pub use event::{events_from_trace, ServeEvent};
pub use service::{fold_digest, ServeService};
pub use state::{design_digest, RoundOutput, ServeState, ServeStats};
