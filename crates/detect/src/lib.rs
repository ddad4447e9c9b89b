//! # dcc-detect
//!
//! Detection substrate for the `dyncontract` workspace.
//!
//! The contract design of the paper consumes three estimated quantities
//! per worker (§II, Eq. 5):
//!
//! 1. the *accuracy* of the worker's reviews relative to the expert
//!    consensus `l̄` ([`ConsensusMap`]),
//! 2. the probability `e_mal` that the worker is malicious
//!    ([`MaliciousDetector`], standing in for the ML detectors the paper
//!    cites as \[14\]\[15\]),
//! 3. the number of collusion partners `A_i`, obtained by clustering
//!    suspected malicious workers that target the same product into
//!    communities ([`cluster_collusive`], §IV-A): a DFS over the trace's
//!    own worker↔product review index, with no graph copied out of it.
//!
//! [`FeedbackWeights`] combines the three into the requester's
//! feedback weights `w_i = ρ/|l_i − l̄| − κ·e_mal − γ·A_i`.
//!
//! ## Example
//!
//! ```
//! use dcc_detect::{cluster_collusive, ConsensusMap, MaliciousDetector};
//! use dcc_trace::SyntheticConfig;
//!
//! let trace = SyntheticConfig::small(1).generate();
//! let consensus = ConsensusMap::build(&trace);
//! let estimates = MaliciousDetector::default().estimate(&trace, &consensus);
//! let suspected = estimates.suspected(0.5);
//! let report = cluster_collusive(&trace, &suspected);
//! assert!(report.communities.len() + report.singletons.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collusion;
mod consensus;
mod malicious;
mod pipeline;
mod weights;

pub use collusion::{cluster_collusive, CollusionReport};
pub use consensus::{ConsensusMap, SuspectMask};
pub use malicious::{MaliciousDetector, MaliciousEstimates};
pub use pipeline::{run_pipeline, DetectionResult, PipelineConfig, SuspectSource};
pub use weights::{FeedbackWeights, WeightParams};
