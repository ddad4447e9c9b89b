//! # dcc-trace
//!
//! Review-trace substrate for the `dyncontract` workspace.
//!
//! The paper evaluates on a private Amazon trace (118,142 reviews by
//! 19,686 reviewers over 75,508 products, with 1,524 reviewers labelled
//! malicious by crawling underground recruitment sites). That dataset is
//! not public, so this crate provides a **deterministic synthetic
//! generator** calibrated to every statistic the paper reports:
//!
//! - worker-class counts (18,176 honest / 1,312 non-collusive malicious /
//!   212 collusive malicious in 47 communities — §V),
//! - the collusive community-size distribution (Table II),
//! - class-conditional effort→feedback responses that are concave with
//!   additive noise, so polynomial fits reproduce the "flat after
//!   quadratic" norm-of-residuals shape of Table III,
//! - inflated feedback for collusive workers via intra-community upvoting
//!   (Fig. 7).
//!
//! The paper's model parametrization (§V) is reproduced exactly:
//! *feedback* = helpful upvotes, *expertise* = a reviewer's average
//! upvotes, *length* = characters, *effort* = expertise × length (scaled).
//!
//! ## Example
//!
//! ```
//! use dcc_trace::{SyntheticConfig, WorkerClass};
//!
//! let trace = SyntheticConfig::small(42).generate();
//! assert!(!trace.reviewers().is_empty());
//! let honest = trace.workers_of_class(WorkerClass::Honest);
//! assert!(!honest.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod campaign;
mod columnar;
mod csv;
mod dataset;
mod error;
mod ids;
mod model;
mod stats;
mod synth;

pub use adversary::{
    AdversarialConfig, AdversaryPlan, AdversaryPlanConfig, CommunityMerge, CommunitySplit,
    SybilInflux, UnderReport, ADVERSARY_SCHEMA,
};
pub use campaign::{sample_community_size, Campaign, COMMUNITY_SIZE_DISTRIBUTION};
pub use columnar::{
    read_trace_columnar, ColF64, ColU64, ColumnarBuilder, ColumnarTrace, TraceColumns,
    COLUMNAR_MAGIC, COLUMNAR_VERSION,
};
pub use csv::{read_trace_csv, write_trace_csv};
pub use dataset::{IndexedReviews, IndexedReviewsIter, TraceDataset};
pub use error::TraceError;
pub use ids::{ProductId, ReviewerId};
pub use model::{Product, Review, Reviewer, WorkerClass};
pub use stats::TraceSummary;
pub use synth::{ClassBehavior, SyntheticConfig};
