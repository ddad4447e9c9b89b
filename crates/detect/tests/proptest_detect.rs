//! Property tests of the detection substrate.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_detect::{
    cluster_collusive, run_pipeline, ConsensusMap, FeedbackWeights, MaliciousDetector,
    PipelineConfig, SuspectSource, WeightParams,
};
use dcc_trace::{Review, ReviewerId, SyntheticConfig, TraceDataset};
use proptest::prelude::*;

fn trace_for(seed: u64) -> TraceDataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.n_honest = 60;
    cfg.n_ncm = 12;
    cfg.n_cm_target = 12;
    cfg.n_products = 500;
    cfg.generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Estimates are probabilities and the suspected set shrinks
    /// monotonically with the threshold.
    #[test]
    fn estimates_and_threshold_monotonicity(seed in 0u64..40, t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
        let trace = trace_for(seed);
        let consensus = ConsensusMap::build(&trace);
        let est = MaliciousDetector::default().estimate(&trace, &consensus);
        prop_assert!(est.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let at_lo = est.suspected(lo).len();
        let at_hi = est.suspected(hi).len();
        prop_assert!(at_hi <= at_lo, "suspects must shrink with threshold");
    }

    /// Clustering partitions the suspect set: every suspect appears in
    /// exactly one community or as a singleton.
    ///
    /// It is also invariant under churn. The adversarial generator splits
    /// and merges communities mid-trace, so the co-reviews behind a
    /// partition arrive in adversary-controlled orders, with repeated
    /// links. The same report must come back for the suspects in reverse
    /// order with a repeated prefix, and for the trace rebuilt with its
    /// reviews reversed and one co-review duplicated.
    #[test]
    fn clustering_partitions_suspects(seed in 0u64..40, frac in 0.1f64..1.0) {
        let trace = trace_for(seed);
        let n = trace.reviewers().len();
        let take = ((n as f64 * frac) as usize).max(1);
        let suspected: Vec<ReviewerId> =
            (0..n).step_by((n / take).max(1)).map(ReviewerId).collect();
        let report = cluster_collusive(&trace, &suspected);
        let mut seen: Vec<ReviewerId> = report
            .communities
            .iter()
            .flatten()
            .copied()
            .chain(report.singletons.iter().copied())
            .collect();
        seen.sort_unstable();
        let mut expected = suspected.clone();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
        for c in &report.communities {
            prop_assert!(c.len() >= 2);
        }

        let mut churned: Vec<ReviewerId> = suspected.iter().rev().copied().collect();
        churned.splice(0..0, churned[..churned.len() / 2].to_vec());
        prop_assert_eq!(&cluster_collusive(&trace, &churned), &report);

        let mut reviews: Vec<Review> = trace.reviews().iter().rev().cloned().collect();
        let co_review = reviews
            .iter()
            .find(|r| trace.reviews_for(r.product).len() >= 2)
            .cloned()
            .expect("a co-reviewed product");
        reviews.push(co_review);
        let rebuilt = TraceDataset::new(
            trace.products().to_vec(),
            trace.reviewers().to_vec(),
            reviews,
            trace.campaigns().to_vec(),
        )
        .unwrap();
        prop_assert_eq!(&cluster_collusive(&rebuilt, &suspected), &report);
    }

    /// Weights respect the accuracy cap and respond monotonically to the
    /// penalty coefficients.
    #[test]
    fn weights_bounded_and_monotone_in_penalties(
        seed in 0u64..40,
        kappa in 0.0f64..0.5,
        gamma in 0.0f64..0.5,
    ) {
        let trace = trace_for(seed);
        let consensus = ConsensusMap::build(&trace);
        let est = MaliciousDetector::default().estimate(&trace, &consensus);
        let suspected = est.suspected(0.5);
        let collusion = cluster_collusive(&trace, &suspected);
        let base = WeightParams { kappa, gamma, ..WeightParams::default() };
        let weights = FeedbackWeights::compute(&trace, &consensus, &est, &collusion, base);
        for &w in weights.as_slice() {
            prop_assert!(w.is_finite());
            prop_assert!(w <= base.max_accuracy_term + 1e-12);
        }
        // Raising kappa can only lower weights.
        let harsher = WeightParams { kappa: kappa + 0.2, ..base };
        let w2 = FeedbackWeights::compute(&trace, &consensus, &est, &collusion, harsher);
        for (a, b) in weights.as_slice().iter().zip(w2.as_slice()) {
            prop_assert!(*b <= *a + 1e-12);
        }
    }

    /// The ground-truth pipeline always recovers the generator's
    /// campaigns exactly.
    #[test]
    fn ground_truth_pipeline_exact(seed in 0u64..40) {
        let trace = trace_for(seed);
        let result = run_pipeline(&trace, PipelineConfig::default());
        prop_assert_eq!(result.collusion.communities.len(), trace.campaigns().len());
        let mut expected: Vec<Vec<ReviewerId>> = trace
            .campaigns()
            .iter()
            .map(|c| {
                let mut m = c.members.clone();
                m.sort_unstable();
                m
            })
            .collect();
        expected.sort_by_key(|c| c[0]);
        prop_assert_eq!(&result.collusion.communities, &expected);
    }

    /// The estimated pipeline is well-formed at any threshold.
    #[test]
    fn estimated_pipeline_wellformed(seed in 0u64..20, threshold in 0.05f64..0.95) {
        let trace = trace_for(seed);
        let result = run_pipeline(
            &trace,
            PipelineConfig {
                suspects: SuspectSource::Estimated { threshold },
                ..PipelineConfig::default()
            },
        );
        prop_assert_eq!(result.weights.as_slice().len(), trace.reviewers().len());
        let in_communities: usize = result.collusion.communities.iter().map(Vec::len).sum();
        prop_assert_eq!(
            in_communities + result.collusion.singletons.len(),
            result.suspected.len()
        );
    }
}
