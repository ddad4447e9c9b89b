use crate::{
    cluster_collusive, CollusionReport, ConsensusMap, FeedbackWeights, MaliciousDetector,
    MaliciousEstimates, SuspectMask, WeightParams,
};
use dcc_trace::{ReviewerId, TraceDataset};

/// Where the suspected-malicious worker set comes from.
///
/// The paper's evaluation trace carries **ground-truth labels** (1,524
/// malicious reviewers identified by crawling underground recruitment
/// sites), and its clustering and weighting consume those labels directly;
/// estimators \[14\]\[15\] are cited as how a deployment *would* obtain
/// them. Both modes are supported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SuspectSource {
    /// Use the trace's ground-truth class labels (paper §V).
    GroundTruth,
    /// Threshold the heuristic [`MaliciousDetector`] estimates.
    Estimated {
        /// Suspicion threshold on `e_mal`.
        threshold: f64,
    },
}

/// Configuration of the end-to-end detection pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Estimator of `e_mal` (always run — Eq. 5 needs the probability even
    /// when the suspect *set* comes from ground truth).
    pub detector: MaliciousDetector,
    /// Source of the suspected-malicious set fed to clustering and the
    /// robust consensus refinement.
    pub suspects: SuspectSource,
    /// Coefficients of the feedback-weight formula (Eq. 5).
    pub weights: WeightParams,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            detector: MaliciousDetector::default(),
            suspects: SuspectSource::GroundTruth,
            weights: WeightParams::default(),
        }
    }
}

/// All detection artifacts the contract designer needs, produced by
/// [`run_pipeline`].
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// The refined (suspect-excluded) consensus used for the weights.
    pub consensus: ConsensusMap,
    /// Malicious-probability estimates (from the first-pass consensus).
    pub estimates: MaliciousEstimates,
    /// The suspected-malicious set that was clustered.
    pub suspected: Vec<ReviewerId>,
    /// Collusive community clustering of the suspected workers (§IV-A).
    pub collusion: CollusionReport,
    /// Feedback weights `w_i` of Eq. 5.
    pub weights: FeedbackWeights,
}

/// Runs the full §IV detection flow in two passes:
///
/// 1. build the raw consensus, estimate `e_mal`, and determine the
///    suspected-malicious set (ground-truth labels by default, matching
///    the paper's evaluation);
/// 2. cluster the suspects into communities (§IV-A), rebuild the
///    consensus excluding them (robust refinement), and compute the
///    Eq. 5 weights against the refined consensus.
///
/// The two-pass refinement is what prevents large collusive communities
/// from dragging the crowd consensus toward their own biased reviews and
/// thereby laundering their accuracy term.
pub fn run_pipeline(trace: &TraceDataset, config: PipelineConfig) -> DetectionResult {
    let raw_consensus = ConsensusMap::build(trace);
    let estimates = config.detector.estimate(trace, &raw_consensus);
    let suspected: Vec<ReviewerId> = match config.suspects {
        SuspectSource::GroundTruth => trace
            .reviewers()
            .iter()
            .filter(|r| r.class.is_malicious())
            .map(|r| r.id)
            .collect(),
        SuspectSource::Estimated { threshold } => estimates.suspected(threshold),
    };
    let collusion = cluster_collusive(trace, &suspected);

    let excluded = SuspectMask::new(trace.reviewers().len(), &suspected);
    let consensus = ConsensusMap::build_excluding(trace, &excluded);
    let weights =
        FeedbackWeights::compute(trace, &consensus, &estimates, &collusion, config.weights);

    DetectionResult {
        consensus,
        estimates,
        suspected,
        collusion,
        weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcc_trace::{SyntheticConfig, WorkerClass};
    use std::collections::BTreeSet;

    #[test]
    fn pipeline_produces_ordered_class_weights() {
        let trace = SyntheticConfig::small(61).generate();
        let result = run_pipeline(&trace, PipelineConfig::default());
        let mean = |class| {
            result
                .weights
                .mean_over(&trace.workers_of_class(class))
                .expect("class nonempty")
        };
        let honest = mean(WorkerClass::Honest);
        let ncm = mean(WorkerClass::NonCollusiveMalicious);
        let cm = mean(WorkerClass::CollusiveMalicious);
        assert!(honest > ncm, "honest {honest} <= ncm {ncm}");
        assert!(ncm > cm, "ncm {ncm} <= cm {cm}");
    }

    #[test]
    fn ground_truth_mode_recovers_campaigns_exactly() {
        let trace = SyntheticConfig::small(73).generate();
        let result = run_pipeline(&trace, PipelineConfig::default());
        assert_eq!(result.collusion.communities.len(), trace.campaigns().len());
        assert_eq!(
            result.collusion.collusive_worker_count(),
            trace.workers_of_class(WorkerClass::CollusiveMalicious).len()
        );
        assert_eq!(
            result.collusion.singletons.len(),
            trace
                .workers_of_class(WorkerClass::NonCollusiveMalicious)
                .len()
        );
    }

    #[test]
    fn refined_consensus_reduces_collusive_accuracy() {
        let trace = SyntheticConfig::small(67).generate();
        let raw = ConsensusMap::build(&trace);
        let result = run_pipeline(&trace, PipelineConfig::default());
        let ids = trace.workers_of_class(WorkerClass::CollusiveMalicious);
        let mean_dev = |cm: &ConsensusMap| {
            let devs: Vec<f64> = ids
                .iter()
                .filter_map(|&id| cm.accuracy_deviation(&trace, id))
                .collect();
            devs.iter().sum::<f64>() / devs.len() as f64
        };
        let before = mean_dev(&raw);
        let after = mean_dev(&result.consensus);
        assert!(
            after >= before,
            "refinement should expose collusive bias: {after} < {before}"
        );
    }

    #[test]
    fn estimated_mode_catches_most_non_collusive_malicious() {
        // The heuristic estimator (LOO deviation + extremity) should flag
        // most NCM workers, whose bias is exposed once their own review is
        // left out of the consensus.
        let trace = SyntheticConfig::small(73).generate();
        let result = run_pipeline(
            &trace,
            PipelineConfig {
                suspects: SuspectSource::Estimated { threshold: 0.5 },
                ..PipelineConfig::default()
            },
        );
        let suspected: BTreeSet<_> = result.suspected.iter().copied().collect();
        let ncm = trace.workers_of_class(WorkerClass::NonCollusiveMalicious);
        let recall =
            ncm.iter().filter(|id| suspected.contains(id)).count() as f64 / ncm.len() as f64;
        assert!(recall > 0.6, "ncm recall {recall} too low");
        // False-positive rate on honest workers stays moderate.
        let honest = trace.workers_of_class(WorkerClass::Honest);
        let fpr = honest.iter().filter(|id| suspected.contains(id)).count() as f64
            / honest.len() as f64;
        assert!(fpr < 0.35, "honest false-positive rate {fpr} too high");
    }
}
