use crate::consensus::WorkerTally;
use crate::{CollusionReport, ConsensusMap, MaliciousEstimates};
use dcc_trace::{ReviewerId, TraceDataset};

/// Coefficients of the feedback-weight formula (Eq. 5):
/// `w_i = ρ / |l_i − l̄| − κ·e_mal − γ·A_i`.
///
/// The defaults are the paper's §V setting: `κ = γ = 0.1`, with `ρ = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightParams {
    /// Accuracy coefficient ρ.
    pub rho: f64,
    /// Malicious-probability penalty κ.
    pub kappa: f64,
    /// Partner-count penalty γ.
    pub gamma: f64,
    /// Floor applied to the accuracy deviation so perfectly accurate
    /// workers get a large finite weight instead of a division by zero.
    pub min_deviation: f64,
    /// Cap applied to the accuracy term `ρ/|l_i − l̄|` so the weight stays
    /// bounded.
    pub max_accuracy_term: f64,
}

impl Default for WeightParams {
    fn default() -> Self {
        WeightParams {
            rho: 1.0,
            kappa: 0.1,
            gamma: 0.1,
            min_deviation: 0.25,
            max_accuracy_term: 4.0,
        }
    }
}

/// Per-worker feedback weights `w_i` (Eq. 5), indexed by
/// [`ReviewerId::index`].
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackWeights {
    weights: Vec<f64>,
}

impl FeedbackWeights {
    /// Computes Eq. 5 for every worker in the trace, in one pass over the
    /// trace's reviews.
    ///
    /// - the accuracy term uses the worker's mean *leave-one-out*
    ///   deviation from the consensus — a worker's own review must not
    ///   vouch for itself on thinly-reviewed products — floored by
    ///   [`WeightParams::min_deviation`] and capped by
    ///   [`WeightParams::max_accuracy_term`]. Workers with no LOO-covered
    ///   review fall back to the plain deviation, then to a neutral
    ///   deviation of 1 star,
    /// - `e_mal` comes from `estimates`,
    /// - `A_i` comes from `collusion` (0 for workers outside the report).
    pub fn compute(
        trace: &TraceDataset,
        consensus: &ConsensusMap,
        estimates: &MaliciousEstimates,
        collusion: &CollusionReport,
        params: WeightParams,
    ) -> Self {
        let tallies = consensus.worker_tallies(trace);
        let partners = collusion.partner_table(tallies.len());
        let weights = tallies
            .iter()
            .zip(partners)
            .enumerate()
            .map(|(i, (tally, a_i))| eq5(tally, estimates.e_mal(ReviewerId(i)), a_i, params))
            .collect();
        FeedbackWeights { weights }
    }

    /// The weight for one worker, or `None` for an unknown id.
    pub fn weight(&self, worker: ReviewerId) -> Option<f64> {
        self.weights.get(worker.index()).copied()
    }

    /// Overrides one worker's weight in place, returning `false` for an
    /// unknown id. Any value is accepted, including non-finite ones —
    /// fault-injection harnesses use this to model corrupted detection
    /// output and exercise downstream degraded-mode handling.
    pub fn set_weight(&mut self, worker: ReviewerId, weight: f64) -> bool {
        match self.weights.get_mut(worker.index()) {
            Some(w) => {
                *w = weight;
                true
            }
            None => false,
        }
    }

    /// All weights, indexed by worker.
    pub fn as_slice(&self) -> &[f64] {
        &self.weights
    }

    /// Mean weight over the known ids among `workers` (used for
    /// per-class reporting); `None` when no id is known.
    pub fn mean_over(&self, workers: &[ReviewerId]) -> Option<f64> {
        let mut known = 0usize;
        let total: f64 = workers
            .iter()
            .filter_map(|&w| self.weight(w))
            .inspect(|_| known += 1)
            .sum();
        (known > 0).then(|| total / known as f64)
    }
}

/// `w_i = ρ/|l_i − l̄| − κ·e_mal − γ·A_i` from a worker's tally.
fn eq5(tally: &WorkerTally, e_mal: Option<f64>, a_i: usize, params: WeightParams) -> f64 {
    let deviation = tally
        .loo_deviation()
        .or_else(|| tally.deviation())
        .unwrap_or(1.0)
        .max(params.min_deviation);
    let accuracy_term = (params.rho / deviation).min(params.max_accuracy_term);
    let e_mal = e_mal.unwrap_or(0.5);
    accuracy_term - params.kappa * e_mal - params.gamma * a_i as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster_collusive, MaliciousDetector};
    use dcc_trace::{SyntheticConfig, WorkerClass};

    fn pipeline() -> (dcc_trace::TraceDataset, FeedbackWeights) {
        // Two-pass flow: raw consensus for estimates, refined
        // (suspect-excluded) consensus for the weights.
        let trace = SyntheticConfig::small(61).generate();
        let raw = ConsensusMap::build(&trace);
        let estimates = MaliciousDetector::default().estimate(&trace, &raw);
        let mut suspected = trace.workers_of_class(WorkerClass::NonCollusiveMalicious);
        suspected.extend(trace.workers_of_class(WorkerClass::CollusiveMalicious));
        let collusion = cluster_collusive(&trace, &suspected);
        let excluded = crate::SuspectMask::new(trace.reviewers().len(), &suspected);
        let consensus = ConsensusMap::build_excluding(&trace, &excluded);
        let weights = FeedbackWeights::compute(
            &trace,
            &consensus,
            &estimates,
            &collusion,
            WeightParams::default(),
        );
        (trace, weights)
    }

    #[test]
    fn weights_cover_every_worker_and_are_bounded() {
        let (trace, weights) = pipeline();
        assert_eq!(weights.as_slice().len(), trace.reviewers().len());
        let p = WeightParams::default();
        for &w in weights.as_slice() {
            assert!(w <= p.max_accuracy_term);
            assert!(w.is_finite());
        }
    }

    #[test]
    fn class_ordering_honest_ncm_cm() {
        // The key premise behind Fig. 8(b): honest weights exceed
        // non-collusive malicious weights, which exceed collusive ones.
        let (trace, weights) = pipeline();
        let mean = |class| {
            weights
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
    fn unknown_worker_weight_is_none() {
        let (_, weights) = pipeline();
        assert_eq!(weights.weight(ReviewerId(usize::MAX - 1)), None);
        assert_eq!(weights.mean_over(&[]), None);
    }

    #[test]
    fn mean_over_skips_unknown_ids() {
        let weights = FeedbackWeights {
            weights: vec![2.0, 1.0],
        };
        let unknown = ReviewerId(7);
        assert_eq!(weights.mean_over(&[ReviewerId(0), unknown]), Some(2.0));
        assert_eq!(
            weights.mean_over(&[unknown, ReviewerId(1), ReviewerId(0)]),
            Some(1.5)
        );
        assert_eq!(weights.mean_over(&[unknown]), None);
    }

    #[test]
    fn partner_penalty_reduces_weight() {
        // Two identical parameter sets except gamma: larger gamma must not
        // increase any collusive worker's weight.
        let trace = SyntheticConfig::small(71).generate();
        let consensus = ConsensusMap::build(&trace);
        let estimates = MaliciousDetector::default().estimate(&trace, &consensus);
        let suspected = trace.workers_of_class(WorkerClass::CollusiveMalicious);
        let collusion = cluster_collusive(&trace, &suspected);
        let base = WeightParams::default();
        let harsh = WeightParams {
            gamma: 0.5,
            ..base
        };
        let w_base =
            FeedbackWeights::compute(&trace, &consensus, &estimates, &collusion, base);
        let w_harsh =
            FeedbackWeights::compute(&trace, &consensus, &estimates, &collusion, harsh);
        for id in trace.workers_of_class(WorkerClass::CollusiveMalicious) {
            assert!(w_harsh.weight(id).unwrap() < w_base.weight(id).unwrap());
        }
        // Honest workers (no partners) are untouched by gamma.
        for id in trace.workers_of_class(WorkerClass::Honest).iter().take(20) {
            assert_eq!(w_harsh.weight(*id), w_base.weight(*id));
        }
    }
}
