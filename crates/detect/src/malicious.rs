use crate::consensus::WorkerTally;
use crate::ConsensusMap;
use dcc_trace::{ReviewerId, TraceDataset};

/// Estimated probability of maliciousness for every worker in a trace.
///
/// Index by [`ReviewerId::index`]; values are in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MaliciousEstimates {
    e_mal: Vec<f64>,
}

impl MaliciousEstimates {
    /// The estimate for one worker, or `None` if the id is unknown.
    pub fn e_mal(&self, worker: ReviewerId) -> Option<f64> {
        self.e_mal.get(worker.index()).copied()
    }

    /// All estimates, indexed by worker.
    pub fn as_slice(&self) -> &[f64] {
        &self.e_mal
    }

    /// Workers whose estimate is at least `threshold` — the suspected
    /// malicious set fed to the §IV-A clustering.
    pub fn suspected(&self, threshold: f64) -> Vec<ReviewerId> {
        self.e_mal
            .iter()
            .enumerate()
            .filter(|(_, &p)| p >= threshold)
            .map(|(i, _)| ReviewerId(i))
            .collect()
    }
}

/// Heuristic estimator of the probability that a worker is malicious —
/// the stand-in for the machine-learned detectors the paper cites
/// (\[14\], \[15\]): the contract algorithm only needs an `e_mal ∈ [0,1]`
/// per worker, however produced.
///
/// The estimate combines two signals through a logistic squash:
///
/// - **accuracy deviation**: mean `|l_i − l̄|` against the consensus
///   (malicious reviews are systematically biased), and
/// - **rating extremity**: the fraction of a worker's ratings at the
///   5-star ceiling, 4.75 stars or more (paid campaigns push maximal
///   ratings).
///
/// # Example
///
/// ```
/// use dcc_detect::{ConsensusMap, MaliciousDetector};
/// use dcc_trace::SyntheticConfig;
///
/// let trace = SyntheticConfig::small(2).generate();
/// let consensus = ConsensusMap::build(&trace);
/// let est = MaliciousDetector::default().estimate(&trace, &consensus);
/// assert!(est.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaliciousDetector {
    /// Deviation (in stars) at which the deviation signal alone yields
    /// `e_mal = 0.5`.
    pub deviation_midpoint: f64,
    /// Logistic steepness of the deviation signal.
    pub deviation_gain: f64,
    /// Weight of the rating-extremity signal relative to deviation.
    pub extremity_weight: f64,
}

impl Default for MaliciousDetector {
    fn default() -> Self {
        MaliciousDetector {
            deviation_midpoint: 1.0,
            deviation_gain: 3.0,
            extremity_weight: 0.5,
        }
    }
}

impl MaliciousDetector {
    /// Estimates `e_mal` for every worker, in one pass over the trace's
    /// reviews.
    ///
    /// Workers without any consensus-covered review receive `0.5`
    /// (maximally uncertain).
    pub fn estimate(&self, trace: &TraceDataset, consensus: &ConsensusMap) -> MaliciousEstimates {
        let e_mal = consensus
            .worker_tallies(trace)
            .iter()
            .map(|tally| self.e_mal(tally))
            .collect();
        MaliciousEstimates { e_mal }
    }

    fn e_mal(&self, tally: &WorkerTally) -> f64 {
        // Leave-one-out deviation stops a worker's own review from
        // masking its bias on thin products.
        let Some(dev) = tally.loo_deviation() else {
            return 0.5;
        };
        let z = self.deviation_gain * (dev - self.deviation_midpoint)
            + self.extremity_weight * self.deviation_gain * (tally.extreme_share() - 0.5);
        logistic(z)
    }

    /// Classification accuracy of thresholding the estimates at
    /// `threshold` against the trace's ground-truth labels. Used by tests
    /// and the experiment harness to report detector quality.
    pub fn label_accuracy(
        &self,
        trace: &TraceDataset,
        estimates: &MaliciousEstimates,
        threshold: f64,
    ) -> f64 {
        let mut correct = 0usize;
        for r in trace.reviewers() {
            let predicted = estimates.e_mal(r.id).unwrap_or(0.5) >= threshold;
            if predicted == r.class.is_malicious() {
                correct += 1;
            }
        }
        correct as f64 / trace.reviewers().len().max(1) as f64
    }
}

fn logistic(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcc_trace::{SyntheticConfig, WorkerClass};

    fn setup() -> (dcc_trace::TraceDataset, MaliciousEstimates) {
        let trace = SyntheticConfig::small(19).generate();
        let consensus = ConsensusMap::build(&trace);
        let est = MaliciousDetector::default().estimate(&trace, &consensus);
        (trace, est)
    }

    #[test]
    fn estimates_are_probabilities() {
        let (_, est) = setup();
        assert!(est.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn malicious_scored_higher_on_average() {
        let (trace, est) = setup();
        let mean_for = |class: WorkerClass| {
            let ids = trace.workers_of_class(class);
            ids.iter()
                .map(|id| est.e_mal(*id).unwrap())
                .sum::<f64>()
                / ids.len() as f64
        };
        let honest = mean_for(WorkerClass::Honest);
        let ncm = mean_for(WorkerClass::NonCollusiveMalicious);
        let cm = mean_for(WorkerClass::CollusiveMalicious);
        assert!(ncm > honest + 0.2, "ncm {ncm} vs honest {honest}");
        assert!(cm > honest + 0.2, "cm {cm} vs honest {honest}");
    }

    #[test]
    fn detector_beats_chance_clearly() {
        let (trace, est) = setup();
        let acc = MaliciousDetector::default().label_accuracy(&trace, &est, 0.5);
        assert!(acc > 0.75, "accuracy {acc} too low");
    }

    #[test]
    fn suspected_set_thresholds() {
        let (_, est) = setup();
        let all = est.suspected(0.0);
        let none = est.suspected(1.01);
        assert_eq!(all.len(), est.as_slice().len());
        assert!(none.is_empty());
        let mid = est.suspected(0.5);
        assert!(mid.len() < all.len());
    }

    #[test]
    fn unknown_worker_is_none() {
        let (_, est) = setup();
        assert_eq!(est.e_mal(ReviewerId(usize::MAX - 1)), None);
    }
}
