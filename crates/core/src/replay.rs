use crate::{ContractDesign, CoreError, ModelParams, RoundRecord};
use dcc_detect::DetectionResult;
use dcc_trace::{ReviewerId, TraceDataset};
use std::collections::BTreeMap;

/// Outcome of a trace-driven replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Per-round accounting.
    pub rounds: Vec<RoundRecord>,
    /// Total compensation each worker earned (by dense reviewer index).
    pub worker_compensation: Vec<f64>,
    /// Mean per-round requester utility.
    pub mean_round_utility: f64,
    /// Number of (worker, round) feedback observations replayed.
    pub observations: usize,
}

/// Replays a contract design against the *recorded* behaviour of a trace
/// rather than model best responses: in each round `t`, a worker's
/// feedback is the mean upvotes of the reviews it actually wrote in that
/// round, and its round-`t+1` compensation is its contract evaluated at
/// that feedback (Eq. 1's one-round payment lag).
///
/// This is the evaluation mode one would run on the paper's real Amazon
/// trace — no behavioural model in the loop, only the measured feedback
/// sequence and the designed payment rule. Workers without reviews in a
/// round produce no feedback and earn no new pay that round (their
/// pending payment carries to their next active round).
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] if the trace has no reviews, or
/// if its last round index is not below its review count: the replay
/// emits one record per round, so this bounds its output by its input.
pub fn replay_trace(
    trace: &TraceDataset,
    detection: &DetectionResult,
    design: &ContractDesign,
    params: &ModelParams,
) -> Result<ReplayOutcome, CoreError> {
    let reviews = trace.reviews();
    let last_round = reviews
        .iter()
        .map(|r| r.round)
        .max()
        .ok_or_else(|| CoreError::InvalidInput("trace has no reviews".into()))?;
    if last_round >= reviews.len() {
        return Err(CoreError::InvalidInput(format!(
            "trace's last round index {last_round} is not below its review count {}",
            reviews.len()
        )));
    }

    // Per-(round, worker) mean feedback from the recorded reviews; only
    // rounds with reviews get an entry.
    let mut per_round: BTreeMap<usize, BTreeMap<ReviewerId, (f64, usize)>> = BTreeMap::new();
    for review in reviews {
        let slot = per_round
            .entry(review.round)
            .or_default()
            .entry(review.reviewer)
            .or_insert((0.0, 0));
        slot.0 += trace.feedback_of(review);
        slot.1 += 1;
    }

    let n_workers = trace.reviewers().len();
    let mut worker_compensation = vec![0.0; n_workers];
    // Pending payment owed to each worker at its next active round
    // (starts at the contract's base payment for feedback 0).
    let mut pending: Vec<Option<f64>> = vec![None; n_workers];
    let mut observations = 0usize;

    let quiet = BTreeMap::new();
    let mut rounds = Vec::with_capacity(last_round + 1);
    for t in 0..=last_round {
        let activity = per_round.get(&t).unwrap_or(&quiet);
        let mut benefit = 0.0;
        let mut payment = 0.0;
        for (&worker, &(sum, count)) in activity {
            let Some(agent) = design.for_worker(worker) else {
                continue;
            };
            let feedback = sum / count as f64;
            let weight = detection.weights.weight(worker).unwrap_or(0.0);
            benefit += weight * feedback;
            observations += 1;

            let owed = pending[worker.index()]
                .unwrap_or_else(|| agent.contract.compensation(0.0));
            payment += owed;
            worker_compensation[worker.index()] += owed;
            pending[worker.index()] = Some(agent.contract.compensation(feedback));
        }
        rounds.push(RoundRecord {
            round: t,
            benefit,
            payment,
            requester_utility: benefit - params.mu * payment,
        });
    }

    let total: f64 = rounds.iter().map(|r| r.requester_utility).sum();
    Ok(ReplayOutcome {
        mean_round_utility: total / rounds.len().max(1) as f64,
        rounds,
        worker_compensation,
        observations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{design_contracts, DesignConfig};
    use dcc_detect::{run_pipeline, PipelineConfig};
    use dcc_trace::{SyntheticConfig, WorkerClass};

    fn setup() -> (TraceDataset, DetectionResult, ContractDesign, ModelParams) {
        let mut cfg = SyntheticConfig::small(404);
        cfg.n_honest = 150;
        cfg.n_products = 600;
        let trace = cfg.generate();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let config = DesignConfig::default();
        let design = design_contracts(&trace, &detection, &config).unwrap();
        (trace, detection, design, config.params)
    }

    #[test]
    fn replay_covers_all_recorded_activity() {
        let (trace, detection, design, params) = setup();
        let outcome = replay_trace(&trace, &detection, &design, &params).unwrap();
        assert!(!outcome.rounds.is_empty());
        // Each review contributes to exactly one (worker, round) cell;
        // observations counts cells, so it is bounded by reviews and at
        // least the number of active workers.
        assert!(outcome.observations <= trace.reviews().len());
        assert!(outcome.observations >= design.agents.len());
        assert!(outcome.mean_round_utility.is_finite());
    }

    #[test]
    fn payments_are_lagged_and_nonnegative() {
        let (trace, detection, design, params) = setup();
        let outcome = replay_trace(&trace, &detection, &design, &params).unwrap();
        for r in &outcome.rounds {
            assert!(r.payment >= 0.0);
            assert!(r.benefit.is_finite());
        }
        assert!(outcome.worker_compensation.iter().all(|&c| c >= 0.0));
        // Honest workers collectively out-earn collusive ones in replay
        // too (their contracts are steeper and their feedback higher).
        let class_total = |class: WorkerClass| {
            trace
                .workers_of_class(class)
                .iter()
                .map(|id| outcome.worker_compensation[id.index()])
                .sum::<f64>()
                / trace.workers_of_class(class).len().max(1) as f64
        };
        assert!(class_total(WorkerClass::Honest) > class_total(WorkerClass::CollusiveMalicious));
    }

    #[test]
    fn empty_trace_rejected() {
        let (trace, detection, design, params) = setup();
        let empty = TraceDataset::new(
            trace.products().to_vec(),
            trace.reviewers().to_vec(),
            vec![],
            vec![],
        )
        .unwrap();
        assert!(replay_trace(&empty, &detection, &design, &params).is_err());
    }

    #[test]
    fn round_index_past_the_review_count_is_rejected() {
        let (trace, detection, design, params) = setup();
        for round in [trace.reviews().len(), 4_000_000_000, usize::MAX] {
            let mut reviews = trace.reviews().to_vec();
            reviews[0].round = round;
            let bad = TraceDataset::new(
                trace.products().to_vec(),
                trace.reviewers().to_vec(),
                reviews,
                trace.campaigns().to_vec(),
            )
            .unwrap();
            let err = replay_trace(&bad, &detection, &design, &params).unwrap_err();
            assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");
            assert!(err.to_string().contains(&round.to_string()), "{err}");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let (trace, detection, design, params) = setup();
        let a = replay_trace(&trace, &detection, &design, &params).unwrap();
        let b = replay_trace(&trace, &detection, &design, &params).unwrap();
        assert_eq!(a, b);
    }
}
