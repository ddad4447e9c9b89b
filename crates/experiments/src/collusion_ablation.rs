//! E11 (extension) — **the value of collusion modeling**: the paper's
//! contribution 1 claims that accounting for worker *interactions*
//! (collusive communities as meta-workers with partner-penalized
//! weights, §III/Eq. 5) matters. This ablation designs contracts twice —
//! collusion-aware vs collusion-blind (every suspect treated as an
//! independent malicious worker, γ-penalty never applied) — and
//! evaluates both under the *same* reference weights.

use crate::render::fmt_f;
use crate::{current_metrics, ExperimentScale, TextTable};
use dcc_core::{
    assemble_design, prepare_design, solve_subproblems, BaselineStrategy, ContractDesign,
    CoreError, DesignConfig, DesignPrep, ModelParams, Simulation, SimulationConfig, StrategyKind,
};
use dcc_detect::{
    run_pipeline, CollusionReport, DetectionResult, FeedbackWeights, PipelineConfig, WeightParams,
};
use dcc_engine::PoolSize;
use dcc_trace::{ReviewerId, TraceDataset};
use std::collections::BTreeSet;

/// One μ row of the ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollusionAblationRow {
    /// μ used for both designs.
    pub mu: f64,
    /// Mean per-round utility of the collusion-aware design, under the
    /// reference weights.
    pub aware: f64,
    /// Mean per-round utility of the collusion-blind design, under the
    /// same reference weights.
    pub blind: f64,
    /// Total pay to collusive workers under each design (aware, blind).
    pub cm_pay_aware: f64,
    /// See [`CollusionAblationRow::cm_pay_aware`].
    pub cm_pay_blind: f64,
}

/// The ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct CollusionAblationResult {
    /// One row per μ.
    pub rows: Vec<CollusionAblationRow>,
}

impl CollusionAblationResult {
    /// Renders the comparison.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "mu".into(),
            "collusion-aware".into(),
            "collusion-blind".into(),
            "cm pay (aware)".into(),
            "cm pay (blind)".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{:.1}", r.mu),
                fmt_f(r.aware),
                fmt_f(r.blind),
                fmt_f(r.cm_pay_aware),
                fmt_f(r.cm_pay_blind),
            ]);
        }
        t
    }
}

/// A collusion-blind variant of a detection result: same estimates and
/// consensus, but every suspect is a singleton (no communities, so no
/// γ-penalty and no meta-worker aggregation) — the ablation's
/// counterfactual, while fitting, solving, construction and simulation
/// stay the same.
fn blind_detection(trace: &TraceDataset, aware: &DetectionResult) -> DetectionResult {
    let blind_collusion = CollusionReport {
        communities: Vec::new(),
        singletons: aware.suspected.clone(),
    };
    let weights = FeedbackWeights::compute(
        trace,
        &aware.consensus,
        &aware.estimates,
        &blind_collusion,
        WeightParams::default(),
    );
    DetectionResult {
        consensus: aware.consensus.clone(),
        estimates: aware.estimates.clone(),
        suspected: aware.suspected.clone(),
        collusion: blind_collusion,
        weights,
    }
}

/// Evaluates a design under the reference (collusion-aware) weights: the
/// simulation agents keep their contracts but their *benefit* weights are
/// replaced by the reference per-worker weights, so both designs are
/// judged against the same estimate of what the feedback is truly worth.
fn evaluate(
    design: &dcc_core::ContractDesign,
    reference: &DetectionResult,
    params: &ModelParams,
    suspected: &BTreeSet<ReviewerId>,
    trace: &TraceDataset,
) -> Result<(f64, f64), CoreError> {
    let mut agents = BaselineStrategy::new(StrategyKind::DynamicContract).assemble(
        design,
        params.omega,
        suspected,
        trace,
    )?;
    // Override each agent's weight with the mean reference weight of its
    // members (solutions and agents share ordering).
    for (agent, sol) in agents.iter_mut().zip(&design.solution.solutions) {
        let weights: Vec<f64> = sol
            .members
            .iter()
            .filter_map(|&m| reference.weights.weight(ReviewerId(m)))
            .collect();
        if !weights.is_empty() {
            agent.weight = weights.iter().sum::<f64>() / weights.len() as f64;
        }
    }
    let outcome = Simulation::new(*params, SimulationConfig::default()).run(&agents)?;

    // Pay flowing to ground-truth collusive workers.
    let cm: BTreeSet<ReviewerId> = design
        .agents
        .iter()
        .filter(|a| a.partners > 0)
        .map(|a| a.worker)
        .collect();
    let cm_pay: f64 = design
        .agents
        .iter()
        .filter(|a| cm.contains(&a.worker))
        .map(|a| a.compensation)
        .sum::<f64>()
        + 0.0; // normalize -0.0 from zero-contract shares
    Ok((outcome.mean_round_utility, cm_pay))
}

/// The design under `config` over a fitted decomposition.
fn design_at(
    detection: &DetectionResult,
    prep: &DesignPrep,
    config: &DesignConfig,
) -> Result<ContractDesign, CoreError> {
    let (solution, degradation) = solve_subproblems(
        &prep.subproblems,
        &config.params,
        PoolSize::Auto.resolve(),
        config.failure_policy,
        &current_metrics(),
    )?;
    Ok(assemble_design(detection, prep, solution, degradation))
}

/// Runs E11 on an existing trace.
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn run_on(trace: &TraceDataset, mus: &[f64]) -> Result<CollusionAblationResult, CoreError> {
    // One detection and its blind counterfactual, each fitted once; the
    // μ sweep only re-solves.
    let base = DesignConfig::default();
    let aware = run_pipeline(trace, PipelineConfig::default());
    let blind = blind_detection(trace, &aware);
    let aware_prep = prepare_design(trace, &aware, &base)?;
    let blind_prep = prepare_design(trace, &blind, &base)?;
    let suspected: BTreeSet<ReviewerId> = aware.suspected.iter().copied().collect();

    let mut rows = Vec::with_capacity(mus.len());
    for &mu in mus {
        let mut config = base;
        config.params.mu = mu;
        let (aware_u, cm_pay_aware) = evaluate(
            &design_at(&aware, &aware_prep, &config)?,
            &aware,
            &config.params,
            &suspected,
            trace,
        )?;
        let (blind_u, cm_pay_blind) = evaluate(
            &design_at(&blind, &blind_prep, &config)?,
            &aware,
            &config.params,
            &suspected,
            trace,
        )?;
        rows.push(CollusionAblationRow {
            mu,
            aware: aware_u,
            blind: blind_u,
            cm_pay_aware,
            cm_pay_blind,
        });
    }
    Ok(CollusionAblationResult { rows })
}

/// Runs E11 at the given scale and seed with the Fig. 8 μ values.
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<CollusionAblationResult, CoreError> {
    run_on(&scale.generate(seed), &crate::fig8b::DEFAULT_MUS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collusion_awareness_never_hurts() {
        let result = run(ExperimentScale::Small, crate::DEFAULT_SEED).unwrap();
        assert_eq!(result.rows.len(), 3);
        for r in &result.rows {
            assert!(
                r.aware >= r.blind - 1e-6,
                "mu={}: aware {} below blind {}",
                r.mu,
                r.aware,
                r.blind
            );
            // Ignoring collusion overpays collusive workers.
            assert!(
                r.cm_pay_blind >= r.cm_pay_aware,
                "mu={}: blind cm pay {} below aware {}",
                r.mu,
                r.cm_pay_blind,
                r.cm_pay_aware
            );
        }
    }

    #[test]
    fn table_renders() {
        let result = run(ExperimentScale::Small, 3).unwrap();
        assert!(result.table().to_string().contains("collusion-blind"));
    }
}
