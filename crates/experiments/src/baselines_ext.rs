//! E12 (extension) — **baseline ladder**: the dynamic contract against
//! the full spectrum of §VI-style pricing baselines on the same
//! population — exclusion, fixed payment, and a learned linear contract
//! (ε-greedy bandit over slopes, the strongest model-free competitor).

use crate::render::fmt_f;
use crate::{batch_error, batch_runner, ExperimentScale, TextTable};
use dcc_batch::{Scenario, ScenarioGrid, ScenarioRecord};
use dcc_core::{
    AgentSpec, BaselineStrategy, CoreError, LinearPricingBandit, ModelParams, SimulationConfig,
    StrategyKind,
};
use dcc_trace::TraceDataset;
use std::collections::BTreeSet;

/// The comparison at one μ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineLadderRow {
    /// μ used throughout.
    pub mu: f64,
    /// Mean per-round utility of the §IV-C dynamic contracts.
    pub dynamic: f64,
    /// … of the learned linear contract (post-learning steady state).
    pub learned_linear: f64,
    /// … of the exclude-all-malicious baseline.
    pub exclude: f64,
    /// … of a fixed payment matched to the dynamic design's spend.
    pub fixed: f64,
    /// The slope the bandit converged to.
    pub learned_slope: f64,
}

/// The E12 result.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineLadderResult {
    /// One row per μ.
    pub rows: Vec<BaselineLadderRow>,
}

impl BaselineLadderResult {
    /// Renders the ladder.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "mu".into(),
            "dynamic (ours)".into(),
            "learned linear".into(),
            "exclude".into(),
            "fixed".into(),
            "learned slope".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{:.1}", r.mu),
                fmt_f(r.dynamic),
                fmt_f(r.learned_linear),
                fmt_f(r.exclude),
                fmt_f(r.fixed),
                format!("{:.2}", r.learned_slope),
            ]);
        }
        t
    }
}

/// One μ of the strategy comparison that Fig. 8(c) reports and E12
/// extends with its learned linear contract.
pub(crate) struct StrategyRuns {
    /// μ used throughout.
    pub(crate) mu: f64,
    /// Mean per-round utility of the §IV-C dynamic contracts.
    pub(crate) dynamic: f64,
    /// … of the exclude-all-malicious baseline.
    pub(crate) exclude: f64,
    /// … of a fixed payment matched to the dynamic design's spend per
    /// in-system agent.
    pub(crate) fixed: f64,
    /// The requester parameters at this μ.
    pub(crate) params: ModelParams,
    /// The dynamic design's simulated agents.
    pub(crate) agents: Vec<AgentSpec>,
}

/// Simulates the dynamic contracts, the exclusion baseline and the
/// matched fixed payment at each μ.
///
/// # Errors
///
/// Propagates design and simulation failures.
pub(crate) fn strategy_runs(
    trace: &TraceDataset,
    mus: &[f64],
) -> Result<Vec<StrategyRuns>, CoreError> {
    // Two batch passes over one shared memo: detection and the ψ-fits
    // run once for the whole comparison. The first pass sweeps
    // μ × {dynamic, exclude}; the fixed-payment amount depends on each
    // μ's dynamic design, so those scenarios are built afterwards and
    // run as an explicit list (warm memo: all cache hits).
    let runner = batch_runner();
    let mut grid = ScenarioGrid::for_trace(trace.clone(), mus);
    grid.strategies = vec![StrategyKind::DynamicContract, StrategyKind::ExcludeMalicious];
    grid.sim = Some(SimulationConfig::default());
    let report = runner.run(&grid).map_err(batch_error)?;

    let mut partial = Vec::with_capacity(mus.len());
    let mut fixed_scenarios = Vec::with_capacity(mus.len());
    for (i, pair) in report.records.chunks(2).enumerate() {
        let [dynamic_rec, exclude_rec] = pair else {
            return Err(CoreError::InvalidInput(
                "batch report lost a ladder scenario".into(),
            ));
        };
        let mu = dynamic_rec.scenario.mu;
        let outcome = scenario_outcome(dynamic_rec)?;
        let design = &outcome.design;
        let mut params = grid.design.params;
        params.mu = mu;
        let suspected: BTreeSet<_> = outcome.detection.suspected.iter().copied().collect();
        let agents = BaselineStrategy::new(StrategyKind::DynamicContract)
            .assemble(design, params.omega, &suspected, trace)?;

        let in_system = agents.iter().filter(|a| a.in_system).count().max(1);
        let spend: f64 = design.agents.iter().map(|a| a.compensation).sum();
        let amount = (spend / in_system as f64).max(0.0);

        partial.push((dynamic_rec, exclude_rec, params, agents));
        fixed_scenarios.push(Scenario {
            id: i,
            trace: 0,
            mu,
            budget_fraction: 1.0,
            strategy: StrategyKind::FixedPayment { amount },
        });
    }

    let fixed_report = runner
        .run_scenarios(&grid, &fixed_scenarios)
        .map_err(batch_error)?;
    partial
        .into_iter()
        .zip(&fixed_report.records)
        .map(|((dynamic_rec, exclude_rec, params, agents), fixed_rec)| {
            Ok(StrategyRuns {
                mu: params.mu,
                dynamic: sim_mean_utility(dynamic_rec)?,
                exclude: sim_mean_utility(exclude_rec)?,
                fixed: sim_mean_utility(fixed_rec)?,
                params,
                agents,
            })
        })
        .collect()
}

/// Runs E12 on an existing trace.
///
/// # Errors
///
/// Propagates design, simulation and bandit failures.
pub fn run_on(trace: &TraceDataset, mus: &[f64]) -> Result<BaselineLadderResult, CoreError> {
    let rows = strategy_runs(trace, mus)?
        .into_iter()
        .map(|run| {
            let bandit = LinearPricingBandit::default().run(&run.params, &run.agents)?;
            Ok(BaselineLadderRow {
                mu: run.mu,
                dynamic: run.dynamic,
                learned_linear: bandit.late_mean_utility,
                exclude: run.exclude,
                fixed: run.fixed,
                learned_slope: bandit.best_slope,
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(BaselineLadderResult { rows })
}

/// The successful outcome of one scenario record.
fn scenario_outcome(record: &ScenarioRecord) -> Result<&dcc_batch::ScenarioOutcome, CoreError> {
    record.require_outcome()
}

/// The mean per-round requester utility of one simulated scenario.
fn sim_mean_utility(record: &ScenarioRecord) -> Result<f64, CoreError> {
    scenario_outcome(record)?
        .sim
        .as_ref()
        .map(|sim| sim.mean_round_utility)
        .ok_or_else(|| CoreError::InvalidInput("ladder scenario ran design-only".into()))
}

/// Runs E12 at the given scale and seed with the Fig. 8 μ values.
///
/// # Errors
///
/// Propagates design, simulation and bandit failures.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<BaselineLadderResult, CoreError> {
    run_on(&scale.generate(seed), &crate::fig8b::DEFAULT_MUS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_tops_the_ladder() {
        let result = run(ExperimentScale::Small, crate::DEFAULT_SEED).unwrap();
        assert_eq!(result.rows.len(), 3);
        for r in &result.rows {
            assert!(
                r.dynamic >= r.learned_linear,
                "mu={}: dynamic {} below learned linear {}",
                r.mu,
                r.dynamic,
                r.learned_linear
            );
            assert!(r.dynamic >= r.exclude);
            assert!(r.dynamic >= r.fixed);
            // The learned linear contract is a real competitor: it should
            // clearly beat the fixed payment.
            assert!(
                r.learned_linear > r.fixed,
                "mu={}: learned linear {} not above fixed {}",
                r.mu,
                r.learned_linear,
                r.fixed
            );
        }
    }

    #[test]
    fn table_renders() {
        let result = run(ExperimentScale::Small, 9).unwrap();
        assert!(result.table().to_string().contains("learned linear"));
    }
}
