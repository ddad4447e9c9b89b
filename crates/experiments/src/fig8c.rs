//! E7 — **Fig. 8(c)**: the requester's utility under our dynamic
//! contract versus the baseline that excludes all suspected malicious
//! workers (and a fixed-payment reference), over the μ sweep.
//!
//! The paper's claim: our design dominates exclusion because it still
//! extracts value from malicious workers whose reviews are biased but
//! within an acceptable accuracy range, while near-worthless feedback is
//! automatically devalued by Eq. 5.

use crate::baselines_ext::strategy_runs;
use crate::render::fmt_f;
use crate::{ExperimentScale, TextTable};
use dcc_core::CoreError;
use dcc_trace::TraceDataset;

/// One μ row of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8cRow {
    /// μ used for design and accounting.
    pub mu: f64,
    /// Mean per-round requester utility under our dynamic contract.
    pub ours: f64,
    /// … under the exclude-all-malicious baseline.
    pub exclude: f64,
    /// … under a fixed-payment contract with the same mean spend as ours.
    pub fixed: f64,
}

/// The full Fig. 8(c) result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8cResult {
    /// One row per μ.
    pub rows: Vec<Fig8cRow>,
}

impl Fig8cResult {
    /// Renders the comparison table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "mu".into(),
            "dynamic (ours)".into(),
            "exclude malicious".into(),
            "fixed payment".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{:.1}", r.mu),
                fmt_f(r.ours),
                fmt_f(r.exclude),
                fmt_f(r.fixed),
            ]);
        }
        t
    }
}

/// Runs E7 on an existing trace: the dynamic, exclusion and fixed-payment
/// columns of E12's baseline ladder.
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn run_on(trace: &TraceDataset, mus: &[f64]) -> Result<Fig8cResult, CoreError> {
    let rows = strategy_runs(trace, mus)?
        .into_iter()
        .map(|run| Fig8cRow {
            mu: run.mu,
            ours: run.dynamic,
            exclude: run.exclude,
            fixed: run.fixed,
        })
        .collect();
    Ok(Fig8cResult { rows })
}

/// Runs E7 at the given scale and seed with the paper's μ values.
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<Fig8cResult, CoreError> {
    run_on(&scale.generate(seed), &crate::fig8b::DEFAULT_MUS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_dominates_exclusion_at_every_mu() {
        let result = run(ExperimentScale::Small, crate::DEFAULT_SEED).unwrap();
        assert_eq!(result.rows.len(), 3);
        for r in &result.rows {
            assert!(
                r.ours >= r.exclude,
                "mu={}: ours {} below exclusion {}",
                r.mu,
                r.ours,
                r.exclude
            );
            assert!(
                r.ours >= r.fixed,
                "mu={}: ours {} below fixed payment {}",
                r.mu,
                r.ours,
                r.fixed
            );
        }
    }

    #[test]
    fn table_renders() {
        let result = run(ExperimentScale::Small, 17).unwrap();
        let s = result.table().to_string();
        assert!(s.contains("exclude malicious"));
    }
}
