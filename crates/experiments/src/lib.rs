//! # dcc-experiments
//!
//! Runners that regenerate every table and figure of the paper's
//! evaluation (§V) plus the Fig. 6 bound analysis, on the synthetic trace
//! substrate, and the extensions E8–E15. Each runner returns a typed
//! result *and* renders the same rows/series the paper reports.
//! [`suite::ARTIFACTS`] registers all fifteen; `dcc experiment NAME|all`
//! runs them.
//!
//! | id | artifact | runner |
//! |----|----------|--------|
//! | E1 | Fig. 6 — utility vs Theorem 4.1 bounds over m | [`fig6::run`] |
//! | E2 | Table II — collusive community sizes | [`table2::run`] |
//! | E3 | Fig. 7 — class effort/feedback comparison | [`fig7::run`] |
//! | E4 | Table III — NoR of polynomial fits | [`table3::run`] |
//! | E5 | Fig. 8(a) — compensation vs lower bound | [`fig8a::run`] |
//! | E6 | Fig. 8(b) — compensation by class and μ | [`fig8b::run`] |
//! | E7 | Fig. 8(c) — ours vs exclusion baseline | [`fig8c::run`] |
//!
//! All runners are deterministic for a given [`ExperimentScale`] and seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive_ext;
pub mod adversarial;
pub mod baselines_ext;
pub mod budget_ext;
pub mod risk_ext;
pub mod collusion_ablation;
pub mod detection_quality;
pub mod fig6;
pub mod fig7;
pub mod fig8a;
pub mod fig8b;
pub mod fig8c;
pub mod sensitivity;
pub mod suite;
pub mod table2;
pub mod table3;

mod render;

pub use render::TextTable;

use dcc_core::CoreError;
use dcc_engine::{EngineConfig, EngineError, RoundContext};
use dcc_obs::Metrics;
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::sync::Mutex;

/// The process-wide metrics handle the runners publish through; `None`
/// until [`install_metrics`] is called, which reads as noop.
static METRICS: Mutex<Option<Metrics>> = Mutex::new(None);

/// Installs the metrics handle every subsequent experiment engine run
/// publishes through. `dcc experiment all --csv DIR` installs a
/// `JsonRecorder` before the suite and writes its document next to the
/// CSVs; the default is a noop recorder, which keeps the runners
/// overhead-free.
pub fn install_metrics(metrics: Metrics) {
    *METRICS.lock().unwrap_or_else(|e| e.into_inner()) = Some(metrics);
}

/// The currently installed metrics handle (noop unless one was
/// installed).
pub fn current_metrics() -> Metrics {
    METRICS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_default()
}

/// A fresh engine context over `trace` with the runners' shared
/// defaults (ground-truth detection, default design, automatic pool) —
/// the single place the `detect → fit → solve → construct` chain is
/// wired for every experiment.
pub(crate) fn engine_context(trace: &TraceDataset) -> RoundContext {
    let mut config = EngineConfig::for_trace(trace.clone());
    config.metrics = current_metrics();
    RoundContext::new(config)
}

/// Lowers an [`EngineError`] onto the runners' `CoreError` interface so
/// the public `run`/`run_on` signatures stay unchanged.
pub(crate) fn core_error(e: EngineError) -> CoreError {
    match e {
        EngineError::Core(c) => c,
        other => CoreError::InvalidInput(other.to_string()),
    }
}

/// A batch runner wired to the installed metrics handle — the batched
/// counterpart of [`engine_context`] for the sweep-shaped experiments
/// (Fig. 8(b), the budget curve, the baseline ladder).
pub(crate) fn batch_runner() -> dcc_batch::BatchRunner {
    dcc_batch::BatchRunner::with_options(dcc_batch::BatchOptions {
        metrics: current_metrics(),
        ..Default::default()
    })
}

/// Lowers a [`dcc_batch::BatchError`] onto the runners' `CoreError`
/// interface, mirroring [`core_error`].
pub(crate) fn batch_error(e: dcc_batch::BatchError) -> CoreError {
    CoreError::InvalidInput(e.to_string())
}

/// Workload scale for experiment runners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Hundreds of workers — seconds; used by tests and quick runs.
    Small,
    /// The paper's §V workload (19,686 reviewers, ≈118k reviews).
    Paper,
}

impl ExperimentScale {
    /// Parses `"small"` / `"paper"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(ExperimentScale::Small),
            "paper" => Some(ExperimentScale::Paper),
            _ => None,
        }
    }

    /// The trace generator configuration for this scale.
    pub fn trace_config(self, seed: u64) -> SyntheticConfig {
        match self {
            ExperimentScale::Small => {
                let mut cfg = SyntheticConfig::small(seed);
                // Enough honest workers for the Fig. 8(a) prolific filter
                // and enough communities for a stable Table II histogram.
                cfg.n_honest = 1_000;
                cfg.n_products = 2_000;
                cfg.n_cm_target = 120;
                cfg
            }
            ExperimentScale::Paper => SyntheticConfig::paper_scale(seed),
        }
    }

    /// Generates the trace for this scale.
    pub fn generate(self, seed: u64) -> TraceDataset {
        self.trace_config(seed).generate()
    }
}

/// The default experiment seed (shared so all artifacts come from the
/// same trace).
pub const DEFAULT_SEED: u64 = 42;

#[cfg(test)]
mod tests {
    use super::*;
    use dcc_obs::JsonRecorder;
    use std::sync::Arc;

    #[test]
    fn installed_metrics_reach_the_engine_context() {
        let mut cfg = SyntheticConfig::small(3);
        cfg.n_honest = 8;
        cfg.n_ncm = 2;
        cfg.n_cm_target = 2;
        cfg.n_products = 60;
        cfg.n_rounds = 2;
        let trace = cfg.generate();

        install_metrics(Metrics::new(Arc::new(JsonRecorder::new())));
        assert!(engine_context(&trace).config().metrics.enabled());
        install_metrics(Metrics::noop());
        assert!(!engine_context(&trace).config().metrics.enabled());
    }
}
