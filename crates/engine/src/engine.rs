use crate::context::RoundContext;
use crate::error::EngineError;
use crate::stages::{self, StageKind};
use dcc_obs::{names as obs_names, AttrValue};
use std::fmt;
#[allow(
    clippy::disallowed_types,
    reason = "stage durations are measured here and published through dcc-obs spans"
)]
use std::time::{Duration, Instant};

/// What happened to one stage during [`Engine::run_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRun {
    /// The stage.
    pub kind: StageKind,
    /// `true` when the context already held the stage's output and the
    /// stage was skipped.
    pub cached: bool,
    /// Wall-clock time spent (≈ 0 for cached stages).
    pub elapsed: Duration,
}

/// Per-stage execution report of one [`Engine::run_to`] call.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// One entry per stage visited, in execution order.
    pub stages: Vec<StageRun>,
}

impl EngineReport {
    /// Whether `kind` was served from cache in this run.
    pub fn was_cached(&self, kind: StageKind) -> bool {
        self.stages
            .iter()
            .any(|run| run.kind == kind && run.cached)
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for run in &self.stages {
            if run.cached {
                writeln!(f, "  {:<20} cached", run.kind.name())?;
            } else {
                writeln!(f, "  {:<20} {:>9.3?}", run.kind.name(), run.elapsed)?;
            }
        }
        Ok(())
    }
}

/// The staged pipeline driver: the six stages run in [`StageKind`]
/// order over a [`RoundContext`], skipping any stage whose output the
/// context already holds. The engine is stateless; everything a run
/// reads and writes lives in the context.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// The engine.
    pub fn new() -> Self {
        Engine
    }

    /// Runs every stage through `Simulate`.
    ///
    /// # Errors
    ///
    /// Propagates the first stage failure.
    pub fn run(&self, ctx: &mut RoundContext) -> Result<EngineReport, EngineError> {
        self.run_to(ctx, StageKind::Simulate)
    }

    /// Runs the stages in order up to and including `last`, skipping any
    /// stage whose output the context already caches.
    ///
    /// # Errors
    ///
    /// Propagates the first stage failure; earlier stages' outputs stay
    /// cached in the context.
    pub fn run_to(
        &self,
        ctx: &mut RoundContext,
        last: StageKind,
    ) -> Result<EngineReport, EngineError> {
        let metrics = ctx.config().metrics.clone();
        let run_span = metrics.enabled().then(|| {
            metrics.span(
                obs_names::SPAN_ENGINE_RUN,
                &[("last", AttrValue::from(last.name()))],
            )
        });
        let mut report = EngineReport::default();
        for kind in StageKind::ALL.into_iter().take_while(|&kind| kind <= last) {
            let cached = ctx.has(kind);
            let span = metrics.enabled().then(|| {
                metrics.span(
                    obs_names::SPAN_STAGE,
                    &[
                        ("stage", AttrValue::from(kind.name())),
                        ("cached", AttrValue::from(cached)),
                    ],
                )
            });
            #[allow(
                clippy::disallowed_types,
                reason = "stage timing fed to the obs span/report below"
            )]
            let start = Instant::now();
            if !cached {
                stages::run(kind, ctx)?;
            }
            drop(span);
            report.stages.push(StageRun {
                kind,
                cached,
                elapsed: start.elapsed(),
            });
        }
        drop(run_span);
        Ok(report)
    }
}
