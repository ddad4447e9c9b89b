use crate::context::RoundContext;
use crate::error::EngineError;
use crate::stage::{Stage, StageKind};
use crate::stages::{
    DefaultConstruct, DefaultDetect, DefaultFitEffort, DefaultIngest, DefaultSimulate,
    DefaultSolve,
};
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
    /// The stage's slot.
    pub kind: StageKind,
    /// The stage's display name (differs from the slot name for custom
    /// stages).
    pub name: &'static str,
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

    /// Total wall-clock time across the non-cached stages.
    pub fn total_elapsed(&self) -> Duration {
        self.stages
            .iter()
            .filter(|run| !run.cached)
            .map(|run| run.elapsed)
            .sum()
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for run in &self.stages {
            if run.cached {
                writeln!(f, "  {:<20} cached", run.name)?;
            } else {
                writeln!(f, "  {:<20} {:>9.3?}", run.name, run.elapsed)?;
            }
        }
        Ok(())
    }
}

/// The staged pipeline driver: six [`Stage`] slots executed in order
/// over a [`RoundContext`], skipping any stage whose output is already
/// cached.
///
/// Custom stages plug into a slot with [`Engine::with_stage`] — e.g. a
/// collusion-blind detector replacing the default detect stage:
///
/// ```
/// use dcc_engine::{DefaultDetect, Engine, Stage};
///
/// let engine = Engine::new().with_stage(Box::new(DefaultDetect));
/// assert_eq!(engine.stage_names().len(), 6);
/// ```
pub struct Engine {
    stages: Vec<Box<dyn Stage>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the six default stages.
    pub fn new() -> Self {
        Engine {
            stages: vec![
                Box::new(DefaultIngest),
                Box::new(DefaultDetect),
                Box::new(DefaultFitEffort),
                Box::new(DefaultSolve),
                Box::new(DefaultConstruct),
                Box::new(DefaultSimulate),
            ],
        }
    }

    /// Replaces the slot matching `stage.kind()` with `stage`.
    #[must_use]
    pub fn with_stage(mut self, stage: Box<dyn Stage>) -> Self {
        let slot = stage.kind().index();
        self.stages[slot] = stage;
        self
    }

    /// The display names of the installed stages, in order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
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
        let run_span = if metrics.enabled() {
            Some(metrics.span(
                obs_names::SPAN_ENGINE_RUN,
                &[("last", AttrValue::from(last.name()))],
            ))
        } else {
            None
        };
        let mut report = EngineReport::default();
        for stage in &self.stages {
            let kind = stage.kind();
            if kind.index() > last.index() {
                break;
            }
            let cached = ctx.has(kind);
            let span = if metrics.enabled() {
                let cause = if cached {
                    "cached"
                } else {
                    ctx.invalidation_cause(kind).unwrap_or("initial")
                };
                Some(metrics.span(
                    obs_names::SPAN_STAGE,
                    &[
                        ("stage", AttrValue::from(kind.name())),
                        ("name", AttrValue::from(stage.name())),
                        ("cached", AttrValue::from(cached)),
                        ("cause", AttrValue::from(cause)),
                    ],
                ))
            } else {
                None
            };
            #[allow(
                clippy::disallowed_types,
                reason = "stage timing fed to the obs span/report below"
            )]
            let start = Instant::now();
            if !cached {
                stage.run(ctx)?;
            }
            drop(span);
            report.stages.push(StageRun {
                kind,
                name: stage.name(),
                cached,
                elapsed: start.elapsed(),
            });
        }
        drop(run_span);
        Ok(report)
    }
}
