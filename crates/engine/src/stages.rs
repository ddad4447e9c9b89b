//! The six pipeline stages: [`StageKind`] names them, and one function
//! per stage wraps the corresponding `dcc-detect` / `dcc-core` entry
//! point, reading its inputs from the [`RoundContext`] and publishing
//! its output through the matching setter.

use crate::context::{EngineSimOutcome, RoundContext, TraceSource};
use crate::error::EngineError;
use dcc_core::{assemble_design, prepare_design, solve_subproblems, BaselineStrategy, Simulation};
use dcc_detect::run_pipeline;
use dcc_faults::FaultInjector;
use dcc_obs::{names as obs, AttrValue};
use dcc_trace::{read_trace_columnar, read_trace_csv};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
#[allow(
    clippy::disallowed_types,
    reason = "trace-load timing is measured here and routed into dcc-obs via span_at"
)]
use std::time::Instant;

/// The six stages of the engine pipeline, in execution order.
///
/// The ordering (`Ingest < Detect < … < Simulate`) is the order
/// [`crate::Engine::run_to`] runs them in, and publishing a stage's
/// output discards the outputs of every later stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// Materialize the [`dcc_trace::TraceDataset`] from the configured
    /// source (provided in memory, CSV directory, or synthetic).
    Ingest,
    /// Run the §IV detection pipeline (consensus, suspects, communities,
    /// Eq. 5 weights).
    Detect,
    /// Fit per-class (and optionally per-worker) quadratic effort
    /// functions and decompose into §IV-B subproblems.
    FitEffort,
    /// Solve the independent subproblems with the §IV-C candidate
    /// algorithm, fanned across a deterministic worker pool.
    SolveSubproblems,
    /// Assemble the solved decomposition into per-worker contracts.
    ConstructContracts,
    /// Play the repeated Stackelberg game (with an optional fault plan).
    Simulate,
}

impl StageKind {
    /// All stages in execution order.
    pub const ALL: [StageKind; 6] = [
        StageKind::Ingest,
        StageKind::Detect,
        StageKind::FitEffort,
        StageKind::SolveSubproblems,
        StageKind::ConstructContracts,
        StageKind::Simulate,
    ];

    /// The stage's kebab-case name (used in reports and error messages).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Ingest => "ingest",
            StageKind::Detect => "detect",
            StageKind::FitEffort => "fit-effort",
            StageKind::SolveSubproblems => "solve-subproblems",
            StageKind::ConstructContracts => "construct-contracts",
            StageKind::Simulate => "simulate",
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes `kind`'s output from the context and stores it back.
///
/// # Errors
///
/// [`EngineError::MissingOutput`] when an earlier stage has not run, or
/// the failure of the underlying computation.
pub(crate) fn run(kind: StageKind, ctx: &mut RoundContext) -> Result<(), EngineError> {
    match kind {
        StageKind::Ingest => ingest(ctx),
        StageKind::Detect => detect(ctx),
        StageKind::FitEffort => fit_effort(ctx),
        StageKind::SolveSubproblems => solve(ctx),
        StageKind::ConstructContracts => construct(ctx),
        StageKind::Simulate => simulate(ctx),
    }
}

/// Materializes the trace from the configured [`TraceSource`].
fn ingest(ctx: &mut RoundContext) -> Result<(), EngineError> {
    #[allow(
        clippy::disallowed_types,
        reason = "trace-load timing fed to metrics.span_at below"
    )]
    let started = ctx.config().metrics.enabled().then(Instant::now);
    let (trace, source_kind) = match &ctx.config().source {
        TraceSource::Provided(trace) => (trace.clone(), "provided"),
        TraceSource::CsvDir(dir) => (
            read_trace_csv(Path::new(dir)).map_err(|e| {
                EngineError::Ingest(format!("cannot read trace {}: {e}", dir.display()))
            })?,
            "csv",
        ),
        TraceSource::Columnar(path) => (
            read_trace_columnar(path)
                .and_then(|col| col.to_dataset())
                .map_err(|e| {
                    EngineError::Ingest(format!("cannot read trace {}: {e}", path.display()))
                })?,
            "columnar",
        ),
        TraceSource::Synthetic(config) => (config.generate(), "synthetic"),
    };
    let metrics = &ctx.config().metrics;
    if metrics.enabled() {
        if let Some(started) = started {
            metrics.span_at(
                obs::SPAN_TRACE_LOAD,
                &[("source", AttrValue::from(source_kind))],
                started.elapsed(),
            );
        }
        metrics.add(obs::COUNTER_TRACE_REVIEWS, trace.reviews().len() as u64);
        metrics.add(obs::COUNTER_TRACE_REVIEWERS, trace.reviewers().len() as u64);
        metrics.gauge(obs::GAUGE_TRACE_WORKERS, trace.reviewers().len() as f64);
    }
    ctx.set_trace(trace);
    Ok(())
}

/// Runs the two-pass §IV detection pipeline.
fn detect(ctx: &mut RoundContext) -> Result<(), EngineError> {
    let detection = run_pipeline(ctx.trace()?, ctx.config().pipeline);
    let metrics = &ctx.config().metrics;
    if metrics.enabled() {
        metrics.add(obs::COUNTER_DETECT_SUSPECTED, detection.suspected.len() as u64);
        metrics.add(
            obs::COUNTER_DETECT_COMMUNITIES,
            detection.collusion.communities.len() as u64,
        );
    }
    ctx.set_detection(detection);
    Ok(())
}

/// Fits effort functions and decomposes into §IV-B subproblems.
fn fit_effort(ctx: &mut RoundContext) -> Result<(), EngineError> {
    let prep = prepare_design(ctx.trace()?, ctx.detection()?, &ctx.config().design)?;
    let metrics = &ctx.config().metrics;
    if metrics.enabled() {
        metrics.add(obs::COUNTER_FIT_SUBPROBLEMS, prep.subproblems.len() as u64);
    }
    ctx.set_prep(prep);
    Ok(())
}

/// Solves the decomposition across the configured worker pool.
///
/// Results are bit-identical for every pool size (deterministic chunked
/// fan-out, see [`solve_subproblems`]), so the pool is a pure
/// throughput knob.
fn solve(ctx: &mut RoundContext) -> Result<(), EngineError> {
    let config = ctx.config();
    let (solution, degradation) = solve_subproblems(
        &ctx.prep()?.subproblems,
        &config.design.params,
        config.pool.resolve(),
        config.design.failure_policy,
        &config.metrics,
    )?;
    ctx.set_solution(solution, degradation);
    Ok(())
}

/// Assembles the solved decomposition into per-worker contracts.
fn construct(ctx: &mut RoundContext) -> Result<(), EngineError> {
    let (solution, degradation) = ctx.solved()?;
    let design = assemble_design(
        ctx.detection()?,
        ctx.prep()?,
        Arc::clone(solution),
        degradation.clone(),
    );
    let metrics = &ctx.config().metrics;
    if metrics.enabled() {
        metrics.add(obs::COUNTER_DESIGN_AGENTS, design.agents.len() as u64);
        metrics.gauge(obs::GAUGE_DESIGN_UTILITY, design.total_requester_utility);
        for d in &design.degradation.degraded {
            metrics.event(
                obs::EVENT_DESIGN_DEGRADED,
                &[
                    ("subproblem", d.subproblem.into()),
                    (
                        "action",
                        AttrValue::from(match d.action {
                            dcc_core::DegradationAction::Fallback { .. } => "fallback",
                            dcc_core::DegradationAction::Skipped => "skipped",
                        }),
                    ),
                    (
                        "utility_delta",
                        d.utility_delta.map_or(AttrValue::from("unknown"), AttrValue::from),
                    ),
                ],
            );
        }
    }
    ctx.set_design(design);
    Ok(())
}

/// Plays the repeated game under the configured strategy and fault
/// plan — the same round loop as `dcc simulate` — with a fresh
/// injector, then publishes the per-round records and fault hits.
fn simulate(ctx: &mut RoundContext) -> Result<(), EngineError> {
    let config = ctx.config();
    let design = ctx.design()?;
    let suspected: BTreeSet<_> = ctx.detection()?.suspected.iter().copied().collect();
    let agents = BaselineStrategy::new(config.strategy).assemble(
        design,
        config.design.params.omega,
        &suspected,
        ctx.trace()?,
    )?;
    let mut injector = FaultInjector::new(&config.fault_plan);
    let outcome = Simulation::new(config.design.params, config.sim)
        .run_with_faults(&agents, &mut injector)?;
    let faults_scheduled = config.fault_plan.len();
    let counts = injector.hit_counts();
    let metrics = &config.metrics;
    if metrics.enabled() {
        metrics.add(obs::COUNTER_SIM_ROUNDS, outcome.rounds.len() as u64);
        for rec in &outcome.rounds {
            metrics.event(
                obs::EVENT_SIM_ROUND,
                &[
                    ("round", rec.round.into()),
                    ("benefit", rec.benefit.into()),
                    ("payment", rec.payment.into()),
                    ("u_req", rec.requester_utility.into()),
                ],
            );
        }
        metrics.gauge(obs::GAUGE_FAULTS_SCHEDULED, faults_scheduled as f64);
        metrics.add(obs::COUNTER_FAULTS_FIRED, counts.total() as u64);
        metrics.add(obs::COUNTER_FAULTS_DROPPED, counts.dropped as u64);
        metrics.add(obs::COUNTER_FAULTS_LOST, counts.lost_feedback as u64);
        metrics.add(obs::COUNTER_FAULTS_CORRUPTED, counts.corrupted_feedback as u64);
        metrics.add(obs::COUNTER_FAULTS_DELAYED, counts.delayed_payments as u64);
    }
    ctx.set_outcome(EngineSimOutcome {
        outcome,
        faults_scheduled,
        faults_fired: counts.total(),
    });
    Ok(())
}
