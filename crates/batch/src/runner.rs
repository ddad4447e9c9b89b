//! The deterministic, supervised batch scheduler.
//!
//! Scenarios fan out over a bounded `std::thread::scope` pool pulling
//! from an atomic work queue; results land in per-index slots and are
//! merged back **in input order**, so the report (and the redacted
//! metrics document) is bit-identical for every pool size — the same
//! contract `solve_subproblems` gives the solve stage, lifted to
//! whole scenarios.
//!
//! Cross-scenario reuse goes through the shared [`StageMemo`]: each
//! distinct (trace, pipeline) pair runs detection once, each distinct
//! (trace, pipeline, fit-config) triple fits once, and each distinct
//! (trace, pipeline, fit-config, design-config) quadruple — μ included,
//! budget fraction and strategy excluded — solves once, no matter how
//! many scenarios or how many threads ask for it. In-flight
//! deduplication uses per-key [`Slot`]s: two workers never compute the
//! same detection concurrently, and a *panicking* computation resets
//! its slot instead of wedging it, so a poisoned scenario can neither
//! block nor contaminate its siblings (values reach the memo only from
//! successfully computed slots).
//!
//! Every scenario runs under supervision
//! ([`BatchRunner::run_supervised`]): `catch_unwind` panic isolation,
//! the deterministic retry schedule of
//! [`dcc_faults::retry_with_backoff_on`], an optional logical
//! work-budget, and quarantine into [`BatchReport::quarantine`] when
//! retries exhaust. With a [`CheckpointConfig`] the runner snapshots
//! partial results (`dcc-batch-ckpt/2`) and can resume an interrupted
//! sweep with output byte-identical to an uninterrupted run.
//!
//! Cache accounting is *deterministic by convention*: a scenario is
//! counted as cached when the memo already held the key at run start
//! or a lower-id scenario shares it — i.e. what a serial execution in
//! scenario order would have reused. Under a parallel pool a high-id
//! scenario may physically race ahead and compute a value its flag
//! calls a hit; the flags describe the serial schedule, not thread
//! timing, which keeps the metrics document pool-size-independent —
//! and, because the accounting pass covers restored scenarios too,
//! resume-independent.

use crate::ckpt::{load_checkpoint, CkptEntry, CkptPayload, CkptWriter, ScenarioSummary};
use crate::grid::{strategy_label, Scenario, ScenarioGrid, TraceSpec};
use crate::memo::{
    fit_fingerprint, pipeline_fingerprint, solve_fingerprint, trace_fingerprint, DetectKey, FitKey,
    MemoStats, SolveKey, StageMemo,
};
use crate::supervisor::{
    panic_message, supervise_attempts, AttemptError, BatchFaultPlan, BatchOutcome, FailureKind,
    FaultPoint, QuarantineEntry, QuarantineReport, ScenarioFailure, Slot, SupervisorOptions,
    WorkBudget,
};
use dcc_core::{
    select_within_budget, BudgetedSelection, ContractDesign, CoreError, DesignPrep,
    FailurePolicy, SimulationOutcome,
};
use dcc_detect::{run_pipeline, DetectionResult};
use dcc_engine::{
    Engine, EngineConfig, EngineSimOutcome, PoolSize, RoundContext, StageKind, TraceSource,
};
use dcc_numerics::Fnv;
use dcc_obs::{names as obs, AttrValue, Metrics};
use dcc_trace::{read_trace_columnar, read_trace_csv, TraceDataset};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
#[allow(
    clippy::disallowed_types,
    reason = "per-scenario durations are measured here and published through dcc-obs spans, redacted in deterministic output"
)]
use std::time::{Duration, Instant};

/// Batch-layer failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// The grid spec is structurally invalid (exit code 2 territory).
    Spec(String),
    /// A scenario failed under [`FailurePolicy::Abort`].
    Scenario {
        /// Id of the first failing scenario in input order.
        id: usize,
        /// The underlying engine/core error message.
        message: String,
    },
    /// A checkpoint could not be read, validated, or written; a
    /// checkpoint of another grid is a [`CoreError::CheckpointMismatch`].
    Checkpoint(CoreError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Spec(msg) => write!(f, "{msg}"),
            BatchError::Checkpoint(e) => write!(f, "{e}"),
            BatchError::Scenario { id, message } => {
                write!(f, "scenario {id} failed: {message}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Scheduler options, orthogonal to the grid itself.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Scenario-level worker pool. Inside a scenario the solve stage
    /// runs sequentially — parallelism comes from scenario fan-out, so
    /// the two pools never multiply.
    pub pool: PoolSize,
    /// Batch-level failure policy: [`FailurePolicy::Abort`] stops at
    /// the first failing scenario (in input order); the other policies
    /// record the failure and keep going. Per-subproblem degradation
    /// inside a scenario is governed separately by
    /// `ScenarioGrid::design.failure_policy`.
    pub policy: FailurePolicy,
    /// Observability sink; all recording happens post-merge in input
    /// order, so the redacted document is pool-size-independent.
    pub metrics: Metrics,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            pool: PoolSize::Auto,
            policy: FailurePolicy::Abort,
            metrics: Metrics::noop(),
        }
    }
}

/// Everything one successful scenario produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The assembled contract design at this scenario's μ: the memo's
    /// own allocation, so every scenario with the same solve key (a
    /// budget or strategy sweep at one μ) points at one design.
    pub design: Arc<ContractDesign>,
    /// Budget-constrained funding selection at
    /// `budget_fraction × full_spend`.
    pub budget: BudgetedSelection,
    /// Total designed spend at fraction 1.0 (the budget baseline).
    pub full_spend: f64,
    /// Repeated-game outcome; `None` for design-only grids.
    pub sim: Option<SimulationOutcome>,
    /// The memo's detection result the design used.
    pub detection: Arc<DetectionResult>,
}

/// How a successful scenario's results are held: computed in full this
/// run, or restored (canonical summary only) from a checkpoint.
#[derive(Debug, Clone)]
pub enum ScenarioResult {
    /// Computed this run; the full outcome is available.
    Computed(ScenarioOutcome),
    /// Restored from a `dcc-batch-ckpt/2` checkpoint; only the
    /// canonical [`ScenarioSummary`] survives a process boundary.
    Restored(ScenarioSummary),
}

/// One scenario's merged result.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The grid point this record answers.
    pub scenario: Scenario,
    /// The outcome (computed or restored), or the terminal failure
    /// (present in the report only under non-abort policies).
    pub result: Result<ScenarioResult, ScenarioFailure>,
    /// Supervised attempts performed (1 = first try succeeded; for a
    /// restored record, the attempt count of the original run).
    pub attempts: usize,
    /// Whether the serial schedule would have reused the detection
    /// (see the module docs on deterministic cache accounting).
    pub detect_cached: bool,
    /// Whether the serial schedule would have reused the fit.
    pub fit_cached: bool,
    /// Whether the serial schedule would have reused the solved design
    /// (same trace, pipeline, and design config — μ included).
    pub solve_cached: bool,
    /// Worker-measured wall time (redacted in deterministic output;
    /// zero for restored records).
    pub elapsed: Duration,
}

impl ScenarioRecord {
    /// The full computed outcome; `None` for failed *or restored*
    /// records.
    pub fn outcome(&self) -> Option<&ScenarioOutcome> {
        match &self.result {
            Ok(ScenarioResult::Computed(outcome)) => Some(outcome),
            _ => None,
        }
    }

    /// The canonical output summary — derived from the outcome when
    /// computed, carried verbatim when restored. This is the surface
    /// renderers should consume: it is bit-identical either way.
    pub fn summary(&self) -> Option<ScenarioSummary> {
        match &self.result {
            Ok(ScenarioResult::Computed(outcome)) => Some(ScenarioSummary::of(outcome)),
            Ok(ScenarioResult::Restored(summary)) => Some(summary.clone()),
            Err(_) => None,
        }
    }

    /// The terminal failure, if the scenario was quarantined.
    pub fn failure(&self) -> Option<&ScenarioFailure> {
        self.result.as_ref().err()
    }

    /// Whether this record was restored from a checkpoint.
    pub fn restored(&self) -> bool {
        matches!(self.result, Ok(ScenarioResult::Restored(_)))
    }

    /// The full outcome, or a [`dcc_core::CoreError`] describing why
    /// it is unavailable (failure, or checkpoint-restored summary).
    ///
    /// # Errors
    ///
    /// [`dcc_core::CoreError::InvalidInput`] with the failure message,
    /// or a hint to rerun without `--resume` for restored records.
    pub fn require_outcome(&self) -> Result<&ScenarioOutcome, dcc_core::CoreError> {
        match &self.result {
            Ok(ScenarioResult::Computed(outcome)) => Ok(outcome),
            Ok(ScenarioResult::Restored(_)) => Err(dcc_core::CoreError::InvalidInput(format!(
                "scenario {} was restored from a checkpoint (summary only); \
                 rerun without --resume for the full outcome",
                self.scenario.id
            ))),
            Err(failure) => Err(dcc_core::CoreError::InvalidInput(failure.to_string())),
        }
    }
}

/// The merged output of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-scenario records, in input (grid-expansion) order.
    pub records: Vec<ScenarioRecord>,
    /// Deterministic cache accounting for this run (covers restored
    /// scenarios too, so it is resume-invariant).
    pub stats: MemoStats,
    /// Scenarios that exhausted supervision, in input order.
    pub quarantine: QuarantineReport,
    /// Scenarios restored from a checkpoint instead of recomputed.
    pub restored: usize,
    /// Total wall time (not part of deterministic output).
    pub elapsed: Duration,
}

impl BatchReport {
    /// Records that ended in an error.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.result.is_err()).count()
    }
}

/// The deterministic multi-scenario scheduler.
#[derive(Debug, Default)]
pub struct BatchRunner {
    memo: Arc<StageMemo>,
    options: BatchOptions,
}

impl BatchRunner {
    /// A runner with default options and a cold memo.
    pub fn new() -> Self {
        BatchRunner::default()
    }

    /// A runner with the given options and a cold memo.
    pub fn with_options(options: BatchOptions) -> Self {
        BatchRunner { memo: Arc::new(StageMemo::new()), options }
    }

    /// A runner sharing an existing memo (warm reruns, cross-grid
    /// reuse).
    pub fn with_memo(memo: Arc<StageMemo>, options: BatchOptions) -> Self {
        BatchRunner { memo, options }
    }

    /// The shared stage memo.
    pub fn memo(&self) -> &Arc<StageMemo> {
        &self.memo
    }

    /// Expands and runs the full grid.
    ///
    /// # Errors
    ///
    /// [`BatchError::Spec`] if the grid fails validation;
    /// [`BatchError::Scenario`] if a scenario fails under
    /// [`FailurePolicy::Abort`].
    pub fn run(&self, grid: &ScenarioGrid) -> Result<BatchReport, BatchError> {
        self.run_scenarios(grid, &grid.scenarios())
    }

    /// Runs an explicit scenario list against the grid's shared
    /// configuration (the experiments use this for non-cartesian
    /// sweeps). Records come back in the given order.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchRunner::run`]; additionally rejects a
    /// scenario whose `trace` index is out of bounds.
    pub fn run_scenarios(
        &self,
        grid: &ScenarioGrid,
        scenarios: &[Scenario],
    ) -> Result<BatchReport, BatchError> {
        match self.run_supervised(grid, scenarios, &SupervisorOptions::default())? {
            BatchOutcome::Completed(report) => Ok(report),
            // Unreachable: the default options set no kill threshold.
            BatchOutcome::Killed { completed, total, .. } => {
                Err(BatchError::Checkpoint(CoreError::InvalidInput(format!(
                    "batch killed at {completed}/{total} without a kill threshold"
                ))))
            }
        }
    }

    /// Runs a scenario list under full supervision: panic isolation,
    /// deterministic retries, work budgets, quarantine, and (when
    /// configured) `dcc-batch-ckpt/2` checkpointing with kill/resume.
    ///
    /// A resumed run's report — records, summaries, failures, cache
    /// flags, stats — is byte-identical to an uninterrupted run at
    /// every pool size; see `docs/batch.md`.
    ///
    /// # Errors
    ///
    /// [`BatchError::Spec`] for invalid grids or option combinations,
    /// [`BatchError::Scenario`] under [`FailurePolicy::Abort`],
    /// [`BatchError::Checkpoint`] for unreadable, mismatched, or
    /// unwritable checkpoints.
    pub fn run_supervised(
        &self,
        grid: &ScenarioGrid,
        scenarios: &[Scenario],
        sup: &SupervisorOptions,
    ) -> Result<BatchOutcome, BatchError> {
        grid.validate()?;
        for s in scenarios {
            if s.trace >= grid.traces.len() {
                return Err(BatchError::Spec(format!(
                    "scenario {} references trace {} but GridSpec.traces has {} entries",
                    s.id,
                    s.trace,
                    grid.traces.len()
                )));
            }
        }
        if sup.resume && sup.checkpoint.is_none() {
            return Err(BatchError::Spec(
                "resume requires a checkpoint path".to_string(),
            ));
        }
        if sup.kill_after.is_some() && sup.checkpoint.is_none() {
            return Err(BatchError::Spec(
                "kill_after requires a checkpoint path".to_string(),
            ));
        }
        #[allow(
            clippy::disallowed_types,
            reason = "total batch wall time, published as a redacted throughput gauge"
        )]
        let started = Instant::now();

        let mut stats = MemoStats::default();
        let traces = self.resolve_traces(grid, scenarios, &mut stats)?;

        let pipeline_fp = pipeline_fingerprint(&grid.pipeline);
        let fit_fp = fit_fingerprint(&grid.design);
        let grid_fp = grid_fingerprint(grid, scenarios, &traces, pipeline_fp, fit_fp);
        let n = scenarios.len();

        // Checkpoint restore happens up front: restored indices skip
        // execution entirely but still flow through the accounting
        // pass below, which keeps the cache flags resume-invariant.
        let restored: BTreeMap<usize, CkptEntry> = match (&sup.checkpoint, sup.resume) {
            (Some(config), true) => {
                load_checkpoint(&config.path, grid_fp, n).map_err(BatchError::Checkpoint)?
            }
            _ => BTreeMap::new(),
        };
        let writer = sup.checkpoint.as_ref().map(|config| {
            CkptWriter::new(&config.path, config.every, grid_fp, restored.clone())
        });

        // Per-key in-flight slots, pre-seeded from the persistent memo.
        // Cache flags are derived from the serial schedule (memo hit at
        // run start, or a lower-id scenario shares the key).
        let mut detect_slots: BTreeMap<DetectKey, DetectSlot> = BTreeMap::new();
        let mut fit_slots: BTreeMap<FitKey, FitSlot> = BTreeMap::new();
        let mut solve_slots: BTreeMap<SolveKey, SolveSlot> = BTreeMap::new();
        let mut detect_flags = Vec::with_capacity(n);
        let mut fit_flags = Vec::with_capacity(n);
        let mut solve_flags = Vec::with_capacity(n);
        for s in scenarios {
            let Some(Some((_, trace_fp))) = traces.get(s.trace) else {
                continue;
            };
            let dk: DetectKey = (*trace_fp, pipeline_fp);
            let fk: FitKey = (*trace_fp, pipeline_fp, fit_fp);
            let sk: SolveKey = (*trace_fp, pipeline_fp, fit_fp, scenario_solve_fp(grid, s));
            let detect_hit = match detect_slots.entry(dk) {
                std::collections::btree_map::Entry::Occupied(_) => true,
                std::collections::btree_map::Entry::Vacant(v) => match self.memo.get_detect(&dk) {
                    Some(value) => {
                        v.insert(Slot::seeded(value));
                        true
                    }
                    None => {
                        v.insert(Slot::new());
                        false
                    }
                },
            };
            let fit_hit = match fit_slots.entry(fk) {
                std::collections::btree_map::Entry::Occupied(_) => true,
                std::collections::btree_map::Entry::Vacant(v) => match self.memo.get_fit(&fk) {
                    Some(value) => {
                        v.insert(Slot::seeded(value));
                        true
                    }
                    None => {
                        v.insert(Slot::new());
                        false
                    }
                },
            };
            let solve_hit = match solve_slots.entry(sk) {
                std::collections::btree_map::Entry::Occupied(_) => true,
                std::collections::btree_map::Entry::Vacant(v) => match self.memo.get_solve(&sk) {
                    Some(value) => {
                        v.insert(Slot::seeded(value));
                        true
                    }
                    None => {
                        v.insert(Slot::new());
                        false
                    }
                },
            };
            detect_flags.push(detect_hit);
            fit_flags.push(fit_hit);
            solve_flags.push(solve_hit);
            stats.detect.record(detect_hit);
            stats.fit.record(fit_hit);
            stats.solve.record(solve_hit);
        }

        let workers = resolved_pool(self.options.pool, n);
        let slots: Vec<Mutex<Option<ScenarioRecord>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let fresh_done = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);

        let job = |i: usize, scenario: &Scenario| -> Option<ScenarioRecord> {
            let flags = (
                detect_flags.get(i).copied().unwrap_or(false),
                fit_flags.get(i).copied().unwrap_or(false),
                solve_flags.get(i).copied().unwrap_or(false),
            );
            if let Some(entry) = restored.get(&i) {
                let result = match &entry.payload {
                    CkptPayload::Summary(summary) => {
                        Ok(ScenarioResult::Restored(summary.clone()))
                    }
                    CkptPayload::Failure(failure) => Err(failure.clone()),
                };
                return Some(ScenarioRecord {
                    scenario: *scenario,
                    result,
                    attempts: entry.attempts,
                    detect_cached: flags.0,
                    fit_cached: flags.1,
                    solve_cached: flags.2,
                    elapsed: Duration::ZERO,
                });
            }
            let (trace, trace_fp) = traces.get(scenario.trace)?.as_ref()?;
            let dk: DetectKey = (*trace_fp, pipeline_fp);
            let fk: FitKey = (*trace_fp, pipeline_fp, fit_fp);
            let sk: SolveKey = (*trace_fp, pipeline_fp, fit_fp, scenario_solve_fp(grid, scenario));
            let detect_slot = detect_slots.get(&dk)?;
            let fit_slot = fit_slots.get(&fk)?;
            let solve_slot = solve_slots.get(&sk)?;
            #[allow(
                clippy::disallowed_types,
                reason = "worker-measured scenario duration, recorded post-merge and redacted in deterministic output"
            )]
            let t0 = Instant::now();
            let (result, attempts) = supervise_attempts(scenario.id, sup.max_retries, |attempt| {
                run_attempt(
                    grid,
                    scenario,
                    trace,
                    detect_slot,
                    fit_slot,
                    solve_slot,
                    &sup.faults,
                    attempt,
                    sup.scenario_budget,
                )
            });
            Some(ScenarioRecord {
                scenario: *scenario,
                result: result.map(ScenarioResult::Computed),
                attempts,
                detect_cached: flags.0,
                fit_cached: flags.1,
                solve_cached: flags.2,
                elapsed: t0.elapsed(),
            })
        };
        // Stores one finished record: snapshot to the checkpoint, count
        // fresh completions toward the kill threshold, park the record
        // for the in-order merge.
        let complete = |i: usize, record: ScenarioRecord| {
            let fresh = !restored.contains_key(&i);
            if fresh {
                if let (Some(writer), Some(entry)) = (&writer, ckpt_entry_of(&record)) {
                    writer.record(i, entry);
                }
            }
            if let Some(slot) = slots.get(i) {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(record);
            }
            if fresh {
                let done = fresh_done.fetch_add(1, Ordering::Relaxed) + 1;
                if sup.kill_after.is_some_and(|k| done >= k) {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        };

        if workers <= 1 {
            for (i, scenario) in scenarios.iter().enumerate() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(record) = job(i, scenario) {
                    complete(i, record);
                }
            }
        } else {
            let next = AtomicUsize::new(0);
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let Some(scenario) = scenarios.get(i) else { break };
                        if let Some(record) = job(i, scenario) {
                            complete(i, record);
                        }
                    });
                }
            });
        }

        // Publish freshly computed values into the persistent memo so a
        // later run (or a shared runner) starts warm. Only `Ready`
        // slots publish — a slot whose computation panicked is `Empty`
        // again, so a poisoned scenario can never reach the memo.
        for (key, slot) in &detect_slots {
            if let Some(value) = slot.peek() {
                if self.memo.get_detect(key).is_none() {
                    self.memo.insert_detect(*key, value);
                }
            }
        }
        for (key, slot) in &fit_slots {
            if let Some(value) = slot.peek() {
                if self.memo.get_fit(key).is_none() {
                    self.memo.insert_fit(*key, value);
                }
            }
        }
        for (key, slot) in &solve_slots {
            if let Some(value) = slot.peek() {
                if self.memo.get_solve(key).is_none() {
                    self.memo.insert_solve(*key, value);
                }
            }
        }

        if stop.load(Ordering::Relaxed) {
            // Killed at the threshold: flush what completed and report
            // where to resume from. (`stop` is only ever set when a
            // kill threshold — and therefore a checkpoint — is set.)
            let Some(writer) = &writer else {
                return Err(BatchError::Checkpoint(CoreError::InvalidInput(
                    "batch killed without a checkpoint writer".to_string(),
                )));
            };
            writer.flush();
            if let Some(error) = writer.take_error() {
                return Err(BatchError::Checkpoint(error));
            }
            let checkpoint = sup
                .checkpoint
                .as_ref()
                .map(|c| c.path.clone())
                .unwrap_or_default();
            return Ok(BatchOutcome::Killed {
                completed: writer.completed(),
                total: n,
                checkpoint,
            });
        }

        // In-order merge.
        let mut records = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(record) => records.push(record),
                None => {
                    // Unreachable by construction (every index is
                    // visited and every trace index was validated), but
                    // a lost slot must not silently shrink the report.
                    records.push(ScenarioRecord {
                        scenario: scenarios.get(i).copied().unwrap_or(Scenario {
                            id: i,
                            trace: 0,
                            mu: f64::NAN,
                            budget_fraction: f64::NAN,
                            strategy: dcc_core::StrategyKind::DynamicContract,
                        }),
                        result: Err(ScenarioFailure {
                            kind: FailureKind::Error,
                            message: "scenario produced no record".to_string(),
                            attempts: 0,
                        }),
                        attempts: 0,
                        detect_cached: false,
                        fit_cached: false,
                        solve_cached: false,
                        elapsed: Duration::ZERO,
                    });
                }
            }
        }

        // A completed checkpointed run leaves a *full* snapshot behind,
        // so resuming from it trivially reproduces the whole report.
        if let Some(writer) = &writer {
            writer.flush();
            if let Some(error) = writer.take_error() {
                return Err(BatchError::Checkpoint(error));
            }
        }

        if matches!(self.options.policy, FailurePolicy::Abort) {
            if let Some(failed) = records.iter().find(|r| r.result.is_err()) {
                let message = failed.failure().map(ScenarioFailure::to_string).unwrap_or_default();
                return Err(BatchError::Scenario { id: failed.scenario.id, message });
            }
        }

        let quarantine = QuarantineReport {
            entries: records
                .iter()
                .filter_map(|r| {
                    r.failure().map(|f| QuarantineEntry {
                        scenario: r.scenario.id,
                        kind: f.kind,
                        attempts: f.attempts,
                        message: f.message.clone(),
                    })
                })
                .collect(),
        };
        let restored_count = records.iter().filter(|r| r.restored()).count();
        let report = BatchReport {
            records,
            stats,
            quarantine,
            restored: restored_count,
            elapsed: started.elapsed(),
        };
        self.record_metrics(grid, &report, workers);
        Ok(BatchOutcome::Completed(report))
    }

    /// Materializes every trace the scenario list references, counting
    /// memo hits/misses per distinct trace spec.
    fn resolve_traces(
        &self,
        grid: &ScenarioGrid,
        scenarios: &[Scenario],
        stats: &mut MemoStats,
    ) -> Result<Vec<ResolvedTrace>, BatchError> {
        let mut used = vec![false; grid.traces.len()];
        for s in scenarios {
            if let Some(flag) = used.get_mut(s.trace) {
                *flag = true;
            }
        }
        let mut out = Vec::with_capacity(grid.traces.len());
        for (i, spec) in grid.traces.iter().enumerate() {
            if !used.get(i).copied().unwrap_or(false) {
                // Unused trace index: never materialized, never read.
                out.push(None);
                continue;
            }
            out.push(Some(self.resolve_trace(spec, stats)?));
        }
        Ok(out)
    }

    fn resolve_trace(
        &self,
        spec: &TraceSpec,
        stats: &mut MemoStats,
    ) -> Result<(Arc<TraceDataset>, u64), BatchError> {
        match &spec.source {
            TraceSource::Provided(trace) => {
                // Content-addressed: the fingerprint *is* the key, so
                // the memo only deduplicates the Arc (and the stats
                // record whether detection/fit state already exists).
                let fp = trace_fingerprint(trace);
                let key = format!("provided:{fp:016x}");
                match self.memo.get_trace(&key) {
                    Some(entry) => {
                        stats.trace.record(true);
                        Ok(entry)
                    }
                    None => {
                        stats.trace.record(false);
                        let arc = Arc::new(trace.clone());
                        self.memo.insert_trace(key, Arc::clone(&arc), fp);
                        Ok((arc, fp))
                    }
                }
            }
            TraceSource::Synthetic(config) => {
                let key = format!("synthetic:{config:?}");
                self.resolve_keyed(&key, stats, || Ok(config.generate()))
            }
            // The memo assumes a CSV directory is immutable for the
            // memo's lifetime (docs/batch.md).
            TraceSource::CsvDir(dir) => {
                let key = format!("csv:{}", dir.display());
                let dir = dir.clone();
                self.resolve_keyed(&key, stats, move || {
                    read_trace_csv(&dir).map_err(|e| {
                        BatchError::Spec(format!("cannot read trace {}: {e}", dir.display()))
                    })
                })
            }
            // Same immutability contract as CsvDir: the columnar file
            // must not change while the memo is alive.
            TraceSource::Columnar(path) => {
                let key = format!("col:{}", path.display());
                let path = path.clone();
                self.resolve_keyed(&key, stats, move || {
                    read_trace_columnar(&path)
                        .and_then(|col| col.to_dataset())
                        .map_err(|e| {
                            BatchError::Spec(format!("cannot read trace {}: {e}", path.display()))
                        })
                })
            }
        }
    }

    fn resolve_keyed(
        &self,
        key: &str,
        stats: &mut MemoStats,
        materialize: impl FnOnce() -> Result<TraceDataset, BatchError>,
    ) -> Result<(Arc<TraceDataset>, u64), BatchError> {
        match self.memo.get_trace(key) {
            Some(entry) => {
                stats.trace.record(true);
                Ok(entry)
            }
            None => {
                stats.trace.record(false);
                let trace = Arc::new(materialize()?);
                let fp = trace_fingerprint(&trace);
                self.memo.insert_trace(key.to_string(), Arc::clone(&trace), fp);
                Ok((trace, fp))
            }
        }
    }

    /// Post-merge metrics, in input order (pool-size-independent).
    fn record_metrics(&self, grid: &ScenarioGrid, report: &BatchReport, workers: usize) {
        let metrics = &self.options.metrics;
        if !metrics.enabled() {
            return;
        }
        for record in &report.records {
            let s = &record.scenario;
            let label = grid
                .traces
                .get(s.trace)
                .map(|t| t.label.clone())
                .unwrap_or_default();
            metrics.span_at(
                obs::SPAN_BATCH_SCENARIO,
                &[
                    ("id", s.id.into()),
                    ("trace", AttrValue::from(label)),
                    ("mu", s.mu.into()),
                    ("budget_fraction", s.budget_fraction.into()),
                    ("strategy", AttrValue::from(strategy_label(s.strategy))),
                    ("detect_cached", record.detect_cached.into()),
                    ("fit_cached", record.fit_cached.into()),
                    ("solve_cached", record.solve_cached.into()),
                    ("ok", record.result.is_ok().into()),
                ],
                record.elapsed,
            );
            metrics.observe(obs::HIST_BATCH_SCENARIO_US, record.elapsed.as_micros() as f64);
        }
        metrics.add(obs::COUNTER_BATCH_SCENARIOS, report.records.len() as u64);
        metrics.add(obs::COUNTER_BATCH_FAILED, report.failed() as u64);
        metrics.add(obs::COUNTER_BATCH_TRACE_HIT, report.stats.trace.hits);
        metrics.add(obs::COUNTER_BATCH_TRACE_MISS, report.stats.trace.misses);
        metrics.add(obs::COUNTER_BATCH_DETECT_HIT, report.stats.detect.hits);
        metrics.add(obs::COUNTER_BATCH_DETECT_MISS, report.stats.detect.misses);
        metrics.add(obs::COUNTER_BATCH_FIT_HIT, report.stats.fit.hits);
        metrics.add(obs::COUNTER_BATCH_FIT_MISS, report.stats.fit.misses);
        metrics.add(obs::COUNTER_BATCH_SOLVE_HIT, report.stats.solve.hits);
        metrics.add(obs::COUNTER_BATCH_SOLVE_MISS, report.stats.solve.misses);
        let retries: u64 = report
            .records
            .iter()
            .map(|r| r.attempts.saturating_sub(1) as u64)
            .sum();
        let recovered = report
            .records
            .iter()
            .filter(|r| r.attempts > 1 && r.result.is_ok())
            .count();
        metrics.add(obs::COUNTER_BATCH_RETRY_ATTEMPTS, retries);
        metrics.add(obs::COUNTER_BATCH_RETRY_RECOVERED, recovered as u64);
        metrics.add(obs::COUNTER_BATCH_QUARANTINE_SCENARIOS, report.quarantine.len() as u64);
        metrics.add(
            obs::COUNTER_BATCH_QUARANTINE_PANICS,
            report.quarantine.count_of(FailureKind::Panic) as u64,
        );
        metrics.add(
            obs::COUNTER_BATCH_QUARANTINE_BUDGET,
            report.quarantine.count_of(FailureKind::BudgetExhausted) as u64,
        );
        metrics.add(obs::COUNTER_BATCH_RESTORED, report.restored as u64);
        metrics.gauge(obs::GAUGE_BATCH_POOL, workers as f64);
        let secs = report.elapsed.as_secs_f64();
        let per_sec = if secs > 0.0 { report.records.len() as f64 / secs } else { 0.0 };
        metrics.gauge(obs::GAUGE_BATCH_SCENARIOS_PER_SEC, per_sec);
    }
}

type DetectSlot = Slot<Arc<DetectionResult>>;
type FitSlot = Slot<Result<Arc<DesignPrep>, String>>;
type SolveSlot = Slot<Result<Arc<ContractDesign>, String>>;
/// A materialized trace plus its content fingerprint; `None` for a
/// grid trace index no scenario references.
type ResolvedTrace = Option<(Arc<TraceDataset>, u64)>;

/// Solve fingerprint of one scenario: the grid's shared design config
/// specialized to the scenario's μ (the only per-scenario design
/// field — budget fraction and strategy act after the solve).
fn scenario_solve_fp(grid: &ScenarioGrid, scenario: &Scenario) -> u64 {
    let mut design = grid.design;
    design.params.mu = scenario.mu;
    solve_fingerprint(&design)
}

/// Fingerprint of the *whole run*: every scenario's grid point, its
/// trace content, and the shared pipeline/fit/solve/sim configuration.
/// A `dcc-batch-ckpt/2` checkpoint is only valid against the exact run
/// that wrote it, so restored results can never silently mix grids.
fn grid_fingerprint(
    grid: &ScenarioGrid,
    scenarios: &[Scenario],
    traces: &[ResolvedTrace],
    pipeline_fp: u64,
    fit_fp: u64,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(pipeline_fp);
    h.write_u64(fit_fp);
    h.write_bytes(format!("{:?}", grid.sim).as_bytes());
    h.write_usize(scenarios.len());
    for s in scenarios {
        h.write_usize(s.id);
        h.write_usize(s.trace);
        if let Some(Some((_, trace_fp))) = traces.get(s.trace) {
            h.write_u64(*trace_fp);
        }
        h.write_f64(s.mu);
        h.write_f64(s.budget_fraction);
        h.write_bytes(strategy_label(s.strategy).as_bytes());
        h.write_u64(scenario_solve_fp(grid, s));
    }
    h.finish()
}

/// The checkpoint entry a freshly completed record contributes;
/// `None` for restored records (already in the writer's seed set).
fn ckpt_entry_of(record: &ScenarioRecord) -> Option<CkptEntry> {
    match &record.result {
        Ok(ScenarioResult::Computed(outcome)) => Some(CkptEntry {
            attempts: record.attempts,
            payload: CkptPayload::Summary(ScenarioSummary::of(outcome)),
        }),
        Ok(ScenarioResult::Restored(_)) => None,
        Err(failure) => Some(CkptEntry {
            attempts: record.attempts,
            payload: CkptPayload::Failure(failure.clone()),
        }),
    }
}

fn resolved_pool(pool: PoolSize, n: usize) -> usize {
    let p = pool.resolve().min(n);
    if p == 0 {
        1
    } else {
        p
    }
}

/// Runs one supervised attempt of a scenario against pre-resolved
/// shared state, reproducing a serial engine run bit-exactly: the
/// pre-seeded detection and fit are the same values `Engine::run_to`
/// would compute, and the solve / construct / simulate stages run
/// through the engine itself.
///
/// The whole attempt runs under `catch_unwind`, and each stage charges
/// its *data-derived* work cost **before** consulting the shared slot
/// — so work-budget exhaustion and fault injection are deterministic
/// and pool-invariant regardless of which sibling physically computes
/// a shared stage.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    grid: &ScenarioGrid,
    scenario: &Scenario,
    trace: &Arc<TraceDataset>,
    detect_slot: &DetectSlot,
    fit_slot: &FitSlot,
    solve_slot: &SolveSlot,
    faults: &BatchFaultPlan,
    attempt: usize,
    budget_units: Option<u64>,
) -> Result<ScenarioOutcome, AttemptError> {
    let body = || -> Result<ScenarioOutcome, AttemptError> {
        let mut budget = WorkBudget::new(budget_units);
        let mut design = grid.design;
        design.params.mu = scenario.mu;
        // Fail exactly where (and with exactly the message) a fresh
        // engine run would: prepare_design validates the config before
        // fitting.
        design
            .validate()
            .map_err(|e| AttemptError::Error(e.to_string()))?;

        let reviews = trace.reviews().len() as u64;
        budget.charge("detect", reviews)?;
        faults.fire_at(scenario.id, attempt, FaultPoint::Detect)?;
        let detection = detect_slot
            .get_or_compute(|| {
                faults.fire_in_stage(scenario.id, attempt, FaultPoint::Detect);
                Arc::new(run_pipeline(trace, grid.pipeline))
            })
            .map_err(AttemptError::Panic)?;

        budget.charge("fit", reviews)?;
        faults.fire_at(scenario.id, attempt, FaultPoint::Fit)?;
        let prep = fit_slot
            .get_or_compute(|| {
                faults.fire_in_stage(scenario.id, attempt, FaultPoint::Fit);
                dcc_core::prepare_design(trace, &detection, &design)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .map_err(AttemptError::Panic)?
            .map_err(AttemptError::Error)?;

        budget.charge(
            "solve",
            (prep.subproblems.len() as u64).saturating_mul(design.intervals as u64),
        )?;
        faults.fire_at(scenario.id, attempt, FaultPoint::Solve)?;

        // The source is a placeholder: trace/detection/prep (and, on a
        // solve-memo hit, the solved design) are pre-seeded in stage
        // order — each setter invalidates only later stages — so the
        // skipped stages never run and ingest never reads the source.
        let make_ctx = || {
            let mut config = EngineConfig::for_source(TraceSource::CsvDir(PathBuf::new()));
            config.pipeline = grid.pipeline;
            config.design = design;
            config.pool = PoolSize::Sequential;
            config.strategy = scenario.strategy;
            if let Some(sim) = grid.sim {
                config.sim = sim;
            }
            let mut ctx = RoundContext::new(config);
            ctx.set_trace(Arc::clone(trace));
            ctx.set_detection(Arc::clone(&detection));
            ctx.set_prep(Arc::clone(&prep));
            ctx
        };

        let designed = solve_slot
            .get_or_compute(|| {
                faults.fire_in_stage(scenario.id, attempt, FaultPoint::Solve);
                let mut ctx = make_ctx();
                Engine::new()
                    .run_to(&mut ctx, StageKind::ConstructContracts)
                    .map_err(|e| e.to_string())?;
                ctx.shared_design().map_err(|e| e.to_string())
            })
            .map_err(AttemptError::Panic)?
            .map_err(AttemptError::Error)?;

        let full_spend: f64 = designed
            .solution
            .solutions
            .iter()
            .map(|s| s.built.compensation())
            .sum();
        let selection =
            select_within_budget(&designed.solution, scenario.budget_fraction * full_spend)
                .map_err(|e| AttemptError::Error(e.to_string()))?;
        let sim = if let Some(sim_config) = grid.sim {
            budget.charge(
                "simulate",
                (sim_config.rounds as u64).saturating_mul(designed.agents.len() as u64),
            )?;
            faults.fire_at(scenario.id, attempt, FaultPoint::Simulate)?;
            let mut ctx = make_ctx();
            ctx.set_solution(Arc::clone(&designed.solution), designed.degradation.clone());
            ctx.set_design(Arc::clone(&designed));
            Engine::new()
                .run_to(&mut ctx, StageKind::Simulate)
                .map_err(|e| AttemptError::Error(e.to_string()))?;
            match ctx
                .sim_outcome()
                .map_err(|e| AttemptError::Error(e.to_string()))?
            {
                EngineSimOutcome::Completed { outcome, .. } => Some(outcome.clone()),
                EngineSimOutcome::Killed { at_round, .. } => {
                    return Err(AttemptError::Error(format!(
                        "scenario simulation killed at round {at_round}"
                    )));
                }
            }
        } else {
            None
        };

        Ok(ScenarioOutcome {
            design: designed,
            budget: selection,
            full_spend,
            sim,
            detection,
        })
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(result) => result,
        Err(payload) => Err(AttemptError::Panic(panic_message(payload.as_ref()))),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

    use super::*;
    use crate::supervisor::{CheckpointConfig, FaultMode, ScenarioFault};
    use dcc_core::StrategyKind;
    use dcc_trace::SyntheticConfig;

    fn tiny(seed: u64) -> TraceDataset {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.n_honest = 12;
        cfg.n_ncm = 4;
        cfg.n_cm_target = 5;
        cfg.n_products = 80;
        cfg.n_rounds = 2;
        cfg.generate()
    }

    fn temp_ckpt(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dcc-batch-runner-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join("batch.ckpt")
    }

    /// Canonical byte encoding of a report's deterministic surface.
    fn encode(report: &BatchReport) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "stats {:?}", report.stats);
        for r in &report.records {
            let _ = write!(
                out,
                "#{} a{} d{} f{} s{} ",
                r.scenario.id,
                r.attempts,
                u8::from(r.detect_cached),
                u8::from(r.fit_cached),
                u8::from(r.solve_cached)
            );
            match (r.summary(), r.failure()) {
                (Some(s), _) => {
                    let _ = write!(
                        out,
                        "u={:016x} spend={:016x} funded={:?} ",
                        s.total_requester_utility.to_bits(),
                        s.spend.to_bits(),
                        s.funded
                    );
                    for a in &s.agents {
                        let _ = write!(
                            out,
                            "[{} {:016x} {:016x}]",
                            a.worker,
                            a.compensation.to_bits(),
                            a.induced_effort.to_bits()
                        );
                    }
                    let _ = writeln!(out);
                }
                (None, Some(f)) => {
                    let _ = writeln!(out, "err={f}");
                }
                (None, None) => {
                    let _ = writeln!(out, "lost");
                }
            }
        }
        for q in &report.quarantine.entries {
            let _ = writeln!(
                out,
                "quarantine #{} {} a{} {}",
                q.scenario,
                q.kind.label(),
                q.attempts,
                q.message
            );
        }
        out
    }

    #[test]
    fn mu_sweep_detects_and_fits_once() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0, 0.5]);
        let runner = BatchRunner::new();
        let report = runner.run(&grid).expect("batch run");
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.stats.detect.misses, 1);
        assert_eq!(report.stats.detect.hits, 2);
        assert_eq!(report.stats.fit.misses, 1);
        assert_eq!(report.stats.fit.hits, 2);
        // Three distinct μs: every solve is a miss.
        assert_eq!(report.stats.solve.misses, 3);
        assert_eq!(report.stats.solve.hits, 0);
        assert_eq!(report.failed(), 0);
        assert!(report.quarantine.is_empty());
        assert!(report.records.iter().all(|r| r.attempts == 1));
        // First scenario computes, the rest reuse (serial-schedule
        // accounting).
        assert!(!report.records[0].detect_cached);
        assert!(report.records[1].detect_cached && report.records[2].detect_cached);
    }

    #[test]
    fn warm_rerun_is_all_hits() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let runner = BatchRunner::new();
        runner.run(&grid).expect("cold run");
        let warm = runner.run(&grid).expect("warm run");
        assert_eq!(warm.stats.detect.misses, 0);
        assert_eq!(warm.stats.fit.misses, 0);
        assert_eq!(warm.stats.solve.misses, 0);
        assert_eq!(warm.stats.trace.misses, 0);
        assert!(warm
            .records
            .iter()
            .all(|r| r.detect_cached && r.fit_cached && r.solve_cached));
    }

    #[test]
    fn budget_axis_shares_one_solve() {
        // Same μ, three budget fractions: the design solves once and
        // each scenario carries its own budget selection.
        let mut grid = ScenarioGrid::for_trace(tiny(3), &[1.5]);
        grid.budget_fractions = vec![0.25, 0.5, 1.0];
        let report = BatchRunner::new().run(&grid).expect("batch run");
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.stats.solve.misses, 1);
        assert_eq!(report.stats.solve.hits, 2);
        let spends: Vec<f64> = report
            .records
            .iter()
            .map(|r| r.outcome().unwrap().budget.spend)
            .collect();
        assert!(spends[0] <= spends[1] && spends[1] <= spends[2]);
    }

    #[test]
    fn records_point_at_the_memo_design_and_detection() {
        // Two μs × two budgets × two strategies, simulated: eight
        // records, two solve keys, one detection.
        let trace = tiny(3);
        let mut grid = ScenarioGrid::for_trace(trace.clone(), &[1.5, 1.0]);
        grid.budget_fractions = vec![0.5, 1.0];
        grid.strategies = vec![
            StrategyKind::DynamicContract,
            StrategyKind::ExcludeMalicious,
        ];
        grid.sim = Some(dcc_core::SimulationConfig {
            rounds: 2,
            ..dcc_core::SimulationConfig::default()
        });
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Fixed(2),
            ..BatchOptions::default()
        });
        let report = runner.run(&grid).expect("batch run");
        assert_eq!(report.records.len(), 8);
        let dk = (
            trace_fingerprint(&trace),
            pipeline_fingerprint(&grid.pipeline),
        );
        let detection = runner.memo().get_detect(&dk).expect("memoized detection");
        let outcomes: Vec<(f64, &ScenarioOutcome)> = report
            .records
            .iter()
            .map(|r| (r.scenario.mu, r.outcome().expect("scenario ok")))
            .collect();
        for (mu, a) in &outcomes {
            assert!(Arc::ptr_eq(&a.detection, &detection));
            for (other_mu, b) in &outcomes {
                assert_eq!(
                    Arc::ptr_eq(&a.design, &b.design),
                    mu.to_bits() == other_mu.to_bits(),
                    "designs are shared exactly within a solve key"
                );
            }
        }
    }

    #[test]
    fn abort_policy_stops_on_poison_mu() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, -1.0, 1.0]);
        let err = BatchRunner::new().run(&grid).unwrap_err();
        match err {
            BatchError::Scenario { id, message } => {
                assert_eq!(id, 1);
                assert!(message.contains("mu must be positive"), "{message}");
            }
            other => panic!("expected Scenario error, got {other:?}"),
        }
    }

    #[test]
    fn skip_policy_itemizes_failures() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, -1.0, 1.0]);
        let runner = BatchRunner::with_options(BatchOptions {
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let report = runner.run(&grid).expect("skip run");
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.failed(), 1);
        assert!(report.records[0].result.is_ok());
        assert!(report.records[1].result.is_err());
        assert!(report.records[2].result.is_ok());
        // Deterministic errors are quarantined on the first attempt —
        // no retry budget is spent on them.
        assert_eq!(report.quarantine.len(), 1);
        assert_eq!(report.quarantine.entries[0].scenario, 1);
        assert_eq!(report.quarantine.entries[0].kind, FailureKind::Error);
        assert_eq!(report.quarantine.entries[0].attempts, 1);
    }

    #[test]
    fn pool_size_does_not_change_results() {
        let mut grid = ScenarioGrid::for_trace(tiny(5), &[2.0, 1.5, 1.0, 0.75]);
        grid.budget_fractions = vec![0.5, 1.0];
        let serial = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Sequential,
            ..BatchOptions::default()
        })
        .run(&grid)
        .expect("serial");
        let pooled = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Fixed(8),
            ..BatchOptions::default()
        })
        .run(&grid)
        .expect("pooled");
        assert_eq!(serial.records.len(), pooled.records.len());
        for (a, b) in serial.records.iter().zip(&pooled.records) {
            let (a, b) = (a.outcome().unwrap(), b.outcome().unwrap());
            assert_eq!(
                a.design.total_requester_utility.to_bits(),
                b.design.total_requester_utility.to_bits()
            );
            assert_eq!(a.budget.funded, b.budget.funded);
            assert_eq!(a.budget.spend.to_bits(), b.budget.spend.to_bits());
        }
        assert_eq!(serial.stats, pooled.stats);
    }

    #[test]
    fn run_scenarios_accepts_custom_lists_and_checks_bounds() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5]);
        let runner = BatchRunner::new();
        let custom = vec![Scenario {
            id: 0,
            trace: 0,
            mu: 1.25,
            budget_fraction: 1.0,
            strategy: StrategyKind::DynamicContract,
        }];
        let report = runner.run_scenarios(&grid, &custom).expect("custom list");
        assert_eq!(report.records.len(), 1);
        let bad = vec![Scenario { trace: 7, ..custom[0] }];
        assert!(matches!(runner.run_scenarios(&grid, &bad), Err(BatchError::Spec(_))));
    }

    #[test]
    fn provided_traces_are_content_addressed() {
        // Two grids with content-identical Provided traces share
        // detection state even though the values are distinct clones.
        let a = ScenarioGrid::for_trace(tiny(9), &[1.5]);
        let b = ScenarioGrid::for_trace(tiny(9), &[1.0]);
        let runner = BatchRunner::new();
        runner.run(&a).expect("first grid");
        let second = runner.run(&b).expect("second grid");
        assert_eq!(second.stats.trace.hits, 1);
        assert_eq!(second.stats.detect.misses, 0, "detection must be shared");
        assert_eq!(second.stats.fit.misses, 0, "fit must be shared");
    }

    #[test]
    fn injected_panic_is_contained_and_siblings_complete() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0, 0.5]);
        let sup = SupervisorOptions {
            faults: BatchFaultPlan::new().with_fault(
                1,
                ScenarioFault {
                    point: FaultPoint::Solve,
                    mode: FaultMode::Panic,
                    fails_before: usize::MAX,
                },
            ),
            ..SupervisorOptions::default()
        };
        let runner = BatchRunner::with_options(BatchOptions {
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let report = runner
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completed");
        assert_eq!(report.failed(), 1);
        assert!(report.records[0].result.is_ok());
        assert!(report.records[2].result.is_ok());
        let failure = report.records[1].failure().expect("quarantined");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("injected fault"), "{}", failure.message);
        assert_eq!(report.quarantine.len(), 1);
        assert_eq!(report.quarantine.count_of(FailureKind::Panic), 1);
    }

    #[test]
    fn transient_faults_recover_via_retry() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let sup = SupervisorOptions {
            max_retries: 2,
            faults: BatchFaultPlan::new().with_fault(
                0,
                ScenarioFault {
                    point: FaultPoint::Fit,
                    mode: FaultMode::TransientError,
                    fails_before: 2,
                },
            ),
            ..SupervisorOptions::default()
        };
        let runner = BatchRunner::new();
        let report = runner
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completed");
        assert_eq!(report.failed(), 0);
        assert_eq!(report.records[0].attempts, 3, "two injected failures, then success");
        assert_eq!(report.records[1].attempts, 1);
        // The recovered scenario's outputs equal an unfaulted run's.
        let clean = BatchRunner::new().run(&grid).expect("clean run");
        assert_eq!(
            report.records[0].summary().unwrap(),
            clean.records[0].summary().unwrap()
        );
    }

    #[test]
    fn retry_exhaustion_quarantines_deterministically() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let sup = SupervisorOptions {
            max_retries: 1,
            faults: BatchFaultPlan::new().with_fault(
                1,
                ScenarioFault {
                    point: FaultPoint::Detect,
                    mode: FaultMode::TransientError,
                    fails_before: usize::MAX,
                },
            ),
            ..SupervisorOptions::default()
        };
        let runner = BatchRunner::with_options(BatchOptions {
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let run = || {
            runner
                .run_supervised(&grid, &grid.scenarios(), &sup)
                .expect("supervised run")
                .into_report()
                .expect("completed")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.records[1].attempts, 2, "1 try + 1 retry");
        assert_eq!(a.quarantine, b.quarantine, "quarantine must be deterministic");
        assert!(a.records[1]
            .failure()
            .expect("quarantined")
            .to_string()
            .contains("after 2 attempts"));
    }

    #[test]
    fn work_budget_exhaustion_is_typed_and_deterministic() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let sup = SupervisorOptions {
            scenario_budget: Some(1), // far below one detect charge
            ..SupervisorOptions::default()
        };
        let runner = BatchRunner::with_options(BatchOptions {
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let report = runner
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completed");
        assert_eq!(report.failed(), 2);
        for r in &report.records {
            let f = r.failure().expect("budget-exhausted");
            assert_eq!(f.kind, FailureKind::BudgetExhausted);
            assert_eq!(r.attempts, 1, "budget exhaustion must not retry");
            assert!(f.message.contains("before detect"), "{}", f.message);
        }
        assert_eq!(report.quarantine.count_of(FailureKind::BudgetExhausted), 2);
    }

    #[test]
    fn panicking_scenario_never_poisons_the_memo() {
        // The poisoned scenario's μ (and thus its solve key) is
        // unique, so the in-stage panic deterministically fires in its
        // own slot; detection/fit keys are shared with healthy
        // siblings and must still land in the memo.
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0, 0.5]);
        let sup = SupervisorOptions {
            faults: BatchFaultPlan::new().with_fault(
                1,
                ScenarioFault {
                    point: FaultPoint::Solve,
                    mode: FaultMode::PanicInStage,
                    fails_before: usize::MAX,
                },
            ),
            ..SupervisorOptions::default()
        };
        let runner = BatchRunner::with_options(BatchOptions {
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let report = runner
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completed");
        assert_eq!(report.failed(), 1);
        assert_eq!(report.records[1].failure().expect("quarantined").kind, FailureKind::Panic);
        // Memo state: trace + detect + fit + the two healthy solves.
        let (traces, detects, fits, solves) = runner.memo().len();
        assert_eq!((traces, detects, fits), (1, 1, 1));
        assert_eq!(solves, 2, "the poisoned solve must not be memoized");
        // A rerun without the fault computes the poisoned solve fresh
        // and agrees with a fully clean runner bit-for-bit.
        let healed = runner
            .run_supervised(&grid, &grid.scenarios(), &SupervisorOptions::default())
            .expect("healed run")
            .into_report()
            .expect("completed");
        let clean = BatchRunner::new().run(&grid).expect("clean run");
        for (h, c) in healed.records.iter().zip(&clean.records) {
            assert_eq!(h.summary().unwrap(), c.summary().unwrap());
        }
    }

    #[test]
    fn kill_and_resume_reproduce_the_uninterrupted_report() {
        let mut grid = ScenarioGrid::for_trace(tiny(7), &[2.0, 1.5, 1.0, -1.0]);
        grid.budget_fractions = vec![0.5, 1.0];
        let scenarios = grid.scenarios();
        let path = temp_ckpt("kill-resume");
        let full = BatchRunner::with_options(BatchOptions {
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        })
        .run(&grid)
        .expect("uninterrupted");
        for kill_at in [2, 5] {
            let _ = std::fs::remove_file(&path);
            let killed = BatchRunner::with_options(BatchOptions {
                policy: FailurePolicy::Skip,
                ..BatchOptions::default()
            })
            .run_supervised(
                &grid,
                &scenarios,
                &SupervisorOptions {
                    kill_after: Some(kill_at),
                    checkpoint: Some(CheckpointConfig::new(&path)),
                    ..SupervisorOptions::default()
                },
            )
            .expect("killed run");
            match killed {
                BatchOutcome::Killed { completed, total, .. } => {
                    assert!(completed >= kill_at, "{completed} >= {kill_at}");
                    assert_eq!(total, scenarios.len());
                }
                BatchOutcome::Completed(_) => panic!("run must be killed at {kill_at}"),
            }
            let resumed = BatchRunner::with_options(BatchOptions {
                policy: FailurePolicy::Skip,
                ..BatchOptions::default()
            })
            .run_supervised(
                &grid,
                &scenarios,
                &SupervisorOptions {
                    checkpoint: Some(CheckpointConfig::new(&path)),
                    resume: true,
                    ..SupervisorOptions::default()
                },
            )
            .expect("resumed run")
            .into_report()
            .expect("completed");
            assert!(resumed.restored >= kill_at.min(scenarios.len()));
            assert_eq!(
                encode(&resumed),
                encode(&full),
                "resumed report must be byte-identical (kill at {kill_at})"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let grid_a = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let grid_b = ScenarioGrid::for_trace(tiny(4), &[1.5, 1.0]);
        let path = temp_ckpt("mismatch");
        let _ = std::fs::remove_file(&path);
        // Complete run of grid A leaves a full checkpoint behind.
        let outcome = BatchRunner::new()
            .run_supervised(
                &grid_a,
                &grid_a.scenarios(),
                &SupervisorOptions {
                    checkpoint: Some(CheckpointConfig::new(&path)),
                    ..SupervisorOptions::default()
                },
            )
            .expect("checkpointed run");
        assert!(matches!(outcome, BatchOutcome::Completed(_)));
        // Resuming grid B from grid A's checkpoint must fail loudly.
        let err = BatchRunner::new()
            .run_supervised(
                &grid_b,
                &grid_b.scenarios(),
                &SupervisorOptions {
                    checkpoint: Some(CheckpointConfig::new(&path)),
                    resume: true,
                    ..SupervisorOptions::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(&err, BatchError::Checkpoint(CoreError::CheckpointMismatch { .. })),
            "{err:?}"
        );
        // Resume without a checkpoint path is a spec error; kill
        // without a checkpoint likewise.
        let no_path = BatchRunner::new()
            .run_supervised(
                &grid_a,
                &grid_a.scenarios(),
                &SupervisorOptions { resume: true, ..SupervisorOptions::default() },
            )
            .unwrap_err();
        assert!(matches!(no_path, BatchError::Spec(_)));
        let no_ckpt = BatchRunner::new()
            .run_supervised(
                &grid_a,
                &grid_a.scenarios(),
                &SupervisorOptions { kill_after: Some(1), ..SupervisorOptions::default() },
            )
            .unwrap_err();
        assert!(matches!(no_ckpt, BatchError::Spec(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantined_failures_survive_resume_byte_identically() {
        // A quarantined panic lands in the checkpoint and is restored
        // with kind/attempts/message intact.
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0, 0.5]);
        let scenarios = grid.scenarios();
        let path = temp_ckpt("quarantine-resume");
        let _ = std::fs::remove_file(&path);
        let sup_faulty = |resume: bool, kill: Option<usize>| SupervisorOptions {
            max_retries: 1,
            kill_after: kill,
            checkpoint: Some(CheckpointConfig::new(&path)),
            resume,
            faults: BatchFaultPlan::new().with_fault(
                0,
                ScenarioFault {
                    point: FaultPoint::Detect,
                    mode: FaultMode::Panic,
                    fails_before: usize::MAX,
                },
            ),
            ..SupervisorOptions::default()
        };
        let options = || BatchOptions {
            pool: PoolSize::Sequential,
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        };
        let full = BatchRunner::with_options(options())
            .run_supervised(&grid, &scenarios, &SupervisorOptions {
                max_retries: 1,
                faults: sup_faulty(false, None).faults.clone(),
                ..SupervisorOptions::default()
            })
            .expect("full faulty run")
            .into_report()
            .expect("completed");
        let killed = BatchRunner::with_options(options())
            .run_supervised(&grid, &scenarios, &sup_faulty(false, Some(2)))
            .expect("killed run");
        assert!(matches!(killed, BatchOutcome::Killed { .. }));
        let resumed = BatchRunner::with_options(options())
            .run_supervised(&grid, &scenarios, &sup_faulty(true, None))
            .expect("resumed run")
            .into_report()
            .expect("completed");
        assert_eq!(encode(&resumed), encode(&full));
        assert_eq!(resumed.quarantine, full.quarantine);
        let _ = std::fs::remove_file(&path);
    }
}
