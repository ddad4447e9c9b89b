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
//! (trace, pipeline, fit-config) triple fits once, each distinct
//! (trace, pipeline, fit-config, design-config) quadruple — μ included,
//! budget fraction and strategy excluded — solves once, and each
//! distinct (solve key, strategy, sim-config) simulates once — budget
//! fraction excluded — no matter how many scenarios or how many threads
//! ask for it. The memo holds one
//! panic-safe slot per key: two workers never compute the same
//! detection concurrently, and a *panicking* computation resets its
//! slot instead of wedging it, so a poisoned scenario can neither block
//! nor contaminate its siblings. A scenario calls the stage functions
//! directly, as `dcc serve` does: `run_pipeline`, `prepare_design`,
//! `solve_subproblems` → `assemble_design`, and
//! `BaselineStrategy::assemble` → `Simulation::run`.
//!
//! Every scenario runs once under supervision
//! ([`BatchRunner::run_supervised`]): `catch_unwind` panic isolation,
//! an optional logical work-budget, and quarantine: a failed scenario's
//! record carries its [`ScenarioFailure`] and the sweep goes on
//! ([`BatchReport::failures`]). With a [`CheckpointConfig`] the runner
//! snapshots partial results (`dcc-batch-ckpt/3`) and can resume an
//! interrupted sweep with output byte-identical to an uninterrupted
//! run.
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

use crate::ckpt::{load_checkpoint, CkptEntry, CkptWriter, ScenarioSummary};
use crate::grid::{strategy_label, Scenario, ScenarioGrid, TraceSpec};
use crate::memo::{
    fit_fingerprint, pipeline_fingerprint, simulate_fingerprint, solve_fingerprint,
    trace_fingerprint, MemoStats, SimKey, SolveKey, StageMemo,
};
use crate::supervisor::{
    panic_message, BatchOutcome, FailureKind, FaultPoint, ScenarioFailure, SupervisorOptions,
    WorkBudget,
};
use dcc_core::{
    assemble_design, prepare_design, select_within_budget, solve_subproblems, BaselineStrategy,
    BudgetedSelection, ContractDesign, CoreError, FailurePolicy, Simulation, SimulationOutcome,
};
use dcc_detect::{run_pipeline, DetectionResult};
use dcc_engine::{PoolSize, TraceSource};
use dcc_numerics::Fnv;
use dcc_obs::{names as obs, AttrValue, Metrics};
use dcc_trace::{read_trace_columnar, read_trace_csv, TraceDataset};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Repeated-game outcome; `None` for design-only grids. The memo's
    /// own allocation, so every scenario with the same solve key and
    /// strategy (a budget sweep) points at one outcome: the simulation
    /// never reads the budget fraction.
    pub sim: Option<Arc<SimulationOutcome>>,
    /// The memo's detection result the design used.
    pub detection: Arc<DetectionResult>,
}

/// How a successful scenario's results are held: computed in full this
/// run, or restored (canonical summary only) from a checkpoint.
#[derive(Debug, Clone)]
pub enum ScenarioResult {
    /// Computed this run; the full outcome is available.
    Computed(ScenarioOutcome),
    /// Restored from a `dcc-batch-ckpt/3` checkpoint; only the
    /// canonical [`ScenarioSummary`] survives a process boundary.
    Restored(ScenarioSummary),
}

/// One scenario's merged result.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The grid point this record answers.
    pub scenario: Scenario,
    /// The outcome (computed or restored), or the failure that
    /// quarantined the scenario (present in the report only under
    /// non-abort policies).
    pub result: Result<ScenarioResult, ScenarioFailure>,
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

    /// The failure, if the scenario was quarantined.
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
    /// Scenarios restored from a checkpoint instead of recomputed.
    pub restored: usize,
    /// Total wall time (not part of deterministic output).
    pub elapsed: Duration,
}

impl BatchReport {
    /// Records that ended in an error.
    pub fn failed(&self) -> usize {
        self.failures().count()
    }

    /// The quarantined scenarios: each failed record's scenario id and
    /// failure, in input order — deterministic at every pool size.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &ScenarioFailure)> {
        self.records
            .iter()
            .filter_map(|r| r.failure().map(|f| (r.scenario.id, f)))
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

    /// Runs a scenario list under full supervision: each scenario runs
    /// once with panic isolation, a work budget and quarantine, and
    /// (when configured) `dcc-batch-ckpt/3` checkpointing with
    /// kill/resume.
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
        let writer = sup
            .checkpoint
            .as_ref()
            .map(|config| CkptWriter::new(&config.path, grid_fp, restored.clone()));

        // Cache flags follow the serial schedule: a scenario's key is a
        // hit when the memo held its value at run start or a lower-id
        // scenario shares it.
        let keys: Vec<Option<SolveKey>> = scenarios
            .iter()
            .map(|s| {
                let (_, trace_fp) = traces.get(s.trace)?.as_ref()?;
                Some((*trace_fp, pipeline_fp, fit_fp, scenario_solve_fp(grid, s)))
            })
            .collect();
        // A design-only grid has no simulate keys.
        let sim_keys: Vec<Option<SimKey>> = keys
            .iter()
            .zip(scenarios)
            .map(|(key, s)| {
                Some((
                    (*key)?,
                    simulate_fingerprint(s.strategy, grid.sim.as_ref()?),
                ))
            })
            .collect();
        let mut seen = (
            BTreeSet::new(),
            BTreeSet::new(),
            BTreeSet::new(),
            BTreeSet::new(),
        );
        let flags: Vec<[bool; 3]> = keys
            .iter()
            .zip(&sim_keys)
            .map(|(key, sim_key)| {
                let Some(key @ (trace_fp, pipeline_fp, fit_fp, _)) = *key else {
                    return [false; 3];
                };
                let (dk, fk) = ((trace_fp, pipeline_fp), (trace_fp, pipeline_fp, fit_fp));
                let hits = [
                    !seen.0.insert(dk) || self.memo.detect.get(&dk).is_some(),
                    !seen.1.insert(fk) || self.memo.fit.get(&fk).is_some(),
                    !seen.2.insert(key) || self.memo.solve.get(&key).is_some(),
                ];
                stats.detect.record(hits[0]);
                stats.fit.record(hits[1]);
                stats.solve.record(hits[2]);
                if let Some(sk) = *sim_key {
                    stats
                        .simulate
                        .record(!seen.3.insert(sk) || self.memo.simulate.get(&sk).is_some());
                }
                hits
            })
            .collect();

        let workers = resolved_pool(self.options.pool, n);
        let slots: Vec<Mutex<Option<ScenarioRecord>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let fresh_done = AtomicUsize::new(0);
        // The kill threshold is checked before each pull, so `--kill-at
        // 0` stops before any work.
        let killed = || {
            sup.kill_after
                .is_some_and(|k| fresh_done.load(Ordering::Relaxed) >= k)
        };

        let job = |i: usize, scenario: &Scenario| -> Option<ScenarioRecord> {
            let [detect_cached, fit_cached, solve_cached] = flags.get(i).copied()?;
            let (result, elapsed) = match restored.get(&i) {
                Some(CkptEntry::Summary(summary)) => {
                    (Ok(ScenarioResult::Restored(summary.clone())), Duration::ZERO)
                }
                Some(CkptEntry::Failure(failure)) => (Err(failure.clone()), Duration::ZERO),
                None => {
                    let (trace, _) = traces.get(scenario.trace)?.as_ref()?;
                    let key = keys.get(i).copied().flatten()?;
                    let sim_key = sim_keys.get(i).copied().flatten();
                    #[allow(
                        clippy::disallowed_types,
                        reason = "worker-measured scenario duration, recorded post-merge and redacted in deterministic output"
                    )]
                    let t0 = Instant::now();
                    let result = run_scenario(grid, scenario, trace, &self.memo, key, sim_key, sup);
                    (result.map(ScenarioResult::Computed), t0.elapsed())
                }
            };
            Some(ScenarioRecord {
                scenario: *scenario,
                result,
                detect_cached,
                fit_cached,
                solve_cached,
                elapsed,
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
                fresh_done.fetch_add(1, Ordering::Relaxed);
            }
        };

        if workers <= 1 {
            for (i, scenario) in scenarios.iter().enumerate() {
                if killed() {
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
                        if killed() {
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

        if killed() {
            // Killed at the threshold: flush what completed and report
            // where to resume from. (A kill threshold requires a
            // checkpoint, validated above.)
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
                        }),
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

        let restored_count = records.iter().filter(|r| r.restored()).count();
        let report = BatchReport {
            records,
            stats,
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
        metrics.add(obs::COUNTER_BATCH_SIMULATE_HIT, report.stats.simulate.hits);
        metrics.add(obs::COUNTER_BATCH_SIMULATE_MISS, report.stats.simulate.misses);
        let quarantined = |kind: FailureKind| {
            report.failures().filter(|(_, f)| f.kind == kind).count() as u64
        };
        metrics.add(obs::COUNTER_BATCH_QUARANTINE_SCENARIOS, report.failed() as u64);
        metrics.add(obs::COUNTER_BATCH_QUARANTINE_PANICS, quarantined(FailureKind::Panic));
        metrics.add(
            obs::COUNTER_BATCH_QUARANTINE_BUDGET,
            quarantined(FailureKind::BudgetExhausted),
        );
        metrics.add(obs::COUNTER_BATCH_RESTORED, report.restored as u64);
        metrics.gauge(obs::GAUGE_BATCH_POOL, workers as f64);
        let secs = report.elapsed.as_secs_f64();
        let per_sec = if secs > 0.0 { report.records.len() as f64 / secs } else { 0.0 };
        metrics.gauge(obs::GAUGE_BATCH_SCENARIOS_PER_SEC, per_sec);
    }
}

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
/// A `dcc-batch-ckpt/3` checkpoint is only valid against the exact run
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
        Ok(ScenarioResult::Computed(outcome)) => {
            Some(CkptEntry::Summary(ScenarioSummary::of(outcome)))
        }
        Ok(ScenarioResult::Restored(_)) => None,
        Err(failure) => Some(CkptEntry::Failure(failure.clone())),
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

/// Runs one scenario against pre-resolved shared state, reproducing a
/// serial engine run bit-exactly: each stage is the function the engine
/// stage wraps, computed once per memo key. `sim_key` is `None` exactly
/// when the grid simulates nothing.
///
/// The whole scenario runs under `catch_unwind`, and each stage charges
/// its *data-derived* work cost **before** consulting the memo — so
/// work-budget exhaustion and fault injection are deterministic and
/// pool-invariant regardless of which sibling physically computes a
/// shared stage.
fn run_scenario(
    grid: &ScenarioGrid,
    scenario: &Scenario,
    trace: &TraceDataset,
    memo: &StageMemo,
    key: SolveKey,
    sim_key: Option<SimKey>,
    sup: &SupervisorOptions,
) -> Result<ScenarioOutcome, ScenarioFailure> {
    let body = || -> Result<ScenarioOutcome, ScenarioFailure> {
        let error = |e: CoreError| ScenarioFailure::error(e.to_string());
        let (trace_fp, pipeline_fp, fit_fp, _) = key;
        let faults = &sup.faults;
        let mut budget = WorkBudget::new(sup.scenario_budget);
        let mut design = grid.design;
        design.params.mu = scenario.mu;
        // Fail exactly where (and with exactly the message) a fresh
        // engine run would: prepare_design validates the config before
        // fitting.
        design.validate().map_err(error)?;

        let reviews = trace.reviews().len() as u64;
        budget.charge("detect", reviews)?;
        faults.fire_at(scenario.id, FaultPoint::Detect);
        let detection = memo
            .detect
            .get_or_compute((trace_fp, pipeline_fp), || {
                faults.fire_in_stage(scenario.id, FaultPoint::Detect);
                Arc::new(run_pipeline(trace, grid.pipeline))
            })
            .map_err(ScenarioFailure::panic)?;

        budget.charge("fit", reviews)?;
        faults.fire_at(scenario.id, FaultPoint::Fit);
        let prep = memo
            .fit
            .get_or_compute((trace_fp, pipeline_fp, fit_fp), || {
                faults.fire_in_stage(scenario.id, FaultPoint::Fit);
                prepare_design(trace, &detection, &design)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .map_err(ScenarioFailure::panic)?
            .map_err(ScenarioFailure::error)?;

        budget.charge(
            "solve",
            (prep.subproblems.len() as u64).saturating_mul(design.intervals as u64),
        )?;
        faults.fire_at(scenario.id, FaultPoint::Solve);
        // Scenarios fan out across the pool, so each solve runs on its
        // worker's thread alone.
        let designed = memo
            .solve
            .get_or_compute(key, || {
                faults.fire_in_stage(scenario.id, FaultPoint::Solve);
                let (solution, degradation) = solve_subproblems(
                    &prep.subproblems,
                    &design.params,
                    1,
                    design.failure_policy,
                    &Metrics::noop(),
                )
                .map_err(|e| e.to_string())?;
                Ok(Arc::new(assemble_design(&detection, &prep, solution, degradation)))
            })
            .map_err(ScenarioFailure::panic)?
            .map_err(ScenarioFailure::error)?;

        let full_spend: f64 = designed
            .solution
            .solutions
            .iter()
            .map(|s| s.built.compensation())
            .sum();
        let selection =
            select_within_budget(&designed.solution, scenario.budget_fraction * full_spend)
                .map_err(error)?;
        let sim = match grid.sim.zip(sim_key) {
            Some((sim_config, sim_key)) => {
                budget.charge(
                    "simulate",
                    (sim_config.rounds as u64).saturating_mul(designed.agents.len() as u64),
                )?;
                faults.fire_at(scenario.id, FaultPoint::Simulate);
                let outcome = memo
                    .simulate
                    .get_or_compute(sim_key, || {
                        faults.fire_in_stage(scenario.id, FaultPoint::Simulate);
                        let suspected: BTreeSet<_> = detection.suspected.iter().copied().collect();
                        let agents = BaselineStrategy::new(scenario.strategy)
                            .assemble(&designed, design.params.omega, &suspected, trace)
                            .map_err(|e| e.to_string())?;
                        Simulation::new(design.params, sim_config)
                            .run(&agents)
                            .map(Arc::new)
                            .map_err(|e| e.to_string())
                    })
                    .map_err(ScenarioFailure::panic)?
                    .map_err(ScenarioFailure::error)?;
                Some(outcome)
            }
            None => None,
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
        Err(payload) => Err(ScenarioFailure::panic(panic_message(payload.as_ref()))),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

    use super::*;
    use crate::supervisor::{BatchFaultPlan, CheckpointConfig, FaultMode, ScenarioFault};
    use crate::temp_dir::TempDir;
    use dcc_core::StrategyKind;
    use dcc_trace::SyntheticConfig;
    use std::path::PathBuf;

    fn tiny(seed: u64) -> TraceDataset {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.n_honest = 12;
        cfg.n_ncm = 4;
        cfg.n_cm_target = 5;
        cfg.n_products = 80;
        cfg.n_rounds = 2;
        cfg.generate()
    }

    /// A checkpoint path in a directory of the test's own, removed
    /// when the returned guard drops.
    fn temp_ckpt(tag: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new(&format!("dcc-batch-runner-{tag}"));
        let path = dir.join("batch.ckpt");
        (dir, path)
    }

    /// Canonical byte encoding of a report's deterministic surface.
    fn encode(report: &BatchReport) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "stats {:?}", report.stats);
        for r in &report.records {
            let _ = write!(
                out,
                "#{} d{} f{} s{} ",
                r.scenario.id,
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
        for (id, f) in report.failures() {
            let _ = writeln!(out, "quarantine #{id} {} {}", f.kind.label(), f.message);
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
        let detection = runner.memo().detect.get(&dk).expect("memoized detection");
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
        let quarantine: Vec<_> = report.failures().map(|(id, f)| (id, f.kind)).collect();
        assert_eq!(quarantine, vec![(1, FailureKind::Error)]);
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
                ScenarioFault { point: FaultPoint::Solve, mode: FaultMode::Panic },
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
        assert_eq!(report.failures().map(|(id, _)| id).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn injected_panic_quarantines_deterministically() {
        // A failing scenario runs once, and the same run quarantines it
        // with the same failure every time.
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let sup = SupervisorOptions {
            faults: BatchFaultPlan::new().with_fault(
                1,
                ScenarioFault { point: FaultPoint::Detect, mode: FaultMode::Panic },
            ),
            ..SupervisorOptions::default()
        };
        let run = || {
            BatchRunner::with_options(BatchOptions {
                policy: FailurePolicy::Skip,
                ..BatchOptions::default()
            })
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completed")
        };
        let (a, b) = (run(), run());
        assert_eq!(encode(&a), encode(&b), "quarantine must be deterministic");
        let failure = a.records[1].failure().expect("quarantined");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(
            failure.to_string(),
            "panicked: injected fault: scenario 1 panics at Detect"
        );
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
            assert!(f.message.contains("before detect"), "{}", f.message);
        }
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
                ScenarioFault { point: FaultPoint::Solve, mode: FaultMode::PanicInStage },
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
        let (traces, detects, fits, solves, _) = runner.memo().len();
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
    fn panicking_simulation_never_poisons_the_memo() {
        // Each μ is its own simulate key, so the in-stage panic fires in
        // scenario 1's own slot and leaves it empty.
        let mut grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0, 0.5]);
        grid.sim = Some(dcc_core::SimulationConfig {
            rounds: 2,
            ..dcc_core::SimulationConfig::default()
        });
        let sup = SupervisorOptions {
            faults: BatchFaultPlan::new().with_fault(
                1,
                ScenarioFault { point: FaultPoint::Simulate, mode: FaultMode::PanicInStage },
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
        let failure = report.records[1].failure().expect("quarantined");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("injected fault"), "{}", failure.message);
        assert_eq!(runner.memo().len(), (1, 1, 1, 3, 2), "no partial simulation is memoized");
        // A rerun without the fault simulates scenario 1 fresh and agrees
        // with a fully clean runner bit for bit.
        let healed = runner
            .run_supervised(&grid, &grid.scenarios(), &SupervisorOptions::default())
            .expect("healed run")
            .into_report()
            .expect("completed");
        assert_eq!(
            (healed.stats.simulate.hits, healed.stats.simulate.misses),
            (2, 1)
        );
        let clean = BatchRunner::new().run(&grid).expect("clean run");
        for (h, c) in healed.records.iter().zip(&clean.records) {
            assert_eq!(h.summary().unwrap(), c.summary().unwrap());
            assert_eq!(h.outcome().unwrap().sim, c.outcome().unwrap().sim);
        }
    }

    #[test]
    fn kill_and_resume_reproduce_the_uninterrupted_report() {
        let mut grid = ScenarioGrid::for_trace(tiny(7), &[2.0, 1.5, 1.0, -1.0]);
        grid.budget_fractions = vec![0.5, 1.0];
        let scenarios = grid.scenarios();
        let (_dir, path) = temp_ckpt("kill-resume");
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
    }

    #[test]
    fn kill_at_zero_stops_before_any_work() {
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let scenarios = grid.scenarios();
        let (_dir, path) = temp_ckpt("kill-zero");
        let runner = BatchRunner::new();
        let killed = runner
            .run_supervised(
                &grid,
                &scenarios,
                &SupervisorOptions {
                    kill_after: Some(0),
                    checkpoint: Some(CheckpointConfig::new(&path)),
                    ..SupervisorOptions::default()
                },
            )
            .expect("killed run");
        assert!(
            matches!(killed, BatchOutcome::Killed { completed: 0, total: 2, .. }),
            "{killed:?}"
        );
        assert_eq!(runner.memo().len(), (1, 0, 0, 0, 0), "only the trace was resolved");
        // The checkpoint holds no records, so a resume runs everything
        // and matches the uninterrupted report.
        let resumed = BatchRunner::new()
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
        assert_eq!(resumed.restored, 0);
        let full = BatchRunner::new().run(&grid).expect("uninterrupted");
        assert_eq!(encode(&resumed), encode(&full));
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let grid_a = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0]);
        let grid_b = ScenarioGrid::for_trace(tiny(4), &[1.5, 1.0]);
        let (_dir, path) = temp_ckpt("mismatch");
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
    }

    #[test]
    fn quarantined_failures_survive_resume_byte_identically() {
        // A quarantined panic lands in the checkpoint and is restored
        // with kind and message intact.
        let grid = ScenarioGrid::for_trace(tiny(3), &[1.5, 1.0, 0.5]);
        let scenarios = grid.scenarios();
        let (_dir, path) = temp_ckpt("quarantine-resume");
        let sup_faulty = |resume: bool, kill: Option<usize>| SupervisorOptions {
            kill_after: kill,
            checkpoint: Some(CheckpointConfig::new(&path)),
            resume,
            faults: BatchFaultPlan::new().with_fault(
                0,
                ScenarioFault { point: FaultPoint::Detect, mode: FaultMode::Panic },
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
        assert_eq!(resumed.failed(), 1);
    }
}
