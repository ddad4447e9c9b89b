//! Scenario supervision: panic isolation, work-budget enforcement,
//! and quarantine.
//!
//! The batch runner executes untrusted-ish scenario pipelines on shared
//! worker threads over a shared [`crate::StageMemo`]. This module
//! provides the machinery that keeps one poisoned scenario from taking
//! the sweep down with it:
//!
//! - [`Slot`] — a compute-once cell like `OnceLock`, except a panicking
//!   initializer *resets* the cell instead of wedging it, so a waiting
//!   sibling retries the computation itself and a panic can never leave
//!   a partial value behind (memo-poisoning guarantee).
//! - [`WorkBudget`] — a *logical* per-scenario timeout: stages charge
//!   data-derived work units up front, so the budget is deterministic
//!   and pool-invariant (a wall-clock timeout would be neither, and the
//!   workspace lint forbids wall clocks outside `dcc-obs` anyway).
//! - [`BatchFaultPlan`] — deterministic fault injection for tests and
//!   chaos runs: a panic, at the scenario level or inside a shared
//!   stage, at a chosen pipeline point of a chosen scenario.
//! - [`ScenarioFailure`] — the typed failure a quarantined scenario's
//!   record carries.
//!
//! Each scenario runs exactly once. Every stage is a pure function of
//! the trace and the configuration, so running a failed scenario again
//! would only compute the same failure.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, PoisonError};

use crate::runner::BatchReport;

/// Options of a supervised batch run (see
/// [`crate::BatchRunner::run_supervised`]).
#[derive(Debug, Clone, Default)]
pub struct SupervisorOptions {
    /// Logical work-budget per scenario, in data-derived work units
    /// (reviews for detect/fit, subproblems × intervals for solve,
    /// rounds × agents for simulate). `None` disables the check.
    pub scenario_budget: Option<u64>,
    /// Stop pulling new scenarios once this many *fresh* (non-restored)
    /// scenarios completed, flush the checkpoint, and return
    /// [`BatchOutcome::Killed`]. Requires [`SupervisorOptions::checkpoint`].
    pub kill_after: Option<usize>,
    /// Partial-results checkpointing (`dcc-batch-ckpt/3`).
    pub checkpoint: Option<CheckpointConfig>,
    /// Restore completed scenarios from the checkpoint file before
    /// running; restored scenarios are not recomputed. Requires
    /// [`SupervisorOptions::checkpoint`].
    pub resume: bool,
    /// Deterministic fault injection (tests and chaos runs only).
    pub faults: BatchFaultPlan,
}

/// Where a supervised run snapshots partial results: the file is
/// rewritten after every fresh scenario completion.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path (written atomically: temp file + rename).
    pub path: PathBuf,
}

impl CheckpointConfig {
    /// A checkpoint at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig { path: path.into() }
    }
}

/// What a supervised batch run produced.
#[derive(Debug)]
pub enum BatchOutcome {
    /// Every scenario ran (or was restored); the full report.
    Completed(BatchReport),
    /// The run stopped early at the configured kill threshold.
    Killed {
        /// Scenarios with results in the checkpoint (restored included;
        /// may exceed the threshold by in-flight completions).
        completed: usize,
        /// Scenarios in the grid.
        total: usize,
        /// Where the partial results were saved.
        checkpoint: PathBuf,
    },
}

impl BatchOutcome {
    /// The completed report, if the run was not killed.
    pub fn into_report(self) -> Option<BatchReport> {
        match self {
            BatchOutcome::Completed(report) => Some(report),
            BatchOutcome::Killed { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Failures
// ---------------------------------------------------------------------------

/// Why a quarantined scenario failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The scenario panicked (caught by the supervisor).
    Panic,
    /// The scenario returned a pipeline error.
    Error,
    /// The scenario exceeded its logical work budget.
    BudgetExhausted,
}

impl FailureKind {
    /// Stable label used by the checkpoint format and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Error => "error",
            FailureKind::BudgetExhausted => "budget-exhausted",
        }
    }

    /// Parses a [`FailureKind::label`].
    pub(crate) fn parse(label: &str) -> Option<FailureKind> {
        match label {
            "panic" => Some(FailureKind::Panic),
            "error" => Some(FailureKind::Error),
            "budget-exhausted" => Some(FailureKind::BudgetExhausted),
            _ => None,
        }
    }
}

/// The failure of a quarantined scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFailure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The pipeline error, panic message, or budget diagnostic.
    pub message: String,
}

impl ScenarioFailure {
    /// A caught panic, with its message.
    pub(crate) fn panic(message: String) -> Self {
        ScenarioFailure { kind: FailureKind::Panic, message }
    }

    /// A pipeline error, with its message.
    pub(crate) fn error(message: String) -> Self {
        ScenarioFailure { kind: FailureKind::Error, message }
    }
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FailureKind::Panic => write!(f, "panicked: {}", self.message),
            FailureKind::Error | FailureKind::BudgetExhausted => write!(f, "{}", self.message),
        }
    }
}

/// Renders a caught panic payload (the `Box<dyn Any>` from
/// `catch_unwind`) as a human-readable message.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

// ---------------------------------------------------------------------------
// Logical work budget
// ---------------------------------------------------------------------------

/// A logical per-scenario work meter. Stages charge *data-derived* costs
/// before running (regardless of memo state), so exhaustion is
/// deterministic, pool-invariant, and resume-invariant — unlike any
/// wall-clock timeout.
#[derive(Debug)]
pub(crate) struct WorkBudget {
    budget: Option<u64>,
    used: u64,
}

impl WorkBudget {
    pub(crate) fn new(budget: Option<u64>) -> Self {
        WorkBudget { budget, used: 0 }
    }

    /// Charges `units` for the named stage; once the running total
    /// exceeds the budget, errs with a [`FailureKind::BudgetExhausted`]
    /// failure naming the stage, the units needed and the budget.
    pub(crate) fn charge(&mut self, stage: &str, units: u64) -> Result<(), ScenarioFailure> {
        self.used = self.used.saturating_add(units);
        match self.budget {
            Some(budget) if self.used > budget => Err(ScenarioFailure {
                kind: FailureKind::BudgetExhausted,
                message: format!(
                    "work budget exhausted before {stage}: \
                     needs {} logical units, budget {budget}",
                    self.used
                ),
            }),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Pipeline point a scenario fault fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before/inside the detection stage.
    Detect,
    /// Before/inside the ψ-fit stage.
    Fit,
    /// Before/inside the solve/construct stage.
    Solve,
    /// Before/inside the simulation stage.
    Simulate,
}

/// How an injected scenario fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic at the scenario level, *before* consulting the shared
    /// stage slot — deterministic and pool-invariant.
    Panic,
    /// Panic *inside* the shared stage computation, exercising the
    /// memo slot's recovery path. Deterministic only when the faulted
    /// scenario's stage key is unique in the grid (otherwise a sibling
    /// may compute the stage first and the fault never fires).
    PanicInStage,
}

/// One scheduled fault: the scenario fails at `point` with `mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFault {
    /// Where in the pipeline the fault fires.
    pub point: FaultPoint,
    /// How the fault manifests.
    pub mode: FaultMode,
}

/// A deterministic schedule of per-scenario faults for tests and chaos
/// runs. All targeting is by scenario id, so the schedule is a pure
/// function of the grid — never of thread timing.
#[derive(Debug, Clone, Default)]
pub struct BatchFaultPlan {
    faults: BTreeMap<usize, ScenarioFault>,
}

impl BatchFaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        BatchFaultPlan::default()
    }

    /// Schedules `fault` for the scenario with the given id.
    #[must_use]
    pub fn with_fault(mut self, scenario: usize, fault: ScenarioFault) -> Self {
        self.faults.insert(scenario, fault);
        self
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn armed(&self, scenario: usize, point: FaultPoint, mode: FaultMode) -> bool {
        self.faults
            .get(&scenario)
            .is_some_and(|f| f.point == point && f.mode == mode)
    }

    /// Fires a scenario-level [`FaultMode::Panic`] fault: panics right
    /// here, and the supervisor's `catch_unwind` catches it. Called
    /// before the stage consults its shared slot, so injection is
    /// pool-invariant.
    // Panicking is this function's contract: it exists to exercise the
    // supervisor's catch_unwind isolation.
    #[allow(clippy::panic)]
    pub(crate) fn fire_at(&self, scenario: usize, point: FaultPoint) {
        if self.armed(scenario, point, FaultMode::Panic) {
            std::panic::panic_any(format!(
                "injected fault: scenario {scenario} panics at {point:?}"
            ));
        }
    }

    /// Fires [`FaultMode::PanicInStage`] faults from inside a shared
    /// stage computation (the [`Slot`] closure).
    // Panicking is this function's contract: it exercises the Slot's
    // panic-safety and the supervisor's catch_unwind isolation.
    #[allow(clippy::panic)]
    pub(crate) fn fire_in_stage(&self, scenario: usize, point: FaultPoint) {
        if self.armed(scenario, point, FaultMode::PanicInStage) {
            std::panic::panic_any(format!(
                "injected fault: scenario {scenario} panics inside {point:?}"
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Panic-safe compute slot
// ---------------------------------------------------------------------------

enum SlotState<T> {
    /// Nothing computed yet; the next caller claims the computation.
    Empty,
    /// A thread is computing; callers wait on the condvar.
    Busy,
    /// The computed value; cloned out to every caller.
    Ready(T),
}

/// A compute-once cell that survives panicking initializers.
///
/// Like `OnceLock::get_or_init`, except: when the initializer panics,
/// the slot resets to `Empty` (instead of wedging forever), wakes every
/// waiter, and reports the panic message to the computing caller only.
/// Woken waiters *re-claim the computation themselves*, so one
/// scenario's panic never manifests as a sibling failure — and a panic
/// can never store a partial value, which is what keeps the shared
/// [`crate::StageMemo`], whose entries are slots, poison-free.
pub(crate) struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

impl<T: Clone> Slot<T> {
    pub(crate) fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Empty),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState<T>> {
        // A poisoned mutex is unreachable: every state transition
        // happens with the value moved in/out before unlocking, and
        // the computing closure runs outside the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value, if computed.
    pub(crate) fn peek(&self) -> Option<T> {
        match &*self.lock() {
            SlotState::Ready(value) => Some(value.clone()),
            _ => None,
        }
    }

    /// Returns the value, computing it (outside the lock) if this
    /// caller wins the claim; waits for — or takes over from — other
    /// computers otherwise.
    ///
    /// # Errors
    ///
    /// The panic message, when *this caller's own* `compute` panicked.
    /// A sibling's panic is invisible here: the waiter is woken, finds
    /// the slot `Empty` again, and computes with its own closure.
    pub(crate) fn get_or_compute(&self, compute: impl FnOnce() -> T) -> Result<T, String> {
        let mut guard = self.lock();
        loop {
            match &*guard {
                SlotState::Ready(value) => return Ok(value.clone()),
                SlotState::Busy => {
                    guard = self
                        .ready
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Empty => {
                    *guard = SlotState::Busy;
                    break;
                }
            }
        }
        drop(guard);
        match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(value) => {
                *self.lock() = SlotState::Ready(value.clone());
                self.ready.notify_all();
                Ok(value)
            }
            Err(payload) => {
                *self.lock() = SlotState::Empty;
                self.ready.notify_all();
                Err(panic_message(payload.as_ref()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn slot_computes_once_and_clones_out() {
        let slot = Slot::new();
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            7usize
        };
        assert_eq!(slot.get_or_compute(compute).unwrap(), 7);
        assert_eq!(slot.get_or_compute(|| 9usize).unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(slot.peek(), Some(7));
    }

    #[test]
    fn panicking_initializer_resets_the_slot() {
        let slot: Slot<usize> = Slot::new();
        let err = slot
            .get_or_compute(|| std::panic::panic_any("stage exploded".to_string()))
            .unwrap_err();
        assert!(err.contains("stage exploded"), "{err}");
        // The slot is Empty again, not wedged and not poisoned:
        assert_eq!(slot.peek(), None);
        assert_eq!(slot.get_or_compute(|| 11usize).unwrap(), 11);
    }

    #[test]
    fn waiting_sibling_takes_over_after_a_panic() {
        // One thread panics while computing; concurrent siblings must
        // all end up with the (their own) computed value.
        for _ in 0..16 {
            let slot: Slot<usize> = Slot::new();
            std::thread::scope(|scope| {
                let panicker = scope.spawn(|| {
                    slot.get_or_compute(|| std::panic::panic_any("boom".to_string()))
                });
                let siblings: Vec<_> = (0..4)
                    .map(|_| scope.spawn(|| slot.get_or_compute(|| 42usize)))
                    .collect();
                let err = panicker.join().expect("panicker thread caught its panic");
                assert!(err.is_err() || err == Ok(42), "{err:?}");
                for s in siblings {
                    assert_eq!(s.join().expect("sibling"), Ok(42));
                }
            });
            assert_eq!(slot.peek(), Some(42));
        }
    }

    #[test]
    fn budget_exhaustion_is_terminal_and_descriptive() {
        let mut budget = WorkBudget::new(Some(100));
        assert!(budget.charge("detect", 60).is_ok());
        let failure = budget.charge("solve", 50).unwrap_err();
        assert_eq!(failure.kind, FailureKind::BudgetExhausted);
        assert_eq!(
            failure.message,
            "work budget exhausted before solve: needs 110 logical units, budget 100"
        );
        assert!(WorkBudget::new(None).charge("solve", u64::MAX).is_ok());
    }

    #[test]
    fn fault_plan_fires_only_at_its_scenario_point_and_mode() {
        let fault = |mode| ScenarioFault { point: FaultPoint::Solve, mode };
        let plan = BatchFaultPlan::new()
            .with_fault(2, fault(FaultMode::Panic))
            .with_fault(3, fault(FaultMode::PanicInStage));
        let panics = |f: &dyn Fn()| catch_unwind(AssertUnwindSafe(f)).is_err();
        assert!(panics(&|| plan.fire_at(2, FaultPoint::Solve)));
        assert!(!panics(&|| plan.fire_at(2, FaultPoint::Fit)), "wrong point");
        assert!(!panics(&|| plan.fire_at(1, FaultPoint::Solve)), "wrong scenario");
        assert!(!panics(&|| plan.fire_in_stage(2, FaultPoint::Solve)), "wrong mode");
        assert!(panics(&|| plan.fire_in_stage(3, FaultPoint::Solve)));
        assert!(!panics(&|| plan.fire_at(3, FaultPoint::Solve)), "wrong mode");
    }

    #[test]
    fn injected_panics_are_catchable() {
        let plan = BatchFaultPlan::new().with_fault(
            0,
            ScenarioFault { point: FaultPoint::Detect, mode: FaultMode::Panic },
        );
        let caught = catch_unwind(AssertUnwindSafe(|| plan.fire_at(0, FaultPoint::Detect)));
        let payload = caught.unwrap_err();
        assert!(panic_message(payload.as_ref()).contains("injected fault"));
    }
}
