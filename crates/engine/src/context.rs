use crate::error::EngineError;
use crate::stages::StageKind;
use dcc_core::{
    BipSolution, ContractDesign, DegradationReport, DesignConfig, DesignPrep, SimulationConfig,
    SimulationOutcome, StrategyKind,
};
use dcc_detect::{DetectionResult, PipelineConfig};
use dcc_faults::FaultPlan;
use dcc_obs::Metrics;
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::path::PathBuf;
use std::sync::Arc;

/// Where the [`StageKind::Ingest`] stage gets its trace from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// A dataset already in memory (no I/O).
    Provided(TraceDataset),
    /// A CSV directory in the `dcc gen` layout.
    CsvDir(PathBuf),
    /// A `dcc-trace-col/2` binary columnar file (see `docs/trace.md`).
    Columnar(PathBuf),
    /// Generate a synthetic trace.
    Synthetic(SyntheticConfig),
}

/// Worker-pool sizing for [`StageKind::SolveSubproblems`].
///
/// Any choice produces **bit-identical** results — the pool only decides
/// how many scoped threads share the deterministic chunked fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolSize {
    /// Solve on the calling thread.
    Sequential,
    /// Use [`std::thread::available_parallelism`] (falls back to 4).
    #[default]
    Auto,
    /// Exactly this many workers (clamped to the subproblem count).
    Fixed(usize),
}

impl PoolSize {
    /// The concrete worker count this policy resolves to.
    pub fn resolve(self) -> usize {
        match self {
            PoolSize::Sequential => 1,
            PoolSize::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            PoolSize::Fixed(n) => n.max(1),
        }
    }
}

/// Everything the six stages need, in one place.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Trace source for the ingest stage.
    pub source: TraceSource,
    /// Detection pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Contract-design configuration (fitting + solving).
    pub design: DesignConfig,
    /// Worker-pool sizing for the parallel solve.
    pub pool: PoolSize,
    /// Which strategy the simulate stage plays (§V baselines).
    pub strategy: StrategyKind,
    /// Repeated-game configuration.
    pub sim: SimulationConfig,
    /// Deterministic fault schedule the simulate stage injects each
    /// round (empty by default).
    pub fault_plan: FaultPlan,
    /// Observability sink. Defaults to the inert noop recorder, so the
    /// hot path costs nothing unless a real recorder is installed (e.g.
    /// `Metrics::new(Arc::new(JsonRecorder::new()))` for `--metrics`).
    pub metrics: Metrics,
}

impl EngineConfig {
    /// A default configuration over an in-memory trace: ground-truth
    /// detection, default design, automatic pool, dynamic contracts.
    pub fn for_trace(trace: TraceDataset) -> Self {
        EngineConfig::for_source(TraceSource::Provided(trace))
    }

    /// A default configuration over an arbitrary trace source.
    pub fn for_source(source: TraceSource) -> Self {
        EngineConfig {
            source,
            pipeline: PipelineConfig::default(),
            design: DesignConfig::default(),
            pool: PoolSize::Auto,
            strategy: StrategyKind::DynamicContract,
            sim: SimulationConfig::default(),
            fault_plan: FaultPlan::default(),
            metrics: Metrics::noop(),
        }
    }
}

/// What the simulate stage produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSimOutcome {
    /// The repeated-game outcome.
    pub outcome: SimulationOutcome,
    /// Events in the configured fault plan.
    pub faults_scheduled: usize,
    /// Fault hits during the run (a dropout window counts once per
    /// round it covers).
    pub faults_fired: usize,
}

/// The shared blackboard the stages read from and write to.
///
/// The context owns the configuration, fixed once the context is built,
/// and one cached output slot per stage. The trace, detection, fit,
/// solution and design slots hold their outputs behind [`Arc`]s: a
/// setter takes either an owned value or an `Arc`
/// (`impl Into<Arc<T>>`), so a caller that already shares an output
/// seeds a context without copying it, and cloning a context copies
/// pointers, not stage outputs. Getters borrow, and return
/// [`EngineError::MissingOutput`] until the corresponding stage has
/// run; setters store an output and discard every later stage's. A run
/// over other settings (another μ, strategy, pool, …) is a new context.
#[derive(Debug, Clone)]
pub struct RoundContext {
    config: EngineConfig,
    trace: Option<Arc<TraceDataset>>,
    detection: Option<Arc<DetectionResult>>,
    prep: Option<Arc<DesignPrep>>,
    solved: Option<(Arc<BipSolution>, DegradationReport)>,
    design: Option<Arc<ContractDesign>>,
    sim_outcome: Option<EngineSimOutcome>,
}

impl RoundContext {
    /// An empty context over `config`; nothing is cached yet.
    pub fn new(config: EngineConfig) -> Self {
        RoundContext {
            config,
            trace: None,
            detection: None,
            prep: None,
            solved: None,
            design: None,
            sim_outcome: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Whether the output slot of `kind` is populated.
    pub fn has(&self, kind: StageKind) -> bool {
        match kind {
            StageKind::Ingest => self.trace.is_some(),
            StageKind::Detect => self.detection.is_some(),
            StageKind::FitEffort => self.prep.is_some(),
            StageKind::SolveSubproblems => self.solved.is_some(),
            StageKind::ConstructContracts => self.design.is_some(),
            StageKind::Simulate => self.sim_outcome.is_some(),
        }
    }

    /// Discards the cached outputs of every stage after `kind`.
    fn invalidate_after(&mut self, kind: StageKind) {
        for later in StageKind::ALL.into_iter().filter(|&k| k > kind) {
            match later {
                StageKind::Ingest => self.trace = None,
                StageKind::Detect => self.detection = None,
                StageKind::FitEffort => self.prep = None,
                StageKind::SolveSubproblems => self.solved = None,
                StageKind::ConstructContracts => self.design = None,
                StageKind::Simulate => self.sim_outcome = None,
            }
        }
    }

    // --- Stage outputs -------------------------------------------------

    /// The ingested trace.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the ingest stage has run.
    pub fn trace(&self) -> Result<&TraceDataset, EngineError> {
        self.trace.as_deref().ok_or(EngineError::MissingOutput {
            stage: StageKind::Ingest,
        })
    }

    /// The detection result.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the detect stage has run.
    pub fn detection(&self) -> Result<&DetectionResult, EngineError> {
        self.detection.as_deref().ok_or(EngineError::MissingOutput {
            stage: StageKind::Detect,
        })
    }

    /// The fitted decomposition (subproblems + class ψ-fits).
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the fit stage has run.
    pub fn prep(&self) -> Result<&DesignPrep, EngineError> {
        self.prep.as_deref().ok_or(EngineError::MissingOutput {
            stage: StageKind::FitEffort,
        })
    }

    /// The solved decomposition and its degradation report. The solution
    /// is the shared allocation the construct stage hands on to the
    /// design, so `Arc::clone` it to keep it past the context.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the solve stage has run.
    pub fn solved(&self) -> Result<&(Arc<BipSolution>, DegradationReport), EngineError> {
        self.solved.as_ref().ok_or(EngineError::MissingOutput {
            stage: StageKind::SolveSubproblems,
        })
    }

    /// The assembled per-worker contract design.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the construct stage has run.
    pub fn design(&self) -> Result<&ContractDesign, EngineError> {
        self.design.as_deref().ok_or(EngineError::MissingOutput {
            stage: StageKind::ConstructContracts,
        })
    }

    /// The simulation outcome.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the simulate stage has run.
    pub fn sim_outcome(&self) -> Result<&EngineSimOutcome, EngineError> {
        self.sim_outcome.as_ref().ok_or(EngineError::MissingOutput {
            stage: StageKind::Simulate,
        })
    }

    /// Publishes the ingest output, owned or shared, invalidating later
    /// stages.
    pub fn set_trace(&mut self, trace: impl Into<Arc<TraceDataset>>) {
        self.trace = Some(trace.into());
        self.invalidate_after(StageKind::Ingest);
    }

    /// Publishes the detect output, owned or shared, invalidating later
    /// stages.
    pub fn set_detection(&mut self, detection: impl Into<Arc<DetectionResult>>) {
        self.detection = Some(detection.into());
        self.invalidate_after(StageKind::Detect);
    }

    /// Publishes the fit output, owned or shared, invalidating later
    /// stages.
    pub fn set_prep(&mut self, prep: impl Into<Arc<DesignPrep>>) {
        self.prep = Some(prep.into());
        self.invalidate_after(StageKind::FitEffort);
    }

    /// Publishes the solve output (the solution owned or shared),
    /// invalidating later stages.
    pub fn set_solution(
        &mut self,
        solution: impl Into<Arc<BipSolution>>,
        degradation: DegradationReport,
    ) {
        self.solved = Some((solution.into(), degradation));
        self.invalidate_after(StageKind::SolveSubproblems);
    }

    /// Publishes the construct output, owned or shared, invalidating the
    /// simulate stage.
    pub fn set_design(&mut self, design: impl Into<Arc<ContractDesign>>) {
        self.design = Some(design.into());
        self.invalidate_after(StageKind::ConstructContracts);
    }

    /// Publishes the simulate output.
    pub fn set_outcome(&mut self, outcome: EngineSimOutcome) {
        self.sim_outcome = Some(outcome);
    }
}
