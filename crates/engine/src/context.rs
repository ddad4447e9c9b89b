use crate::error::EngineError;
use crate::stage::StageKind;
use dcc_core::{
    BipSolution, ContractDesign, DegradationReport, DesignConfig, DesignPrep, SimulationConfig,
    SimulationOutcome, StrategyKind,
};
use dcc_detect::{DetectionResult, PipelineConfig};
use dcc_faults::FaultPlan;
use dcc_obs::Metrics;
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::path::PathBuf;

/// Where the [`StageKind::Ingest`] stage gets its trace from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// A dataset already in memory (no I/O).
    Provided(TraceDataset),
    /// A CSV directory in the `dcc gen` layout.
    CsvDir(PathBuf),
    /// A `dcc-trace-col/1` binary columnar file (see `docs/trace.md`).
    Columnar(PathBuf),
    /// Generate a synthetic trace.
    Synthetic(SyntheticConfig),
}

/// Worker-pool sizing for [`StageKind::SolveSubproblems`].
///
/// Any choice produces **bit-identical** results — the pool only decides
/// how many scoped threads share the deterministic chunked fan-out — so
/// changing it never invalidates cached outputs.
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

/// Fault-injection and checkpointing options for the simulate stage,
/// mirroring the `dcc simulate` flags.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Deterministic fault schedule to inject each round.
    pub fault_plan: FaultPlan,
    /// After every round, record here the run's input fingerprint and
    /// the rounds completed (`dcc-sim-ckpt/2`); a resume replays them.
    pub checkpoint: Option<PathBuf>,
    /// Stop (simulating a crash) before this round; requires `checkpoint`.
    pub kill_at: Option<usize>,
    /// Replay the rounds the checkpoint records, then go on; requires
    /// `checkpoint`.
    pub resume: bool,
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
    /// Fault plan and checkpoint/kill/resume options.
    pub sim_options: SimOptions,
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
            sim_options: SimOptions::default(),
            metrics: Metrics::noop(),
        }
    }
}

/// How the simulate stage ended.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSimOutcome {
    /// The horizon completed; the outcome plus fault accounting.
    Completed {
        /// The repeated-game outcome.
        outcome: SimulationOutcome,
        /// Events in the configured fault plan.
        faults_scheduled: usize,
        /// Events that actually fired during this invocation.
        faults_fired: usize,
    },
    /// The run was killed at `at_round` (per [`SimOptions::kill_at`])
    /// with the state checkpointed for a later resume.
    Killed {
        /// The round the simulated crash happened before.
        at_round: usize,
        /// The configured horizon.
        total_rounds: usize,
        /// Where the state was saved.
        checkpoint: PathBuf,
    },
}

/// The shared blackboard the stages read from and write to.
///
/// The context owns the configuration and one cached output slot per
/// stage. Getters return [`EngineError::MissingOutput`] until the
/// corresponding stage has run; setters store an output and discard
/// every later stage's cache. Config mutators invalidate only the
/// stages that actually depend on the touched field, so e.g. a μ-sweep
/// re-solves the subproblems each step but reuses the detection result
/// and the quadratic ψ-fits across the whole sweep.
#[derive(Debug, Clone)]
pub struct RoundContext {
    config: EngineConfig,
    trace: Option<TraceDataset>,
    detection: Option<DetectionResult>,
    prep: Option<DesignPrep>,
    solved: Option<(BipSolution, DegradationReport)>,
    design: Option<ContractDesign>,
    sim_outcome: Option<EngineSimOutcome>,
    /// Why each stage's cache slot was last invalidated (the mutator
    /// name). `None` for a slot that has never held data ("initial") or
    /// whose output is currently cached. Surfaced as the `cause`
    /// attribute on stage spans.
    causes: [Option<&'static str>; 6],
}

/// The inputs of the fit stage that, when changed, force a refit.
fn fit_key(design: &DesignConfig) -> (u64, usize, u64, Option<usize>) {
    (
        design.params.omega.to_bits(),
        design.intervals,
        design.effort_quantile.to_bits(),
        design.per_worker_fit_min_reviews,
    )
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
            causes: [None; 6],
        }
    }

    /// The active configuration.
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

    /// Discards the cached outputs of `kind` and every later stage.
    pub fn invalidate_from(&mut self, kind: StageKind) {
        self.invalidate_from_cause(kind, "invalidate_from");
    }

    /// Why `kind`'s cache slot was last invalidated (the responsible
    /// mutator's name), or `None` when the slot has never held data or
    /// currently holds its output.
    pub fn invalidation_cause(&self, kind: StageKind) -> Option<&'static str> {
        self.causes[kind.index()]
    }

    fn invalidate_from_cause(&mut self, kind: StageKind, cause: &'static str) {
        for k in StageKind::ALL {
            if k.index() >= kind.index() {
                self.clear_with(k, cause);
            }
        }
    }

    fn clear(&mut self, kind: StageKind) {
        match kind {
            StageKind::Ingest => self.trace = None,
            StageKind::Detect => self.detection = None,
            StageKind::FitEffort => self.prep = None,
            StageKind::SolveSubproblems => self.solved = None,
            StageKind::ConstructContracts => self.design = None,
            StageKind::Simulate => self.sim_outcome = None,
        }
    }

    /// Clears `kind`'s slot, attributing the invalidation to `cause` —
    /// but only when the slot actually held data, so a still-pending
    /// cause (e.g. `set_mu` on a stage that has not re-run yet) is not
    /// overwritten by a later no-op invalidation.
    fn clear_with(&mut self, kind: StageKind, cause: &'static str) {
        if self.has(kind) {
            self.causes[kind.index()] = Some(cause);
            self.clear(kind);
        }
    }

    fn invalidate_after(&mut self, kind: StageKind) {
        for k in StageKind::ALL {
            if k.index() > kind.index() {
                self.clear_with(k, "upstream_output");
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
        self.trace.as_ref().ok_or(EngineError::MissingOutput {
            stage: StageKind::Ingest,
        })
    }

    /// The detection result.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the detect stage has run.
    pub fn detection(&self) -> Result<&DetectionResult, EngineError> {
        self.detection.as_ref().ok_or(EngineError::MissingOutput {
            stage: StageKind::Detect,
        })
    }

    /// The fitted decomposition (subproblems + class ψ-fits).
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the fit stage has run.
    pub fn prep(&self) -> Result<&DesignPrep, EngineError> {
        self.prep.as_ref().ok_or(EngineError::MissingOutput {
            stage: StageKind::FitEffort,
        })
    }

    /// The solved decomposition and its degradation report.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingOutput`] until the solve stage has run.
    pub fn solved(&self) -> Result<&(BipSolution, DegradationReport), EngineError> {
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
        self.design.as_ref().ok_or(EngineError::MissingOutput {
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

    /// Publishes the ingest output, invalidating later stages.
    pub fn set_trace(&mut self, trace: TraceDataset) {
        self.trace = Some(trace);
        self.causes[StageKind::Ingest.index()] = None;
        self.invalidate_after(StageKind::Ingest);
    }

    /// Publishes the detect output, invalidating later stages.
    pub fn set_detection(&mut self, detection: DetectionResult) {
        self.detection = Some(detection);
        self.causes[StageKind::Detect.index()] = None;
        self.invalidate_after(StageKind::Detect);
    }

    /// Publishes the fit output, invalidating later stages.
    pub fn set_prep(&mut self, prep: DesignPrep) {
        self.prep = Some(prep);
        self.causes[StageKind::FitEffort.index()] = None;
        self.invalidate_after(StageKind::FitEffort);
    }

    /// Publishes the solve output, invalidating later stages.
    pub fn set_solution(&mut self, solution: BipSolution, degradation: DegradationReport) {
        self.solved = Some((solution, degradation));
        self.causes[StageKind::SolveSubproblems.index()] = None;
        self.invalidate_after(StageKind::SolveSubproblems);
    }

    /// Publishes the construct output, invalidating the simulate stage.
    pub fn set_design(&mut self, design: ContractDesign) {
        self.design = Some(design);
        self.causes[StageKind::ConstructContracts.index()] = None;
        self.invalidate_after(StageKind::ConstructContracts);
    }

    /// Publishes the simulate output.
    pub fn set_outcome(&mut self, outcome: EngineSimOutcome) {
        self.sim_outcome = Some(outcome);
        self.causes[StageKind::Simulate.index()] = None;
    }

    // --- Config mutators with precise invalidation ---------------------

    /// Replaces the trace source and invalidates everything.
    pub fn set_source(&mut self, source: TraceSource) {
        self.config.source = source;
        self.invalidate_from_cause(StageKind::Ingest, "set_source");
    }

    /// Replaces the detection configuration and invalidates from the
    /// detect stage on.
    pub fn set_pipeline_config(&mut self, pipeline: PipelineConfig) {
        if self.config.pipeline != pipeline {
            self.config.pipeline = pipeline;
            self.invalidate_from_cause(StageKind::Detect, "set_pipeline_config");
        }
    }

    /// Replaces the design configuration.
    ///
    /// Invalidation is precise: only when a *fit-relevant* field changes
    /// (`params.omega`, `intervals`, `effort_quantile`,
    /// `per_worker_fit_min_reviews`) are the cached ψ-fits discarded;
    /// any other change (μ, β, failure policy, …) re-solves from
    /// [`StageKind::SolveSubproblems`] and reuses the fits.
    pub fn set_design_config(&mut self, design: DesignConfig) {
        self.set_design_config_cause(design, "set_design_config");
    }

    fn set_design_config_cause(&mut self, design: DesignConfig, cause: &'static str) {
        if fit_key(&self.config.design) != fit_key(&design) {
            self.config.design = design;
            self.invalidate_from_cause(StageKind::FitEffort, cause);
        } else if self.config.design != design {
            self.config.design = design;
            self.invalidate_from_cause(StageKind::SolveSubproblems, cause);
        }
    }

    /// Sets the compensation weight μ (Eq. 7), re-solving from
    /// [`StageKind::SolveSubproblems`] while keeping detection and fits
    /// cached — the cheap path for a μ-sweep.
    pub fn set_mu(&mut self, mu: f64) {
        let mut design = self.config.design;
        design.params.mu = mu;
        self.set_design_config_cause(design, "set_mu");
    }

    /// Changes the worker-pool size. Never invalidates: the solve is
    /// bit-identical across pool sizes.
    pub fn set_pool(&mut self, pool: PoolSize) {
        self.config.pool = pool;
    }

    /// Changes the simulated strategy, invalidating only the simulate
    /// stage.
    pub fn set_strategy(&mut self, strategy: StrategyKind) {
        if self.config.strategy != strategy {
            self.config.strategy = strategy;
            self.invalidate_from_cause(StageKind::Simulate, "set_strategy");
        }
    }

    /// Changes the repeated-game configuration, invalidating only the
    /// simulate stage.
    pub fn set_sim_config(&mut self, sim: SimulationConfig) {
        if self.config.sim != sim {
            self.config.sim = sim;
            self.invalidate_from_cause(StageKind::Simulate, "set_sim_config");
        }
    }

    /// Changes fault/checkpoint options, invalidating only the simulate
    /// stage.
    pub fn set_sim_options(&mut self, options: SimOptions) {
        self.config.sim_options = options;
        self.invalidate_from_cause(StageKind::Simulate, "set_sim_options");
    }

    /// Installs an observability sink. Never invalidates: recording is
    /// output-neutral (the metric stream is a pure side channel).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.config.metrics = metrics;
    }
}
