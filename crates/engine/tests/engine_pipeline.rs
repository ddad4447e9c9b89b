//! Integration tests: the staged engine must reproduce the hand-wired
//! `run_pipeline → design_contracts → Simulation` chain bit-exactly,
//! cache stage outputs, and take seeded outputs as they are.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
#![allow(clippy::float_cmp)]

use dcc_core::{
    design_contracts, prepare_design, BaselineStrategy, DesignConfig, NoFaults, Simulation,
    SimulationConfig, StrategyKind,
};
use dcc_detect::{run_pipeline, PipelineConfig};
use dcc_engine::{Engine, EngineConfig, EngineError, PoolSize, RoundContext, StageKind, TraceSource};
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::ptr;
use std::sync::Arc;

fn trace() -> TraceDataset {
    SyntheticConfig::small(2024).generate()
}

fn context(trace: TraceDataset) -> RoundContext {
    RoundContext::new(EngineConfig::for_trace(trace))
}

/// A context over `trace` whose default configuration `edit` adjusts.
fn context_with(trace: TraceDataset, edit: impl FnOnce(&mut EngineConfig)) -> RoundContext {
    let mut config = EngineConfig::for_trace(trace);
    edit(&mut config);
    RoundContext::new(config)
}

#[test]
fn engine_matches_hand_wired_chain_bit_exactly() {
    let trace = trace();

    // Hand-wired reference chain (the pre-engine consumer idiom).
    let detection = run_pipeline(&trace, PipelineConfig::default());
    let config = DesignConfig::default();
    let design = design_contracts(&trace, &detection, &config).unwrap();
    let suspected: BTreeSet<_> = detection.suspected.iter().copied().collect();
    let agents = BaselineStrategy::new(StrategyKind::DynamicContract)
        .assemble(&design, config.params.omega, &suspected, &trace)
        .unwrap();
    let reference = Simulation::new(config.params, SimulationConfig::default())
        .run_with_faults(&agents, &mut NoFaults)
        .unwrap();

    // Engine over the same trace and defaults.
    let mut ctx = context(trace);
    Engine::new().run(&mut ctx).unwrap();

    let engine_design = ctx.design().unwrap();
    assert_eq!(engine_design.agents.len(), design.agents.len());
    assert_eq!(
        engine_design.total_requester_utility.to_bits(),
        design.total_requester_utility.to_bits()
    );
    assert_eq!(ctx.sim_outcome().unwrap().outcome, reference);
}

#[test]
fn seeded_arcs_come_back_as_the_same_allocations() {
    let trace = Arc::new(trace());
    let detection = Arc::new(run_pipeline(&trace, PipelineConfig::default()));
    let prep = Arc::new(prepare_design(&trace, &detection, &DesignConfig::default()).unwrap());
    // The source is never read: ingest, detect and fit are seeded.
    let seeded = || {
        let mut ctx = RoundContext::new(EngineConfig::for_source(TraceSource::CsvDir(
            PathBuf::new(),
        )));
        ctx.set_trace(Arc::clone(&trace));
        ctx.set_detection(Arc::clone(&detection));
        ctx.set_prep(Arc::clone(&prep));
        ctx
    };
    let same_inputs = |ctx: &RoundContext| {
        assert!(ptr::eq(ctx.trace().unwrap(), &*trace));
        assert!(ptr::eq(ctx.detection().unwrap(), &*detection));
        assert!(ptr::eq(ctx.prep().unwrap(), &*prep));
    };
    let engine = Engine::new();

    let mut ctx = seeded();
    engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    same_inputs(&ctx);
    let (solution, degradation) = ctx.solved().unwrap();
    assert!(
        Arc::ptr_eq(&ctx.design().unwrap().solution, solution),
        "construct shares the solution"
    );
    let design = Arc::new(ctx.design().unwrap().clone());

    let mut sim_ctx = seeded();
    sim_ctx.set_solution(Arc::clone(solution), degradation.clone());
    sim_ctx.set_design(Arc::clone(&design));
    let report = engine.run_to(&mut sim_ctx, StageKind::Simulate).unwrap();
    assert!(report.was_cached(StageKind::ConstructContracts));
    assert!(sim_ctx.sim_outcome().is_ok());
    same_inputs(&sim_ctx);
    assert!(Arc::ptr_eq(&sim_ctx.solved().unwrap().0, solution));
    assert!(ptr::eq(sim_ctx.design().unwrap(), &*design));
}

#[test]
fn stage_outputs_are_cached_on_a_second_run() {
    let mut ctx = context(trace());
    let engine = Engine::new();

    let first = engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(first.stages.iter().all(|s| !s.cached));

    // Second run: everything up to the requested stage is served from
    // cache.
    let second = engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(second.stages.iter().all(|s| s.cached));

    // Running on to the simulation computes only the new stage.
    let simulated = engine.run(&mut ctx).unwrap();
    assert!(simulated.was_cached(StageKind::ConstructContracts));
    assert!(!simulated.was_cached(StageKind::Simulate));
}

#[test]
fn pool_size_never_changes_the_design() {
    let design_at = |pool| {
        let mut ctx = context_with(trace(), |config| config.pool = pool);
        Engine::new()
            .run_to(&mut ctx, StageKind::ConstructContracts)
            .unwrap();
        ctx.design().unwrap().clone()
    };
    let sequential = design_at(PoolSize::Sequential);
    let pooled = design_at(PoolSize::Fixed(8));
    assert_eq!(pooled.solution, sequential.solution);
    assert_eq!(
        pooled.total_requester_utility.to_bits(),
        sequential.total_requester_utility.to_bits()
    );
}

#[test]
fn missing_output_is_a_typed_error() {
    let ctx = context(trace());
    let err = ctx.design().unwrap_err();
    assert!(matches!(
        err,
        EngineError::MissingOutput {
            stage: StageKind::ConstructContracts
        }
    ));
    let msg = err.to_string();
    assert!(msg.contains("construct-contracts"), "got: {msg}");
}
