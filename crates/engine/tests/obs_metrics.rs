//! Observability integration: the engine's metric stream must agree
//! with what the pipeline actually did — six stage spans with cache
//! flags, per-subproblem solve spans, per-round
//! simulation events, and degraded-mode / fault-injection accounting
//! that matches the `DegradationReport` and the injector's hit counts
//! exactly.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::{DegradationAction, FailurePolicy, Simulation};
use dcc_engine::{Engine, EngineConfig, EngineSimOutcome, PoolSize, RoundContext};
use dcc_faults::{FaultInjector, FaultPlanConfig};
use dcc_numerics::Quadratic;
use dcc_obs::{names, JsonRecorder, Metrics};
use dcc_trace::SyntheticConfig;
use std::sync::Arc;

fn small_config(seed: u64) -> EngineConfig {
    let mut synth = SyntheticConfig::small(seed);
    synth.n_honest = 14;
    synth.n_ncm = 5;
    synth.n_cm_target = 6;
    synth.n_rounds = 2;
    synth.n_products = 160;
    let mut config = EngineConfig::for_trace(synth.generate());
    config.design.intervals = 8;
    config.pool = PoolSize::Fixed(3);
    config.sim.rounds = 8;
    config
}

fn recording_ctx(mut config: EngineConfig) -> (Arc<JsonRecorder>, RoundContext) {
    let recorder = Arc::new(JsonRecorder::new());
    config.metrics = Metrics::new(recorder.clone());
    (recorder, RoundContext::new(config))
}

#[test]
fn all_six_stages_emit_spans_with_cache_flags() {
    let (recorder, mut ctx) = recording_ctx(small_config(11));
    Engine::new().run(&mut ctx).unwrap();
    assert_eq!(recorder.span_count(names::SPAN_ENGINE_RUN), 1);
    assert_eq!(recorder.span_count(names::SPAN_STAGE), 6);
    let json = recorder.to_json();
    for stage in [
        "ingest",
        "detect",
        "fit-effort",
        "solve-subproblems",
        "construct-contracts",
        "simulate",
    ] {
        assert!(
            json.contains(&format!("\"stage\":\"{stage}\"")),
            "missing span for stage {stage}"
        );
    }
    // A cold run computes everything: no cache hits.
    assert!(json.contains("\"cached\":false"));
    assert!(!json.contains("\"cached\":true"));
    // Per-subproblem solve spans rode along, nested under the engine run.
    assert!(recorder.span_count(names::SPAN_SUBPROBLEM) > 0);
    assert!(json.contains("\"iterations\":"));

    // A second run over the warm context is all cache hits.
    Engine::new().run(&mut ctx).unwrap();
    assert_eq!(recorder.span_count(names::SPAN_STAGE), 12);
    let json = recorder.to_json();
    assert!(json.contains("\"cached\":true"));
}

#[test]
fn degraded_mode_counters_match_the_degradation_report() {
    let mut config = small_config(52);
    config.design.failure_policy = FailurePolicy::FallbackBaseline { amount: 0.5 };
    let (recorder, mut ctx) = recording_ctx(config);
    let engine = Engine::new();

    // Fit, then corrupt one subproblem's psi so its solve must degrade.
    engine
        .run_to(&mut ctx, dcc_engine::StageKind::FitEffort)
        .unwrap();
    let mut prep = ctx.prep().unwrap().clone();
    prep.subproblems[1].psi = Quadratic::new(f64::NAN, 1.0, 0.0);
    ctx.set_prep(prep);
    engine.run(&mut ctx).unwrap();

    let report = &ctx.design().unwrap().degradation;
    assert_eq!(report.len(), 1, "exactly the corrupted subproblem degrades");
    assert!(matches!(
        report.degraded[0].action,
        DegradationAction::Fallback { .. }
    ));
    // The dcc-obs counters must agree with the report, one-for-one.
    assert_eq!(
        recorder.counter(names::COUNTER_SOLVE_DEGRADED),
        report.len() as u64
    );
    assert_eq!(recorder.counter(names::COUNTER_SOLVE_DEGRADED_FALLBACK), 1);
    assert_eq!(recorder.counter(names::COUNTER_SOLVE_DEGRADED_SKIPPED), 0);
    // The construct stage itemizes the same degradations as events.
    assert_eq!(
        recorder.event_count(names::EVENT_DESIGN_DEGRADED),
        report.len()
    );
    let json = recorder.to_json();
    assert!(json.contains("\"action\":\"fallback\""));
}

#[test]
fn fault_hit_counters_match_an_independent_injector_recount() {
    let mut config = small_config(97);
    let plan = FaultPlanConfig {
        agents: 25,
        rounds: 8,
        seed: 7,
        ..FaultPlanConfig::default()
    }
    .generate()
    .expect("default probabilities are valid");
    config.fault_plan = plan.clone();
    let (recorder, mut ctx) = recording_ctx(config.clone());
    Engine::new().run(&mut ctx).unwrap();

    let EngineSimOutcome {
        faults_scheduled,
        faults_fired,
        ..
    } = ctx.sim_outcome().unwrap();
    assert_eq!(*faults_scheduled, plan.len());
    assert_eq!(
        recorder.gauge_value(names::GAUGE_FAULTS_SCHEDULED),
        Some(plan.len() as f64)
    );
    // Counter vs. the engine's own accounting.
    assert_eq!(
        recorder.counter(names::COUNTER_FAULTS_FIRED),
        *faults_fired as u64
    );

    // Independent recount: replay the same simulation outside the engine
    // with a fresh injector and compare per-kind totals.
    let design = ctx.design().unwrap();
    let suspected = ctx.detection().unwrap().suspected.iter().copied().collect();
    let agents = dcc_core::BaselineStrategy::new(config.strategy)
        .assemble(design, config.design.params.omega, &suspected, ctx.trace().unwrap())
        .unwrap();
    let sim = Simulation::new(config.design.params, config.sim);
    let mut injector = FaultInjector::new(&plan);
    sim.run_with_faults(&agents, &mut injector).unwrap();
    let counts = injector.hit_counts();
    assert_eq!(counts.total(), *faults_fired, "engine vs rerun hit total");
    assert_eq!(
        recorder.counter(names::COUNTER_FAULTS_DROPPED),
        counts.dropped as u64
    );
    assert_eq!(
        recorder.counter(names::COUNTER_FAULTS_LOST),
        counts.lost_feedback as u64
    );
    assert_eq!(
        recorder.counter(names::COUNTER_FAULTS_CORRUPTED),
        counts.corrupted_feedback as u64
    );
    assert_eq!(
        recorder.counter(names::COUNTER_FAULTS_DELAYED),
        counts.delayed_payments as u64
    );
}

#[test]
fn per_round_events_cover_the_whole_horizon() {
    let (recorder, mut ctx) = recording_ctx(small_config(11));
    Engine::new().run(&mut ctx).unwrap();
    let rounds = ctx.config().sim.rounds;
    assert_eq!(recorder.counter(names::COUNTER_SIM_ROUNDS), rounds as u64);
    assert_eq!(recorder.event_count(names::EVENT_SIM_ROUND), rounds);
    let json = recorder.to_json();
    assert!(json.contains("\"u_req\":"));
    assert!(json.contains("\"benefit\":"));
    assert!(json.contains("\"payment\":"));
}

#[test]
fn metrics_never_perturb_the_pipeline_output() {
    let plain = {
        let mut ctx = RoundContext::new(small_config(11));
        Engine::new().run(&mut ctx).unwrap();
        ctx.sim_outcome().unwrap().clone()
    };
    let (_, mut ctx) = recording_ctx(small_config(11));
    Engine::new().run(&mut ctx).unwrap();
    assert_eq!(ctx.sim_outcome().unwrap(), &plain);
}
