//! Fault-tolerance integration: deterministic fault injection and
//! degraded contract design — end to end through the meta-crate's
//! public API.
//!
//! The headline guarantees exercised here:
//! - the engine's simulate stage under a busy fault plan reproduces
//!   `Simulation::run_with_faults` with a fresh `FaultInjector`
//!   *bit-exactly*, fault hits included,
//! - the same `(seed, FaultPlan)` pair always yields the identical
//!   outcome,
//! - `design_contracts` under `FallbackBaseline` completes (with a
//!   non-empty `DegradationReport`) on inputs where `Abort` errors, and
//!   the fallback contracts respect monotonicity and the Lemma 4.2/4.3
//!   compensation cap.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dyncontract::core::{
    bounds, design_contracts, solve_subproblems, BaselineStrategy, DesignConfig, Discretization,
    FailurePolicy, ModelParams, Simulation, SimulationConfig, StrategyKind, Subproblem,
};
use dyncontract::detect::{run_pipeline, PipelineConfig};
use dyncontract::engine::{Engine, EngineConfig, EngineSimOutcome, RoundContext};
use dyncontract::faults::{FaultInjector, FaultPlan, FaultPlanConfig};
use dyncontract::numerics::Quadratic;
use dyncontract::obs::Metrics;
use dyncontract::trace::SyntheticConfig;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn assembled_agents() -> (ModelParams, Vec<dyncontract::core::AgentSpec>) {
    let trace = SyntheticConfig::small(271).generate();
    let detection = run_pipeline(&trace, PipelineConfig::default());
    let config = DesignConfig::default();
    let design = design_contracts(&trace, &detection, &config).expect("design");
    let suspected: BTreeSet<_> = detection.suspected.iter().copied().collect();
    let agents = BaselineStrategy::new(StrategyKind::DynamicContract)
        .assemble(&design, config.params.omega, &suspected, &trace)
        .expect("assemble");
    (config.params, agents)
}

fn busy_plan(agents: usize, rounds: usize, seed: u64) -> FaultPlan {
    FaultPlanConfig {
        agents,
        rounds,
        dropout_prob: 0.05,
        missing_prob: 0.08,
        corrupt_prob: 0.08,
        nan_prob: 0.04,
        delay_prob: 0.08,
        seed,
        ..FaultPlanConfig::default()
    }
    .generate()
    .expect("valid plan config")
}

#[test]
fn engine_simulate_stage_matches_run_with_faults() {
    let trace = SyntheticConfig::small(271).generate();
    let (params, agents) = assembled_agents();
    let rounds = 16;
    let plan = busy_plan(agents.len(), rounds, 5);
    let sim_config = SimulationConfig {
        rounds,
        feedback_noise_sd: 0.5,
        seed: 29,
    };

    // Ground truth: the faulty run with a fresh injector.
    let sim = Simulation::new(params, sim_config);
    let mut injector = FaultInjector::new(&plan);
    let reference = sim.run_with_faults(&agents, &mut injector).expect("run");

    // The same run through the engine's simulate stage.
    let mut config = EngineConfig::for_trace(trace);
    config.sim = sim_config;
    config.fault_plan = plan.clone();
    let mut ctx = RoundContext::new(config);
    Engine::new().run(&mut ctx).expect("engine run");
    let EngineSimOutcome { outcome, faults_scheduled, faults_fired } =
        ctx.sim_outcome().expect("simulate ran");
    // Debug prints each float's shortest round-trip form, so equal
    // strings mean equal bits.
    assert_eq!(format!("{outcome:?}"), format!("{reference:?}"), "bit-exact");
    assert_eq!(*faults_scheduled, plan.len());
    let hits = injector.hit_counts().total();
    assert!(hits > 0, "a busy plan must fire");
    assert_eq!(*faults_fired, hits, "the engine fires the same faults");
}

#[test]
fn same_seed_and_plan_yield_the_identical_outcome() {
    let (params, agents) = assembled_agents();
    let rounds = 12;
    let plan = busy_plan(agents.len(), rounds, 17);
    let sim = Simulation::new(
        params,
        SimulationConfig {
            rounds,
            feedback_noise_sd: 0.5,
            seed: 41,
        },
    );
    let a = sim
        .run_with_faults(&agents, &mut FaultInjector::new(&plan))
        .expect("run a");
    let b = sim
        .run_with_faults(&agents, &mut FaultInjector::new(&plan))
        .expect("run b");
    assert_eq!(a, b);

    // A different plan seed perturbs the run (sanity that faults bite).
    let other = busy_plan(agents.len(), rounds, 18);
    let c = sim
        .run_with_faults(&agents, &mut FaultInjector::new(&other))
        .expect("run c");
    assert_ne!(a, c, "a busy fault plan must actually alter the run");
}

#[test]
fn fallback_design_completes_where_abort_errors() {
    let trace = SyntheticConfig::small(211).generate();
    let mut detection = run_pipeline(&trace, PipelineConfig::default());
    let victim = trace
        .reviewers()
        .iter()
        .map(|r| r.id)
        .find(|id| !trace.reviews_by(*id).is_empty())
        .expect("some reviewing worker");
    assert!(detection.weights.set_weight(victim, f64::NAN));

    let strict = DesignConfig::default();
    assert!(
        design_contracts(&trace, &detection, &strict).is_err(),
        "Abort must propagate the corrupted subproblem"
    );

    let lenient = DesignConfig {
        failure_policy: FailurePolicy::FallbackBaseline { amount: 0.4 },
        ..strict
    };
    let design = design_contracts(&trace, &detection, &lenient).expect("degraded design");
    assert!(!design.degradation.is_empty());
    assert!(design
        .degradation
        .degraded
        .iter()
        .any(|d| d.members.contains(&victim.index())));
    for agent in &design.agents {
        assert!(agent.contract.is_monotone());
        assert!(agent.compensation.is_finite() && agent.compensation >= 0.0);
    }
}

// ---------------------------------------------------------------------
// Property-based coverage
// ---------------------------------------------------------------------

fn subproblems(n: usize, psi: Quadratic, m: usize, y_max: f64) -> Vec<Subproblem> {
    let disc = Discretization::covering(m, y_max).expect("discretization");
    (0..n)
        .map(|i| Subproblem {
            id: i,
            members: vec![i].into(),
            omega: 0.0,
            weight: 1.0 + 0.2 * i as f64,
            psi,
            disc,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fallback contracts are monotone and pay within the Lemma 4.2/4.3
    /// compensation cap, for arbitrary requested fallback amounts.
    #[test]
    fn fallback_contracts_are_monotone_and_capped(
        amount in 0.0f64..80.0,
        r1 in 1.0f64..3.0,
        y_max in 3.0f64..10.0,
        m in 6usize..20,
        bad in 0usize..4,
    ) {
        let psi = Quadratic::new(-0.3 * r1 / (2.0 * y_max), r1, 0.5);
        let mut sps = subproblems(4, psi, m, y_max);
        sps[bad].weight = f64::NAN; // forces degradation of one subproblem
        let params = ModelParams::default();

        let solve = |sps: &[Subproblem], policy| {
            solve_subproblems(sps, &params, 1, policy, &Metrics::noop())
        };
        prop_assert!(solve(&sps, FailurePolicy::Abort).is_err());
        let (solution, report) = solve(&sps, FailurePolicy::FallbackBaseline { amount })?;
        prop_assert_eq!(report.len(), 1);
        prop_assert!(report.for_subproblem(bad).is_some());

        let degraded = &solution.solutions[bad];
        let contract = degraded.built.contract();
        prop_assert!(contract.is_monotone());
        let cap = bounds::compensation_upper_bound(&params, &sps[bad].disc, &psi, m);
        let pay = degraded.built.compensation();
        prop_assert!(pay >= 0.0, "pay {} must be nonnegative", pay);
        prop_assert!(
            pay <= cap + 1e-9,
            "fallback pay {} exceeds Lemma 4.2/4.3 cap {}",
            pay,
            cap
        );
        // The requested amount is honored whenever it fits under the cap.
        if amount <= cap {
            prop_assert!((pay - amount).abs() < 1e-12);
        }
        // Healthy subproblems match the clean solve exactly.
        let mut clean_sps = subproblems(4, psi, m, y_max);
        clean_sps[bad].weight = 1.0; // any finite value; only healthy ones compared
        let (clean, _) = solve(&clean_sps, FailurePolicy::Abort)?;
        for i in 0..4 {
            if i != bad {
                prop_assert_eq!(&solution.solutions[i], &clean.solutions[i]);
            }
        }
    }

    /// The full faulty simulation is a deterministic function of
    /// `(simulation seed, fault plan)` across arbitrary fault mixes.
    #[test]
    fn faulty_simulation_is_deterministic_in_seed_and_plan(
        plan_seed in 0u64..1000,
        sim_seed in 0u64..1000,
        dropout in 0.0f64..0.3,
        missing in 0.0f64..0.3,
        corrupt in 0.0f64..0.3,
        delay in 0.0f64..0.3,
    ) {
        let psi = Quadratic::new(-0.05, 2.0, 0.5);
        let disc = Discretization::new(12, 0.625)?;
        let params = ModelParams { mu: 1.5, ..ModelParams::default() };
        let built = dyncontract::core::ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(1.0)
            .build()?;
        let agents: Vec<dyncontract::core::AgentSpec> = (0..4)
            .map(|id| dyncontract::core::AgentSpec {
                id,
                members: 1,
                omega: 0.0,
                weight: 1.0,
                psi,
                contract: built.contract().clone().into(),
                in_system: true,
            })
            .collect();
        let plan = FaultPlanConfig {
            agents: agents.len(),
            rounds: 10,
            dropout_prob: dropout,
            missing_prob: missing,
            corrupt_prob: corrupt,
            nan_prob: 0.02,
            delay_prob: delay,
            seed: plan_seed,
            ..FaultPlanConfig::default()
        }
        .generate()?;
        // The plan itself is reproducible...
        let again = FaultPlanConfig {
            agents: agents.len(),
            rounds: 10,
            dropout_prob: dropout,
            missing_prob: missing,
            corrupt_prob: corrupt,
            nan_prob: 0.02,
            delay_prob: delay,
            seed: plan_seed,
            ..FaultPlanConfig::default()
        }
        .generate()?;
        prop_assert_eq!(&plan, &again);
        // ...and survives a JSON round trip...
        prop_assert_eq!(&FaultPlan::from_json_str(&plan.to_json_string())?, &plan);
        // ...and the simulated outcome is pinned by (sim_seed, plan).
        let sim = Simulation::new(
            params,
            SimulationConfig { rounds: 10, feedback_noise_sd: 0.5, seed: sim_seed },
        );
        let a = sim.run_with_faults(&agents, &mut FaultInjector::new(&plan))?;
        let b = sim.run_with_faults(&agents, &mut FaultInjector::new(&plan))?;
        prop_assert_eq!(a, b);
    }
}
