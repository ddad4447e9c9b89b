//! Bitwise pins of every simulated outcome.
//!
//! Each case runs one of the four simulation loops — [`Simulation`]
//! (with and without injected faults), [`AdaptiveSimulation`],
//! [`LinearPricingBandit`] and [`replay_trace`] — or the batch runner's
//! simulate stage over a small scenario grid, and folds every output
//! field into an FNV-1a 64 digest by `f64::to_bits`. The committed
//! digests were computed once; a refactor of any round loop must leave
//! every one of them unchanged. A change that moves a single bit of a
//! single field (a reordered RNG draw, a re-associated sum) fails here
//! even where the goldens' 1e-9 tolerance would let it pass.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dyncontract::batch::{BatchOptions, BatchRunner, ScenarioGrid};
use dyncontract::core::{
    design_contracts, replay_trace, AdaptiveAgent, AdaptiveConfig, AdaptiveOutcome,
    AdaptiveSimulation, AgentSpec, BanditOutcome, BaselineStrategy, CollusionProofParams,
    ConductModel, DesignConfig, LinearPricingBandit, ModelParams, ReplayOutcome, RoundRecord,
    Simulation, SimulationConfig, SimulationOutcome, StrategyKind,
};
use dyncontract::detect::{run_pipeline, PipelineConfig};
use dyncontract::engine::PoolSize;
use dyncontract::faults::{FaultInjector, FaultPlanConfig};
use dyncontract::numerics::{Fnv, Quadratic};
use dyncontract::trace::{SyntheticConfig, TraceDataset};
use std::collections::BTreeSet;

fn records(h: &mut Fnv, rounds: &[RoundRecord]) {
    h.write_usize(rounds.len());
    for r in rounds {
        h.write_usize(r.round);
        h.write_f64(r.benefit);
        h.write_f64(r.payment);
        h.write_f64(r.requester_utility);
    }
}

fn floats(h: &mut Fnv, xs: &[f64]) {
    h.write_usize(xs.len());
    for &x in xs {
        h.write_f64(x);
    }
}

fn indices(h: &mut Fnv, xs: &[usize]) {
    h.write_usize(xs.len());
    for &x in xs {
        h.write_usize(x);
    }
}

fn sim_digest(o: &SimulationOutcome) -> u64 {
    let mut h = Fnv::new();
    records(&mut h, &o.rounds);
    h.write_f64(o.cumulative_requester_utility);
    h.write_f64(o.mean_round_utility);
    floats(&mut h, &o.agent_compensation);
    floats(&mut h, &o.agent_effort);
    h.finish()
}

fn adaptive_digest(o: &AdaptiveOutcome) -> u64 {
    let mut h = Fnv::new();
    records(&mut h, &o.rounds);
    indices(&mut h, &o.recontract_rounds);
    floats(&mut h, &o.final_estimated_weights);
    floats(&mut h, &o.agent_compensation);
    h.write_f64(o.mean_round_utility);
    h.write_f64(o.late_mean_utility);
    h.finish()
}

fn bandit_digest(o: &BanditOutcome) -> u64 {
    let mut h = Fnv::new();
    records(&mut h, &o.rounds);
    h.write_f64(o.mean_round_utility);
    h.write_f64(o.late_mean_utility);
    h.write_f64(o.best_slope);
    indices(&mut h, &o.pulls);
    h.finish()
}

fn replay_digest(o: &ReplayOutcome) -> u64 {
    let mut h = Fnv::new();
    records(&mut h, &o.rounds);
    floats(&mut h, &o.worker_compensation);
    h.write_f64(o.mean_round_utility);
    h.write_usize(o.observations);
    h.finish()
}

/// Compares computed digests with the pinned table, naming every case
/// and printing the whole computed table on a mismatch.
fn check(computed: &[(String, u64)], pinned: &[(&str, &str)]) {
    let computed: Vec<(String, String)> = computed
        .iter()
        .map(|(name, d)| (name.clone(), format!("{d:016x}")))
        .collect();
    let pinned: Vec<(String, String)> = pinned
        .iter()
        .map(|(name, d)| (name.to_string(), d.to_string()))
        .collect();
    let table: String = computed
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", \"{d}\"),\n"))
        .collect();
    assert_eq!(computed, pinned, "simulated outcomes moved; computed:\n{table}");
}

fn strategies() -> [(&'static str, StrategyKind); 4] {
    [
        ("dynamic", StrategyKind::DynamicContract),
        ("exclude", StrategyKind::ExcludeMalicious),
        ("fixed", StrategyKind::FixedPayment { amount: 1.0 }),
        (
            "collusion-proof",
            StrategyKind::CollusionProof {
                params: CollusionProofParams::default(),
            },
        ),
    ]
}

fn small_trace(seed: u64) -> TraceDataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.n_honest = 150;
    cfg.n_products = 600;
    cfg.generate()
}

/// A small design's parameters and each strategy's population.
fn designed_population() -> (ModelParams, Vec<(&'static str, Vec<AgentSpec>)>) {
    let trace = small_trace(271);
    let detection = run_pipeline(&trace, PipelineConfig::default());
    let config = DesignConfig::default();
    let design = design_contracts(&trace, &detection, &config).unwrap();
    let suspected: BTreeSet<_> = detection.suspected.iter().copied().collect();
    let populations = strategies()
        .into_iter()
        .map(|(label, kind)| {
            let agents = BaselineStrategy::new(kind)
                .assemble(&design, config.params.omega, &suspected, &trace)
                .unwrap();
            (label, agents)
        })
        .collect();
    (config.params, populations)
}

const SIMULATION_PINS: [(&str, &str); 16] = [
    ("dynamic/noise-0/no-faults", "30796114ad5f0fe3"),
    ("dynamic/noise-0/busy-plan", "b697b51c575e903c"),
    ("dynamic/noise-0.5/no-faults", "4940639410b39fe5"),
    ("dynamic/noise-0.5/busy-plan", "668fb7fa32a22518"),
    ("exclude/noise-0/no-faults", "1400055e281e7711"),
    ("exclude/noise-0/busy-plan", "063ee098edd7b9b4"),
    ("exclude/noise-0.5/no-faults", "3cf15f10aab80456"),
    ("exclude/noise-0.5/busy-plan", "c53e84ce725fb6a5"),
    ("fixed/noise-0/no-faults", "54ddc188c719dd52"),
    ("fixed/noise-0/busy-plan", "70a9b8ffb13c71be"),
    ("fixed/noise-0.5/no-faults", "341eda25234a77c9"),
    ("fixed/noise-0.5/busy-plan", "4ea5426d530cfea1"),
    ("collusion-proof/noise-0/no-faults", "c41ef711405859f1"),
    ("collusion-proof/noise-0/busy-plan", "460bbb6b3b71fad6"),
    ("collusion-proof/noise-0.5/no-faults", "ed97623e9d2640a5"),
    ("collusion-proof/noise-0.5/busy-plan", "5f40cd7b6e496998"),
];

#[test]
fn simulation_outcomes_are_pinned() {
    let (params, populations) = designed_population();
    let rounds = 16;
    let mut computed = Vec::new();
    for (label, agents) in &populations {
        // Dropouts, lost, corrupted and NaN reports, and late payments.
        let plan = FaultPlanConfig {
            agents: agents.len(),
            rounds,
            dropout_prob: 0.05,
            missing_prob: 0.08,
            corrupt_prob: 0.08,
            nan_prob: 0.04,
            delay_prob: 0.08,
            seed: 5,
            ..FaultPlanConfig::default()
        }
        .generate()
        .unwrap();
        assert!(
            !plan.dropouts.is_empty()
                && !plan.missing.is_empty()
                && !plan.corrupt.is_empty()
                && !plan.delays.is_empty(),
            "the busy plan must schedule every fault kind"
        );
        for noise in [0.0, 0.5] {
            let sim = Simulation::new(
                params,
                SimulationConfig {
                    rounds,
                    feedback_noise_sd: noise,
                    seed: 29,
                },
            );
            let clean = sim.run(agents).unwrap();
            let faulty = sim
                .run_with_faults(agents, &mut FaultInjector::new(&plan))
                .unwrap();
            computed.push((format!("{label}/noise-{noise}/no-faults"), sim_digest(&clean)));
            computed.push((format!("{label}/noise-{noise}/busy-plan"), sim_digest(&faulty)));
        }
    }
    check(&computed, &SIMULATION_PINS);
}

/// Twelve agents in three refitting groups under all four conduct
/// models; agent 7's designed weight is negative.
fn mixed_adaptive_population() -> Vec<AdaptiveAgent> {
    let psis = [
        Quadratic::new(-0.15, 2.5, 1.0),
        Quadratic::new(-0.1, 2.0, 0.5),
        Quadratic::new(-0.2, 3.0, 1.5),
    ];
    let conducts = [
        ConductModel::Stationary,
        ConductModel::Deceptive {
            honest_rounds: 8,
            attack_omega: 0.5,
            attack_weight: -0.5,
        },
        ConductModel::Drifting {
            decay_per_round: 0.97,
        },
        ConductModel::Reservation {
            reserve_utility: 0.5,
        },
    ];
    (0..12)
        .map(|id| AdaptiveAgent {
            id,
            group: id % 3,
            base_omega: if id % 4 == 1 { 0.3 } else { 0.0 },
            base_weight: if id == 7 { -0.4 } else { 1.0 + 0.1 * (id % 5) as f64 },
            true_psi: psis[id % 3],
            conduct: conducts[id % 4],
        })
        .collect()
}

const ADAPTIVE_PINS: [(&str, &str); 4] = [
    ("recontract-0/seed-3", "80a674f0140dfdbc"),
    ("recontract-0/seed-17", "2f63dfb6e844bf6d"),
    ("recontract-5/seed-3", "507fe3a1c61ac330"),
    ("recontract-5/seed-17", "18057e1cdb205f6a"),
];

#[test]
fn adaptive_outcomes_are_pinned() {
    let agents = mixed_adaptive_population();
    let params = ModelParams {
        mu: 1.0,
        ..ModelParams::default()
    };
    let mut computed = Vec::new();
    for recontract_every in [0, 5] {
        for seed in [3, 17] {
            let config = AdaptiveConfig {
                rounds: 30,
                recontract_every,
                window: 10,
                feedback_noise_sd: 0.3,
                audit_noise_sd: 0.1,
                intervals: 12,
                margin: 0.1,
                seed,
            };
            let outcome = AdaptiveSimulation::new(params, config).run(&agents).unwrap();
            computed.push((
                format!("recontract-{recontract_every}/seed-{seed}"),
                adaptive_digest(&outcome),
            ));
        }
    }
    check(&computed, &ADAPTIVE_PINS);
}

const BANDIT_PINS: [(&str, &str); 2] = [("epsilon-0.15", "290f4535d0e0b4d9"), ("epsilon-1", "18ce8ca9cd4bbdab")];

#[test]
fn bandit_outcomes_are_pinned() {
    let psi = Quadratic::new(-0.15, 2.5, 1.0);
    let mut agents: Vec<AgentSpec> = (0..10)
        .map(|id| AgentSpec {
            id,
            members: 1 + id % 3,
            omega: if id % 4 == 3 { 0.4 } else { 0.0 },
            weight: 1.0 + 0.1 * (id % 5) as f64,
            psi,
            contract: dyncontract::core::Contract::zero(psi.eval(0.0), psi.eval(8.0)).unwrap().into(),
            in_system: true,
        })
        .collect();
    agents[6].in_system = false;
    let params = ModelParams {
        mu: 1.2,
        ..ModelParams::default()
    };
    let mut computed = Vec::new();
    for epsilon in [0.15, 1.0] {
        let bandit = LinearPricingBandit {
            epsilon,
            ..LinearPricingBandit::default()
        };
        let outcome = bandit.run(&params, &agents).unwrap();
        computed.push((format!("epsilon-{epsilon}"), bandit_digest(&outcome)));
    }
    check(&computed, &BANDIT_PINS);
}

const REPLAY_PINS: [(&str, &str); 1] = [("replay", "94af7f2feb4d9cdb")];

#[test]
fn replay_outcome_is_pinned() {
    let trace = small_trace(404);
    let detection = run_pipeline(&trace, PipelineConfig::default());
    let config = DesignConfig::default();
    let design = design_contracts(&trace, &detection, &config).unwrap();
    let outcome = replay_trace(&trace, &detection, &design, &config.params).unwrap();
    check(&[("replay".to_string(), replay_digest(&outcome))], &REPLAY_PINS);
}

const GRID_PINS: [(&str, &str); 8] = [
    ("mu-1.5/dynamic", "4db6027bceaa1dd4"),
    ("mu-1.5/exclude", "4a27da399d984a93"),
    ("mu-1.5/fixed", "6aefbc7dc0d2a182"),
    ("mu-1.5/collusion-proof", "781f9100d6a017cf"),
    ("mu-1/dynamic", "6d413f11d9a2669c"),
    ("mu-1/exclude", "7c524af1b53502bf"),
    ("mu-1/fixed", "1ea072b6f551ae13"),
    ("mu-1/collusion-proof", "2c41269c047213cb"),
];

/// The batch path a sweep grid takes: one memoized design per μ, then
/// each strategy's simulation.
#[test]
fn batch_grid_outcomes_are_pinned() {
    let mut grid = ScenarioGrid::for_trace(small_trace(515), &[1.5, 1.0]);
    grid.strategies = strategies().iter().map(|&(_, kind)| kind).collect();
    grid.sim = Some(SimulationConfig {
        rounds: 12,
        ..SimulationConfig::default()
    });
    let report = BatchRunner::with_options(BatchOptions {
        pool: PoolSize::Fixed(2),
        ..BatchOptions::default()
    })
    .run(&grid)
    .unwrap();
    let labels = strategies();
    let computed: Vec<(String, u64)> = report
        .records
        .iter()
        .zip(labels.iter().cycle())
        .map(|(record, (label, _))| {
            let outcome = record.outcome().unwrap();
            let sim = outcome.sim.as_ref().unwrap();
            (format!("mu-{}/{label}", record.scenario.mu), sim_digest(sim))
        })
        .collect();
    check(&computed, &GRID_PINS);
}
