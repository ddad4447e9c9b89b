//! `Simulation::run` computes one best response per distinct
//! (ω, ψ, contract) bit pattern. These properties pin the efforts it
//! reports to the plain per-agent loop: the same efforts by bits, and on
//! failure the same error as the first failing agent.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::{
    best_response, AgentSpec, Contract, ContractBuilder, Discretization, ModelParams, Simulation,
    SimulationConfig,
};
use dcc_numerics::Quadratic;
use proptest::prelude::*;

fn params() -> ModelParams {
    ModelParams {
        mu: 1.5,
        ..ModelParams::default()
    }
}

fn contract(omega: f64, weight: f64, psi: Quadratic) -> Contract {
    let disc = Discretization::new(16, 0.625).expect("valid discretization");
    ContractBuilder::new(params(), disc, psi)
        .malicious(omega)
        .weight(weight)
        .build()
        .expect("healthy subproblem builds")
        .contract()
        .clone()
}

fn agent(omega: f64, psi: Quadratic, contract: &Contract) -> AgentSpec {
    AgentSpec {
        id: 0,
        members: 1,
        omega,
        weight: 1.0,
        psi,
        contract: contract.clone().into(),
        in_system: true,
    }
}

/// The agents the lists draw from: healthy ones first, then
/// `FAILING` whose best responses fail, each with its own message.
fn palette() -> Vec<AgentSpec> {
    let psi = Quadratic::new(-0.05, 2.0, 0.5);
    let flatter = Quadratic::new(-0.02, 1.5, 0.3);
    let honest = contract(0.0, 1.0, psi);
    let malicious = contract(0.4, 1.0, psi);
    let heavier = contract(0.0, 2.0, psi);
    let other_psi = contract(0.0, 1.0, flatter);
    vec![
        agent(0.0, psi, &honest),
        agent(-0.0, psi, &honest),
        agent(0.4, psi, &malicious),
        agent(0.4, psi, &honest),
        agent(0.0, psi, &heavier),
        agent(0.0, flatter, &other_psi),
        agent(0.0, Quadratic::new(0.05, 2.0, 0.5), &honest),
        agent(0.0, Quadratic::new(0.1, 2.0, 0.5), &honest),
        agent(0.0, Quadratic::new(-0.05, -1.0, 0.5), &honest),
        agent(f64::NAN, psi, &honest),
    ]
}

const FAILING: usize = 4;

fn sim() -> Simulation {
    Simulation::new(
        params(),
        SimulationConfig {
            rounds: 3,
            feedback_noise_sd: 0.0,
            seed: 5,
        },
    )
}

/// The per-agent loop the grouping replaces.
fn per_agent(agents: &[AgentSpec]) -> Result<Vec<f64>, String> {
    agents
        .iter()
        .map(|a| {
            if !a.in_system {
                return Ok(0.0);
            }
            let agent_params = ModelParams {
                omega: a.omega,
                ..params()
            };
            best_response(&agent_params, &a.psi, &a.contract)
                .map(|r| r.effort)
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn grouped(agents: &[AgentSpec]) -> Result<Vec<f64>, String> {
    sim()
        .run(agents)
        .map(|outcome| outcome.agent_effort)
        .map_err(|e| e.to_string())
}

fn bits(efforts: &[f64]) -> Vec<u64> {
    efforts.iter().map(|e| e.to_bits()).collect()
}

fn assert_same(agents: &[AgentSpec]) {
    match (grouped(agents), per_agent(agents)) {
        (Ok(g), Ok(p)) => assert_eq!(bits(&g), bits(&p)),
        (Err(g), Err(p)) => assert_eq!(g, p),
        (g, p) => panic!("grouped {g:?} but per-agent {p:?}"),
    }
}

#[test]
fn first_failing_agent_names_the_error() {
    let palette = palette();
    let healthy = palette[0].clone();
    let convex = palette[palette.len() - FAILING].clone();
    let other_convex = palette[palette.len() - FAILING + 1].clone();
    let agents = [healthy.clone(), convex, healthy, other_convex];
    let err = grouped(&agents).unwrap_err();
    assert!(err.contains("r2 = 0.05"), "{err}");
    assert_same(&agents);
}

#[test]
fn zero_and_negative_zero_omega_agree() {
    let palette = palette();
    let agents = [palette[0].clone(), palette[1].clone(), palette[0].clone()];
    let efforts = grouped(&agents).unwrap();
    assert!(efforts[0] > 0.0);
    assert_same(&agents);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lists mix repeated keys, ω = 0.0 next to −0.0 and agents out of
    /// the system; half of them may also hold failing agents.
    #[test]
    fn grouped_efforts_match_per_agent_best_responses(
        picks in proptest::collection::vec((0usize..16, 0u8..4), 0..40),
        with_failures in any::<bool>(),
    ) {
        let palette = palette();
        let healthy = palette.len() - FAILING;
        let agents: Vec<AgentSpec> = picks
            .iter()
            .enumerate()
            .map(|(id, &(pick, presence))| {
                let at = if with_failures { pick % palette.len() } else { pick % healthy };
                AgentSpec {
                    id,
                    in_system: presence != 0,
                    ..palette[at].clone()
                }
            })
            .collect();
        assert_same(&agents);
    }
}
