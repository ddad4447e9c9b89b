use crate::proofness::{coalition_payment, CollusionProofParams};
use crate::{AgentSpec, Contract, ContractDesign, CoreError};
use dcc_numerics::Quadratic;
use dcc_trace::{ReviewerId, TraceDataset};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The pricing strategies compared in Fig. 8(c), plus the
/// collusion-proof baseline from the adversarial head-to-head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// The paper's dynamic contract (§IV): every worker gets its designed
    /// contract, malicious ones with penalized weights.
    DynamicContract,
    /// The intuitive baseline: exclude all suspected malicious workers
    /// from the system; honest workers keep their designed contracts.
    ExcludeMalicious,
    /// The fixed-payment pricing most platforms use (§I): every in-system
    /// worker is paid a constant `amount` per round regardless of
    /// feedback.
    FixedPayment {
        /// The constant per-round payment.
        amount: f64,
    },
    /// The misreport/collusion-proof baseline (Li–Wang–Cheng–Hu): each
    /// worker is paid on its star bias against the expert consensus and
    /// never on its (gameable) feedback — see [`crate::proofness`].
    CollusionProof {
        /// Payment-rule parameters.
        params: CollusionProofParams,
    },
}

/// Assembles the simulation population for a strategy from a completed
/// [`ContractDesign`].
///
/// All strategies share the same underlying worker behaviour (ω, true ψ,
/// Eq. 5 weights); only participation and contracts differ:
///
/// - [`StrategyKind::DynamicContract`] uses the designed contracts as-is,
/// - [`StrategyKind::ExcludeMalicious`] keeps only non-suspected agents,
/// - [`StrategyKind::FixedPayment`] replaces every contract with a flat
///   payment.
///
/// One [`AgentSpec`] per subproblem is produced (communities stay
/// aggregated, matching the meta-worker semantics of Eq. 3). Designed
/// contracts are shared with the design, not copied; the flat
/// contracts of the fixed-payment and collusion-proof strategies are
/// built per agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineStrategy {
    /// Which pricing strategy to assemble.
    pub kind: StrategyKind,
}

impl BaselineStrategy {
    /// Creates a strategy wrapper.
    pub fn new(kind: StrategyKind) -> Self {
        BaselineStrategy { kind }
    }

    /// Builds the agent population for this strategy.
    ///
    /// `true_psis` supplies each agent's *actual* behavioural response
    /// (the designed ψ may differ from reality when detection erred):
    /// `(honest, ncm, community)`. `suspected` lists the workers the
    /// strategy considers malicious, and `trace` is the review history
    /// the bias-based [`StrategyKind::CollusionProof`] payments are
    /// measured on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidContract`] for a negative fixed
    /// payment, [`CoreError::InvalidParams`] for invalid
    /// collusion-proof parameters, and propagates contract-construction
    /// failures.
    pub fn assemble(
        &self,
        design: &ContractDesign,
        omega: f64,
        suspected: &BTreeSet<ReviewerId>,
        trace: &TraceDataset,
    ) -> Result<Vec<AgentSpec>, CoreError> {
        let mut agents = Vec::with_capacity(design.solution.solutions.len());
        for sol in &design.solution.solutions {
            let is_suspected = sol
                .members
                .iter()
                .any(|&m| suspected.contains(&ReviewerId(m)));
            let is_community = sol.members.len() > 1;
            let (honest_psi, ncm_psi, cm_psi) = design.class_psis;
            let psi: Quadratic = if is_community {
                cm_psi
            } else if is_suspected {
                ncm_psi
            } else {
                honest_psi
            };
            let weight = sol.built.weight();

            let (contract, in_system) = match self.kind {
                StrategyKind::DynamicContract => (Arc::clone(sol.built.shared_contract()), true),
                StrategyKind::ExcludeMalicious => {
                    (Arc::clone(sol.built.shared_contract()), !is_suspected)
                }
                StrategyKind::FixedPayment { amount } => {
                    let knots = sol.built.contract().feedback_knots();
                    let (lo, hi) = (knots[0], knots[knots.len() - 1]);
                    (Arc::new(Contract::fixed(lo, hi, amount)?), true)
                }
                StrategyKind::CollusionProof { params } => {
                    params.validate()?;
                    let knots = sol.built.contract().feedback_knots();
                    let (lo, hi) = (knots[0], knots[knots.len() - 1]);
                    // Bias-based, feedback-independent pay: within a
                    // round the contract is flat, so no amount of
                    // coalition upvoting moves it.
                    let members: Vec<ReviewerId> =
                        sol.members.iter().map(|&m| ReviewerId(m)).collect();
                    let amount = coalition_payment(trace, &params, &members);
                    (Arc::new(Contract::fixed(lo, hi, amount)?), true)
                }
            };

            agents.push(AgentSpec {
                id: sol.id,
                members: sol.members.len(),
                omega: if is_suspected || is_community { omega } else { 0.0 },
                weight,
                psi,
                contract,
                in_system,
            });
        }
        Ok(agents)
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{design_contracts, DesignConfig, ModelParams, Simulation, SimulationConfig};
    use dcc_detect::{run_pipeline, PipelineConfig};
    use dcc_trace::SyntheticConfig;

    fn setup() -> (
        ContractDesign,
        BTreeSet<ReviewerId>,
        ModelParams,
        dcc_trace::TraceDataset,
    ) {
        let trace = SyntheticConfig::small(201).generate();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let config = DesignConfig::default();
        let design = design_contracts(&trace, &detection, &config).unwrap();
        let suspected: BTreeSet<ReviewerId> = detection.suspected.iter().copied().collect();
        (design, suspected, config.params, trace)
    }

    #[test]
    fn exclusion_drops_exactly_the_suspects() {
        let (design, suspected, params, trace) = setup();
        let ours = BaselineStrategy::new(StrategyKind::DynamicContract)
            .assemble(&design, params.omega, &suspected, &trace)
            .unwrap();
        let excl = BaselineStrategy::new(StrategyKind::ExcludeMalicious)
            .assemble(&design, params.omega, &suspected, &trace)
            .unwrap();
        assert_eq!(ours.len(), excl.len());
        let ours_in = ours.iter().filter(|a| a.in_system).count();
        let excl_in = excl.iter().filter(|a| a.in_system).count();
        assert!(excl_in < ours_in, "exclusion must drop someone");
        for (a, b) in ours.iter().zip(&excl) {
            if a.omega == 0.0 {
                assert!(b.in_system, "honest agents stay");
            } else {
                assert!(!b.in_system, "suspected agents leave");
            }
        }
    }

    #[test]
    fn dynamic_contract_beats_exclusion_in_simulation() {
        // The headline Fig. 8(c) claim.
        let (design, suspected, params, trace) = setup();
        let sim = Simulation::new(params, SimulationConfig::default());
        let ours = sim
            .run(
                &BaselineStrategy::new(StrategyKind::DynamicContract)
                    .assemble(&design, params.omega, &suspected, &trace)
                    .unwrap(),
            )
            .unwrap();
        let excl = sim
            .run(
                &BaselineStrategy::new(StrategyKind::ExcludeMalicious)
                    .assemble(&design, params.omega, &suspected, &trace)
                    .unwrap(),
            )
            .unwrap();
        assert!(
            ours.mean_round_utility >= excl.mean_round_utility,
            "ours {} must beat exclusion {}",
            ours.mean_round_utility,
            excl.mean_round_utility
        );
    }

    #[test]
    fn fixed_payment_buys_no_honest_effort() {
        let (design, suspected, params, trace) = setup();
        let fixed = BaselineStrategy::new(StrategyKind::FixedPayment { amount: 1.0 })
            .assemble(&design, params.omega, &suspected, &trace)
            .unwrap();
        let sim = Simulation::new(params, SimulationConfig::default());
        let outcome = sim.run(&fixed).unwrap();
        for (agent, effort) in fixed.iter().zip(&outcome.agent_effort) {
            if agent.omega == 0.0 {
                assert_eq!(*effort, 0.0, "flat pay induces no honest effort");
            }
        }
    }

    #[test]
    fn negative_fixed_payment_rejected() {
        let (design, suspected, params, trace) = setup();
        assert!(BaselineStrategy::new(StrategyKind::FixedPayment { amount: -1.0 })
            .assemble(&design, params.omega, &suspected, &trace)
            .is_err());
    }

    #[test]
    fn collusion_proof_contracts_are_flat_and_bias_priced() {
        let (design, suspected, params, trace) = setup();
        let cp_params = CollusionProofParams::default();
        let agents = BaselineStrategy::new(StrategyKind::CollusionProof { params: cp_params })
            .assemble(&design, params.omega, &suspected, &trace)
            .unwrap();
        assert!(agents.iter().all(|a| a.in_system));
        for (agent, sol) in agents.iter().zip(&design.solution.solutions) {
            let knots = agent.contract.feedback_knots();
            let low = agent.contract.compensation(knots[0]);
            let high = agent.contract.compensation(knots[knots.len() - 1]);
            assert_eq!(low, high, "payment must not read feedback");
            let members: Vec<ReviewerId> =
                sol.members.iter().map(|&m| ReviewerId(m)).collect();
            assert_eq!(
                low,
                crate::proofness::coalition_payment(&trace, &cp_params, &members)
            );
            assert!(low <= members.len() as f64 * cp_params.max_pay());
        }
        // Invalid parameters are rejected.
        let bad = CollusionProofParams { tolerance: -1.0, ..cp_params };
        assert!(BaselineStrategy::new(StrategyKind::CollusionProof { params: bad })
            .assemble(&design, params.omega, &suspected, &trace)
            .is_err());
    }
}
