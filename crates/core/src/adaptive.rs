use crate::sim::{check_noise_sd, gaussian};
use crate::{
    best_response, fit_effort_function, ConductModel, Contract, ContractBuilder, CoreError,
    Discretization, ModelParams, RoundRecord,
};
use dcc_numerics::Quadratic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One agent of the adaptive repeated game.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveAgent {
    /// Caller-chosen identifier.
    pub id: usize,
    /// Refitting group: agents sharing a group pool their `(effort,
    /// feedback)` observations when the requester re-estimates the
    /// group's effort function (per-agent observations alone are
    /// degenerate — a stationary best responder produces a single effort
    /// level).
    pub group: usize,
    /// The worker's designed ω (its ω while not deviating).
    pub base_omega: f64,
    /// The weight the design phase assigned (Eq. 5).
    pub base_weight: f64,
    /// The worker's *true* effort function at round 0.
    pub true_psi: Quadratic,
    /// How the worker's conduct evolves (§VII extensions).
    pub conduct: ConductModel,
}

/// Configuration of the adaptive loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Total rounds `T`.
    pub rounds: usize,
    /// Redesign all contracts every `recontract_every` rounds (0 disables
    /// re-contracting — the static baseline).
    pub recontract_every: usize,
    /// Observation window (in rounds) used for re-fitting ψ and
    /// re-estimating weights.
    pub window: usize,
    /// Feedback noise standard deviation.
    pub feedback_noise_sd: f64,
    /// Noise of the requester's per-round accuracy audit of each agent's
    /// true weight (the spot-checking channel of §II).
    pub audit_noise_sd: f64,
    /// Number of effort intervals for redesigned contracts.
    pub intervals: usize,
    /// Incentive margin for the designed contracts (see
    /// [`crate::build_candidate_with_margin`]); the adaptive loop
    /// defaults to 0.1 — tight (margin-0) contracts are knife-edge and a
    /// drifting worker collapses to zero effort, leaving the requester
    /// with no informative observations to adapt from.
    pub margin: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            rounds: 40,
            recontract_every: 5,
            window: 10,
            feedback_noise_sd: 0.5,
            audit_noise_sd: 0.2,
            intervals: 20,
            margin: 0.1,
            seed: 13,
        }
    }
}

/// Outcome of an adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Per-round accounting (benefit uses the agents' *true* weights).
    pub rounds: Vec<RoundRecord>,
    /// The rounds at which contracts were redesigned.
    pub recontract_rounds: Vec<usize>,
    /// Each agent's estimated weight at the end of the run.
    pub final_estimated_weights: Vec<f64>,
    /// Each agent's total compensation.
    pub agent_compensation: Vec<f64>,
    /// Mean per-round requester utility.
    pub mean_round_utility: f64,
    /// Mean per-round requester utility over the last quarter of the run
    /// (the post-adaptation steady state).
    pub late_mean_utility: f64,
}

/// The adaptive repeated Stackelberg game: the requester observes effort
/// proxies, feedback, and noisy accuracy audits each round, and every
/// `recontract_every` rounds re-fits each group's effort function from
/// the pooled observation window, re-estimates per-agent weights, and
/// redesigns every contract with the §IV-C algorithm.
///
/// This realizes the paper's *dynamic* framing beyond a one-shot design
/// ("the task requester can adjust the contract from one round to
/// another within the same task") and the §VII future-work agenda of
/// handling more sophisticated malicious workers: deceptive agents are
/// demoted as audits reveal their attack, drifting agents get contracts
/// matched to their decayed productivity.
#[derive(Debug, Clone)]
pub struct AdaptiveSimulation {
    params: ModelParams,
    config: AdaptiveConfig,
}

impl AdaptiveSimulation {
    /// Creates the adaptive simulation.
    pub fn new(params: ModelParams, config: AdaptiveConfig) -> Self {
        AdaptiveSimulation { params, config }
    }

    /// Runs the adaptive loop over the agents.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for a zero-round horizon,
    /// zero intervals, or a negative or non-finite feedback or audit
    /// noise level, and propagates design/best-response failures.
    pub fn run(&self, agents: &[AdaptiveAgent]) -> Result<AdaptiveOutcome, CoreError> {
        if self.config.rounds == 0 {
            return Err(CoreError::InvalidParams(
                "adaptive simulation needs at least one round".into(),
            ));
        }
        if self.config.intervals == 0 {
            return Err(CoreError::InvalidParams("intervals must be >= 1".into()));
        }
        check_noise_sd("feedback_noise_sd", self.config.feedback_noise_sd)?;
        check_noise_sd("audit_noise_sd", self.config.audit_noise_sd)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // The requester's beliefs: per-group psi and per-agent weight.
        let mut group_psis: BTreeMap<usize, Quadratic> = BTreeMap::new();
        for a in agents {
            group_psis.entry(a.group).or_insert(a.true_psi);
        }
        let mut est_weights: Vec<f64> = agents.iter().map(|a| a.base_weight).collect();

        let mut contracts: Vec<Contract> = self.design_all(agents, &group_psis, &est_weights)?;
        // The payment each agent is owed next round (Eq. 1's lag).
        let mut pending_payment: Vec<f64> = agents
            .iter()
            .zip(&contracts)
            .map(|(a, c)| c.compensation(a.true_psi.eval(0.0)))
            .collect();
        // Pooled `(round, effort, feedback)` observations per group, and
        // noisy accuracy audits `(round, audited weight)` per agent.
        let mut group_obs: BTreeMap<usize, Vec<(usize, f64, f64)>> = BTreeMap::new();
        let mut audit_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); agents.len()];
        let mut recontract_rounds = vec![0usize];
        let mut agent_compensation = vec![0.0; agents.len()];
        let mut rounds = Vec::new();

        for t in 0..self.config.rounds {
            // Re-contract at the configured cadence (not at round 0 — the
            // initial design already happened).
            if self.config.recontract_every > 0
                && t > 0
                && t.is_multiple_of(self.config.recontract_every)
            {
                self.refit_groups(&mut group_psis, &group_obs, t);
                self.reestimate_weights(&mut est_weights, &audit_obs, t);
                contracts = self.design_all(agents, &group_psis, &est_weights)?;
                recontract_rounds.push(t);
            }

            let mut benefit = 0.0;
            let mut payment = 0.0;
            for (i, agent) in agents.iter().enumerate() {
                let omega_t = agent.conduct.omega_at(t, agent.base_omega);
                let psi_t = agent.conduct.psi_at(t, &agent.true_psi);
                let weight_t = agent.conduct.weight_at(t, agent.base_weight);

                let worker_params = ModelParams {
                    omega: omega_t,
                    ..self.params
                };
                let response = best_response(&worker_params, &psi_t, &contracts[i])?;
                if !agent.conduct.participates(response.utility) {
                    continue;
                }
                let noise = if self.config.feedback_noise_sd > 0.0 {
                    gaussian(&mut rng) * self.config.feedback_noise_sd
                } else {
                    0.0
                };
                let feedback = (psi_t.eval(response.effort) + noise).max(0.0);

                // True accounting.
                benefit += weight_t * feedback;
                payment += pending_payment[i];
                agent_compensation[i] += pending_payment[i];
                pending_payment[i] = contracts[i].compensation(feedback);

                // The requester's observations.
                group_obs
                    .entry(agent.group)
                    .or_default()
                    .push((t, response.effort, feedback));
                let audit = weight_t
                    + if self.config.audit_noise_sd > 0.0 {
                        gaussian(&mut rng) * self.config.audit_noise_sd
                    } else {
                        0.0
                    };
                audit_obs[i].push((t, audit));
            }
            rounds.push(RoundRecord {
                round: t,
                benefit,
                payment,
                requester_utility: benefit - self.params.mu * payment,
            });
        }

        // The late-mean window is the last quarter of the rounds.
        let cumulative: f64 = rounds.iter().map(|r| r.requester_utility).sum();
        let n = rounds.len();
        let late_start = n - (n / 4).max(1);
        let late: Vec<f64> = rounds[late_start..]
            .iter()
            .map(|r| r.requester_utility)
            .collect();
        Ok(AdaptiveOutcome {
            mean_round_utility: cumulative / n as f64,
            late_mean_utility: late.iter().sum::<f64>() / late.len() as f64,
            rounds,
            recontract_rounds,
            final_estimated_weights: est_weights,
            agent_compensation,
        })
    }

    /// Designs a contract for every agent under the current beliefs.
    fn design_all(
        &self,
        agents: &[AdaptiveAgent],
        group_psis: &BTreeMap<usize, Quadratic>,
        est_weights: &[f64],
    ) -> Result<Vec<Contract>, CoreError> {
        agents
            .iter()
            .zip(est_weights)
            .map(|(a, &w)| {
                let psi = group_psis[&a.group];
                // Effort region: below the believed peak.
                let peak = psi.peak().unwrap_or(10.0);
                let disc = Discretization::covering(self.config.intervals, 0.9 * peak)?;
                let built = ContractBuilder::new(self.params, disc, psi)
                    .malicious(a.base_omega)
                    .weight(w)
                    .incentive_margin(self.config.margin)
                    .build()?;
                Ok(built.contract().clone())
            })
            .collect()
    }

    /// Refits each group's ψ from its observation window.
    ///
    /// The update is conservative: the candidate fit replaces the current
    /// belief only when (a) the window has real effort variation — a
    /// stationary best-responding pool produces a narrow effort band on
    /// which a quadratic is unidentifiable and extrapolates wildly — and
    /// (b) the candidate explains the window materially better than the
    /// current belief (a model-comparison gate that keeps a correct
    /// belief from being perturbed by noise, while still tracking truly
    /// drifting behaviour).
    fn refit_groups(
        &self,
        group_psis: &mut BTreeMap<usize, Quadratic>,
        group_obs: &BTreeMap<usize, Vec<(usize, f64, f64)>>,
        now: usize,
    ) {
        let horizon = now.saturating_sub(self.config.window);
        for (group, obs) in group_obs {
            let recent: Vec<(f64, f64)> = obs
                .iter()
                .filter(|(t, _, _)| *t >= horizon)
                .map(|(_, y, q)| (*y, *q))
                .collect();
            let y_min = recent.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let y_max = recent.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
            if recent.len() < 6 || y_max - y_min < 0.5 {
                continue;
            }
            let Ok(fit) = fit_effort_function(&recent) else {
                continue;
            };
            let current = group_psis[group];
            let sse = |psi: &Quadratic| {
                recent
                    .iter()
                    .map(|&(y, q)| {
                        let r = psi.eval(y) - q;
                        r * r
                    })
                    .sum::<f64>()
            };
            if sse(&fit.psi) < 0.9 * sse(&current) {
                group_psis.insert(*group, fit.psi);
            }
        }
    }

    /// Re-estimates each agent's weight as the mean of its recent audits.
    fn reestimate_weights(
        &self,
        est_weights: &mut [f64],
        audit_obs: &[Vec<(usize, f64)>],
        now: usize,
    ) {
        let horizon = now.saturating_sub(self.config.window);
        for (i, audits) in audit_obs.iter().enumerate() {
            let recent: Vec<f64> = audits
                .iter()
                .filter(|(t, _)| *t >= horizon)
                .map(|(_, w)| *w)
                .collect();
            if !recent.is_empty() {
                est_weights[i] = recent.iter().sum::<f64>() / recent.len() as f64;
            }
        }
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams {
            mu: 1.0,
            ..ModelParams::default()
        }
    }

    fn honest_agent(id: usize, weight: f64) -> AdaptiveAgent {
        AdaptiveAgent {
            id,
            group: 0,
            base_omega: 0.0,
            base_weight: weight,
            true_psi: Quadratic::new(-0.15, 2.5, 1.0),
            conduct: ConductModel::Stationary,
        }
    }

    fn config(recontract: usize, seed: u64) -> AdaptiveConfig {
        AdaptiveConfig {
            rounds: 40,
            recontract_every: recontract,
            window: 10,
            feedback_noise_sd: 0.3,
            audit_noise_sd: 0.1,
            intervals: 20,
            margin: 0.1,
            seed,
        }
    }

    #[test]
    fn stationary_population_is_stable_under_adaptation() {
        // With stationary workers, re-contracting should neither help nor
        // hurt much: adaptive and static utilities agree within noise.
        let agents: Vec<AdaptiveAgent> =
            (0..20).map(|i| honest_agent(i, 1.0 + 0.1 * (i % 5) as f64)).collect();
        let adaptive = AdaptiveSimulation::new(params(), config(5, 3))
            .run(&agents)
            .unwrap();
        let static_run = AdaptiveSimulation::new(params(), config(0, 3))
            .run(&agents)
            .unwrap();
        let rel = (adaptive.mean_round_utility - static_run.mean_round_utility).abs()
            / static_run.mean_round_utility.abs().max(1.0);
        assert!(rel < 0.1, "adaptive {} vs static {}", adaptive.mean_round_utility, static_run.mean_round_utility);
        assert!(adaptive.recontract_rounds.len() > 1);
        assert_eq!(static_run.recontract_rounds, vec![0]);
    }

    #[test]
    fn adaptation_defends_against_deceptive_workers() {
        // Half the population turns malicious at round 10 with negative
        // true weight; the adaptive requester demotes them after audits,
        // the static requester keeps overpaying them.
        let mut agents: Vec<AdaptiveAgent> = (0..10).map(|i| honest_agent(i, 1.5)).collect();
        for i in 10..20 {
            agents.push(AdaptiveAgent {
                id: i,
                group: 0,
                base_omega: 0.0,
                base_weight: 1.5,
                true_psi: Quadratic::new(-0.15, 2.5, 1.0),
                conduct: ConductModel::Deceptive {
                    honest_rounds: 10,
                    attack_omega: 0.5,
                    attack_weight: -0.5,
                },
            });
        }
        let adaptive = AdaptiveSimulation::new(params(), config(5, 7))
            .run(&agents)
            .unwrap();
        let static_run = AdaptiveSimulation::new(params(), config(0, 7))
            .run(&agents)
            .unwrap();
        assert!(
            adaptive.late_mean_utility > static_run.late_mean_utility,
            "adaptive late utility {} must beat static {}",
            adaptive.late_mean_utility,
            static_run.late_mean_utility
        );
        // The deceivers' estimated weights end up near their attack value.
        for w in &adaptive.final_estimated_weights[10..] {
            assert!(*w < 0.5, "deceiver weight should be demoted, got {w}");
        }
        for w in &adaptive.final_estimated_weights[..10] {
            assert!(*w > 1.0, "honest weight should stay high, got {w}");
        }
    }

    #[test]
    fn adaptation_tracks_drifting_productivity() {
        // Drifting workers lose productivity; the adaptive requester
        // refits psi and lowers targets instead of overpaying for effort
        // the worker cannot deliver.
        // Weights vary so induced efforts spread out and the pooled refit
        // window is identifiable.
        let agents: Vec<AdaptiveAgent> = (0..15)
            .map(|i| AdaptiveAgent {
                id: i,
                group: 0,
                base_omega: 0.0,
                base_weight: 1.0 + 0.1 * (i % 8) as f64,
                true_psi: Quadratic::new(-0.15, 2.5, 1.0),
                conduct: ConductModel::Drifting {
                    decay_per_round: 0.98,
                },
            })
            .collect();
        let adaptive = AdaptiveSimulation::new(params(), config(5, 11))
            .run(&agents)
            .unwrap();
        let static_run = AdaptiveSimulation::new(params(), config(0, 11))
            .run(&agents)
            .unwrap();
        // Adaptation must not lose more than audit-noise jitter, and
        // typically wins by retargeting the decayed response.
        assert!(
            adaptive.late_mean_utility >= 0.95 * static_run.late_mean_utility,
            "adaptive {} vs static {}",
            adaptive.late_mean_utility,
            static_run.late_mean_utility
        );
    }

    #[test]
    fn reservation_workers_drop_out_under_zero_contract() {
        let agents = vec![AdaptiveAgent {
            id: 0,
            group: 0,
            base_omega: 0.0,
            base_weight: -1.0, // requester designs the zero contract
            true_psi: Quadratic::new(-0.15, 2.5, 1.0),
            conduct: ConductModel::Reservation {
                reserve_utility: 0.5,
            },
        }];
        let outcome = AdaptiveSimulation::new(params(), config(0, 5))
            .run(&agents)
            .unwrap();
        assert_eq!(outcome.agent_compensation[0], 0.0);
        assert!(outcome.rounds.iter().all(|r| r.benefit == 0.0));
    }

    #[test]
    fn invalid_config_rejected() {
        let sim = AdaptiveSimulation::new(
            params(),
            AdaptiveConfig {
                rounds: 0,
                ..config(1, 1)
            },
        );
        assert!(sim.run(&[]).is_err());
        let sim = AdaptiveSimulation::new(
            params(),
            AdaptiveConfig {
                intervals: 0,
                ..config(1, 1)
            },
        );
        assert!(sim.run(&[]).is_err());
    }

    #[test]
    fn negative_or_non_finite_noise_levels_are_rejected() {
        for sd in [-1.0, f64::NAN, f64::INFINITY] {
            let feedback = AdaptiveConfig { feedback_noise_sd: sd, ..config(1, 1) };
            let audit = AdaptiveConfig { audit_noise_sd: sd, ..config(1, 1) };
            for config in [feedback, audit] {
                let err = AdaptiveSimulation::new(params(), config).run(&[]).unwrap_err();
                assert!(matches!(err, CoreError::InvalidParams(_)), "{sd}: {err}");
            }
        }
    }
}
