use crate::{best_response, AgentSpec, Contract, CoreError, ModelParams, RoundRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An ε-greedy multi-armed-bandit pricing baseline in the spirit of the
/// dynamic-pricing line of related work the paper cites (§VI, e.g.
/// Tran-Thanh et al.): the requester does not model workers at all; it
/// maintains a set of *linear* contracts `f(q) = a·(q − q₀)` (one slope
/// per arm, shared by every worker) and learns which slope maximizes its
/// realized per-round utility.
///
/// This is a stronger baseline than a fixed payment — a linear
/// performance-contingent contract does induce effort — but it cannot
/// tailor pay per worker or shape the contract beyond a single slope,
/// which is exactly what the §IV-C design adds.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearPricingBandit {
    /// The candidate slopes (arms).
    pub slopes: Vec<f64>,
    /// Exploration probability.
    pub epsilon: f64,
    /// Rounds to play.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LinearPricingBandit {
    fn default() -> Self {
        LinearPricingBandit {
            slopes: vec![0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.4],
            epsilon: 0.15,
            rounds: 60,
            seed: 23,
        }
    }
}

/// Outcome of a bandit pricing run.
#[derive(Debug, Clone, PartialEq)]
pub struct BanditOutcome {
    /// Per-round accounting.
    pub rounds: Vec<RoundRecord>,
    /// Mean per-round requester utility over the whole run.
    pub mean_round_utility: f64,
    /// Mean per-round utility over the last quarter (post-learning).
    pub late_mean_utility: f64,
    /// The arm (slope) with the best empirical mean at the end.
    pub best_slope: f64,
    /// How many times each arm was played.
    pub pulls: Vec<usize>,
}

impl LinearPricingBandit {
    /// Plays the bandit against the agents (their `contract` fields are
    /// ignored — the bandit posts its own linear contract each round; an
    /// agent's `in_system` flag is respected).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for an empty arm set, a zero
    /// horizon, or `epsilon ∉ [0, 1]`; propagates best-response failures.
    pub fn run(
        &self,
        params: &ModelParams,
        agents: &[AgentSpec],
    ) -> Result<BanditOutcome, CoreError> {
        if self.slopes.is_empty() || self.rounds == 0 {
            return Err(CoreError::InvalidParams(
                "bandit needs at least one arm and one round".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(CoreError::InvalidParams(format!(
                "epsilon must be in [0, 1], got {}",
                self.epsilon
            )));
        }
        if self.slopes.iter().any(|a| !a.is_finite() || *a < 0.0) {
            return Err(CoreError::InvalidParams(
                "arm slopes must be nonnegative and finite".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Feedback range across agents, for the shared linear contract.
        let (mut q_lo, mut q_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for a in agents.iter().filter(|a| a.in_system) {
            q_lo = q_lo.min(a.psi.eval(0.0));
            let peak = a.psi.peak().unwrap_or(10.0);
            q_hi = q_hi.max(a.psi.eval(peak));
        }
        if !(q_lo.is_finite() && q_hi.is_finite() && q_lo < q_hi) {
            // No active agents: a degenerate but valid outcome.
            return Ok(BanditOutcome {
                rounds: Vec::new(),
                mean_round_utility: 0.0,
                late_mean_utility: 0.0,
                best_slope: self.slopes[0],
                pulls: vec![0; self.slopes.len()],
            });
        }

        let contracts: Vec<Contract> = self
            .slopes
            .iter()
            .map(|&a| {
                Contract::new(vec![q_lo, q_hi], vec![0.0, a * (q_hi - q_lo)])
            })
            .collect::<Result<_, _>>()?;

        let mut pulls = vec![0usize; self.slopes.len()];
        let mut totals = vec![0.0f64; self.slopes.len()];
        let mut rounds = Vec::new();
        for t in 0..self.rounds {
            let arm = if rng.gen::<f64>() < self.epsilon || t < self.slopes.len() {
                // Explore (and play every arm once up front).
                if t < self.slopes.len() {
                    t
                } else {
                    rng.gen_range(0..self.slopes.len())
                }
            } else {
                // Exploit the best empirical mean.
                (0..self.slopes.len())
                    .max_by(|&i, &j| {
                        let mi = totals[i] / pulls[i].max(1) as f64;
                        let mj = totals[j] / pulls[j].max(1) as f64;
                        mi.partial_cmp(&mj).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(0)
            };

            let mut benefit = 0.0;
            let mut payment = 0.0;
            for agent in agents.iter().filter(|a| a.in_system) {
                let worker_params = ModelParams {
                    omega: agent.omega,
                    ..*params
                };
                let response = best_response(&worker_params, &agent.psi, &contracts[arm])?;
                benefit += agent.weight * response.feedback;
                payment += response.compensation;
            }
            let utility = benefit - params.mu * payment;
            pulls[arm] += 1;
            totals[arm] += utility;
            rounds.push(RoundRecord {
                round: t,
                benefit,
                payment,
                requester_utility: utility,
            });
        }

        let best_arm = (0..self.slopes.len())
            .max_by(|&i, &j| {
                let mi = totals[i] / pulls[i].max(1) as f64;
                let mj = totals[j] / pulls[j].max(1) as f64;
                mi.partial_cmp(&mj).unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let cumulative: f64 = rounds.iter().map(|r| r.requester_utility).sum();
        let late_start = self.rounds - (self.rounds / 4).max(1);
        let late: Vec<f64> = rounds[late_start..]
            .iter()
            .map(|r| r.requester_utility)
            .collect();
        Ok(BanditOutcome {
            mean_round_utility: cumulative / rounds.len() as f64,
            late_mean_utility: late.iter().sum::<f64>() / late.len() as f64,
            best_slope: self.slopes[best_arm],
            pulls,
            rounds,
        })
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{ContractBuilder, Discretization};
    use dcc_numerics::Quadratic;

    fn agents(n: usize) -> Vec<AgentSpec> {
        let psi = Quadratic::new(-0.15, 2.5, 1.0);
        (0..n)
            .map(|id| AgentSpec {
                id,
                members: 1,
                omega: 0.0,
                weight: 1.0 + 0.1 * (id % 5) as f64,
                psi,
                contract: Contract::zero(psi.eval(0.0), psi.eval(8.0)).unwrap(),
                in_system: true,
            })
            .collect()
    }

    fn params() -> ModelParams {
        ModelParams {
            mu: 1.0,
            ..ModelParams::default()
        }
    }

    #[test]
    fn bandit_learns_a_productive_slope() {
        let outcome = LinearPricingBandit::default()
            .run(&params(), &agents(20))
            .unwrap();
        assert_eq!(outcome.rounds.len(), 60);
        assert_eq!(outcome.pulls.iter().sum::<usize>(), 60);
        // Zero slope induces nothing; the learned slope must be positive.
        assert!(outcome.best_slope > 0.0, "learned slope {}", outcome.best_slope);
        // Learning: the late mean beats the overall mean (exploration cost
        // front-loaded).
        assert!(outcome.late_mean_utility >= outcome.mean_round_utility - 1e-9);
    }

    #[test]
    fn tailored_contracts_beat_the_learned_linear_contract() {
        // The paper's design dominates the single learned linear slope:
        // per-worker tailoring extracts more at the same accounting.
        let pool = agents(20);
        let p = params();
        let bandit = LinearPricingBandit::default().run(&p, &pool).unwrap();

        let disc = Discretization::covering(20, 7.0).unwrap();
        let mut ours_total = 0.0;
        for a in &pool {
            let built = ContractBuilder::new(p, disc, a.psi)
                .honest()
                .weight(a.weight)
                .build()
                .unwrap();
            ours_total += built.requester_utility();
        }
        assert!(
            ours_total > bandit.late_mean_utility,
            "ours {ours_total} vs bandit steady state {}",
            bandit.late_mean_utility
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = LinearPricingBandit::default().run(&params(), &agents(8)).unwrap();
        let b = LinearPricingBandit::default().run(&params(), &agents(8)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_configs_rejected() {
        let p = params();
        let empty_arms = LinearPricingBandit {
            slopes: vec![],
            ..LinearPricingBandit::default()
        };
        assert!(empty_arms.run(&p, &agents(2)).is_err());
        let bad_eps = LinearPricingBandit {
            epsilon: 1.5,
            ..LinearPricingBandit::default()
        };
        assert!(bad_eps.run(&p, &agents(2)).is_err());
        let neg_slope = LinearPricingBandit {
            slopes: vec![-0.1],
            ..LinearPricingBandit::default()
        };
        assert!(neg_slope.run(&p, &agents(2)).is_err());
    }

    #[test]
    fn empty_population_is_degenerate_but_ok() {
        let outcome = LinearPricingBandit::default().run(&params(), &[]).unwrap();
        assert!(outcome.rounds.is_empty());
        assert_eq!(outcome.mean_round_utility, 0.0);
    }
}
