use crate::{best_response, Contract, CoreError, ModelParams};
use dcc_numerics::Quadratic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{btree_map::Entry, BTreeMap};
use std::sync::Arc;

/// One agent in the repeated Stackelberg game: an individual worker or a
/// collusive community acting as a meta-worker.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSpec {
    /// Caller-chosen identifier.
    pub id: usize,
    /// Number of underlying workers (communities > 1).
    pub members: usize,
    /// Feedback weight ω in the agent's own utility (0 for honest).
    pub omega: f64,
    /// The requester's feedback weight `w` for this agent (Eq. 5).
    pub weight: f64,
    /// The agent's *true* effort→feedback response.
    pub psi: Quadratic,
    /// The contract offered to the agent; a design's contracts are
    /// shared, not copied, into its agents.
    pub contract: Arc<Contract>,
    /// Whether the agent participates at all; excluded agents (the
    /// baseline of Fig. 8c) produce no feedback and receive no pay.
    pub in_system: bool,
}

/// Per-round accounting of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round index `t`.
    pub round: usize,
    /// The requester's benefit `p^t = Σ w_i q_i^t` (Eq. 4).
    pub benefit: f64,
    /// Total compensation paid out this round, `Σ c_i^t` (lagged: pay for
    /// round `t` is determined by feedback from round `t−1`, Eq. 1).
    pub payment: f64,
    /// The requester's utility `p^t − μ Σ c_i^t` (Eq. 7).
    pub requester_utility: f64,
}

/// Aggregated outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Per-round records in order.
    pub rounds: Vec<RoundRecord>,
    /// Sum of per-round requester utilities.
    pub cumulative_requester_utility: f64,
    /// Mean per-round requester utility.
    pub mean_round_utility: f64,
    /// Total compensation each agent received across all rounds, indexed
    /// like the input agents.
    pub agent_compensation: Vec<f64>,
    /// Mean per-round effort of each agent.
    pub agent_effort: Vec<f64>,
}

/// Configuration of the repeated game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of task rounds `T`.
    pub rounds: usize,
    /// Standard deviation of the additive feedback noise (0 for the
    /// deterministic game).
    pub feedback_noise_sd: f64,
    /// RNG seed for the noise.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            rounds: 20,
            feedback_noise_sd: 0.5,
            seed: 7,
        }
    }
}

/// Per-round fault hook consulted by [`Simulation::run_with_faults`].
///
/// Implementations inject operational faults into the repeated game —
/// worker dropout, lost or corrupted feedback, payment delays — without
/// the simulation core knowing any fault schedule. The default
/// implementation of every method is the no-fault behaviour, so a
/// `struct NoFaults; impl RoundFaults for NoFaults {}` reproduces the
/// fault-free game exactly (identical RNG stream and arithmetic).
///
/// The hook takes `&mut self` so implementations can keep a log of what
/// actually fired.
pub trait RoundFaults {
    /// Whether `agent` is dropped out (absent) in `round`. A dropped
    /// agent consumes no RNG, produces no feedback, is paid nothing, and
    /// its pending payment carries to its next present round.
    fn dropped(&mut self, _agent: usize, _round: usize) -> bool {
        false
    }

    /// Transforms the realized feedback of `agent` in `round`.
    /// `Some(feedback)` passes a (possibly corrupted) value on; `None`
    /// models a lost report. Non-finite returned values are treated as
    /// lost (graceful degradation rather than NaN propagation).
    fn perturb_feedback(&mut self, _agent: usize, _round: usize, feedback: f64) -> Option<f64> {
        Some(feedback)
    }

    /// How many rounds the payment owed to `agent` in `round` is delayed;
    /// `0` pays on time. Delayed amounts are credited in the first
    /// present round `>= round + delay` (or never, if the horizon ends
    /// first — the outcome then simply omits them).
    fn payment_delay(&mut self, _agent: usize, _round: usize) -> usize {
        0
    }
}

/// The identity fault model: no dropouts, no perturbation, no delays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl RoundFaults for NoFaults {}

/// The mid-run state of a [`Simulation`]: produced by `start`,
/// advanced by `step`, summarized by `into_outcome`.
#[derive(Debug)]
struct SimState {
    /// The next round to simulate (`rounds.len()` so far).
    next_round: usize,
    /// The noise RNG, positioned exactly after round `next_round - 1`.
    rng: StdRng,
    /// Stationary best-response efforts, indexed like the agents.
    efforts: Vec<f64>,
    /// The payment each agent is owed next round (Eq. 1's lag).
    pending_payment: Vec<f64>,
    /// Delayed payments per agent: `(due_round, amount)` entries queued
    /// by [`RoundFaults::payment_delay`], credited once due.
    delayed_payments: Vec<Vec<(usize, f64)>>,
    /// Total compensation paid to each agent so far.
    agent_compensation: Vec<f64>,
    /// Per-round records of the completed rounds.
    rounds: Vec<RoundRecord>,
}

impl SimState {
    /// Summarizes the simulated rounds. `start` refuses a zero-round
    /// horizon, so a finished state holds at least one.
    fn into_outcome(self) -> SimulationOutcome {
        let cumulative: f64 = self.rounds.iter().map(|r| r.requester_utility).sum();
        SimulationOutcome {
            mean_round_utility: cumulative / self.rounds.len() as f64,
            cumulative_requester_utility: cumulative,
            agent_compensation: self.agent_compensation,
            agent_effort: self.efforts,
            rounds: self.rounds,
        }
    }
}

/// What an agent's stationary best response depends on besides the
/// requester's parameters, compared by exact bits: ω, ψ's `(r₂, r₁, r₀)`,
/// then the contract's payments and feedback knots. It borrows the
/// contract, so grouping allocates nothing per agent.
///
/// Payments compare from the last one: the candidates of one (ω, ψ, δ)
/// key share every payment up to their target interval and differ in
/// the flat tail, so two different contracts usually part at once.
struct ResponseKey<'a> {
    head: [u64; 4],
    contract: &'a Contract,
}

impl<'a> ResponseKey<'a> {
    fn of(agent: &'a AgentSpec) -> Self {
        ResponseKey {
            head: [
                agent.omega.to_bits(),
                agent.psi.r2().to_bits(),
                agent.psi.r1().to_bits(),
                agent.psi.r0().to_bits(),
            ],
            contract: &agent.contract,
        }
    }
}

/// Lexicographic order of the bits of `a` and `b`, read last to first.
fn cmp_bits_rev(a: &[f64], b: &[f64]) -> Ordering {
    a.iter()
        .rev()
        .map(|x| x.to_bits())
        .cmp(b.iter().rev().map(|x| x.to_bits()))
}

impl Ord for ResponseKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.contract, other.contract);
        self.head
            .cmp(&other.head)
            .then_with(|| cmp_bits_rev(a.payments(), b.payments()))
            .then_with(|| cmp_bits_rev(a.feedback_knots(), b.feedback_knots()))
    }
}

impl PartialOrd for ResponseKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ResponseKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ResponseKey<'_> {}

/// The repeated Stackelberg game of §II: in each round every in-system
/// agent best-responds to its contract, realizes (noisy) feedback, and is
/// paid next round according to `c^{t+1} = f(q^t)` (Eq. 1).
///
/// Workers are risk-neutral stationary best responders: the contract is
/// fixed for the simulated horizon, so the per-round best response to the
/// *expected* feedback is the worker's optimal stationary strategy.
#[derive(Debug, Clone)]
pub struct Simulation {
    params: ModelParams,
    config: SimulationConfig,
}

impl Simulation {
    /// Creates a simulation under the given requester parameters.
    pub fn new(params: ModelParams, config: SimulationConfig) -> Self {
        Simulation { params, config }
    }

    /// Runs the repeated game over the agents.
    ///
    /// Equivalent to [`Simulation::run_with_faults`] under [`NoFaults`]:
    /// same RNG stream, same arithmetic, bit-identical outcome.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for a zero-round horizon and
    /// propagates best-response failures (invalid ψ).
    pub fn run(&self, agents: &[AgentSpec]) -> Result<SimulationOutcome, CoreError> {
        self.run_with_faults(agents, &mut NoFaults)
    }

    /// Runs the repeated game with a fault model injected each round.
    ///
    /// The hook is a type parameter, so under [`NoFaults`] the round
    /// loop makes no dynamic call; a `&mut dyn RoundFaults` works too.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run`].
    pub fn run_with_faults<F: RoundFaults + ?Sized>(
        &self,
        agents: &[AgentSpec],
        faults: &mut F,
    ) -> Result<SimulationOutcome, CoreError> {
        let mut state = self.start(agents)?;
        while self.step(agents, &mut state, faults) {}
        Ok(state.into_outcome())
    }

    /// Prepares the initial state: seeds the RNG, computes each
    /// agent's stationary best response, and sets up the lagged payments
    /// (round 0 pays the base rate `f(ψ(0))`).
    ///
    /// A best response depends only on the agent's ω, its ψ and its
    /// contract, and a design hands one contract to many workers, so
    /// `start` groups the in-system agents by the exact bits of ω, ψ's
    /// three coefficients and every knot and payment of the contract,
    /// and calls [`best_response`] once per group, for its first agent.
    /// Every member of a group gets that effort, bit for bit what its
    /// own call would return. Groups are met in agent order, so a
    /// failure is still the error of the first failing agent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for a zero-round horizon or
    /// a negative or non-finite noise level, and propagates
    /// best-response failures (invalid ψ).
    fn start(&self, agents: &[AgentSpec]) -> Result<SimState, CoreError> {
        if self.config.rounds == 0 {
            return Err(CoreError::InvalidParams(
                "simulation needs at least one round".into(),
            ));
        }
        check_noise_sd("feedback_noise_sd", self.config.feedback_noise_sd)?;
        let rng = StdRng::seed_from_u64(self.config.seed);

        // Stationary best responses (the agent's ω, not the requester's).
        let mut efforts = vec![0.0; agents.len()];
        let mut by_key: BTreeMap<ResponseKey<'_>, f64> = BTreeMap::new();
        for (effort, agent) in efforts.iter_mut().zip(agents) {
            if !agent.in_system {
                continue;
            }
            *effort = match by_key.entry(ResponseKey::of(agent)) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(slot) => {
                    let agent_params = ModelParams {
                        omega: agent.omega,
                        ..self.params
                    };
                    *slot.insert(best_response(&agent_params, &agent.psi, &agent.contract)?.effort)
                }
            };
        }

        // Lagged payments: round 0 pays the base rate f(ψ(0)).
        let pending_payment: Vec<f64> = agents
            .iter()
            .map(|agent| {
                if agent.in_system {
                    agent.contract.compensation(agent.psi.eval(0.0))
                } else {
                    0.0
                }
            })
            .collect();

        Ok(SimState {
            next_round: 0,
            rng,
            efforts,
            pending_payment,
            delayed_payments: vec![Vec::new(); agents.len()],
            agent_compensation: vec![0.0; agents.len()],
            rounds: Vec::new(),
        })
    }

    /// Advances the simulation by one round, consulting `faults` for
    /// dropouts, feedback perturbation, and payment delays. Returns
    /// `false` (without touching the state) once all configured rounds
    /// are done.
    fn step<F: RoundFaults + ?Sized>(
        &self,
        agents: &[AgentSpec],
        state: &mut SimState,
        faults: &mut F,
    ) -> bool {
        if state.next_round >= self.config.rounds {
            return false;
        }
        let t = state.next_round;
        let mut benefit = 0.0;
        let mut payment = 0.0;
        for (i, agent) in agents.iter().enumerate() {
            if !agent.in_system {
                continue;
            }
            if faults.dropped(i, t) {
                // Absent: no RNG consumed, nothing produced, nothing paid;
                // pending and delayed payments wait for the next present
                // round.
                continue;
            }
            let noise = if self.config.feedback_noise_sd > 0.0 {
                gaussian(&mut state.rng) * self.config.feedback_noise_sd
            } else {
                0.0
            };
            let realized = (agent.psi.eval(state.efforts[i]) + noise).max(0.0);
            // Lost reports and non-finite corruption both become "missing".
            let feedback = faults
                .perturb_feedback(i, t, realized)
                .filter(|f| f.is_finite());
            if let Some(fb) = feedback {
                benefit += agent.weight * fb;
            }
            let delay = faults.payment_delay(i, t);
            if delay == 0 {
                payment += state.pending_payment[i];
                state.agent_compensation[i] += state.pending_payment[i];
            } else {
                let due = t.saturating_add(delay); // past the horizon: never lands
                state.delayed_payments[i].push((due, state.pending_payment[i]));
            }
            // Credit delayed payments that have come due.
            let mut idx = 0;
            while idx < state.delayed_payments[i].len() {
                if state.delayed_payments[i][idx].0 <= t {
                    let (_, amount) = state.delayed_payments[i].swap_remove(idx);
                    payment += amount;
                    state.agent_compensation[i] += amount;
                } else {
                    idx += 1;
                }
            }
            // Reprice next round's pay on observed feedback; a missing
            // report carries the current rate forward (the requester has
            // nothing new to price on).
            if let Some(fb) = feedback {
                state.pending_payment[i] = agent.contract.compensation(fb);
            }
        }
        let requester_utility = benefit - self.params.mu * payment;
        state.rounds.push(RoundRecord {
            round: t,
            benefit,
            payment,
            requester_utility,
        });
        state.next_round = t + 1;
        true
    }
}

/// Rejects a noise standard deviation that is negative or not finite
/// (NaN would silently switch the noise off, ∞ lose every report).
pub(crate) fn check_noise_sd(name: &str, sd: f64) -> Result<(), CoreError> {
    if sd.is_finite() && sd >= 0.0 {
        return Ok(());
    }
    Err(CoreError::InvalidParams(format!("{name} must be a nonnegative finite number, got {sd}")))
}

/// One standard-normal draw (Box–Muller, cosine branch): two uniforms
/// per draw, so every caller's RNG stream advances identically.
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{ContractBuilder, Discretization};

    fn built_agent(id: usize, omega: f64, weight: f64, in_system: bool) -> AgentSpec {
        let params = ModelParams {
            mu: 1.5,
            ..ModelParams::default()
        };
        let psi = Quadratic::new(-0.05, 2.0, 0.5);
        let disc = Discretization::new(16, 0.625).unwrap();
        let built = ContractBuilder::new(params, disc, psi)
            .malicious(omega)
            .weight(weight)
            .build()
            .unwrap();
        AgentSpec {
            id,
            members: 1,
            omega,
            weight,
            psi,
            contract: Arc::clone(built.shared_contract()),
            in_system,
        }
    }

    fn sim(noise: f64) -> Simulation {
        Simulation::new(
            ModelParams {
                mu: 1.5,
                ..ModelParams::default()
            },
            SimulationConfig {
                rounds: 12,
                feedback_noise_sd: noise,
                seed: 11,
            },
        )
    }

    #[test]
    fn deterministic_game_matches_static_design() {
        let agent = built_agent(0, 0.0, 1.0, true);
        let outcome = sim(0.0).run(std::slice::from_ref(&agent)).unwrap();
        assert_eq!(outcome.rounds.len(), 12);
        // From round 1 on (payment lag settled), each round's utility
        // equals the static design utility w*q - mu*c.
        let q = agent.psi.eval(outcome.agent_effort[0]);
        let c = agent.contract.compensation(q);
        let static_utility = agent.weight * q - 1.5 * c;
        for r in &outcome.rounds[1..] {
            assert!(
                (r.requester_utility - static_utility).abs() < 1e-9,
                "round {} utility {} vs static {static_utility}",
                r.round,
                r.requester_utility
            );
        }
    }

    #[test]
    fn first_round_pays_base_rate() {
        let agent = built_agent(0, 0.0, 1.0, true);
        let base = agent.contract.compensation(agent.psi.eval(0.0));
        let outcome = sim(0.0).run(&[agent]).unwrap();
        assert!((outcome.rounds[0].payment - base).abs() < 1e-12);
    }

    #[test]
    fn excluded_agents_produce_and_cost_nothing() {
        let mut agent = built_agent(0, 0.4, 1.0, false);
        agent.in_system = false;
        let outcome = sim(0.0).run(&[agent]).unwrap();
        assert_eq!(outcome.cumulative_requester_utility, 0.0);
        assert_eq!(outcome.agent_compensation[0], 0.0);
        assert_eq!(outcome.agent_effort[0], 0.0);
    }

    #[test]
    fn noise_is_reproducible_per_seed() {
        let agents = vec![built_agent(0, 0.0, 1.0, true), built_agent(1, 0.5, 0.6, true)];
        let a = sim(0.5).run(&agents).unwrap();
        let b = sim(0.5).run(&agents).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn noisy_mean_close_to_deterministic() {
        let agents = vec![built_agent(0, 0.0, 1.0, true); 30];
        let det = sim(0.0).run(&agents).unwrap();
        let noisy = Simulation::new(
            ModelParams {
                mu: 1.5,
                ..ModelParams::default()
            },
            SimulationConfig {
                rounds: 200,
                feedback_noise_sd: 0.5,
                seed: 3,
            },
        )
        .run(&agents)
        .unwrap();
        // Contracts are convex up to the target interval, so by Jensen
        // noisy feedback *raises* expected payments somewhat; allow that
        // systematic gap but require the same order of magnitude.
        let rel = (noisy.mean_round_utility - det.mean_round_utility).abs()
            / det.mean_round_utility.abs().max(1.0);
        assert!(
            rel < 0.25,
            "noisy mean {} vs det {}",
            noisy.mean_round_utility,
            det.mean_round_utility
        );
        assert!(
            noisy.mean_round_utility <= det.mean_round_utility + 1e-9,
            "noise cannot help the requester under a convex contract"
        );
    }

    #[test]
    fn zero_rounds_rejected() {
        let s = Simulation::new(
            ModelParams::default(),
            SimulationConfig {
                rounds: 0,
                feedback_noise_sd: 0.0,
                seed: 0,
            },
        );
        assert!(s.run(&[]).is_err());
    }

    #[test]
    fn empty_population_is_flat_zero() {
        let outcome = sim(0.0).run(&[]).unwrap();
        assert_eq!(outcome.cumulative_requester_utility, 0.0);
        assert!(outcome.rounds.iter().all(|r| r.requester_utility == 0.0));
    }

    #[test]
    fn a_huge_horizon_costs_only_the_rounds_stepped() {
        // Round records grow as rounds complete, so an untrusted horizon
        // allocates nothing up front.
        let agents = vec![built_agent(0, 0.0, 1.0, true)];
        let s = Simulation::new(
            ModelParams::default(),
            SimulationConfig {
                rounds: usize::MAX,
                feedback_noise_sd: 0.0,
                seed: 11,
            },
        );
        let mut state = s.start(&agents).unwrap();
        assert!(s.step(&agents, &mut state, &mut NoFaults));
        assert_eq!(state.rounds.len(), 1);
        assert_eq!(state.next_round, 1);
    }

    struct DropAgentAlways(usize);
    impl RoundFaults for DropAgentAlways {
        fn dropped(&mut self, agent: usize, _round: usize) -> bool {
            agent == self.0
        }
    }

    #[test]
    fn dropped_agent_earns_and_produces_nothing() {
        let agents = vec![built_agent(0, 0.0, 1.0, true), built_agent(1, 0.0, 1.0, true)];
        let s = sim(0.0);
        let outcome = s
            .run_with_faults(&agents, &mut DropAgentAlways(1))
            .unwrap();
        assert_eq!(outcome.agent_compensation[1], 0.0);
        // Agent 0 alone: same per-round utility as a solo run.
        let solo = s.run(&agents[..1]).unwrap();
        assert_eq!(
            outcome.cumulative_requester_utility,
            solo.cumulative_requester_utility
        );
    }

    struct LoseAllFeedback;
    impl RoundFaults for LoseAllFeedback {
        fn perturb_feedback(&mut self, _: usize, _: usize, _: f64) -> Option<f64> {
            None
        }
    }

    #[test]
    fn missing_feedback_gives_no_benefit_and_carries_the_rate() {
        let agent = built_agent(0, 0.0, 1.0, true);
        let base = agent.contract.compensation(agent.psi.eval(0.0));
        let outcome = sim(0.0)
            .run_with_faults(&[agent], &mut LoseAllFeedback)
            .unwrap();
        for r in &outcome.rounds {
            assert_eq!(r.benefit, 0.0);
            // Every round keeps paying the carried base rate.
            assert!((r.payment - base).abs() < 1e-12);
        }
    }

    struct NanCorruption;
    impl RoundFaults for NanCorruption {
        fn perturb_feedback(&mut self, _: usize, _: usize, _: f64) -> Option<f64> {
            Some(f64::NAN)
        }
    }

    #[test]
    fn non_finite_feedback_degrades_to_missing() {
        let agent = built_agent(0, 0.0, 1.0, true);
        let lost = sim(0.0)
            .run_with_faults(std::slice::from_ref(&agent), &mut LoseAllFeedback)
            .unwrap();
        let nan = sim(0.0)
            .run_with_faults(&[agent], &mut NanCorruption)
            .unwrap();
        assert_eq!(lost, nan);
        assert!(nan.cumulative_requester_utility.is_finite());
    }

    struct DelayEverythingBy(usize);
    impl RoundFaults for DelayEverythingBy {
        fn payment_delay(&mut self, _: usize, _: usize) -> usize {
            self.0
        }
    }

    #[test]
    fn payment_delays_conserve_money_within_the_horizon() {
        // With a 1-round delay in a deterministic game, every payment but
        // the last lands one round late; totals differ only by the final
        // round's deferred amount.
        let agent = built_agent(0, 0.0, 1.0, true);
        let s = sim(0.0);
        let on_time = s.run(std::slice::from_ref(&agent)).unwrap();
        let delayed = s
            .run_with_faults(&[agent], &mut DelayEverythingBy(1))
            .unwrap();
        let paid_on_time: f64 = on_time.rounds.iter().map(|r| r.payment).sum();
        let paid_delayed: f64 = delayed.rounds.iter().map(|r| r.payment).sum();
        let last_pending = on_time.rounds.last().unwrap().payment;
        assert!(delayed.rounds[0].payment == 0.0, "first payment deferred");
        assert!(
            (paid_on_time - paid_delayed - last_pending).abs() < 1e-9,
            "delayed total {paid_delayed} vs on-time {paid_on_time}"
        );
    }

    #[test]
    fn a_delay_past_the_horizon_never_lands() {
        let agents = [built_agent(0, 0.0, 1.0, true)];
        let past_horizon = sim(0.0).run_with_faults(&agents, &mut DelayEverythingBy(13));
        let saturated = sim(0.0).run_with_faults(&agents, &mut DelayEverythingBy(usize::MAX));
        let saturated = saturated.unwrap();
        assert_eq!(saturated, past_horizon.unwrap());
        assert_eq!(saturated.agent_compensation[0], 0.0);
    }

    #[test]
    fn negative_or_non_finite_noise_is_rejected() {
        let agents = [built_agent(0, 0.0, 1.0, true)];
        for noise in [-1.0, f64::NAN, f64::INFINITY] {
            let err = sim(noise).run(&agents).unwrap_err();
            assert!(matches!(err, CoreError::InvalidParams(_)), "{noise}: {err}");
        }
    }
}
