use crate::{
    best_response, bounds, BestResponse, Contract, CoreError, Discretization, ModelParams,
};
use dcc_numerics::Quadratic;

/// Diagnostics of one candidate contract evaluated during the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateDiagnostics {
    /// Target interval `k` (`None` for the zero-contract candidate).
    pub k: Option<usize>,
    /// The worker's actual best-response effort under the candidate.
    pub effort: f64,
    /// Compensation the requester pays at that response.
    pub compensation: f64,
    /// Requester utility `w·q − μ·c` at that response.
    pub requester_utility: f64,
    /// Whether the slope recurrence needed clamping (large ω).
    pub clamped: bool,
}

/// The outcome of the §IV-C contract construction for one worker (or one
/// collusive community treated as a meta-worker).
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltContract {
    contract: Contract,
    k_opt: Option<usize>,
    response: BestResponse,
    requester_utility: f64,
    weight: f64,
    diagnostics: Vec<CandidateDiagnostics>,
    utility_bounds: Option<(f64, f64)>,
}

impl BuiltContract {
    /// The selected contract.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }

    /// The selected target interval `k_opt` (Eq. 43), or `None` when the
    /// zero contract won (the requester declines to incentivize).
    pub fn k_opt(&self) -> Option<usize> {
        self.k_opt
    }

    /// The worker's verified best response to the selected contract.
    pub fn response(&self) -> &BestResponse {
        &self.response
    }

    /// The effort level the contract induces.
    pub fn induced_effort(&self) -> f64 {
        self.response.effort
    }

    /// The compensation paid at the induced effort.
    pub fn compensation(&self) -> f64 {
        self.response.compensation
    }

    /// The worker's utility at the induced effort.
    pub fn worker_utility(&self) -> f64 {
        self.response.utility
    }

    /// The requester's per-round utility from this worker,
    /// `w·q − μ·c`.
    pub fn requester_utility(&self) -> f64 {
        self.requester_utility
    }

    /// The feedback weight the contract was designed for.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Per-candidate diagnostics (one entry per evaluated `k`, plus the
    /// zero contract), in evaluation order.
    pub fn diagnostics(&self) -> &[CandidateDiagnostics] {
        &self.diagnostics
    }

    /// The Theorem 4.1 bracket `(lower, upper)` on the requester utility,
    /// when a non-zero candidate was selected for an honest worker
    /// (`ω = 0`); `None` for the zero contract (the theorem speaks about
    /// induced intervals).
    pub fn utility_bounds(&self) -> Option<(f64, f64)> {
        self.utility_bounds
    }

    /// Internal constructor for degraded-mode results: a contract that
    /// did *not* come out of the §IV-C search (a fixed-payment fallback
    /// or an exclusion) with caller-supplied conservative accounting. No
    /// diagnostics, no `k_opt`, no Theorem 4.1 bracket.
    pub(crate) fn degraded(
        contract: Contract,
        response: BestResponse,
        requester_utility: f64,
        weight: f64,
    ) -> Self {
        BuiltContract {
            contract,
            k_opt: None,
            response,
            requester_utility,
            weight,
            diagnostics: Vec::new(),
            utility_bounds: None,
        }
    }
}

/// Builder implementing the full §IV-C algorithm for a single subproblem:
/// construct candidate contracts `ξ^(1)…ξ^(m)` (plus the zero contract),
/// verify each by computing the worker's exact best response, and select
/// the candidate maximizing the requester's utility `w·q − μ·c`.
///
/// The search has two halves. [`ContractBuilder::candidates`] builds and
/// verifies the candidates, which depend on ω, ψ, δ and the model
/// parameters but not on the worker's weight `w_i`;
/// [`CandidateSet::select`] makes the Eq. 43 choice of `k_opt` for one
/// weight. [`ContractBuilder::build`] is the first followed by the
/// second, so workers that share ω, ψ and δ can share one
/// [`CandidateSet`] (as `solve_subproblems` does) and get bit-identical
/// results.
///
/// # Example
///
/// ```
/// use dcc_core::{ContractBuilder, Discretization, ModelParams};
/// use dcc_numerics::Quadratic;
///
/// # fn main() -> Result<(), dcc_core::CoreError> {
/// let psi = Quadratic::new(-0.05, 2.0, 0.5);
/// let params = ModelParams { mu: 1.5, ..ModelParams::default() };
/// let builder = ContractBuilder::new(params, Discretization::new(16, 0.625)?, psi)
///     .malicious(0.5)
///     .weight(0.8);
/// let candidates = builder.candidates()?;
/// let built = candidates.select(0.8)?;
/// assert_eq!(built, builder.build()?);
/// assert!(built.requester_utility().is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ContractBuilder {
    params: ModelParams,
    disc: Discretization,
    psi: Quadratic,
    weight: f64,
    include_zero: bool,
    margin: f64,
}

impl ContractBuilder {
    /// Starts a builder for a worker with effort function `psi` under the
    /// given model parameters and discretization. The worker's ω is taken
    /// from `params.omega` unless overridden by [`ContractBuilder::honest`]
    /// or [`ContractBuilder::malicious`].
    pub fn new(params: ModelParams, disc: Discretization, psi: Quadratic) -> Self {
        ContractBuilder {
            params,
            disc,
            psi,
            weight: 1.0,
            include_zero: true,
            margin: 0.0,
        }
    }

    /// Sets the incentive margin `∈ [0, 1)` — how far into each Case-III
    /// window the slopes sit above the paper's cost-minimal recurrence.
    /// `0` (the default) is the paper's construction; positive values pay
    /// more but tolerate unmodelled drift in the worker's productivity
    /// (see [`crate::build_candidate_with_margin`]).
    pub fn incentive_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Designs for an honest worker (`ω = 0`, Eq. 11).
    pub fn honest(mut self) -> Self {
        self.params.omega = 0.0;
        self
    }

    /// Designs for a malicious worker with feedback weight `omega` in its
    /// utility (Eq. 14). A collusive community is the same with the
    /// community's aggregate effort function.
    pub fn malicious(mut self, omega: f64) -> Self {
        self.params.omega = omega;
        self
    }

    /// Sets the requester's feedback weight `w_i` for this worker (Eq. 5).
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Whether to also evaluate the zero contract (paying nothing) as a
    /// candidate; defaults to `true`. Disable to force the algorithm to
    /// pick one of the paper's `ξ^(k)` candidates even at a loss.
    pub fn include_zero_candidate(mut self, include: bool) -> Self {
        self.include_zero = include;
        self
    }

    /// Runs the search and returns the best contract: checks the weight,
    /// then [`ContractBuilder::candidates`] followed by
    /// [`CandidateSet::select`] at the builder's weight.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite weight before anything else; then propagates
    /// parameter, effort-function and numeric errors.
    pub fn build(self) -> Result<BuiltContract, CoreError> {
        check_weight(self.weight)?;
        self.candidates()?.select(self.weight)
    }

    /// The weight-free half of the search (Eq. 39–40): validates the
    /// parameters and ψ, builds every candidate `ξ^(k)` (after the zero
    /// contract, when included) and verifies each with the worker's
    /// exact [`best_response`]. The builder's weight is not read.
    ///
    /// # Errors
    ///
    /// Propagates parameter, effort-function and numeric errors, in
    /// candidate order.
    pub fn candidates(&self) -> Result<CandidateSet, CoreError> {
        self.params.validate()?;
        crate::effort::validate_effort_function(&self.psi, &self.disc)?;

        let mut candidates = Vec::with_capacity(self.disc.intervals() + 1);
        if self.include_zero {
            let zero = zero_contract(&self.psi, &self.disc)?;
            candidates.push(Evaluated {
                k: None,
                response: best_response(&self.params, &self.psi, &zero)?,
                clamped: false,
            });
        }
        for k in 1..=self.disc.intervals() {
            let cand = crate::build_candidate_with_margin(
                &self.params,
                &self.disc,
                &self.psi,
                k,
                self.margin,
            )?;
            candidates.push(Evaluated {
                k: Some(k),
                response: best_response(&self.params, &self.psi, &cand.contract)?,
                clamped: cand.clamped,
            });
        }
        Ok(CandidateSet {
            params: self.params,
            disc: self.disc,
            psi: self.psi,
            margin: self.margin,
            candidates,
        })
    }
}

/// The verified candidates of one §IV-C search, built by
/// [`ContractBuilder::candidates`]: for each candidate, its target
/// interval `k` (`None` for the zero contract), the worker's best
/// response and whether its slopes were clamped.
///
/// The set depends on ω, ψ, δ, the model parameters, the incentive
/// margin and whether the zero contract is included — not on the
/// worker's weight — so one set serves every worker that shares them.
/// It keeps no contracts: [`CandidateSet::select`] rebuilds the winner's
/// with the same deterministic construction, so the result is
/// bit-identical to [`ContractBuilder::build`].
#[derive(Debug, Clone)]
pub struct CandidateSet {
    params: ModelParams,
    disc: Discretization,
    psi: Quadratic,
    margin: f64,
    candidates: Vec<Evaluated>,
}

/// One verified candidate: what [`CandidateSet::select`] needs to score
/// it and report its diagnostics.
#[derive(Debug, Clone, Copy)]
struct Evaluated {
    k: Option<usize>,
    response: BestResponse,
    clamped: bool,
}

impl CandidateSet {
    /// Number of candidates in the set (the zero contract included).
    pub(crate) fn len(&self) -> usize {
        self.candidates.len()
    }

    /// The Eq. 43 choice for a worker of feedback weight `weight`: the
    /// candidate maximizing `w·q − μ·c`, where a later candidate wins
    /// only by more than 1e-12 in utility, or by a tie within 1e-12 and a
    /// compensation lower by more than 1e-12. Also reports every
    /// candidate's diagnostics and, for an honest worker's non-zero pick,
    /// the Theorem 4.1 bracket.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite weight; propagates the (deterministic, so
    /// already passed) rebuild of the winning contract.
    pub fn select(&self, weight: f64) -> Result<BuiltContract, CoreError> {
        check_weight(weight)?;
        let mut diagnostics = Vec::with_capacity(self.candidates.len());
        let mut best: Option<(&Evaluated, f64)> = None;
        for cand in &self.candidates {
            let response = &cand.response;
            let utility = weight * response.feedback - self.params.mu * response.compensation;
            diagnostics.push(CandidateDiagnostics {
                k: cand.k,
                effort: response.effort,
                compensation: response.compensation,
                requester_utility: utility,
                clamped: cand.clamped,
            });
            let better = match best {
                None => true,
                Some((prev, prev_u)) => {
                    utility > prev_u + 1e-12
                        || (utility > prev_u - 1e-12
                            && response.compensation < prev.response.compensation - 1e-12)
                }
            };
            if better {
                best = Some((cand, utility));
            }
        }

        let (winner, requester_utility) = best.ok_or_else(|| {
            CoreError::InvalidContract("no candidate contract could be evaluated".into())
        })?;
        let contract = match winner.k {
            None => zero_contract(&self.psi, &self.disc)?,
            Some(k) => {
                crate::build_candidate_with_margin(
                    &self.params,
                    &self.disc,
                    &self.psi,
                    k,
                    self.margin,
                )?
                .contract
            }
        };
        let utility_bounds = match winner.k {
            Some(k) if dcc_numerics::exact_eq(self.params.omega, 0.0) => Some((
                bounds::requester_utility_lower_bound(
                    weight,
                    &self.params,
                    &self.disc,
                    &self.psi,
                    k,
                ),
                bounds::requester_utility_upper_bound(weight, &self.params, &self.disc, &self.psi),
            )),
            _ => None,
        };

        Ok(BuiltContract {
            contract,
            k_opt: winner.k,
            response: winner.response,
            requester_utility,
            weight,
            diagnostics,
            utility_bounds,
        })
    }
}

/// Rejects a non-finite feedback weight.
fn check_weight(weight: f64) -> Result<(), CoreError> {
    if weight.is_finite() {
        Ok(())
    } else {
        Err(CoreError::InvalidInput(format!(
            "weight must be finite, got {weight}"
        )))
    }
}

/// The zero contract over ψ's feedback range `[ψ(0), ψ(mδ)]`.
fn zero_contract(psi: &Quadratic, disc: &Discretization) -> Result<Contract, CoreError> {
    Contract::zero(psi.eval(0.0), psi.eval(disc.y_max()))
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn setup() -> (ModelParams, Discretization, Quadratic) {
        let params = ModelParams {
            mu: 1.5,
            ..ModelParams::default()
        };
        let disc = Discretization::new(16, 0.625).unwrap();
        let psi = Quadratic::new(-0.05, 2.0, 0.5);
        (params, disc, psi)
    }

    #[test]
    fn honest_build_selects_interior_interval() {
        let (params, disc, psi) = setup();
        let built = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(1.0)
            .build()
            .unwrap();
        // With mu = 1.5, w = 1: marginal value w*psi'(y) crosses mu*beta
        // at psi'(y*) = 1.5 -> y* = 5. Expect an interior k near 5/0.625 = 8.
        let k = built.k_opt().expect("non-zero contract expected");
        assert!((6..=10).contains(&k), "k_opt = {k} not near the interior optimum");
        assert!(built.induced_effort() > 3.0 && built.induced_effort() < 7.0);
        assert!(built.requester_utility() > 0.0);
        let (lo, hi) = built.utility_bounds().unwrap();
        assert!(lo <= built.requester_utility() + 1e-9);
        assert!(built.requester_utility() <= hi + 1e-9);
    }

    #[test]
    fn diagnostics_cover_all_candidates() {
        let (params, disc, psi) = setup();
        let built = ContractBuilder::new(params, disc, psi).honest().build().unwrap();
        assert_eq!(built.diagnostics().len(), disc.intervals() + 1);
        // The selected utility matches the best diagnostic.
        let best = built
            .diagnostics()
            .iter()
            .map(|d| d.requester_utility)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((best - built.requester_utility()).abs() < 1e-9);
    }

    #[test]
    fn negative_weight_selects_zero_contract() {
        let (params, disc, psi) = setup();
        let built = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(-0.5)
            .build()
            .unwrap();
        assert_eq!(built.k_opt(), None, "never pay a harmful worker");
        assert_eq!(built.compensation(), 0.0);
        assert_eq!(built.induced_effort(), 0.0);
    }

    #[test]
    fn zero_weight_malicious_still_self_motivates() {
        let (params, disc, psi) = setup();
        let built = ContractBuilder::new(params, disc, psi)
            .malicious(1.0)
            .weight(0.0)
            .build()
            .unwrap();
        assert_eq!(built.k_opt(), None);
        assert!(built.induced_effort() > 0.0, "autonomous effort expected");
        assert_eq!(built.compensation(), 0.0);
    }

    #[test]
    fn higher_weight_never_lowers_requester_utility() {
        let (params, disc, psi) = setup();
        let mut prev = f64::NEG_INFINITY;
        for w in [0.2, 0.5, 1.0, 2.0, 4.0] {
            let built = ContractBuilder::new(params, disc, psi)
                .honest()
                .weight(w)
                .build()
                .unwrap();
            assert!(built.requester_utility() >= prev - 1e-9);
            prev = built.requester_utility();
        }
    }

    #[test]
    fn higher_weight_weakly_raises_induced_effort() {
        let (params, disc, psi) = setup();
        let mut prev = 0.0;
        for w in [0.5, 1.0, 2.0, 4.0] {
            let built = ContractBuilder::new(params, disc, psi)
                .honest()
                .weight(w)
                .build()
                .unwrap();
            assert!(
                built.induced_effort() >= prev - 1e-9,
                "effort should rise with weight"
            );
            prev = built.induced_effort();
        }
    }

    #[test]
    fn utility_improves_or_holds_with_finer_partition() {
        // The Fig. 6 convergence property: refining the partition gives
        // the algorithm strictly more candidates near the continuum
        // optimum, so the achieved utility approaches the upper bound.
        let (params, _, psi) = setup();
        let mut last = f64::NEG_INFINITY;
        for m in [4, 8, 16, 32, 64] {
            let disc = Discretization::covering(m, 10.0).unwrap();
            let built = ContractBuilder::new(params, disc, psi)
                .honest()
                .weight(1.0)
                .build()
                .unwrap();
            assert!(
                built.requester_utility() >= last - 0.05,
                "m={m}: utility regressed from {last} to {}",
                built.requester_utility()
            );
            last = built.requester_utility();
        }
        // At m = 64 the utility must be close to its upper bound.
        let disc = Discretization::covering(64, 10.0).unwrap();
        let built = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(1.0)
            .build()
            .unwrap();
        let (_, hi) = built.utility_bounds().unwrap();
        assert!(
            built.requester_utility() > 0.8 * hi,
            "utility {} far from upper bound {hi}",
            built.requester_utility()
        );
    }

    #[test]
    fn malicious_worker_cheaper_than_honest() {
        let (params, disc, psi) = setup();
        let honest = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(1.0)
            .build()
            .unwrap();
        let malicious = ContractBuilder::new(params, disc, psi)
            .malicious(0.5)
            .weight(1.0)
            .build()
            .unwrap();
        assert!(
            malicious.requester_utility() >= honest.requester_utility() - 1e-9,
            "self-motivated worker should be no worse for the requester at equal weight"
        );
    }

    #[test]
    fn build_is_candidates_then_select() {
        let (params, disc, psi) = setup();
        let variants = [
            ContractBuilder::new(params, disc, psi).honest(),
            ContractBuilder::new(params, disc, psi).malicious(0.5),
            ContractBuilder::new(params, disc, psi).incentive_margin(0.3),
            ContractBuilder::new(params, disc, psi).include_zero_candidate(false),
            ContractBuilder::new(params, disc, psi)
                .malicious(0.5)
                .incentive_margin(0.3)
                .include_zero_candidate(false),
        ];
        for builder in variants {
            let set = builder.candidates().unwrap();
            for w in [-0.5, 0.0, 0.4, 1.0, 3.0] {
                let built = builder.clone().weight(w).build().unwrap();
                let selected = set.select(w).unwrap();
                assert_eq!(selected, built, "{builder:?} at w = {w}");
                assert_eq!(
                    format!("{selected:?}"),
                    format!("{built:?}"),
                    "bits at w = {w}"
                );
            }
        }
        // Without the zero contract every candidate is a ξ^(k).
        let set = ContractBuilder::new(params, disc, psi)
            .include_zero_candidate(false)
            .candidates()
            .unwrap();
        assert_eq!(set.len(), disc.intervals());
        assert!(set.select(-0.5).unwrap().k_opt().is_some());
    }

    #[test]
    fn select_rejects_a_non_finite_weight() {
        let (params, disc, psi) = setup();
        let set = ContractBuilder::new(params, disc, psi)
            .candidates()
            .unwrap();
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = set.select(w).unwrap_err().to_string();
            assert!(err.contains("weight must be finite"), "{err}");
        }
        // build checks the weight before ψ, so its error wins over ψ's.
        let convex = Quadratic::new(0.1, 1.0, 0.0);
        let err = ContractBuilder::new(params, disc, convex)
            .weight(f64::NAN)
            .build()
            .unwrap_err()
            .to_string();
        assert!(err.contains("weight must be finite"), "{err}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (params, disc, psi) = setup();
        assert!(ContractBuilder::new(params, disc, psi)
            .weight(f64::NAN)
            .build()
            .is_err());
        let bad = Quadratic::new(0.1, 1.0, 0.0);
        assert!(ContractBuilder::new(params, disc, bad).build().is_err());
    }
}
