use crate::effort::fit_effort_function;
use crate::{
    solve_subproblems, BipSolution, Contract, CoreError, DegradationReport, Discretization,
    FailurePolicy, Members, ModelParams, Subproblem, MAX_INTERVALS,
};
use dcc_detect::DetectionResult;
use dcc_numerics::{percentile, Quadratic};
use dcc_obs::Metrics;
use dcc_trace::{ReviewerId, TraceDataset};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Configuration of the end-to-end contract design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignConfig {
    /// Model parameters (μ, β, ω, …).
    pub params: ModelParams,
    /// Number of effort intervals `m` per subproblem.
    pub intervals: usize,
    /// Quantile (0–100) of a class's observed efforts used as the end of
    /// its effort region (clamped below the fitted ψ's peak).
    pub effort_quantile: f64,
    /// When set, non-suspected workers with at least this many reviews
    /// get an *individual* effort function fitted from their own
    /// per-review `(effort, feedback)` history instead of the class-level
    /// fit (falling back to the class fit when their data is degenerate).
    pub per_worker_fit_min_reviews: Option<usize>,
    /// What to do when an individual subproblem's contract construction
    /// fails (see [`FailurePolicy`]); defaults to the strict
    /// [`FailurePolicy::Abort`].
    pub failure_policy: FailurePolicy,
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            params: ModelParams {
                mu: 1.5,
                ..ModelParams::default()
            },
            intervals: 20,
            effort_quantile: 95.0,
            per_worker_fit_min_reviews: None,
            failure_policy: FailurePolicy::Abort,
        }
    }
}

impl DesignConfig {
    /// Validates the configuration, naming the offending field (as a
    /// `DesignConfig.<field>` path) and the rejected value in the error
    /// message.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.params.validate().map_err(|e| match e {
            CoreError::InvalidParams(m) => {
                CoreError::InvalidParams(format!("DesignConfig.params.{m}"))
            }
            other => other,
        })?;
        if self.intervals == 0 {
            return Err(CoreError::InvalidParams(format!(
                "DesignConfig.intervals must be >= 1, got {}",
                self.intervals
            )));
        }
        if self.intervals > MAX_INTERVALS {
            return Err(CoreError::InvalidParams(format!(
                "DesignConfig.intervals must be <= {MAX_INTERVALS}, got {}",
                self.intervals
            )));
        }
        if !(self.effort_quantile > 0.0 && self.effort_quantile <= 100.0) {
            return Err(CoreError::InvalidParams(format!(
                "DesignConfig.effort_quantile must be in (0, 100], got {}",
                self.effort_quantile
            )));
        }
        if let Some(min_reviews) = self.per_worker_fit_min_reviews {
            if min_reviews < 3 {
                return Err(CoreError::InvalidParams(format!(
                    "DesignConfig.per_worker_fit_min_reviews must be >= 3 \
                     (a quadratic fit needs 3 points), got {min_reviews}"
                )));
            }
        }
        Ok(())
    }
}

/// The contract assigned to one worker by [`design_contracts`].
#[derive(Debug, Clone)]
pub struct AgentContract {
    /// The worker.
    pub worker: ReviewerId,
    /// The contract: its subproblem's selected contract, one allocation
    /// shared with every worker whose subproblem selected the same
    /// candidate (community partners included, per §III).
    pub contract: Arc<Contract>,
    /// This worker's share of the induced compensation (meta-worker
    /// payments are split equally among members).
    pub compensation: f64,
    /// The effort the contract induces (the worker's share of the
    /// meta-worker effort for communities).
    pub induced_effort: f64,
    /// The subproblem id that produced this contract.
    pub subproblem: usize,
    /// The selected target interval `k_opt` (Eq. 43), `None` for the zero
    /// contract.
    pub k_opt: Option<usize>,
    /// The effort-interval width δ used by the subproblem (needed to
    /// evaluate the Lemma 4.3 lower bound `β(k−1)δ` per worker).
    pub delta: f64,
    /// Whether the worker was treated as malicious (suspected).
    pub suspected: bool,
    /// Number of collusion partners the design assumed (`A_i`).
    pub partners: usize,
}

/// The full output of the §IV design flow.
#[derive(Debug, Clone)]
pub struct ContractDesign {
    /// Per-worker contract assignments: one entry per designed worker,
    /// sorted by worker id. [`ContractDesign::for_worker`] binary-searches
    /// this order, so code that edits the list must keep it.
    pub agents: Vec<AgentContract>,
    /// The underlying decomposition solution, shared with whoever solved
    /// it (the engine context or the batch memo) rather than copied.
    pub solution: Arc<BipSolution>,
    /// Fitted class effort functions: (honest, non-collusive-malicious,
    /// community-aggregate).
    pub class_psis: (Quadratic, Quadratic, Quadratic),
    /// The requester's designed per-round utility `Σ (w q − μ c)`.
    pub total_requester_utility: f64,
    /// Subproblems that could not be designed optimally and what the
    /// [`FailurePolicy`] substituted; empty under a fully clean solve.
    pub degradation: DegradationReport,
}

impl ContractDesign {
    /// The assignment for one worker (a binary search over the sorted
    /// [`ContractDesign::agents`]); `None` for a worker without reviews.
    pub fn for_worker(&self, worker: ReviewerId) -> Option<&AgentContract> {
        let at = self
            .agents
            .binary_search_by_key(&worker, |a| a.worker)
            .ok()?;
        self.agents.get(at)
    }

    /// Compensations of the given workers, in order (missing workers are
    /// skipped).
    pub fn compensations_of(&self, workers: &[ReviewerId]) -> Vec<f64> {
        workers
            .iter()
            .filter_map(|&w| self.for_worker(w))
            .map(|a| a.compensation)
            .collect()
    }
}

/// Chooses a per-class effort region: the `quantile` of observed efforts,
/// clamped to stay strictly below the fitted peak (the model needs ψ
/// increasing on the whole region).
fn effort_region(points: &[(f64, f64)], psi: &Quadratic, quantile: f64) -> Result<f64, CoreError> {
    let efforts: Vec<f64> = points.iter().map(|p| p.0).collect();
    let q = percentile(&efforts, quantile)?;
    let peak = psi.peak().unwrap_or(f64::INFINITY);
    let y_max = q.min(0.9 * peak);
    if y_max <= 0.0 {
        return Err(CoreError::InvalidInput(
            "observed efforts give an empty effort region".into(),
        ));
    }
    Ok(y_max)
}

/// The output of the §IV-B fitting stage: class effort functions fitted,
/// effort regions discretized, and the bilevel program decomposed into
/// per-worker / per-community [`Subproblem`]s — everything the solver
/// needs, reusable across solves (e.g. a μ sweep re-solves the same
/// prepared subproblems without re-fitting).
#[derive(Debug, Clone)]
pub struct DesignPrep {
    /// The decomposed subproblems in deterministic input order
    /// (individual workers first, communities after).
    pub subproblems: Vec<Subproblem>,
    /// Fitted class effort functions: (honest, non-collusive-malicious,
    /// community-aggregate).
    pub class_psis: (Quadratic, Quadratic, Quadratic),
    /// The id of the first community subproblem; ids `>=` this cover
    /// collusive communities.
    pub first_community_subproblem: usize,
}

/// The grouped observation points the §IV-B class fits consume.
#[derive(Default)]
struct ClassPoints {
    /// Points of non-suspected workers, in reviewer-id order.
    honest: Vec<(f64, f64)>,
    /// Points of suspected workers outside any community, in id order.
    ncm: Vec<(f64, f64)>,
    /// Points of community members, in reviewer-id order.
    cm: Vec<(f64, f64)>,
    /// Community aggregate `(Σ effort, Σ feedback)` points, in community
    /// order.
    community: Vec<(f64, f64)>,
    /// Every reviewing worker's own `(mean effort, mean feedback)` point.
    worker_points: BTreeMap<ReviewerId, (f64, f64)>,
}

/// Collects the observation point of every reviewing worker and groups
/// the points by detection class.
fn collect_class_points(trace: &TraceDataset, detection: &DetectionResult) -> ClassPoints {
    let suspected: BTreeSet<ReviewerId> = detection.suspected.iter().copied().collect();
    let in_community: BTreeSet<ReviewerId> = detection
        .collusion
        .communities
        .iter()
        .flatten()
        .copied()
        .collect();

    let mut points = ClassPoints::default();
    for reviewer in trace.reviewers() {
        let reviews = trace.reviews_by(reviewer.id);
        if reviews.is_empty() {
            continue;
        }
        let n = reviews.len() as f64;
        let eff = reviews.iter().map(|r| trace.effort_of(r)).sum::<f64>() / n;
        let fb = reviews.iter().map(|r| trace.feedback_of(r)).sum::<f64>() / n;
        points.worker_points.insert(reviewer.id, (eff, fb));
        if !suspected.contains(&reviewer.id) {
            points.honest.push((eff, fb));
        } else if in_community.contains(&reviewer.id) {
            points.cm.push((eff, fb));
        } else {
            points.ncm.push((eff, fb));
        }
    }
    // Community aggregate points: (sum effort, sum feedback) per community.
    points.community = detection
        .collusion
        .communities
        .iter()
        .map(|members| {
            members
                .iter()
                .filter_map(|m| points.worker_points.get(m))
                .fold((0.0, 0.0), |acc, p| (acc.0 + p.0, acc.1 + p.1))
        })
        .collect();
    points
}

/// A fitted effort function and the discretized effort region its
/// subproblems use.
type ClassModel = (Quadratic, Discretization);

/// Fits ψ to `points` and discretizes the effort region under it.
fn fit_class_model(points: &[(f64, f64)], config: &DesignConfig) -> Result<ClassModel, CoreError> {
    let psi = fit_effort_function(points)?.psi;
    let disc = Discretization::covering(
        config.intervals,
        effort_region(points, &psi, config.effort_quantile)?,
    )?;
    Ok((psi, disc))
}

/// The fitting half of [`design_contracts`] (§IV-B):
///
/// 1. split workers by the detection result (non-suspected ⇒ honest,
///    suspected singletons ⇒ non-collusive malicious, communities ⇒
///    collusive meta-workers),
/// 2. fit each group's effort function: the non-collusive class falls
///    back to the honest model below 3 points; communities are fitted on
///    their aggregate `(Σ effort, Σ feedback)` points when at least 3
///    communities exist, else on the members' own points (keeping the
///    non-collusive discretization), else they take the non-collusive
///    model,
/// 3. decompose into subproblems with per-worker Eq. 5 weights.
///
/// # Errors
///
/// Propagates fitting failures; rejects invalid configurations and traces
/// whose classes are too small to fit (the honest class needs 3
/// observation points).
pub fn prepare_design(
    trace: &TraceDataset,
    detection: &DetectionResult,
    config: &DesignConfig,
) -> Result<DesignPrep, CoreError> {
    config.validate()?;
    let points = collect_class_points(trace, detection);
    let honest = fit_class_model(&points.honest, config)?;
    let ncm = if points.ncm.len() >= 3 {
        fit_class_model(&points.ncm, config)?
    } else {
        honest
    };
    let cm = if points.community.len() >= 3 {
        fit_class_model(&points.community, config)?
    } else if points.cm.len() >= 3 {
        (fit_effort_function(&points.cm)?.psi, ncm.1)
    } else {
        ncm
    };

    let suspected: BTreeSet<ReviewerId> = detection.suspected.iter().copied().collect();
    let in_community: BTreeSet<ReviewerId> = detection
        .collusion
        .communities
        .iter()
        .flatten()
        .copied()
        .collect();

    let mut subproblems = Vec::new();
    let mut next_id = 0usize;
    for reviewer in trace.reviewers() {
        if in_community.contains(&reviewer.id) || !points.worker_points.contains_key(&reviewer.id) {
            continue;
        }
        let weight = detection.weights.weight(reviewer.id).unwrap_or(0.0);
        let is_suspect = suspected.contains(&reviewer.id);

        // Individual fit for prolific non-suspected workers, when enabled.
        let individual = match (config.per_worker_fit_min_reviews, is_suspect) {
            (Some(min_reviews), false) => {
                let reviews = trace.reviews_by(reviewer.id);
                if reviews.len() >= min_reviews {
                    let points: Vec<(f64, f64)> = reviews
                        .iter()
                        .map(|r| (trace.effort_of(r), trace.feedback_of(r)))
                        .collect();
                    fit_class_model(&points, config).ok()
                } else {
                    None
                }
            }
            _ => None,
        };
        let (psi, disc) = individual.unwrap_or(if is_suspect { ncm } else { honest });

        subproblems.push(Subproblem {
            id: next_id,
            members: Members::One(reviewer.id.index()),
            omega: if is_suspect { config.params.omega } else { 0.0 },
            weight,
            psi,
            disc,
        });
        next_id += 1;
    }
    let first_community_subproblem = next_id;
    for members in &detection.collusion.communities {
        let weights: Vec<f64> = members
            .iter()
            .filter_map(|m| detection.weights.weight(*m))
            .collect();
        let weight = if weights.is_empty() {
            0.0
        } else {
            weights.iter().sum::<f64>() / weights.len() as f64
        };
        subproblems.push(Subproblem {
            id: next_id,
            members: members.iter().map(|m| m.index()).collect::<Vec<_>>().into(),
            omega: config.params.omega,
            weight,
            psi: cm.0,
            disc: cm.1,
        });
        next_id += 1;
    }

    Ok(DesignPrep {
        subproblems,
        class_psis: (honest.0, ncm.0, cm.0),
        first_community_subproblem,
    })
}

/// The assignment half of [`design_contracts`]: maps a solved
/// decomposition back to per-worker contracts, each pointing at its
/// subproblem's contract. Community members share the community's
/// contract and split its payment equally.
///
/// `solution` must come from solving `prep.subproblems` (any pool size —
/// the solve is bit-identical across pool sizes): `solution.solutions[i]`
/// pairs with `prep.subproblems[i]` by position. It is taken owned or
/// as an `Arc`; the design keeps that allocation, so a caller that
/// already shares the solution (the engine's construct stage) passes
/// an `Arc` and nothing is copied.
pub fn assemble_design(
    detection: &DetectionResult,
    prep: &DesignPrep,
    solution: impl Into<Arc<BipSolution>>,
    degradation: DegradationReport,
) -> ContractDesign {
    let solution = solution.into();
    let suspected: BTreeSet<ReviewerId> = detection.suspected.iter().copied().collect();
    let partner_counts = detection.collusion.partner_counts();
    let mut agents = Vec::with_capacity(solution.solutions.len());
    for (sol, sp) in solution.solutions.iter().zip(&prep.subproblems) {
        let share = sol.members.len().max(1) as f64;
        let is_community = sol.id >= prep.first_community_subproblem;
        for &member in sol.members.iter() {
            let worker = ReviewerId(member);
            agents.push(AgentContract {
                worker,
                contract: Arc::clone(sol.built.shared_contract()),
                compensation: sol.built.compensation() / share,
                induced_effort: sol.built.induced_effort() / share,
                subproblem: sol.id,
                k_opt: sol.built.k_opt(),
                delta: sp.disc.delta(),
                suspected: is_community || suspected.contains(&worker),
                partners: partner_counts.get(&worker).copied().unwrap_or(0),
            });
        }
    }
    agents.sort_by_key(|a| a.worker);

    let total = solution.total_requester_utility;
    ContractDesign {
        agents,
        solution,
        class_psis: prep.class_psis,
        total_requester_utility: total,
        degradation,
    }
}

/// Runs the complete §IV design flow:
///
/// 1. [`prepare_design`] — split workers by the detection result, fit
///    each group's effort function, and decompose into subproblems with
///    per-worker Eq. 5 weights (§IV-B),
/// 2. [`solve_subproblems`] — solve the subproblems with the §IV-C
///    algorithm, on a pool sized from the machine's available
///    parallelism,
/// 3. [`assemble_design`] — assign contracts back to workers; community
///    members share the community's contract and split its payment
///    equally.
///
/// # Errors
///
/// Propagates fitting and solver failures; rejects traces whose classes
/// are too small to fit.
pub fn design_contracts(
    trace: &TraceDataset,
    detection: &DetectionResult,
    config: &DesignConfig,
) -> Result<ContractDesign, CoreError> {
    let prep = prepare_design(trace, detection, config)?;
    let pool = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (solution, degradation) = solve_subproblems(
        &prep.subproblems,
        &config.params,
        pool,
        config.failure_policy,
        &Metrics::noop(),
    )?;
    Ok(assemble_design(detection, &prep, solution, degradation))
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use dcc_detect::{run_pipeline, PipelineConfig};
    use dcc_trace::{SyntheticConfig, WorkerClass};

    fn designed() -> (TraceDataset, ContractDesign) {
        let trace = SyntheticConfig::small(101).generate();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let design = design_contracts(&trace, &detection, &DesignConfig::default()).unwrap();
        (trace, design)
    }

    #[test]
    fn every_reviewing_worker_gets_a_contract() {
        let (trace, design) = designed();
        let reviewing = trace
            .reviewers()
            .iter()
            .filter(|r| !trace.reviews_by(r.id).is_empty())
            .count();
        assert_eq!(design.agents.len(), reviewing);
        for a in &design.agents {
            assert!(a.contract.is_monotone());
            assert!(a.compensation >= 0.0);
            assert!(a.compensation.is_finite());
        }
    }

    #[test]
    fn community_members_share_one_contract() {
        let (trace, design) = designed();
        for campaign in trace.campaigns() {
            let assignments: Vec<&AgentContract> = campaign
                .members
                .iter()
                .filter_map(|m| design.for_worker(*m))
                .collect();
            assert_eq!(assignments.len(), campaign.members.len());
            let first = assignments[0];
            for a in &assignments {
                assert_eq!(a.subproblem, first.subproblem, "same subproblem");
                assert_eq!(a.contract, first.contract, "same contract (§III)");
                assert!((a.compensation - first.compensation).abs() < 1e-12, "equal split");
                assert!(a.suspected);
                assert_eq!(a.partners, campaign.members.len() - 1);
            }
        }
    }

    #[test]
    fn fig8b_shape_honest_paid_most() {
        let (trace, design) = designed();
        let mean_comp = |class: WorkerClass| {
            let comps = design.compensations_of(&trace.workers_of_class(class));
            comps.iter().sum::<f64>() / comps.len().max(1) as f64
        };
        let honest = mean_comp(WorkerClass::Honest);
        let ncm = mean_comp(WorkerClass::NonCollusiveMalicious);
        let cm = mean_comp(WorkerClass::CollusiveMalicious);
        assert!(honest > ncm, "honest {honest} <= ncm {ncm}");
        assert!(ncm >= cm, "ncm {ncm} < cm {cm}");
    }

    #[test]
    fn generous_requester_pays_weakly_more() {
        // Fig. 8(b)'s mu effect: lower mu (a more generous requester)
        // never lowers total compensation.
        let trace = SyntheticConfig::small(103).generate();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let mut totals = Vec::new();
        for mu in [2.0, 1.5, 1.0] {
            let config = DesignConfig {
                params: ModelParams {
                    mu,
                    ..ModelParams::default()
                },
                ..DesignConfig::default()
            };
            let design = design_contracts(&trace, &detection, &config).unwrap();
            let total: f64 = design.agents.iter().map(|a| a.compensation).sum();
            totals.push(total);
        }
        assert!(totals[0] <= totals[1] + 1e-9, "mu 2.0 vs 1.5: {totals:?}");
        assert!(totals[1] <= totals[2] + 1e-9, "mu 1.5 vs 1.0: {totals:?}");
    }

    #[test]
    fn per_worker_fits_apply_to_prolific_workers() {
        let mut cfg = SyntheticConfig::small(107);
        cfg.n_honest = 400;
        cfg.prolific_fraction = 0.1;
        cfg.n_products = 1_500;
        let trace = cfg.generate();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let base = DesignConfig::default();
        let individual = DesignConfig {
            per_worker_fit_min_reviews: Some(20),
            ..base
        };
        let d_class = design_contracts(&trace, &detection, &base).unwrap();
        let d_indiv = design_contracts(&trace, &detection, &individual).unwrap();
        assert_eq!(d_class.agents.len(), d_indiv.agents.len());

        // At least one prolific worker's contract differs from the
        // class-level design (its own curve differs from the pool's).
        let prolific = trace.prolific_workers(WorkerClass::Honest, 20);
        assert!(!prolific.is_empty(), "need prolific workers for this test");
        let changed = prolific
            .iter()
            .filter(|id| {
                let a = d_class.for_worker(**id).unwrap();
                let b = d_indiv.for_worker(**id).unwrap();
                a.contract != b.contract
            })
            .count();
        assert!(changed > 0, "individual fitting changed no contracts");
        // Everything stays structurally valid.
        for a in &d_indiv.agents {
            assert!(a.contract.is_monotone());
            assert!(a.compensation.is_finite() && a.compensation >= 0.0);
        }
    }

    #[test]
    fn fallback_policy_survives_a_corrupted_weight() {
        // Corrupt one worker's Eq. 5 weight to NaN: the strict design
        // aborts, the fallback design completes with exactly that worker
        // degraded onto a fixed-payment baseline.
        let trace = SyntheticConfig::small(109).generate();
        let mut detection = run_pipeline(&trace, PipelineConfig::default());
        let victim = trace
            .reviewers()
            .iter()
            .map(|r| r.id)
            .find(|id| !trace.reviews_by(*id).is_empty())
            .expect("some reviewing worker");
        assert!(detection.weights.set_weight(victim, f64::NAN));

        let strict = DesignConfig::default();
        assert!(design_contracts(&trace, &detection, &strict).is_err());

        let lenient = DesignConfig {
            failure_policy: FailurePolicy::FallbackBaseline { amount: 0.5 },
            ..strict
        };
        let design = design_contracts(&trace, &detection, &lenient).unwrap();
        assert!(!design.degradation.is_empty(), "degradation must be reported");
        let degraded = &design.degradation.degraded;
        assert!(degraded
            .iter()
            .any(|d| d.members.contains(&victim.index())));
        for d in degraded {
            assert!(d.reason.contains("weight must be finite"), "{}", d.reason);
        }
        // The victim still holds a monotone, finite-pay contract.
        let assigned = design.for_worker(victim).expect("victim keeps a contract");
        assert!(assigned.contract.is_monotone());
        assert!(assigned.compensation.is_finite() && assigned.compensation >= 0.0);
        // Workers outside the degraded subproblem(s) are untouched
        // relative to a clean design of the uncorrupted detection.
        let clean_detection = run_pipeline(&trace, PipelineConfig::default());
        let clean = design_contracts(&trace, &clean_detection, &strict).unwrap();
        let degraded_ids: Vec<usize> = degraded.iter().map(|d| d.subproblem).collect();
        for a in &design.agents {
            if !degraded_ids.contains(&a.subproblem) {
                let c = clean.for_worker(a.worker).unwrap();
                assert_eq!(a.contract, c.contract, "worker {:?} changed", a.worker);
            }
        }
    }

    #[test]
    fn skip_policy_excludes_only_the_corrupted_worker() {
        let trace = SyntheticConfig::small(113).generate();
        let mut detection = run_pipeline(&trace, PipelineConfig::default());
        let victim = trace
            .reviewers()
            .iter()
            .map(|r| r.id)
            .find(|id| !trace.reviews_by(*id).is_empty())
            .expect("some reviewing worker");
        assert!(detection.weights.set_weight(victim, f64::INFINITY));
        let config = DesignConfig {
            failure_policy: FailurePolicy::Skip,
            ..DesignConfig::default()
        };
        let design = design_contracts(&trace, &detection, &config).unwrap();
        assert_eq!(design.degradation.len(), 1);
        let assigned = design.for_worker(victim).expect("still listed");
        assert_eq!(assigned.compensation, 0.0);
        assert_eq!(assigned.induced_effort, 0.0);
    }

    #[test]
    fn config_validation() {
        let (trace, _) = designed();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let bad = DesignConfig {
            intervals: 0,
            ..DesignConfig::default()
        };
        assert!(design_contracts(&trace, &detection, &bad).is_err());
    }

    #[test]
    fn config_validation_names_the_offending_field_and_value() {
        let base = DesignConfig::default();

        let err = DesignConfig { intervals: 0, ..base }.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameters: DesignConfig.intervals must be >= 1, got 0"
        );

        let err = DesignConfig { intervals: 100_000_000_000, ..base }.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameters: DesignConfig.intervals must be <= 1024, got 100000000000"
        );

        let err = DesignConfig {
            effort_quantile: 120.0,
            ..base
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameters: DesignConfig.effort_quantile must be in (0, 100], got 120"
        );

        let err = DesignConfig {
            per_worker_fit_min_reviews: Some(2),
            ..base
        }
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("DesignConfig.per_worker_fit_min_reviews") && msg.contains("got 2"),
            "{msg}"
        );

        let err = DesignConfig {
            params: ModelParams {
                mu: -1.0,
                ..ModelParams::default()
            },
            ..base
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameters: DesignConfig.params.mu must be positive, got -1"
        );

        let err = DesignConfig {
            params: ModelParams {
                gamma: f64::NAN,
                ..ModelParams::default()
            },
            ..base
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameters: DesignConfig.params.gamma must be finite, got NaN"
        );

        assert!(base.validate().is_ok());
    }

    #[test]
    fn prepare_solve_assemble_matches_design_contracts() {
        // The staged decomposition used by dcc-engine must reproduce the
        // one-shot flow bit-for-bit.
        let trace = SyntheticConfig::small(101).generate();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let config = DesignConfig::default();
        let one_shot = design_contracts(&trace, &detection, &config).unwrap();

        let prep = prepare_design(&trace, &detection, &config).unwrap();
        let (solution, degradation) = solve_subproblems(
            &prep.subproblems,
            &config.params,
            4,
            config.failure_policy,
            &Metrics::noop(),
        )
        .unwrap();
        let staged = assemble_design(&detection, &prep, solution, degradation);

        assert_eq!(one_shot.agents.len(), staged.agents.len());
        assert_eq!(one_shot.solution, staged.solution);
        assert_eq!(
            one_shot.total_requester_utility.to_bits(),
            staged.total_requester_utility.to_bits()
        );
        for (a, b) in one_shot.agents.iter().zip(&staged.agents) {
            assert_eq!(a.worker, b.worker);
            assert_eq!(a.contract, b.contract);
            assert_eq!(a.compensation.to_bits(), b.compensation.to_bits());
            assert_eq!(a.k_opt, b.k_opt);
            assert_eq!(a.suspected, b.suspected);
            assert_eq!(a.partners, b.partners);
        }
        // Each agent carries its own subproblem's interval width.
        for a in &staged.agents {
            let sp = prep
                .subproblems
                .iter()
                .find(|sp| sp.id == a.subproblem)
                .expect("every agent's subproblem exists");
            assert_eq!(
                a.delta.to_bits(),
                sp.disc.delta().to_bits(),
                "{:?}",
                a.worker
            );
        }
    }

    #[test]
    fn a_design_holds_one_contract_per_selected_candidate() {
        let trace = SyntheticConfig::small(42).generate();
        let detection = run_pipeline(&trace, PipelineConfig::default());
        let config = DesignConfig::default();
        let prep = prepare_design(&trace, &detection, &config).unwrap();
        let (solution, degradation) = solve_subproblems(
            &prep.subproblems,
            &config.params,
            2,
            config.failure_policy,
            &Metrics::noop(),
        )
        .unwrap();
        let design = assemble_design(&detection, &prep, solution, degradation);
        for a in &design.agents {
            let sol = design
                .solution
                .solutions
                .iter()
                .find(|sol| sol.id == a.subproblem)
                .expect("every agent's subproblem is solved");
            assert!(
                Arc::ptr_eq(&a.contract, sol.built.shared_contract()),
                "{:?}",
                a.worker
            );
        }
        let keys: BTreeSet<[u64; 6]> = prep
            .subproblems
            .iter()
            .map(|sp| {
                [
                    sp.omega.to_bits(),
                    sp.psi.r2().to_bits(),
                    sp.psi.r1().to_bits(),
                    sp.psi.r0().to_bits(),
                    sp.disc.intervals() as u64,
                    sp.disc.delta().to_bits(),
                ]
            })
            .collect();
        let contracts: BTreeSet<*const Contract> = design
            .agents
            .iter()
            .map(|a| Arc::as_ptr(&a.contract))
            .collect();
        assert!(
            contracts.len() <= keys.len() * (config.intervals + 1),
            "{} contracts for {} keys",
            contracts.len(),
            keys.len()
        );
        assert!(
            contracts.len() < design.agents.len() / 10,
            "{}",
            contracts.len()
        );
    }

    #[test]
    fn for_worker_finds_every_agent_and_only_reviewers() {
        let (trace, design) = designed();
        for a in &design.agents {
            let found = design.for_worker(a.worker).expect("agent found");
            assert_eq!(found.worker, a.worker);
            assert_eq!(found.subproblem, a.subproblem);
        }
        let silent = trace
            .reviewers()
            .iter()
            .map(|r| r.id)
            .filter(|id| trace.reviews_by(*id).is_empty())
            .chain([ReviewerId(trace.reviewers().len() + 7)])
            .collect::<Vec<_>>();
        for id in &silent {
            assert!(design.for_worker(*id).is_none(), "{id:?} has no reviews");
        }
        let mut asked: Vec<ReviewerId> = design.agents.iter().map(|a| a.worker).collect();
        asked.extend(&silent);
        let comps: Vec<f64> = design.agents.iter().map(|a| a.compensation).collect();
        assert_eq!(
            design.compensations_of(&asked),
            comps,
            "missing workers are skipped"
        );
    }
}
