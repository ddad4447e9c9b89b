use crate::{
    bounds, BestResponse, BuiltContract, CandidateSet, Contract, ContractBuilder, CoreError,
    Discretization, ModelParams,
};
use dcc_numerics::Quadratic;
use dcc_obs::{names, Metrics};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
#[allow(
    clippy::disallowed_types,
    reason = "subproblem timings are measured here and routed into dcc-obs via span_at"
)]
use std::time::{Duration, Instant};

/// What to do when a single subproblem's contract construction fails
/// (corrupted weight, degenerate ψ fit, numeric breakdown).
///
/// The decomposition of §IV-B makes subproblems independent, so a
/// failure can be isolated to the worker (or community) it belongs to
/// instead of aborting the whole design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailurePolicy {
    /// Propagate the first failure (the strict pre-existing behaviour).
    #[default]
    Abort,
    /// Give the failing subproblem's workers a fixed-payment contract —
    /// the platform-status-quo baseline of §I — paying `amount` per
    /// round (clamped into the Lemma 4.2/4.3 compensation bracket when
    /// the subproblem's ψ still supports evaluating it).
    FallbackBaseline {
        /// Requested per-round payment before clamping.
        amount: f64,
    },
    /// Exclude the failing subproblem's workers from the system (the
    /// Fig. 8c exclusion baseline): zero contract, no pay, no benefit.
    Skip,
}

/// How one degraded subproblem was handled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradationAction {
    /// Replaced by a fixed-payment baseline at the (clamped) amount.
    Fallback {
        /// The per-round payment actually written into the contract.
        amount: f64,
    },
    /// Excluded from the system under the zero contract.
    Skipped,
}

/// One subproblem the solver could not design optimally.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSubproblem {
    /// The failing subproblem's id.
    pub subproblem: usize,
    /// Worker indices it covers.
    pub members: Vec<usize>,
    /// The original solver error, rendered.
    pub reason: String,
    /// What the policy substituted.
    pub action: DegradationAction,
    /// The substituted requester utility minus the Theorem 4.1 upper
    /// bound for this subproblem — how much was given up relative to the
    /// best any contract could have achieved. `None` when the bound
    /// itself is not computable (e.g. a non-finite weight or ψ).
    pub utility_delta: Option<f64>,
}

/// Per-subproblem record of every degradation a solve performed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationReport {
    /// The degraded subproblems, in input order.
    pub degraded: Vec<DegradedSubproblem>,
}

impl DegradationReport {
    /// Whether every subproblem was solved optimally.
    pub fn is_empty(&self) -> bool {
        self.degraded.is_empty()
    }

    /// Number of degraded subproblems.
    pub fn len(&self) -> usize {
        self.degraded.len()
    }

    /// The record for one subproblem id, if it degraded.
    pub fn for_subproblem(&self, id: usize) -> Option<&DegradedSubproblem> {
        self.degraded.iter().find(|d| d.subproblem == id)
    }
}

/// The worker indices one subproblem covers, read as a slice: a single
/// worker inline, a community's members in one shared allocation. A
/// solution clones its subproblem's list, which copies no members and,
/// for the single workers that make up almost every solve, counts no
/// reference either.
#[derive(Clone)]
pub enum Members {
    /// An individual worker.
    One(usize),
    /// A community's members (or any other count than one).
    Many(Arc<[usize]>),
}

impl Deref for Members {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            Members::One(worker) => std::slice::from_ref(worker),
            Members::Many(workers) => workers,
        }
    }
}

impl From<Vec<usize>> for Members {
    fn from(workers: Vec<usize>) -> Self {
        match workers.as_slice() {
            [worker] => Members::One(*worker),
            _ => Members::Many(workers.into()),
        }
    }
}

/// Members compare as the slices they hold.
impl PartialEq for Members {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Prints the slice, as the `Vec` it replaced did.
impl fmt::Debug for Members {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One subproblem of the §IV-B decomposition: the contract design for a
/// single worker, or for a collusive community treated as one
/// "meta-worker" (Eq. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Subproblem {
    /// Caller-chosen identifier (e.g. a worker id or community id).
    pub id: usize,
    /// Worker indices covered by this subproblem (singleton for
    /// individual workers; all members for a community), shared with
    /// its solution.
    pub members: Members,
    /// The feedback weight ω in the follower's utility: 0 for honest
    /// workers, `params.omega` for malicious ones.
    pub omega: f64,
    /// The requester's feedback weight `w` for this subproblem (Eq. 5;
    /// communities use their members' mean).
    pub weight: f64,
    /// The (fitted) effort function — the community's aggregate response
    /// for meta-workers.
    pub psi: Quadratic,
    /// The effort-region discretization for this subproblem.
    pub disc: Discretization,
}

/// The solved contract for one subproblem.
#[derive(Debug, Clone, PartialEq)]
pub struct SubproblemSolution {
    /// The subproblem's identifier.
    pub id: usize,
    /// Worker indices covered: the subproblem's own list.
    pub members: Members,
    /// The §IV-C result.
    pub built: BuiltContract,
}

/// The assembled solution of the decomposed bilevel program.
#[derive(Debug, Clone, PartialEq)]
pub struct BipSolution {
    /// Per-subproblem solutions, in input order.
    pub solutions: Vec<SubproblemSolution>,
    /// The requester's total per-round utility `Σ (w_i q_i − μ c_i)`.
    pub total_requester_utility: f64,
}

/// Solves every subproblem of the decomposition (§IV-B) and assembles the
/// requester's total utility.
///
/// Only the Eq. 43 choice of `k_opt` depends on a subproblem's weight;
/// its candidates and their verified best responses (Eq. 39–40) depend
/// on ω, ψ and δ. So the subproblems are grouped by the exact bits of
/// `(ω, r₂, r₁, r₀, m, δ)`: each key with two or more members gets one
/// [`CandidateSet`] ([`ContractBuilder::candidates`]), and each member
/// then takes its [`CandidateSet::select`] at its own weight. A key with
/// one member is solved in place by [`ContractBuilder::build`], which is
/// the same two halves. Members of a key have the same inputs bit for
/// bit, so every solution is bit-identical to building its subproblem
/// alone. A set builds each selected candidate's contract once, and
/// every solution that selects it shares that allocation; each solution
/// also shares its subproblem's member list.
///
/// The subproblems are independent by construction — the requester's
/// objective separates across non-collusive workers and communities — so
/// the shared sets, then the subproblems, are fanned out across `pool`
/// scoped threads (`std::thread::scope`), each taking one contiguous
/// chunk of the input. Chunk results are concatenated in input order, so
/// `solutions[i]` solves `subproblems[i]` and the output is
/// **bit-identical** for every pool size: each subproblem's arithmetic is
/// self-contained and the total is summed in input order. `pool` is
/// clamped to `[1, subproblems.len()]`; `pool <= 1` solves on the calling
/// thread.
///
/// `policy` decides what happens when an individual subproblem cannot be
/// designed: abort everything, fall back to a fixed-payment baseline for
/// that worker, or exclude the worker. Degradations are itemized in the
/// returned [`DegradationReport`] (empty when every subproblem solved
/// optimally).
///
/// With an enabled recorder, the time to build each shared candidate
/// set, per-subproblem solve times (a shared member's time is its
/// selection alone), candidate counts, and degradation counters flow
/// into `metrics` (see `dcc_obs::names`). Worker threads only *measure*;
/// all recording happens on the calling thread after the merge, in input
/// order, so the metric stream is the same for every pool size. A
/// disabled recorder reads no clock and builds no attributes.
///
/// # Errors
///
/// Under [`FailurePolicy::Abort`], the first per-subproblem error in
/// input order (invalid ψ, parameters, …), identified by the subproblem
/// id in the message; nothing is recorded. Under the other policies,
/// solver errors are absorbed into the report and only panics in the
/// worker threads propagate.
pub fn solve_subproblems(
    subproblems: &[Subproblem],
    params: &ModelParams,
    pool: usize,
    policy: FailurePolicy,
    metrics: &Metrics,
) -> Result<(BipSolution, DegradationReport), CoreError> {
    let workers = clamp_pool(pool, subproblems.len());
    let clock = metrics.enabled();
    let sharing = Sharing::of(subproblems);
    // A key whose set fails to build is solved member by member, so each
    // member reports exactly the error `build` gives it.
    let sets = fan_out(&sharing.leaders, workers, |sp| {
        timed(clock, || builder(sp, params).candidates().ok())
    });
    let solve = |&(sp, slot): &(&Subproblem, Option<usize>)| {
        let set = slot.and_then(|s| sets.get(s)?.0.as_ref());
        solve_one(sp, set, params)
    };
    if !clock {
        let results = fan_out(&sharing.jobs, workers, solve);
        return assemble_solutions(subproblems, results, params, policy);
    }
    let timed_results = fan_out(&sharing.jobs, workers, |job| timed(clock, || solve(job)));
    let (results, times): (Vec<_>, Vec<_>) = timed_results.into_iter().unzip();
    let failed: Vec<bool> = results.iter().map(Result::is_err).collect();
    let (solution, report) = assemble_solutions(subproblems, results, params, policy)?;

    metrics.gauge(names::GAUGE_SOLVE_POOL, workers as f64);
    metrics.add(names::COUNTER_SOLVE_SUBPROBLEMS, subproblems.len() as u64);
    for (members, (set, elapsed)) in sharing.members.iter().zip(&sets) {
        metrics.span_at(
            names::SPAN_CANDIDATE_SET,
            &[
                ("subproblems", (*members).into()),
                (
                    "candidates",
                    set.as_ref().map_or(0, CandidateSet::len).into(),
                ),
            ],
            *elapsed,
        );
    }
    for (((sp, sol), elapsed), degraded) in subproblems
        .iter()
        .zip(&solution.solutions)
        .zip(&times)
        .zip(failed)
    {
        metrics.span_at(
            names::SPAN_SUBPROBLEM,
            &[
                ("id", sp.id.into()),
                ("iterations", sol.built.candidate_count().into()),
                ("degraded", degraded.into()),
            ],
            *elapsed,
        );
        metrics.observe(names::HIST_SUBPROBLEM_US, elapsed.as_secs_f64() * 1e6);
    }
    for d in &report.degraded {
        metrics.add(names::COUNTER_SOLVE_DEGRADED, 1);
        let by_action = match d.action {
            DegradationAction::Fallback { .. } => names::COUNTER_SOLVE_DEGRADED_FALLBACK,
            DegradationAction::Skipped => names::COUNTER_SOLVE_DEGRADED_SKIPPED,
        };
        metrics.add(by_action, 1);
    }
    Ok((solution, report))
}

/// The exact bits of everything a subproblem's candidate set depends on
/// besides the solve-wide parameters: ω, ψ's `(r₂, r₁, r₀)`, `m` and δ.
type SetKey = [u64; 6];

fn set_key(sp: &Subproblem) -> SetKey {
    [
        sp.omega.to_bits(),
        sp.psi.r2().to_bits(),
        sp.psi.r1().to_bits(),
        sp.psi.r0().to_bits(),
        sp.disc.intervals() as u64,
        sp.disc.delta().to_bits(),
    ]
}

/// Which subproblems share a candidate set. Only keys with two or more
/// members get one, so a solve where every subproblem has its own ψ
/// materializes no set at all.
struct Sharing<'a> {
    /// Per subproblem, in input order: the subproblem and the index of
    /// its key's shared set, or `None` when no other subproblem has its
    /// key.
    jobs: Vec<(&'a Subproblem, Option<usize>)>,
    /// Per shared key, in first-occurrence order: its first member.
    leaders: Vec<&'a Subproblem>,
    /// Per shared key: its member count.
    members: Vec<usize>,
}

impl<'a> Sharing<'a> {
    fn of(subproblems: &'a [Subproblem]) -> Self {
        // Each key's first member and member count, in first-occurrence order.
        let mut index: BTreeMap<SetKey, usize> = BTreeMap::new();
        let mut keys: Vec<(&Subproblem, usize)> = Vec::new();
        let key_of: Vec<usize> = subproblems
            .iter()
            .map(|sp| {
                let key = *index.entry(set_key(sp)).or_insert(keys.len());
                match keys.get_mut(key) {
                    Some((_, count)) => *count += 1,
                    None => keys.push((sp, 1)),
                }
                key
            })
            .collect();
        drop(index);

        let mut leaders = Vec::new();
        let mut members = Vec::new();
        let slot_of_key: Vec<Option<usize>> = keys
            .into_iter()
            .map(|(first, count)| {
                (count >= 2).then(|| {
                    leaders.push(first);
                    members.push(count);
                    leaders.len() - 1
                })
            })
            .collect();
        let jobs = subproblems
            .iter()
            .zip(key_of)
            .map(|(sp, key)| (sp, slot_of_key.get(key).copied().flatten()))
            .collect();
        Sharing {
            jobs,
            leaders,
            members,
        }
    }
}

/// The §IV-C builder for one subproblem under the solve's parameters.
fn builder(sp: &Subproblem, params: &ModelParams) -> ContractBuilder {
    ContractBuilder::new(*params, sp.disc, sp.psi)
        .malicious(sp.omega)
        .weight(sp.weight)
}

/// Solves one subproblem via the §IV-C candidate algorithm: the Eq. 43
/// selection from its key's shared candidate set, or the whole search in
/// place when it has none.
fn solve_one(
    sp: &Subproblem,
    shared: Option<&CandidateSet>,
    params: &ModelParams,
) -> Result<SubproblemSolution, CoreError> {
    let built = match shared {
        Some(set) => set.select(sp.weight),
        None => builder(sp, params).build(),
    }
    .map_err(|e| CoreError::InvalidInput(format!("subproblem {} failed: {e}", sp.id)))?;
    Ok(SubproblemSolution {
        id: sp.id,
        members: sp.members.clone(),
        built,
    })
}

/// `f`'s output and, when `clock` is set, how long it took; a disabled
/// recorder's solve reads no clock.
fn timed<T>(clock: bool, f: impl FnOnce() -> T) -> (T, Duration) {
    if !clock {
        return (f(), Duration::ZERO);
    }
    #[allow(
        clippy::disallowed_types,
        reason = "per-subproblem timing fed to metrics.span_at by solve_subproblems"
    )]
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// `pool` clamped to `[1, n]` (with `n = 0` treated as 1).
fn clamp_pool(pool: usize, n: usize) -> usize {
    pool.max(1).min(n.max(1))
}

/// The deterministic chunked fan-out of [`solve_subproblems`]: `workers`
/// scoped threads each take one contiguous chunk of `items` and the
/// per-chunk outputs are concatenated back in input order.
fn fan_out<I, T, F>(items: &[I], workers: usize, per_item: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    if workers > 1 && items.len() > 1 {
        let chunk_size = items.len().div_ceil(workers);
        let per_ref = &per_item;
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk_size)
                .map(|chunk| scope.spawn(move || chunk.iter().map(per_ref).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    } else {
        items.iter().map(per_item).collect()
    }
}

/// Applies the failure policy to the per-subproblem results (in input
/// order, so Abort reports the first failure) and sums the requester's
/// objective.
fn assemble_solutions(
    subproblems: &[Subproblem],
    results: Vec<Result<SubproblemSolution, CoreError>>,
    params: &ModelParams,
    policy: FailurePolicy,
) -> Result<(BipSolution, DegradationReport), CoreError> {
    let mut report = DegradationReport::default();
    let solutions = results
        .into_iter()
        .zip(subproblems)
        .map(|(result, sp)| match (result, policy) {
            (Ok(solution), _) => Ok(solution),
            (Err(err), FailurePolicy::Abort) => Err(err),
            (Err(err), FailurePolicy::FallbackBaseline { amount }) => {
                let (solution, paid) = fallback_solution(sp, params, amount);
                report.degraded.push(DegradedSubproblem {
                    subproblem: sp.id,
                    members: sp.members.to_vec(),
                    reason: err.to_string(),
                    action: DegradationAction::Fallback { amount: paid },
                    utility_delta: utility_delta(sp, params, solution.built.requester_utility()),
                });
                Ok(solution)
            }
            (Err(err), FailurePolicy::Skip) => {
                report.degraded.push(DegradedSubproblem {
                    subproblem: sp.id,
                    members: sp.members.to_vec(),
                    reason: err.to_string(),
                    action: DegradationAction::Skipped,
                    utility_delta: utility_delta(sp, params, 0.0),
                });
                Ok(skip_solution(sp))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;

    let total = solutions
        .iter()
        .map(|s| s.built.requester_utility())
        .sum();
    Ok((
        BipSolution {
            solutions,
            total_requester_utility: total,
        },
        report,
    ))
}

/// The feedback domain `[ψ(0), ψ(y_max)]` of a subproblem's contract,
/// with a safe unit fallback when ψ is too corrupted to evaluate.
fn feedback_domain(sp: &Subproblem) -> (f64, f64) {
    let d_lo = sp.psi.eval(0.0);
    let d_hi = sp.psi.eval(sp.disc.y_max());
    if d_lo.is_finite() && d_hi.is_finite() && d_lo < d_hi {
        (d_lo, d_hi)
    } else {
        (0.0, 1.0)
    }
}

/// Builds the fixed-payment fallback for a failed subproblem.
///
/// The payment is clamped into the Lemma 4.2/4.3 compensation bracket
/// `[0, C_ub(m)]` when the subproblem's ψ still yields a finite cap.
/// Accounting is the model's own prediction for a fixed payment: a
/// worker with no marginal incentive best-responds with zero effort, so
/// the requester books `w·ψ(0) − μ·amount` (with non-finite `w` or ψ(0)
/// conservatively treated as 0).
fn fallback_solution(
    sp: &Subproblem,
    params: &ModelParams,
    amount: f64,
) -> (SubproblemSolution, f64) {
    let cap = bounds::compensation_upper_bound(params, &sp.disc, &sp.psi, sp.disc.intervals());
    let pay = if cap.is_finite() && cap >= 0.0 {
        amount.clamp(0.0, cap)
    } else {
        amount.max(0.0)
    };
    let (d_lo, d_hi) = feedback_domain(sp);
    #[allow(clippy::expect_used)] // unit-domain fallback cannot fail: pay is clamped nonnegative
    let contract = Contract::fixed(d_lo, d_hi, pay)
        .or_else(|_| Contract::fixed(0.0, 1.0, pay))
        .expect("unit-domain fixed contract is always valid");

    let zero_effort_feedback = {
        let f = sp.psi.eval(0.0);
        if f.is_finite() {
            f.max(0.0)
        } else {
            0.0
        }
    };
    let weight = if sp.weight.is_finite() { sp.weight } else { 0.0 };
    let requester_utility = weight * zero_effort_feedback - params.mu * pay;
    let response = BestResponse {
        effort: 0.0,
        feedback: zero_effort_feedback,
        compensation: pay,
        utility: pay,
    };
    (
        SubproblemSolution {
            id: sp.id,
            members: sp.members.clone(),
            built: BuiltContract::degraded(contract, response, requester_utility, weight),
        },
        pay,
    )
}

/// Builds the exclusion (zero-contract) substitute for a failed
/// subproblem: the worker is out of the system — no pay, no benefit.
fn skip_solution(sp: &Subproblem) -> SubproblemSolution {
    let (d_lo, d_hi) = feedback_domain(sp);
    #[allow(clippy::expect_used)] // unit-domain zero contract has no failing input
    let contract = Contract::zero(d_lo, d_hi)
        .or_else(|_| Contract::zero(0.0, 1.0))
        .expect("unit-domain zero contract is always valid");
    let weight = if sp.weight.is_finite() { sp.weight } else { 0.0 };
    let response = BestResponse {
        effort: 0.0,
        feedback: 0.0,
        compensation: 0.0,
        utility: 0.0,
    };
    SubproblemSolution {
        id: sp.id,
        members: sp.members.clone(),
        built: BuiltContract::degraded(contract, response, 0.0, weight),
    }
}

/// The degraded utility minus the Theorem 4.1 upper bound, when the
/// bound is computable for this subproblem.
fn utility_delta(sp: &Subproblem, params: &ModelParams, achieved: f64) -> Option<f64> {
    if !sp.weight.is_finite() {
        return None;
    }
    let upper =
        bounds::requester_utility_upper_bound(sp.weight, params, &sp.disc, &sp.psi);
    if upper.is_finite() {
        Some(achieved - upper)
    } else {
        None
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use dcc_obs::JsonRecorder;
    use std::sync::Arc;

    fn sample_subproblems(n: usize) -> Vec<Subproblem> {
        let disc = Discretization::new(12, 0.75).unwrap();
        (0..n)
            .map(|i| Subproblem {
                id: i,
                members: Members::One(i),
                omega: if i % 3 == 0 { 0.0 } else { 0.4 },
                weight: 0.5 + (i % 5) as f64 * 0.4,
                psi: Quadratic::new(-0.05, 2.0, 0.5),
                disc,
            })
            .collect()
    }

    fn params() -> ModelParams {
        ModelParams {
            mu: 1.5,
            ..ModelParams::default()
        }
    }

    /// The quiet serial solve most tests compare against.
    fn solve(
        sps: &[Subproblem],
        policy: FailurePolicy,
    ) -> Result<(BipSolution, DegradationReport), CoreError> {
        solve_subproblems(sps, &params(), 1, policy, &Metrics::noop())
    }

    #[test]
    fn total_is_sum_of_parts() {
        let sps = sample_subproblems(7);
        let (sol, _) = solve(&sps, FailurePolicy::Abort).unwrap();
        let sum: f64 = sol
            .solutions
            .iter()
            .map(|s| s.built.requester_utility())
            .sum();
        assert!((sol.total_requester_utility - sum).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_empty_solution() {
        let (sol, report) =
            solve_subproblems(&[], &params(), 4, FailurePolicy::Abort, &Metrics::noop()).unwrap();
        assert!(sol.solutions.is_empty());
        assert_eq!(sol.total_requester_utility, 0.0);
        assert!(report.is_empty());
    }

    #[test]
    fn error_identifies_subproblem() {
        let mut sps = sample_subproblems(2);
        sps[1].psi = Quadratic::new(0.1, 1.0, 0.0); // convex: invalid
        let err = solve(&sps, FailurePolicy::Abort).unwrap_err();
        assert!(err.to_string().contains("subproblem 1"));
    }

    fn corrupted(n: usize, bad: usize) -> Vec<Subproblem> {
        let mut sps = sample_subproblems(n);
        sps[bad].weight = f64::NAN; // rejected by ContractBuilder::build
        sps
    }

    #[test]
    fn fallback_policy_isolates_the_failure() {
        let sps = corrupted(6, 2);
        assert!(solve(&sps, FailurePolicy::Abort).is_err(), "abort fails");
        let (sol, report) = solve(&sps, FailurePolicy::FallbackBaseline { amount: 0.5 }).unwrap();
        assert_eq!(sol.solutions.len(), 6, "every subproblem gets a contract");
        assert_eq!(report.len(), 1);
        let d = report.for_subproblem(2).expect("subproblem 2 degraded");
        assert_eq!(d.members, vec![2]);
        assert!(d.reason.contains("subproblem 2"));
        assert!(matches!(d.action, DegradationAction::Fallback { amount } if amount >= 0.0));
        // The healthy subproblems match the clean solve exactly.
        let (clean, _) = solve(&sample_subproblems(6), FailurePolicy::Abort).unwrap();
        for (got, want) in sol.solutions.iter().zip(&clean.solutions) {
            if got.id != 2 {
                assert_eq!(got.built.contract(), want.built.contract());
            }
        }
    }

    #[test]
    fn fallback_contract_is_monotone_fixed_pay_within_bounds() {
        let sps = corrupted(3, 1);
        let p = params();
        let (sol, _) = solve(&sps, FailurePolicy::FallbackBaseline { amount: 1_000.0 }).unwrap();
        let built = &sol.solutions[1].built;
        assert!(built.contract().is_monotone());
        let cap = bounds::compensation_upper_bound(
            &p,
            &sps[1].disc,
            &sps[1].psi,
            sps[1].disc.intervals(),
        );
        // The huge requested amount was clamped into the Lemma 4.2 cap.
        assert!(built.compensation() <= cap + 1e-9);
        assert!(built.compensation() >= 0.0);
        // Fixed payment: same pay at every feedback level.
        let pays: Vec<f64> = built.contract().payments().to_vec();
        assert!(pays.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
    }

    #[test]
    fn skip_policy_excludes_the_worker() {
        let sps = corrupted(4, 3);
        let (sol, report) = solve(&sps, FailurePolicy::Skip).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report.degraded[0].action, DegradationAction::Skipped);
        let built = &sol.solutions[3].built;
        assert_eq!(built.compensation(), 0.0);
        assert_eq!(built.requester_utility(), 0.0);
        assert_eq!(built.k_opt(), None);
    }

    /// Every policy over a decomposition with one community-sized
    /// subproblem and, for the degraded policies, one corrupted weight.
    fn policy_cases() -> Vec<(Vec<Subproblem>, FailurePolicy)> {
        let mut clean = sample_subproblems(37);
        clean[11].members = vec![11, 40, 41].into();
        let mut broken = clean.clone();
        broken[7].weight = f64::NAN;
        vec![
            (clean, FailurePolicy::Abort),
            (
                broken.clone(),
                FailurePolicy::FallbackBaseline { amount: 0.25 },
            ),
            (broken, FailurePolicy::Skip),
        ]
    }

    #[test]
    fn solve_is_bit_identical_across_pool_sizes() {
        let p = params();
        for (sps, policy) in policy_cases() {
            let (reference, reference_report) = solve(&sps, policy).unwrap();
            for pool in [2, 3, 4, 16, 64] {
                let (pooled, report) =
                    solve_subproblems(&sps, &p, pool, policy, &Metrics::noop()).unwrap();
                assert_eq!(reference, pooled, "{policy:?} pool {pool} diverged");
                assert_eq!(reference_report, report, "{policy:?} pool {pool} report");
                assert_eq!(
                    reference.total_requester_utility.to_bits(),
                    pooled.total_requester_utility.to_bits(),
                    "{policy:?} pool {pool} total differs in bits"
                );
            }
        }
        // Abort reports the same first failure at every pool size.
        let broken = corrupted(23, 7);
        let want = solve(&broken, FailurePolicy::Abort)
            .unwrap_err()
            .to_string();
        for pool in [2, 5, 16] {
            let got = solve_subproblems(&broken, &p, pool, FailurePolicy::Abort, &Metrics::noop())
                .unwrap_err();
            assert_eq!(got.to_string(), want, "pool {pool}");
        }
    }

    #[test]
    fn clean_solve_has_empty_report() {
        let sps = sample_subproblems(5);
        let (_, report) = solve(&sps, FailurePolicy::Skip).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
    }

    #[test]
    fn fallback_utility_delta_reports_the_gap() {
        // A convex psi fails validation but still evaluates, so the
        // Theorem 4.1 bound is computable and the fallback's shortfall is
        // reported as a nonpositive delta.
        let mut sps = sample_subproblems(2);
        sps[0].psi = Quadratic::new(0.1, 1.0, 0.0);
        let (_, report) = solve(&sps, FailurePolicy::FallbackBaseline { amount: 0.5 }).unwrap();
        assert_eq!(report.len(), 1);
        let delta = report.degraded[0]
            .utility_delta
            .expect("bound computable for a finite psi and weight");
        assert!(
            delta <= 1e-9,
            "fallback cannot beat the upper bound: {delta}"
        );

        // A NaN weight makes the bound itself meaningless.
        let (_, report2) = solve(
            &corrupted(2, 0),
            FailurePolicy::FallbackBaseline { amount: 0.5 },
        )
        .unwrap();
        assert!(report2.degraded[0].utility_delta.is_none(), "NaN weight");
    }

    #[test]
    fn recorded_and_noop_runs_give_identical_output() {
        let p = params();
        for (sps, policy) in policy_cases() {
            let (quiet, quiet_report) =
                solve_subproblems(&sps, &p, 3, policy, &Metrics::noop()).unwrap();
            let metrics = Metrics::new(Arc::new(JsonRecorder::new()));
            let (recorded, report) = solve_subproblems(&sps, &p, 3, policy, &metrics).unwrap();
            assert_eq!(recorded, quiet, "{policy:?}");
            assert_eq!(report, quiet_report, "{policy:?}");
            assert_eq!(
                recorded.total_requester_utility.to_bits(),
                quiet.total_requester_utility.to_bits()
            );
        }
    }

    #[test]
    fn recorded_solve_emits_per_subproblem_spans_and_degradation_counters() {
        use dcc_obs::names;
        let sps = corrupted(9, 2);
        let recorder = Arc::new(JsonRecorder::new());
        let metrics = Metrics::new(recorder.clone());
        let (_, report) = solve_subproblems(
            &sps,
            &params(),
            4,
            FailurePolicy::FallbackBaseline { amount: 0.5 },
            &metrics,
        )
        .unwrap();
        assert_eq!(recorder.span_count(names::SPAN_SUBPROBLEM), 9);
        assert_eq!(recorder.counter(names::COUNTER_SOLVE_SUBPROBLEMS), 9);
        // Two (ω, ψ, δ) keys, ω = 0 for ids 0, 3, 6 and ω = 0.4 for the
        // rest, each sharing one set of 12 candidates plus the zero contract.
        assert_eq!(recorder.span_count(names::SPAN_CANDIDATE_SET), 2);
        assert_eq!(
            recorder.counter(names::COUNTER_SOLVE_DEGRADED),
            report.len() as u64
        );
        assert_eq!(recorder.counter(names::COUNTER_SOLVE_DEGRADED_FALLBACK), 1);
        assert_eq!(recorder.counter(names::COUNTER_SOLVE_DEGRADED_SKIPPED), 0);
        let json = recorder.to_json();
        assert!(json.contains("\"degraded\":true"), "victim span flagged");
        assert!(
            json.contains("\"iterations\":"),
            "candidate counts attached"
        );
        for members in [3, 6] {
            let attrs = format!("\"subproblems\":{members},\"candidates\":13");
            assert!(json.contains(&attrs), "{json}");
        }
    }

    #[test]
    fn recorded_all_degraded_solve_flags_every_span() {
        use dcc_obs::names;
        let n = 300;
        let mut sps = sample_subproblems(n);
        for sp in &mut sps {
            sp.psi = Quadratic::new(0.1, 1.0, 0.0); // convex: invalid
        }
        let recorder = Arc::new(JsonRecorder::new());
        let metrics = Metrics::new(recorder.clone());
        let (_, report) =
            solve_subproblems(&sps, &params(), 2, FailurePolicy::Skip, &metrics).unwrap();
        assert_eq!(report.len(), n);
        // `degraded` is an attribute of `solve.subproblem` spans only.
        let json = recorder.to_json();
        let flagged = json.matches("\"degraded\":true").count();
        assert_eq!(flagged, n);
        assert_eq!(recorder.counter(names::COUNTER_SOLVE_DEGRADED), n as u64);
        // The two keys' sets fail to build, so they report no candidates.
        assert_eq!(recorder.span_count(names::SPAN_CANDIDATE_SET), 2);
        assert!(
            json.contains("\"subproblems\":100,\"candidates\":0"),
            "{json}"
        );
    }

    #[test]
    fn redacted_metric_stream_is_pool_invariant() {
        let p = params();
        for (sps, policy) in policy_cases() {
            let render = |pool: usize| {
                let recorder = Arc::new(JsonRecorder::new());
                let metrics = Metrics::new(recorder.clone());
                solve_subproblems(&sps, &p, pool, policy, &metrics).unwrap();
                // The pool gauge legitimately differs; compare everything else.
                recorder
                    .to_json_redacted()
                    .replace(&format!("\"solve.pool\":{pool}"), "\"solve.pool\":_")
            };
            let reference = render(1);
            for pool in [2, 5, 16] {
                assert_eq!(
                    render(pool),
                    reference,
                    "{policy:?} pool {pool} metric stream diverged"
                );
            }
        }
    }
}
