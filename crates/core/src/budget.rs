use crate::{BipSolution, CoreError, SubproblemSolution};

/// A budget-feasible selection over solved subproblems.
///
/// The budget-feasibility line of related work the paper cites (§VI —
/// Singer's framework and its descendants) maximizes the requester's
/// utility under a hard payment budget. This module adds that constraint
/// on top of the §IV-B/IV-C machinery: given the solved per-worker
/// subproblems, select which workers actually receive their designed
/// contract so total compensation stays within budget; everyone else
/// gets the zero contract.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedSelection {
    /// Ids of the subproblems whose contracts are funded, in funding
    /// order (best ratio first).
    pub funded: Vec<usize>,
    /// Total compensation committed.
    pub spend: f64,
    /// Requester utility of the funded set (unfunded subproblems
    /// contribute nothing — their zero-contract utility is not counted
    /// here, so this is the *incremental* value of the budget).
    pub utility: f64,
    /// The budget that was available.
    pub budget: f64,
}

/// Selects the budget-feasible subset of a solved decomposition by
/// greedy utility-per-cost ratio — the classic knapsack relaxation:
/// fund subproblems in decreasing `utility / compensation` order while
/// the budget lasts (zero-cost positive-utility subproblems are always
/// funded first).
///
/// Greedy is within one item of the LP-relaxation optimum for knapsack;
/// the tests cross-check it against exact enumeration at small sizes.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] for a negative or non-finite
/// budget.
pub fn select_within_budget(
    solution: &BipSolution,
    budget: f64,
) -> Result<BudgetedSelection, CoreError> {
    if !(budget.is_finite() && budget >= 0.0) {
        return Err(CoreError::InvalidParams(format!(
            "budget must be a nonnegative finite number, got {budget}"
        )));
    }

    // Candidates worth funding at all, each with its ratio computed once;
    // the sort is stable, so equal ratios keep their input order.
    let mut candidates: Vec<(f64, &SubproblemSolution)> = solution
        .solutions
        .iter()
        .filter(|s| s.built.requester_utility() > 0.0)
        .map(|s| {
            let cost = s.built.compensation();
            let ratio = if cost <= 1e-12 {
                f64::INFINITY
            } else {
                s.built.requester_utility() / cost
            };
            (ratio, s)
        })
        .collect();
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    let mut funded = Vec::new();
    let mut spend = 0.0;
    let mut utility = 0.0;
    for (_, s) in candidates {
        let cost = s.built.compensation();
        if spend + cost <= budget + 1e-12 {
            funded.push(s.id);
            spend += cost;
            utility += s.built.requester_utility();
        }
    }
    Ok(BudgetedSelection {
        funded,
        spend,
        utility,
        budget,
    })
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{solve_subproblems, Discretization, FailurePolicy, ModelParams, Subproblem};
    use dcc_numerics::Quadratic;
    use dcc_obs::Metrics;

    fn solved(n: usize) -> BipSolution {
        let disc = Discretization::covering(16, 7.0).unwrap();
        let subproblems: Vec<Subproblem> = (0..n)
            .map(|i| Subproblem {
                id: i,
                members: vec![i].into(),
                omega: 0.0,
                weight: 0.8 + 0.25 * (i % 6) as f64,
                psi: Quadratic::new(-0.15, 2.5, 1.0),
                disc,
            })
            .collect();
        let params = ModelParams {
            mu: 1.0,
            ..ModelParams::default()
        };
        solve_subproblems(
            &subproblems,
            &params,
            1,
            FailurePolicy::Abort,
            &Metrics::noop(),
        )
        .unwrap()
        .0
    }

    /// Exact knapsack by enumeration (small n).
    fn exact_best(solution: &BipSolution, budget: f64) -> f64 {
        let items: Vec<(f64, f64)> = solution
            .solutions
            .iter()
            .map(|s| (s.built.compensation(), s.built.requester_utility()))
            .collect();
        let n = items.len();
        let mut best = 0.0f64;
        for mask in 0..(1u32 << n) {
            let (mut cost, mut value) = (0.0, 0.0);
            for (i, &(c, v)) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    cost += c;
                    value += v;
                }
            }
            if cost <= budget + 1e-12 {
                best = best.max(value);
            }
        }
        best
    }

    #[test]
    fn unlimited_budget_funds_everything_positive() {
        let solution = solved(10);
        let selection = select_within_budget(&solution, f64::MAX / 2.0).unwrap();
        let positive = solution
            .solutions
            .iter()
            .filter(|s| s.built.requester_utility() > 0.0)
            .count();
        assert_eq!(selection.funded.len(), positive);
        assert!((selection.utility - solution.total_requester_utility).abs() < 1e-6);
    }

    #[test]
    fn zero_budget_funds_only_free_contracts() {
        let solution = solved(10);
        let selection = select_within_budget(&solution, 0.0).unwrap();
        assert_eq!(selection.spend, 0.0);
        for id in &selection.funded {
            let s = solution.solutions.iter().find(|s| s.id == *id).unwrap();
            assert!(s.built.compensation() <= 1e-12);
        }
    }

    #[test]
    fn spend_never_exceeds_budget_and_utility_monotone() {
        let solution = solved(12);
        let mut prev = 0.0;
        for budget in [0.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let sel = select_within_budget(&solution, budget).unwrap();
            assert!(sel.spend <= budget + 1e-9, "spend {} over budget {budget}", sel.spend);
            assert!(sel.utility >= prev - 1e-9, "utility must grow with budget");
            prev = sel.utility;
        }
    }

    #[test]
    fn greedy_is_near_exact_knapsack() {
        let solution = solved(10);
        for budget in [10.0, 20.0, 35.0] {
            let greedy = select_within_budget(&solution, budget).unwrap();
            let exact = exact_best(&solution, budget);
            // Greedy loses at most one item's utility.
            let max_item = solution
                .solutions
                .iter()
                .map(|s| s.built.requester_utility())
                .fold(0.0f64, f64::max);
            assert!(
                greedy.utility >= exact - max_item - 1e-9,
                "budget {budget}: greedy {} vs exact {exact}",
                greedy.utility
            );
            assert!(greedy.utility <= exact + 1e-9);
        }
    }

    #[test]
    fn invalid_budget_rejected() {
        let solution = solved(3);
        assert!(select_within_budget(&solution, -1.0).is_err());
        assert!(select_within_budget(&solution, f64::NAN).is_err());
    }
}
