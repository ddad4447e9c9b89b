//! Property-based tests of the §IV-C theory over randomized parameters.
//!
//! Strategy domains are chosen so the model assumptions hold by
//! construction: ψ strictly concave and increasing over the whole
//! discretized effort region, ω below the level at which the slope
//! recurrence would clamp.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
#![allow(clippy::float_cmp)]

use dcc_core::{
    best_response, bounds, build_candidate, first_best_utility, select_within_budget,
    solve_subproblems, BipSolution, ContractBuilder, Discretization, FailurePolicy, ModelParams,
    Subproblem, SubproblemSolution,
};
use dcc_numerics::Quadratic;
use dcc_obs::Metrics;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct World {
    params: ModelParams,
    disc: Discretization,
    psi: Quadratic,
}

/// Random model worlds satisfying the §II assumptions.
fn world(omega_max: f64) -> impl Strategy<Value = World> {
    (
        0.5f64..3.0,    // r1
        0.01f64..0.2,   // curvature scale: r2 = -c * r1 / (2 * y_max)
        0.0f64..2.0,    // r0
        4usize..24,     // m
        2.0f64..12.0,   // y_max
        0.5f64..3.0,    // mu
        0.5f64..2.0,    // beta
        0.0f64..1.0,    // omega fraction
    )
        .prop_map(
            move |(r1, curve, r0, m, y_max, mu, beta, omega_frac)| {
                // psi'(y_max) = r1 + 2*r2*y_max = r1 * (1 - curve) > 0.
                let r2 = -curve * r1 / (2.0 * y_max);
                let psi = Quadratic::new(r2, r1, r0);
                let disc = Discretization::covering(m, y_max).expect("valid discretization");
                // Slopes never clamp when omega < beta / psi'(0) (the
                // smallest Case-III lower edge is at l = 1).
                let omega = omega_frac * omega_max * beta / r1;
                let params = ModelParams {
                    mu,
                    beta,
                    omega,
                    ..ModelParams::default()
                };
                World { params, disc, psi }
            },
        )
}

/// The reference funding order of `select_within_budget`: the
/// positive-utility solutions, stable-sorted by a closure that
/// recomputes both ratios on every comparison.
fn reference_order(solution: &BipSolution) -> Vec<&SubproblemSolution> {
    let mut candidates: Vec<&SubproblemSolution> = solution
        .solutions
        .iter()
        .filter(|s| s.built.requester_utility() > 0.0)
        .collect();
    candidates.sort_by(|a, b| {
        let ratio = |s: &SubproblemSolution| {
            let cost = s.built.compensation();
            if cost <= 1e-12 {
                f64::INFINITY
            } else {
                s.built.requester_utility() / cost
            }
        };
        ratio(b)
            .partial_cmp(&ratio(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates
}

/// The reference `select_within_budget`: the greedy pass over
/// [`reference_order`], as `(funded, spend, utility)`.
fn reference_select(solution: &BipSolution, budget: f64) -> (Vec<usize>, f64, f64) {
    let mut funded = Vec::new();
    let mut spend = 0.0;
    let mut utility = 0.0;
    for s in reference_order(solution) {
        let cost = s.built.compensation();
        if spend + cost <= budget + 1e-12 {
            funded.push(s.id);
            spend += cost;
            utility += s.built.requester_utility();
        }
    }
    (funded, spend, utility)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ratios computed once and sorted stably fund what the reference
    /// funds, in its order, with the same spend and utility bits. The
    /// weights repeat, so equal ratios come in runs longer than the 20
    /// elements an unstable small-sort keeps in order; negative weights
    /// give utility <= 0, and small positive ones can make the zero
    /// contract (cost 0, ratio +inf) the pick.
    #[test]
    fn budget_selection_matches_reference(
        n in 64usize..160,
        palette in proptest::collection::vec(-0.5f64..3.0, 2..6),
        picks in proptest::collection::vec((any::<usize>(), any::<bool>()), 160),
        r1 in 0.5f64..3.0,
        r0 in 0.0f64..2.0,
        fraction in 0.0f64..1.0,
        prefix in any::<usize>(),
    ) {
        let disc = Discretization::covering(12, 7.0).unwrap();
        let psis = [
            Quadratic::new(-0.05 * r1, r1, r0),
            Quadratic::new(-0.02 * r1, 0.8 * r1, r0 + 0.5),
        ];
        let subproblems: Vec<Subproblem> = picks[..n]
            .iter()
            .enumerate()
            .map(|(id, &(pick, second))| Subproblem {
                id,
                members: vec![id].into(),
                omega: 0.0,
                weight: palette[pick % palette.len()],
                psi: psis[usize::from(second)],
                disc,
            })
            .collect();
        let params = ModelParams { mu: 1.0, ..ModelParams::default() };
        let (solution, _) =
            solve_subproblems(&subproblems, &params, 1, FailurePolicy::Abort, &Metrics::noop())
                .unwrap();

        let order = reference_order(&solution);
        let costs: Vec<f64> = order.iter().map(|s| s.built.compensation()).collect();
        let total = costs.iter().fold(0.0, |sum, c| sum + c);
        let prefix_sum = costs[..prefix % (costs.len() + 1)].iter().fold(0.0, |sum, c| sum + c);
        for budget in [0.0, fraction * total, prefix_sum, total, 2.0 * total + 1.0] {
            let got = select_within_budget(&solution, budget).unwrap();
            let (funded, spend, utility) = reference_select(&solution, budget);
            prop_assert_eq!(&got.funded, &funded, "budget {}", budget);
            prop_assert_eq!(got.spend.to_bits(), spend.to_bits(), "budget {}", budget);
            prop_assert_eq!(got.utility.to_bits(), utility.to_bits(), "budget {}", budget);
        }
    }

    /// The §IV-C incentive property: the best response to candidate
    /// ξ^(k) lands inside the target interval, for every k.
    #[test]
    fn candidate_induces_target_interval(w in world(0.9), k_frac in 0.0f64..1.0) {
        let m = w.disc.intervals();
        let k = 1 + ((k_frac * m as f64) as usize).min(m - 1);
        let cand = build_candidate(&w.params, &w.disc, &w.psi, k).unwrap();
        prop_assume!(!cand.clamped);
        let br = best_response(&w.params, &w.psi, &cand.contract).unwrap();
        prop_assert!(
            br.effort >= w.disc.knot(k - 1) - 1e-6 && br.effort <= w.disc.knot(k) + 1e-6,
            "k={k}: response {} outside [{}, {}]",
            br.effort,
            w.disc.knot(k - 1),
            w.disc.knot(k)
        );
    }

    /// Candidate contracts are always monotone with zero base payment.
    #[test]
    fn candidates_are_monotone(w in world(0.9), k_frac in 0.0f64..1.0) {
        let m = w.disc.intervals();
        let k = 1 + ((k_frac * m as f64) as usize).min(m - 1);
        let cand = build_candidate(&w.params, &w.disc, &w.psi, k).unwrap();
        prop_assert!(cand.contract.is_monotone());
        prop_assert_eq!(cand.contract.payments()[0], 0.0);
        prop_assert!(cand.slopes.iter().all(|a| a.is_finite() && *a >= 0.0));
    }

    /// Lemma 4.2 / 4.3: realized compensation sits inside the bracket
    /// (honest workers).
    #[test]
    fn compensation_bracket(w in world(0.0), k_frac in 0.0f64..1.0) {
        let params = w.params.for_honest();
        let m = w.disc.intervals();
        let k = 1 + ((k_frac * m as f64) as usize).min(m - 1);
        let cand = build_candidate(&params, &w.disc, &w.psi, k).unwrap();
        let br = best_response(&params, &w.psi, &cand.contract).unwrap();
        let lb = bounds::compensation_lower_bound(&params, &w.disc, k);
        let ub = bounds::compensation_upper_bound(&params, &w.disc, &w.psi, k);
        prop_assert!(br.compensation >= lb - 1e-7, "{} < {lb}", br.compensation);
        prop_assert!(br.compensation <= ub + 1e-7, "{} > {ub}", br.compensation);
    }

    /// Theorem 4.1: the selected contract's requester utility lies in
    /// [lower, upper] for honest workers.
    #[test]
    fn theorem_4_1_bracket(w in world(0.0), weight in 0.1f64..4.0) {
        let params = w.params.for_honest();
        let built = ContractBuilder::new(params, w.disc, w.psi)
            .honest()
            .weight(weight)
            .build()
            .unwrap();
        if let Some((lo, hi)) = built.utility_bounds() {
            prop_assert!(built.requester_utility() >= lo - 1e-7);
            prop_assert!(built.requester_utility() <= hi + 1e-7);
        }
    }

    /// The discretized contract never beats the continuum first best, and
    /// the worker's utility is individually rational.
    #[test]
    fn first_best_dominates(w in world(0.9), weight in 0.1f64..4.0) {
        let built = ContractBuilder::new(w.params, w.disc, w.psi)
            .weight(weight)
            .build()
            .unwrap();
        let fb = first_best_utility(weight, &w.params, &w.psi, w.disc.y_max(), 2000).unwrap();
        prop_assert!(
            built.requester_utility() <= fb + 1e-6,
            "designed {} beats first best {fb}",
            built.requester_utility()
        );
        prop_assert!(built.worker_utility() >= -1e-9, "worker IR violated");
    }

    /// Refining the partition (doubling m) never hurts the requester by
    /// more than numerical slack — the Fig. 6 convergence direction.
    #[test]
    fn refinement_weakly_helps(w in world(0.0), weight in 0.2f64..3.0) {
        let params = w.params.for_honest();
        let coarse = ContractBuilder::new(
            params,
            Discretization::covering(6, w.disc.y_max()).unwrap(),
            w.psi,
        )
        .honest()
        .weight(weight)
        .build()
        .unwrap();
        let fine = ContractBuilder::new(
            params,
            Discretization::covering(48, w.disc.y_max()).unwrap(),
            w.psi,
        )
        .honest()
        .weight(weight)
        .build()
        .unwrap();
        // Allow a tiny slack: the epsilon margins are not perfectly
        // nested across partitions.
        let tolerance = 0.02 * coarse.requester_utility().abs().max(0.5);
        prop_assert!(
            fine.requester_utility() >= coarse.requester_utility() - tolerance,
            "fine {} vs coarse {}",
            fine.requester_utility(),
            coarse.requester_utility()
        );
    }

    /// Margin-robust candidates tolerate productivity drift up to
    /// roughly the margin: with margin 0.3 and a 10% drop in r1, the
    /// worker still delivers most of the target effort instead of
    /// collapsing to zero (which the margin-0 construction does).
    #[test]
    fn margin_buys_drift_tolerance(w in world(0.0), k_frac in 0.3f64..1.0) {
        let params = w.params.for_honest();
        let m = w.disc.intervals();
        let k = 1 + ((k_frac * m as f64) as usize).min(m - 1);
        let slack = dcc_core::build_candidate_with_margin(&params, &w.disc, &w.psi, k, 0.3)
            .unwrap();
        let drifted = Quadratic::new(w.psi.r2(), 0.9 * w.psi.r1(), w.psi.r0());
        // The drifted response must still be valid for the model.
        prop_assume!(drifted.derivative_at(w.disc.y_max()) > 0.0);
        let response = best_response(&params, &drifted, &slack.contract).unwrap();
        prop_assert!(
            response.effort >= 0.5 * w.disc.knot(k - 1) - 1e-9,
            "k={k}: drifted response {} collapsed (target lower edge {})",
            response.effort,
            w.disc.knot(k - 1)
        );
    }

    /// The best response to any built contract matches a dense grid
    /// search.
    #[test]
    fn response_matches_grid(w in world(0.9), weight in 0.1f64..4.0) {
        let built = ContractBuilder::new(w.params, w.disc, w.psi)
            .weight(weight)
            .build()
            .unwrap();
        let br = best_response(&w.params, &w.psi, built.contract()).unwrap();
        let y_peak = w.psi.peak().unwrap();
        let mut best_u = f64::NEG_INFINITY;
        for i in 0..=4000 {
            let y = y_peak * i as f64 / 4000.0;
            let q = w.psi.eval(y);
            let u = built.contract().compensation(q) + w.params.omega * q - w.params.beta * y;
            best_u = best_u.max(u);
        }
        prop_assert!(
            br.utility >= best_u - 1e-4,
            "closed-form utility {} below grid {best_u}",
            br.utility
        );
    }
}
