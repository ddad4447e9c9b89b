//! Property-based tests for the numeric substrate.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_numerics::{
    bisect, norm_of_residuals, percentile, polyfit, solve_cholesky, solve_gaussian, Matrix,
    PiecewiseLinear, Quadratic,
};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    (-100.0f64..100.0).prop_filter("finite", |v| v.is_finite())
}

/// The reference segment search: a binary search by `partial_cmp`,
/// with `Equal` as the fallback for an incomparable pair.
fn reference_search(xs: &[f64], x: f64) -> Result<usize, usize> {
    xs.binary_search_by(|probe| probe.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal))
}

/// The reference `PiecewiseLinear::eval`, written on [`reference_search`].
fn reference_eval(xs: &[f64], vs: &[f64], x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= xs[0] {
        return vs[0];
    }
    if x >= xs[xs.len() - 1] {
        return vs[vs.len() - 1];
    }
    let seg = match reference_search(xs, x) {
        Ok(i) => return vs[i],
        Err(i) => i - 1,
    };
    let t = (x - xs[seg]) / (xs[seg + 1] - xs[seg]);
    vs[seg] + t * (vs[seg + 1] - vs[seg])
}

/// The reference `PiecewiseLinear::segment_of`, written on [`reference_search`].
fn reference_segment_of(xs: &[f64], x: f64) -> Option<usize> {
    if x.is_nan() || x < xs[0] || x >= xs[xs.len() - 1] {
        return None;
    }
    match reference_search(xs, x) {
        Ok(i) if i == xs.len() - 1 => None,
        Ok(i) => Some(i),
        Err(i) => Some(i - 1),
    }
}

/// A finite value drawn by `kind`: any finite bit pattern (subnormals
/// and extremes included), a moderate value, or a signed zero.
fn finite_value(kind: u8, bits: u64, moderate: f64) -> f64 {
    match kind {
        0 => Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(moderate),
        1 => 0.0,
        2 => -0.0,
        _ => moderate,
    }
}

proptest! {
    /// Gaussian elimination solves random diagonally-dominant systems.
    #[test]
    fn gaussian_solves_diagonally_dominant(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 4),
            4
        ),
        b in proptest::collection::vec(small_f64(), 4),
    ) {
        let mut m = Matrix::zeros(4, 4).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                m[(i, j)] = rows[i][j];
            }
            // Diagonal dominance guarantees nonsingularity.
            m[(i, i)] = 10.0 + rows[i][i].abs();
        }
        let x = solve_gaussian(&m, &b).unwrap();
        let ax = m.mul_vec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-6);
        }
    }

    /// Cholesky agrees with Gaussian elimination on SPD systems A = BᵀB + I.
    #[test]
    fn cholesky_matches_gaussian(
        rows in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..2.0, 3),
            3
        ),
        b in proptest::collection::vec(small_f64(), 3),
    ) {
        let bmat = Matrix::from_rows(&[&rows[0], &rows[1], &rows[2]]).unwrap();
        let mut spd = bmat.transpose().mul(&bmat).unwrap();
        for i in 0..3 {
            spd[(i, i)] += 1.0;
        }
        let xc = solve_cholesky(&spd, &b).unwrap();
        let xg = solve_gaussian(&spd, &b).unwrap();
        for (c, g) in xc.iter().zip(&xg) {
            prop_assert!((c - g).abs() < 1e-6, "cholesky {c} vs gaussian {g}");
        }
    }

    /// polyfit on exactly-polynomial data recovers near-zero residual.
    #[test]
    fn polyfit_exact_data_zero_residual(
        c0 in -5.0f64..5.0,
        c1 in -5.0f64..5.0,
        c2 in -5.0f64..5.0,
    ) {
        let xs: Vec<f64> = (0..25).map(|i| i as f64 * 0.25 - 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let p = polyfit(&xs, &ys, 2).unwrap();
        prop_assert!(norm_of_residuals(&p, &xs, &ys).unwrap() < 1e-6);
    }

    /// Increasing the fit degree never increases the norm of residuals
    /// (the monotonicity that makes Table III meaningful).
    #[test]
    fn polyfit_residual_monotone_in_degree(
        seed_ys in proptest::collection::vec(-1.0f64..1.0, 30),
    ) {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = xs.iter().zip(&seed_ys).map(|(&x, &n)| x.sqrt() + n).collect();
        let mut prev = f64::INFINITY;
        for deg in 0..=4 {
            let p = polyfit(&xs, &ys, deg).unwrap();
            let nor = norm_of_residuals(&p, &xs, &ys).unwrap();
            prop_assert!(nor <= prev + 1e-7);
            prev = nor;
        }
    }

    /// Piecewise-linear evaluation stays within the knot value hull and
    /// monotone knot values imply a monotone function.
    #[test]
    fn piecewise_monotone_eval_bounded(
        deltas in proptest::collection::vec(0.0f64..5.0, 2..12),
        x in -10.0f64..60.0,
    ) {
        let mut vs = vec![0.0f64];
        for d in &deltas {
            vs.push(vs.last().unwrap() + d);
        }
        let xs: Vec<f64> = (0..vs.len()).map(|i| i as f64).collect();
        let f = PiecewiseLinear::new(xs, vs.clone()).unwrap();
        prop_assert!(f.is_monotone_nondecreasing());
        let v = f.eval(x);
        prop_assert!(v >= vs[0] - 1e-9 && v <= *vs.last().unwrap() + 1e-9);
        // Monotone in the argument as well.
        prop_assert!(f.eval(x) <= f.eval(x + 1.0) + 1e-9);
    }

    /// The knot search (`partition_point` plus an exact-hit test) picks
    /// the segment the reference binary search picks: `eval` agrees by
    /// bits and `segment_of` exactly, on 2–64 strictly increasing knots
    /// whose first knot may be negative, ±0.0 or positive, at every
    /// knot, its neighbours, the midpoints, both clamps, ±0.0, ±∞ and NaN.
    #[test]
    fn piecewise_lookup_matches_binary_search(
        first in (0u8..4, 1.0f64..2.0, -40i32..40),
        steps in proptest::collection::vec(
            (0u8..4, 1.0f64..2.0, -40i32..40, 0u8..5, any::<u64>(), -1e3f64..1e3),
            1..64,
        ),
        v0 in (0u8..5, any::<u64>(), -1e3f64..1e3),
        inside in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let (sign, mantissa, exp) = first;
        let magnitude = mantissa * 2f64.powi(exp);
        let mut xs = vec![match sign {
            0 => -magnitude,
            1 => 0.0,
            2 => -0.0,
            _ => magnitude,
        }];
        let mut vs = vec![finite_value(v0.0, v0.1, v0.2)];
        for &(gap_kind, mantissa, exp, value_kind, bits, moderate) in &steps {
            let prev = *xs.last().unwrap();
            // Adjacent doubles, an interior knot at 0.0 (probed by -0.0
            // too), or a gap of any scale; a gap too small to move `prev`
            // falls back to the adjacent double.
            let next = match gap_kind {
                0 => prev.next_up(),
                1 if prev < 0.0 => 0.0,
                _ => (prev + mantissa * 2f64.powi(exp)).max(prev.next_up()),
            };
            xs.push(next);
            vs.push(finite_value(value_kind, bits, moderate));
        }
        let f = PiecewiseLinear::new(xs.clone(), vs.clone()).unwrap();

        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        let mut probes = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            lo - 1.0,
            hi + 1.0,
            lo.next_down(),
            hi.next_up(),
        ];
        for (i, &x) in xs.iter().enumerate() {
            probes.extend([x, x.next_up(), x.next_down()]);
            if let Some(&next) = xs.get(i + 1) {
                probes.push(x + (next - x) / 2.0);
            }
        }
        probes.extend(inside.iter().map(|u| lo + u * (hi - lo)));

        for x in probes {
            prop_assert_eq!(
                f.eval(x).to_bits(),
                reference_eval(&xs, &vs, x).to_bits(),
                "eval({:?}) on knots {:?}",
                x,
                xs
            );
            prop_assert_eq!(
                f.segment_of(x),
                reference_segment_of(&xs, x),
                "segment_of({:?}) on knots {:?}",
                x,
                xs
            );
        }
    }

    /// Quadratic inverse_derivative is a true inverse on concave quadratics.
    #[test]
    fn quadratic_inverse_derivative_roundtrip(
        r2 in -3.0f64..-0.01,
        r1 in 0.1f64..10.0,
        r0 in -5.0f64..5.0,
        y in 0.0f64..10.0,
    ) {
        let q = Quadratic::new(r2, r1, r0);
        let s = q.derivative_at(y);
        let back = q.inverse_derivative(s).unwrap();
        prop_assert!((back - y).abs() < 1e-8);
    }

    /// inverse_on_increasing inverts eval on the increasing branch.
    #[test]
    fn quadratic_inverse_eval_roundtrip(
        r2 in -3.0f64..-0.01,
        r1 in 1.0f64..10.0,
        r0 in 0.0f64..5.0,
        frac in 0.0f64..0.99,
    ) {
        let q = Quadratic::new(r2, r1, r0);
        let peak = q.peak().unwrap();
        let y = frac * peak;
        let v = q.eval(y);
        let back = q.inverse_on_increasing(v).unwrap();
        prop_assert!((back - y).abs() < 1e-6, "y={y} back={back}");
    }

    /// Percentile is monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone(
        data in proptest::collection::vec(small_f64(), 1..50),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let vlo = percentile(&data, lo).unwrap();
        let vhi = percentile(&data, hi).unwrap();
        prop_assert!(vlo <= vhi + 1e-9);
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(vlo >= min - 1e-9 && vhi <= max + 1e-9);
    }

    /// Bisection finds the root of any monotone cubic with a sign change.
    #[test]
    fn bisect_monotone_cubic(shift in -10.0f64..10.0) {
        let f = move |x: f64| x * x * x + x - shift;
        let root = bisect(f, -20.0, 20.0, 1e-10).unwrap();
        prop_assert!(f(root).abs() < 1e-6);
    }
}
