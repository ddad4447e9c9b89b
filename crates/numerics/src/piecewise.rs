use crate::{exact_eq, NumericsError};
use std::fmt;

/// A continuous piecewise-linear function defined by knots
/// `(x₀, v₀), …, (x_m, v_m)` with strictly increasing `x`.
///
/// This is the representation the paper uses for contract functions
/// (§III-A, Eq. 6): inside `[x_{l−1}, x_l)` the function is
/// `v_{l−1} + α_l (x − x_{l−1})` with slope `α_l = Δv_l / Δx_l`.
/// Evaluation below `x₀` clamps to `v₀`; at or above `x_m` it clamps to
/// `v_m` (the paper's contracts are flat beyond the last knot by
/// construction).
///
/// # Example
///
/// ```
/// use dcc_numerics::PiecewiseLinear;
///
/// # fn main() -> Result<(), dcc_numerics::NumericsError> {
/// let f = PiecewiseLinear::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, 2.5])?;
/// assert_eq!(f.eval(0.5), 1.0);
/// assert_eq!(f.eval(2.0), 2.25);
/// assert_eq!(f.eval(10.0), 2.5); // clamped
/// assert!(f.is_monotone_nondecreasing());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    xs: Vec<f64>,
    vs: Vec<f64>,
}

impl PiecewiseLinear {
    /// Creates a piecewise-linear function from knot abscissae `xs`
    /// (strictly increasing) and values `vs`.
    ///
    /// # Errors
    ///
    /// - [`NumericsError::DimensionMismatch`] if `xs.len() != vs.len()`.
    /// - [`NumericsError::InvalidArgument`] if fewer than two knots are
    ///   given, any coordinate is non-finite, or `xs` is not strictly
    ///   increasing.
    pub fn new(xs: Vec<f64>, vs: Vec<f64>) -> Result<Self, NumericsError> {
        if xs.len() != vs.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{} values", xs.len()),
                actual: format!("{} values", vs.len()),
            });
        }
        if xs.len() < 2 {
            return Err(NumericsError::InvalidArgument(
                "piecewise-linear function needs at least two knots".into(),
            ));
        }
        if xs.iter().chain(vs.iter()).any(|v| !v.is_finite()) {
            return Err(NumericsError::InvalidArgument(
                "piecewise-linear knots must be finite".into(),
            ));
        }
        if xs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(NumericsError::InvalidArgument(
                "knot abscissae must be strictly increasing".into(),
            ));
        }
        Ok(PiecewiseLinear { xs, vs })
    }

    /// Constructs a constant function `v` over `[x_lo, x_hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] if `x_lo >= x_hi` or any
    /// input is non-finite.
    pub fn constant(x_lo: f64, x_hi: f64, v: f64) -> Result<Self, NumericsError> {
        PiecewiseLinear::new(vec![x_lo, x_hi], vec![v, v])
    }

    /// Knot abscissae.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }

    /// Knot values.
    pub fn values(&self) -> &[f64] {
        &self.vs
    }

    /// Number of linear segments (`knots − 1`).
    pub fn segments(&self) -> usize {
        self.xs.len() - 1
    }

    /// The slope of segment `l` (0-based, over `[xs[l], xs[l+1]]`).
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.segments()`.
    pub fn slope(&self, l: usize) -> f64 {
        assert!(l < self.segments(), "segment {l} out of bounds");
        (self.vs[l + 1] - self.vs[l]) / (self.xs[l + 1] - self.xs[l])
    }

    /// All segment slopes, in order.
    pub fn slopes(&self) -> Vec<f64> {
        (0..self.segments()).map(|l| self.slope(l)).collect()
    }

    /// Evaluates the function at `x`, clamping outside the knot range.
    /// `NaN` propagates.
    pub fn eval(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        if x <= self.xs[0] {
            return self.vs[0];
        }
        if x >= self.xs[self.xs.len() - 1] {
            return self.vs[self.vs.len() - 1];
        }
        let seg = match self.search(x) {
            Ok(i) => return self.vs[i],
            Err(i) => i - 1,
        };
        let t = (x - self.xs[seg]) / (self.xs[seg + 1] - self.xs[seg]);
        self.vs[seg] + t * (self.vs[seg + 1] - self.vs[seg])
    }

    /// The segment index whose half-open interval `[x_l, x_{l+1})`
    /// contains `x`, or `None` outside `[x₀, x_m)`.
    pub fn segment_of(&self, x: f64) -> Option<usize> {
        if x.is_nan() || x < self.xs[0] || x >= self.xs[self.xs.len() - 1] {
            return None;
        }
        // x is below the last knot, so an exact hit starts a segment.
        match self.search(x) {
            Ok(i) => Some(i),
            Err(i) => Some(i - 1),
        }
    }

    /// Locates a non-NaN `x` among the knots: `Ok(i)` if `x` equals knot
    /// `i`, else `Err(i)` with `i` the first knot above `x`. The knots are
    /// finite and strictly increasing, so this is the index a binary
    /// search by `partial_cmp` returns, without a comparator to call.
    fn search(&self, x: f64) -> Result<usize, usize> {
        let i = self.xs.partition_point(|&k| k < x);
        match self.xs.get(i) {
            Some(&k) if exact_eq(k, x) => Ok(i),
            _ => Err(i),
        }
    }

    /// `true` iff every segment slope is ≥ `-eps` for a small tolerance —
    /// the paper requires contract functions to be monotonically
    /// increasing (§II-A).
    pub fn is_monotone_nondecreasing(&self) -> bool {
        self.vs.windows(2).all(|w| w[1] >= w[0] - 1e-12)
    }

    /// Pointwise maximum value over the knots (equals the supremum for a
    /// monotone function).
    pub fn max_value(&self) -> f64 {
        self.vs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

impl fmt::Display for PiecewiseLinear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pwl[")?;
        for (i, (x, v)) in self.xs.iter().zip(&self.vs).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({x:.3},{v:.3})")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample() -> PiecewiseLinear {
        PiecewiseLinear::new(vec![0.0, 1.0, 3.0, 4.0], vec![0.0, 2.0, 2.0, 5.0]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(PiecewiseLinear::new(vec![0.0], vec![0.0]).is_err());
        assert!(PiecewiseLinear::new(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(PiecewiseLinear::new(vec![1.0, 1.0], vec![0.0, 1.0]).is_err());
        assert!(PiecewiseLinear::new(vec![2.0, 1.0], vec![0.0, 1.0]).is_err());
        assert!(PiecewiseLinear::new(vec![0.0, f64::NAN], vec![0.0, 1.0]).is_err());
    }

    #[test]
    fn eval_interpolates() {
        let f = sample();
        assert_eq!(f.eval(0.5), 1.0);
        assert_eq!(f.eval(2.0), 2.0);
        assert_eq!(f.eval(3.5), 3.5);
    }

    #[test]
    fn eval_at_knots_exact() {
        let f = sample();
        for (x, v) in f.knots().iter().zip(f.values()) {
            assert_eq!(f.eval(*x), *v);
        }
    }

    #[test]
    fn eval_clamps_outside() {
        let f = sample();
        assert_eq!(f.eval(-1.0), 0.0);
        assert_eq!(f.eval(100.0), 5.0);
    }

    #[test]
    fn slopes_as_expected() {
        let f = sample();
        assert_eq!(f.slopes(), vec![2.0, 0.0, 3.0]);
    }

    #[test]
    fn segment_of_half_open() {
        let f = sample();
        assert_eq!(f.segment_of(0.0), Some(0));
        assert_eq!(f.segment_of(0.999), Some(0));
        assert_eq!(f.segment_of(1.0), Some(1));
        assert_eq!(f.segment_of(3.9), Some(2));
        assert_eq!(f.segment_of(4.0), None);
        assert_eq!(f.segment_of(-0.1), None);
    }

    #[test]
    fn monotonicity_detection() {
        assert!(sample().is_monotone_nondecreasing());
        let dec = PiecewiseLinear::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        assert!(!dec.is_monotone_nondecreasing());
    }

    #[test]
    fn constant_function() {
        let c = PiecewiseLinear::constant(0.0, 5.0, 3.0).unwrap();
        assert_eq!(c.eval(2.5), 3.0);
        assert!(c.is_monotone_nondecreasing());
        assert_eq!(c.max_value(), 3.0);
        assert!(PiecewiseLinear::constant(5.0, 0.0, 3.0).is_err());
    }

    #[test]
    fn max_value_of_monotone_is_last() {
        assert_eq!(sample().max_value(), 5.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(sample().to_string().starts_with("pwl["));
    }
}
