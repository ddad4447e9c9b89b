use crate::CoreError;
use std::fmt;

/// Scalar parameters of the requester/worker utility model.
///
/// Defaults are the paper's §V setting: `μ = 10`, `β = 1`, `ω = 1`
/// ("β = α = 1"), `κ = γ = 0.1`, `ρ = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Weight of total compensation in the requester's utility (Eq. 7).
    pub mu: f64,
    /// Weight of effort cost in worker utilities (Eq. 11, 14).
    pub beta: f64,
    /// Weight of feedback in *malicious* worker utilities (Eq. 14);
    /// honest workers use `ω = 0` (§IV-C treats them as the special case).
    pub omega: f64,
    /// Malicious-probability penalty κ in the feedback weight (Eq. 5).
    pub kappa: f64,
    /// Partner-count penalty γ in the feedback weight (Eq. 5).
    pub gamma: f64,
    /// Accuracy coefficient ρ in the feedback weight (Eq. 5).
    pub rho: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            mu: 10.0,
            beta: 1.0,
            omega: 1.0,
            kappa: 0.1,
            gamma: 0.1,
            rho: 1.0,
        }
    }
}

impl ModelParams {
    /// Validates positivity constraints (`μ, β > 0`; `ω, κ, γ, ρ ≥ 0`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        let named = [
            ("mu", self.mu),
            ("beta", self.beta),
            ("omega", self.omega),
            ("kappa", self.kappa),
            ("gamma", self.gamma),
            ("rho", self.rho),
        ];
        for (name, value) in named {
            if !value.is_finite() {
                return Err(CoreError::InvalidParams(format!(
                    "{name} must be finite, got {value}"
                )));
            }
        }
        if self.mu <= 0.0 {
            return Err(CoreError::InvalidParams(format!(
                "mu must be positive, got {}",
                self.mu
            )));
        }
        if self.beta <= 0.0 {
            return Err(CoreError::InvalidParams(format!(
                "beta must be positive, got {}",
                self.beta
            )));
        }
        for (name, value) in [
            ("omega", self.omega),
            ("kappa", self.kappa),
            ("gamma", self.gamma),
            ("rho", self.rho),
        ] {
            if value < 0.0 {
                return Err(CoreError::InvalidParams(format!(
                    "{name} must be nonnegative, got {value}"
                )));
            }
        }
        Ok(())
    }

    /// A copy with `omega = 0` — the honest-worker special case of §IV-C.
    pub fn for_honest(&self) -> ModelParams {
        ModelParams {
            omega: 0.0,
            ..*self
        }
    }
}

/// The most effort intervals a [`Discretization`] may have. A candidate
/// set holds one contract per interval (Eq. 39–40), and building and
/// verifying each candidate costs O(m), so `m` sizes the solve's memory
/// and its time before any candidate is built. The paper uses `m = 20`
/// and the largest sweep here (the ablation bench) reaches 320; at
/// 1,024 a design stays cheap. A larger `m` — say an untrusted
/// `--intervals` — is refused, not allocated.
pub const MAX_INTERVALS: usize = 1_024;

/// The effort-region discretization of §III-A: `m` intervals of width `δ`,
/// covering `[0, mδ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discretization {
    m: usize,
    delta: f64,
}

impl Discretization {
    /// Creates a discretization with `1 ≤ m ≤` [`MAX_INTERVALS`]
    /// intervals of width `delta > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] on a violated constraint.
    pub fn new(m: usize, delta: f64) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::InvalidParams(
                "discretization needs at least one interval".into(),
            ));
        }
        if m > MAX_INTERVALS {
            return Err(CoreError::InvalidParams(format!(
                "discretization allows at most {MAX_INTERVALS} intervals, got {m}"
            )));
        }
        if !(delta.is_finite() && delta > 0.0) {
            return Err(CoreError::InvalidParams(format!(
                "interval width must be positive, got {delta}"
            )));
        }
        Ok(Discretization { m, delta })
    }

    /// Creates a discretization of `m` intervals covering `[0, y_max)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] if `m` is 0 or above
    /// [`MAX_INTERVALS`], or `y_max <= 0`.
    pub fn covering(m: usize, y_max: f64) -> Result<Self, CoreError> {
        if !(y_max.is_finite() && y_max > 0.0) {
            return Err(CoreError::InvalidParams(format!(
                "effort region end must be positive, got {y_max}"
            )));
        }
        Discretization::new(m, y_max / m.max(1) as f64)
    }

    /// Number of intervals `m`.
    pub fn intervals(&self) -> usize {
        self.m
    }

    /// Interval width `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The effort knot `lδ` for `l = 0..=m`.
    ///
    /// # Panics
    ///
    /// Panics if `l > m`.
    pub fn knot(&self, l: usize) -> f64 {
        assert!(l <= self.m, "knot {l} out of range (m = {})", self.m);
        l as f64 * self.delta
    }

    /// The end of the effort region, `mδ`.
    pub fn y_max(&self) -> f64 {
        self.m as f64 * self.delta
    }

    /// All effort knots `0, δ, …, mδ`.
    pub fn knots(&self) -> Vec<f64> {
        (0..=self.m).map(|l| self.knot(l)).collect()
    }

    /// The 1-based interval index whose half-open range
    /// `[(l−1)δ, lδ)` contains `y`, or `None` outside `[0, mδ)`.
    pub fn interval_of(&self, y: f64) -> Option<usize> {
        if y < 0.0 || y >= self.y_max() {
            return None;
        }
        Some((y / self.delta) as usize + 1)
    }
}

impl fmt::Display for Discretization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} intervals of width {} over [0, {})", self.m, self.delta, self.y_max())
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_papers() {
        let p = ModelParams::default();
        assert_eq!(p.mu, 10.0);
        assert_eq!(p.beta, 1.0);
        assert_eq!(p.omega, 1.0);
        assert_eq!(p.kappa, 0.1);
        assert_eq!(p.gamma, 0.1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn invalid_params_rejected() {
        let cases = [
            ModelParams { mu: 0.0, ..ModelParams::default() },
            ModelParams { beta: -1.0, ..ModelParams::default() },
            ModelParams { omega: -0.1, ..ModelParams::default() },
            ModelParams { mu: f64::NAN, ..ModelParams::default() },
        ];
        for p in cases {
            assert!(p.validate().is_err(), "{p:?} should be invalid");
        }
    }

    #[test]
    fn honest_variant_zeroes_omega() {
        let p = ModelParams::default().for_honest();
        assert_eq!(p.omega, 0.0);
        assert_eq!(p.mu, 10.0);
    }

    #[test]
    fn discretization_knots() {
        let d = Discretization::new(4, 0.5).unwrap();
        assert_eq!(d.intervals(), 4);
        assert_eq!(d.delta(), 0.5);
        assert_eq!(d.y_max(), 2.0);
        assert_eq!(d.knots(), vec![0.0, 0.5, 1.0, 1.5, 2.0]);
        assert_eq!(d.knot(0), 0.0);
        assert_eq!(d.knot(4), 2.0);
    }

    #[test]
    fn covering_splits_range() {
        let d = Discretization::covering(10, 5.0).unwrap();
        assert_eq!(d.delta(), 0.5);
        assert_eq!(d.y_max(), 5.0);
    }

    #[test]
    fn interval_of_is_half_open() {
        let d = Discretization::new(3, 1.0).unwrap();
        assert_eq!(d.interval_of(0.0), Some(1));
        assert_eq!(d.interval_of(0.99), Some(1));
        assert_eq!(d.interval_of(1.0), Some(2));
        assert_eq!(d.interval_of(2.99), Some(3));
        assert_eq!(d.interval_of(3.0), None);
        assert_eq!(d.interval_of(-0.1), None);
    }

    #[test]
    fn degenerate_discretizations_rejected() {
        assert!(Discretization::new(0, 1.0).is_err());
        assert!(Discretization::new(3, 0.0).is_err());
        assert!(Discretization::new(3, -1.0).is_err());
        assert!(Discretization::new(3, f64::INFINITY).is_err());
        assert!(Discretization::covering(5, 0.0).is_err());
    }

    #[test]
    fn interval_count_is_capped() {
        let largest = Discretization::covering(MAX_INTERVALS, 1.0).unwrap();
        assert_eq!(largest.intervals(), MAX_INTERVALS);
        for m in [MAX_INTERVALS + 1, 10_000, 100_000_000_000, usize::MAX] {
            let err = Discretization::covering(m, 1.0).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "invalid parameters: discretization allows at most {MAX_INTERVALS} \
                     intervals, got {m}"
                )
            );
            assert!(matches!(Discretization::new(m, 0.5), Err(CoreError::InvalidParams(_))));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn knot_out_of_range_panics() {
        Discretization::new(2, 1.0).unwrap().knot(3);
    }
}
