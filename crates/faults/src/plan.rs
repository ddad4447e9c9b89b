//! Deterministic fault plans: a fully materialized schedule of which
//! fault hits which agent in which round.
//!
//! A plan can be written by hand, or sampled from a [`FaultPlanConfig`]
//! with a seeded RNG. Either way, *all* randomness lives in the plan —
//! replaying the same plan against the same simulation seed reproduces
//! the identical run, which is what makes fault scenarios debuggable.

use dcc_numerics::Json;
use dcc_core::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A contiguous absence: `agent` is out of the system for rounds
/// `from..until` (half-open) and rejoins at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropoutWindow {
    /// The affected agent index.
    pub agent: usize,
    /// First round of the absence.
    pub from: usize,
    /// First round back (exclusive end of the absence).
    pub until: usize,
}

/// A single lost feedback report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingFeedback {
    /// The affected agent index.
    pub agent: usize,
    /// The round whose report is lost.
    pub round: usize,
}

/// How a corrupted feedback value is mangled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// Multiply the true value by a factor (sensor miscalibration).
    Scale(f64),
    /// Add an offset (bias).
    Offset(f64),
    /// Replace the value outright (an outlier injection).
    Replace(f64),
    /// Replace with NaN (the hostile numeric case; the simulation core
    /// degrades it to a missing report rather than propagating NaN).
    NaN,
}

/// A single corrupted feedback report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptFeedback {
    /// The affected agent index.
    pub agent: usize,
    /// The round whose report is corrupted.
    pub round: usize,
    /// The corruption applied.
    pub corruption: Corruption,
}

/// A delayed payment: the amount owed to `agent` in `round` is paid
/// `delay` rounds late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaymentDelay {
    /// The affected agent index.
    pub agent: usize,
    /// The round whose payment is deferred.
    pub round: usize,
    /// How many rounds late it lands (>= 1).
    pub delay: usize,
}

/// A complete, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Dropout/rejoin windows.
    pub dropouts: Vec<DropoutWindow>,
    /// Lost reports.
    pub missing: Vec<MissingFeedback>,
    /// Corrupted reports.
    pub corrupt: Vec<CorruptFeedback>,
    /// Late payments.
    pub delays: Vec<PaymentDelay>,
}

impl FaultPlan {
    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.dropouts.is_empty()
            && self.missing.is_empty()
            && self.corrupt.is_empty()
            && self.delays.is_empty()
    }

    /// Total number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.dropouts.len() + self.missing.len() + self.corrupt.len() + self.delays.len()
    }

    /// Serializes the plan to JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "dropouts".into(),
                Json::Arr(
                    self.dropouts
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("agent".into(), Json::idx(d.agent)),
                                ("from".into(), Json::idx(d.from)),
                                ("until".into(), Json::idx(d.until)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "missing".into(),
                Json::Arr(
                    self.missing
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("agent".into(), Json::idx(m.agent)),
                                ("round".into(), Json::idx(m.round)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "corrupt".into(),
                Json::Arr(
                    self.corrupt
                        .iter()
                        .map(|c| {
                            let (kind, value) = match c.corruption {
                                Corruption::Scale(x) => ("scale", Json::num(x)),
                                Corruption::Offset(x) => ("offset", Json::num(x)),
                                Corruption::Replace(x) => ("replace", Json::num(x)),
                                Corruption::NaN => ("nan", Json::Null),
                            };
                            Json::Obj(vec![
                                ("agent".into(), Json::idx(c.agent)),
                                ("round".into(), Json::idx(c.round)),
                                ("kind".into(), Json::Str(kind.into())),
                                ("value".into(), value),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "delays".into(),
                Json::Arr(
                    self.delays
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("agent".into(), Json::idx(d.agent)),
                                ("round".into(), Json::idx(d.round)),
                                ("delay".into(), Json::idx(d.delay)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes the plan to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Deserializes a plan from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on malformed or incomplete
    /// documents, and on entries [`FaultPlanConfig::generate`] never
    /// writes: a dropout window that is never active (`until <= from`)
    /// and a payment delay of 0.
    pub fn from_json(doc: &Json) -> Result<FaultPlan, CoreError> {
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_arr)
                .ok_or_else(|| miss(name))
        };
        let dropouts = field("dropouts")?
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let window = DropoutWindow {
                    agent: idx_of(d, "agent")?,
                    from: idx_of(d, "from")?,
                    until: idx_of(d, "until")?,
                };
                if window.until <= window.from {
                    return Err(CoreError::InvalidInput(format!(
                        "fault plan dropouts[{i}] field \"until\" ({}) must exceed \"from\" ({})",
                        window.until, window.from
                    )));
                }
                Ok(window)
            })
            .collect::<Result<_, CoreError>>()?;
        let missing = field("missing")?
            .iter()
            .map(|m| {
                Ok(MissingFeedback {
                    agent: idx_of(m, "agent")?,
                    round: idx_of(m, "round")?,
                })
            })
            .collect::<Result<_, CoreError>>()?;
        let corrupt = field("corrupt")?
            .iter()
            .map(|c| {
                let kind = c
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| miss("corrupt.kind"))?;
                let value = || {
                    c.get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| miss("corrupt.value"))
                };
                let corruption = match kind {
                    "scale" => Corruption::Scale(value()?),
                    "offset" => Corruption::Offset(value()?),
                    "replace" => Corruption::Replace(value()?),
                    "nan" => Corruption::NaN,
                    other => {
                        return Err(CoreError::InvalidInput(format!(
                            "unknown corruption kind {other:?}"
                        )))
                    }
                };
                Ok(CorruptFeedback {
                    agent: idx_of(c, "agent")?,
                    round: idx_of(c, "round")?,
                    corruption,
                })
            })
            .collect::<Result<_, CoreError>>()?;
        let delays = field("delays")?
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let delay = PaymentDelay {
                    agent: idx_of(d, "agent")?,
                    round: idx_of(d, "round")?,
                    delay: idx_of(d, "delay")?,
                };
                if delay.delay == 0 {
                    return Err(CoreError::InvalidInput(format!(
                        "fault plan delays[{i}] field \"delay\" must be at least 1, got 0"
                    )));
                }
                Ok(delay)
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(FaultPlan {
            dropouts,
            missing,
            corrupt,
            delays,
        })
    }

    /// Deserializes a plan from a JSON string.
    ///
    /// # Errors
    ///
    /// Same as [`FaultPlan::from_json`].
    pub fn from_json_str(text: &str) -> Result<FaultPlan, CoreError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Writes the plan to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failure.
    pub fn save(&self, path: &std::path::Path) -> Result<(), CoreError> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| CoreError::io(format!("write fault plan {}", path.display()), e))
    }

    /// Reads a plan from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failure and
    /// [`CoreError::InvalidInput`] on malformed content.
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, CoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CoreError::io(format!("read fault plan {}", path.display()), e))?;
        Self::from_json_str(&text)
    }
}

fn miss(name: &str) -> CoreError {
    CoreError::InvalidInput(format!("fault plan is missing field {name:?}"))
}

fn idx_of(doc: &Json, name: &str) -> Result<usize, CoreError> {
    let value = doc.get(name).ok_or_else(|| miss(name))?;
    value.as_idx().ok_or_else(|| {
        CoreError::InvalidInput(format!("fault plan field {name:?} is not an index: {value}"))
    })
}

/// Parameters of the seeded fault-plan sampler. All probabilities are
/// per agent-round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Number of agents in the simulated population.
    pub agents: usize,
    /// Number of simulated rounds.
    pub rounds: usize,
    /// Chance a dropout window *starts* at a given agent-round.
    pub dropout_prob: f64,
    /// Dropout length is drawn uniformly from `1..=max_dropout_len`.
    pub max_dropout_len: usize,
    /// Chance a report is lost.
    pub missing_prob: f64,
    /// Chance a report is corrupted (scale/offset/replace, uniformly).
    pub corrupt_prob: f64,
    /// Chance a report is replaced by NaN.
    pub nan_prob: f64,
    /// Chance a payment is delayed.
    pub delay_prob: f64,
    /// Payment delays are drawn uniformly from `1..=max_delay`.
    pub max_delay: usize,
    /// Magnitude used by the corruption sampler: scales are drawn from
    /// `[1/outlier_scale, outlier_scale]`, offsets and replacements from
    /// `[-outlier_scale, outlier_scale]`.
    pub outlier_scale: f64,
    /// RNG seed; the same seed and config always yield the same plan.
    pub seed: u64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            agents: 10,
            rounds: 20,
            dropout_prob: 0.02,
            max_dropout_len: 3,
            missing_prob: 0.03,
            corrupt_prob: 0.03,
            nan_prob: 0.01,
            delay_prob: 0.03,
            max_delay: 3,
            outlier_scale: 10.0,
            seed: 42,
        }
    }
}

impl FaultPlanConfig {
    /// Samples a concrete [`FaultPlan`] — deterministically in `(self,
    /// seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when a probability is outside
    /// `[0, 1]`, a length/delay maximum is zero while its probability
    /// is positive, or `outlier_scale` is not a number above 1 whose
    /// doubled width `2 * outlier_scale` is finite while `corrupt_prob`
    /// is positive (the scale range `[1/outlier_scale, outlier_scale)`
    /// would be empty, or the offset range
    /// `[-outlier_scale, outlier_scale)` too wide to sample finitely).
    pub fn generate(&self) -> Result<FaultPlan, CoreError> {
        for (name, p) in [
            ("dropout_prob", self.dropout_prob),
            ("missing_prob", self.missing_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("nan_prob", self.nan_prob),
            ("delay_prob", self.delay_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(CoreError::InvalidParams(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        if self.dropout_prob > 0.0 && self.max_dropout_len == 0 {
            return Err(CoreError::InvalidParams(
                "max_dropout_len must be >= 1 when dropout_prob > 0".into(),
            ));
        }
        if self.delay_prob > 0.0 && self.max_delay == 0 {
            return Err(CoreError::InvalidParams(
                "max_delay must be >= 1 when delay_prob > 0".into(),
            ));
        }
        let scale = self.outlier_scale;
        if self.corrupt_prob > 0.0 && !(scale > 1.0 && (2.0 * scale).is_finite()) {
            return Err(CoreError::InvalidParams(format!(
                "outlier_scale must be > 1 with a finite width 2 * outlier_scale \
                 when corrupt_prob > 0, got {scale:?}"
            )));
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut plan = FaultPlan::default();
        for agent in 0..self.agents {
            let mut dropped_until = 0usize;
            for round in 0..self.rounds {
                // Dropout windows are sampled first and suppress the
                // other fault channels while active (an absent agent has
                // no report to lose or corrupt, no payment due).
                if round >= dropped_until
                    && self.dropout_prob > 0.0
                    && rng.gen_bool(self.dropout_prob)
                {
                    let len = rng.gen_range(1..=self.max_dropout_len);
                    plan.dropouts.push(DropoutWindow {
                        agent,
                        from: round,
                        until: round + len,
                    });
                    dropped_until = round + len;
                }
                if round < dropped_until {
                    continue;
                }
                if self.missing_prob > 0.0 && rng.gen_bool(self.missing_prob) {
                    plan.missing.push(MissingFeedback { agent, round });
                } else if self.nan_prob > 0.0 && rng.gen_bool(self.nan_prob) {
                    plan.corrupt.push(CorruptFeedback {
                        agent,
                        round,
                        corruption: Corruption::NaN,
                    });
                } else if self.corrupt_prob > 0.0 && rng.gen_bool(self.corrupt_prob) {
                    let corruption = match rng.gen_range(0..3u32) {
                        0 => Corruption::Scale(
                            rng.gen_range(1.0 / self.outlier_scale..self.outlier_scale),
                        ),
                        1 => Corruption::Offset(
                            rng.gen_range(-self.outlier_scale..self.outlier_scale),
                        ),
                        _ => Corruption::Replace(
                            rng.gen_range(-self.outlier_scale..self.outlier_scale),
                        ),
                    };
                    plan.corrupt.push(CorruptFeedback {
                        agent,
                        round,
                        corruption,
                    });
                }
                if self.delay_prob > 0.0 && rng.gen_bool(self.delay_prob) {
                    plan.delays.push(PaymentDelay {
                        agent,
                        round,
                        delay: rng.gen_range(1..=self.max_delay),
                    });
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_config(seed: u64) -> FaultPlanConfig {
        FaultPlanConfig {
            agents: 20,
            rounds: 50,
            dropout_prob: 0.05,
            missing_prob: 0.1,
            corrupt_prob: 0.1,
            nan_prob: 0.05,
            delay_prob: 0.1,
            seed,
            ..FaultPlanConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = busy_config(7).generate().unwrap();
        let b = busy_config(7).generate().unwrap();
        let c = busy_config(8).generate().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ for a busy config");
        assert!(!a.is_empty());
    }

    #[test]
    fn json_round_trip_preserves_the_plan() {
        let plan = busy_config(21).generate().unwrap();
        let text = plan.to_json_string();
        let back = FaultPlan::from_json_str(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn hand_written_plans_round_trip_including_nan() {
        let plan = FaultPlan {
            dropouts: vec![DropoutWindow {
                agent: 1,
                from: 2,
                until: 5,
            }],
            missing: vec![MissingFeedback { agent: 0, round: 3 }],
            corrupt: vec![
                CorruptFeedback {
                    agent: 2,
                    round: 4,
                    corruption: Corruption::NaN,
                },
                CorruptFeedback {
                    agent: 2,
                    round: 6,
                    corruption: Corruption::Replace(-7.125),
                },
            ],
            delays: vec![PaymentDelay {
                agent: 0,
                round: 1,
                delay: 2,
            }],
        };
        let back = FaultPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(plan, back);
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn dropouts_suppress_other_faults_in_window() {
        let plan = busy_config(33).generate().unwrap();
        for d in &plan.dropouts {
            for m in &plan.missing {
                assert!(
                    m.agent != d.agent || m.round < d.from || m.round >= d.until,
                    "missing inside dropout window"
                );
            }
            for c in &plan.corrupt {
                assert!(
                    c.agent != d.agent || c.round < d.from || c.round >= d.until,
                    "corruption inside dropout window"
                );
            }
            for p in &plan.delays {
                assert!(
                    p.agent != d.agent || p.round < d.from || p.round >= d.until,
                    "delay inside dropout window"
                );
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad_prob = FaultPlanConfig {
            missing_prob: 1.5,
            ..FaultPlanConfig::default()
        };
        assert!(bad_prob.generate().is_err());
        let bad_len = FaultPlanConfig {
            dropout_prob: 0.1,
            max_dropout_len: 0,
            ..FaultPlanConfig::default()
        };
        assert!(bad_len.generate().is_err());
        let bad_delay = FaultPlanConfig {
            delay_prob: 0.1,
            max_delay: 0,
            ..FaultPlanConfig::default()
        };
        assert!(bad_delay.generate().is_err());
        for outlier_scale in [1.0, 0.5, f64::NAN, f64::INFINITY, 1e308] {
            let empty_range = FaultPlanConfig {
                corrupt_prob: 0.5,
                outlier_scale,
                ..FaultPlanConfig::default()
            };
            let err = empty_range.generate().unwrap_err();
            assert!(matches!(err, CoreError::InvalidParams(_)), "{outlier_scale}: {err}");
        }
        // Without corruption the scale is never sampled.
        let unused = FaultPlanConfig {
            corrupt_prob: 0.0,
            outlier_scale: 1.0,
            ..FaultPlanConfig::default()
        };
        assert!(unused.generate().is_ok());
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let plan = busy_config(5).generate().unwrap();
        let dir = std::env::temp_dir().join("dcc-faults-plan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        plan.save(&path).unwrap();
        assert_eq!(FaultPlan::load(&path).unwrap(), plan);

        let missing = dir.join("does-not-exist.json");
        let err = FaultPlan::load(&missing).unwrap_err();
        assert!(matches!(err, CoreError::Io { .. }), "{err}");
    }
}
