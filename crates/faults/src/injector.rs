//! The bridge from a [`FaultPlan`] to a running simulation: an
//! implementation of [`dcc_core::RoundFaults`] that answers the
//! simulation's per-round queries from precomputed lookup maps.
//!
//! The injector is *pure* in `(agent, round)` — all randomness was spent
//! when the plan was generated — so a fresh injector from the same plan
//! reproduces a run bit-exactly.

use crate::plan::{Corruption, FaultPlan};
use dcc_core::RoundFaults;
use std::collections::{BTreeMap, BTreeSet};

/// A [`RoundFaults`] implementation backed by a [`FaultPlan`], stateless
/// apart from its tally of the faults that fired.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    dropouts: BTreeMap<usize, Vec<(usize, usize)>>,
    missing: BTreeSet<(usize, usize)>,
    corrupt: BTreeMap<(usize, usize), Corruption>,
    delays: BTreeMap<(usize, usize), usize>,
    hits: FaultHitCounts,
}

impl FaultInjector {
    /// Builds the lookup structures from a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut dropouts: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for d in &plan.dropouts {
            dropouts.entry(d.agent).or_default().push((d.from, d.until));
        }
        FaultInjector {
            dropouts,
            missing: plan.missing.iter().map(|m| (m.agent, m.round)).collect(),
            corrupt: plan
                .corrupt
                .iter()
                .map(|c| ((c.agent, c.round), c.corruption))
                .collect(),
            delays: plan
                .delays
                .iter()
                .map(|d| ((d.agent, d.round), d.delay))
                .collect(),
            hits: FaultHitCounts::default(),
        }
    }

    /// Per-kind totals of the faults fired so far — the numbers the
    /// engine's simulate stage publishes as `sim.faults.*` counters.
    pub fn hit_counts(&self) -> FaultHitCounts {
        self.hits
    }
}

/// Per-kind totals of the faults a [`FaultInjector`] fired.
///
/// One count is one *hit*: a dropout window contributes one hit per
/// round it covers, not one per scheduled window — so `total()` can
/// exceed the plan's event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultHitCounts {
    /// Agent-absence rounds.
    pub dropped: usize,
    /// Lost feedback reports.
    pub lost_feedback: usize,
    /// Corrupted feedback reports.
    pub corrupted_feedback: usize,
    /// Deferred payments.
    pub delayed_payments: usize,
}

impl FaultHitCounts {
    /// Sum over every kind.
    pub fn total(&self) -> usize {
        self.dropped + self.lost_feedback + self.corrupted_feedback + self.delayed_payments
    }
}

impl RoundFaults for FaultInjector {
    fn dropped(&mut self, agent: usize, round: usize) -> bool {
        let out = self
            .dropouts
            .get(&agent)
            .is_some_and(|ws| ws.iter().any(|&(from, until)| round >= from && round < until));
        if out {
            self.hits.dropped += 1;
        }
        out
    }

    fn perturb_feedback(&mut self, agent: usize, round: usize, feedback: f64) -> Option<f64> {
        if self.missing.contains(&(agent, round)) {
            self.hits.lost_feedback += 1;
            return None;
        }
        if let Some(corruption) = self.corrupt.get(&(agent, round)) {
            self.hits.corrupted_feedback += 1;
            return Some(match *corruption {
                Corruption::Scale(x) => feedback * x,
                Corruption::Offset(x) => feedback + x,
                Corruption::Replace(x) => x,
                Corruption::NaN => f64::NAN,
            });
        }
        Some(feedback)
    }

    fn payment_delay(&mut self, agent: usize, round: usize) -> usize {
        let delay = self.delays.get(&(agent, round)).copied().unwrap_or(0);
        if delay > 0 {
            self.hits.delayed_payments += 1;
        }
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CorruptFeedback, DropoutWindow, MissingFeedback, PaymentDelay};

    fn tiny_plan() -> FaultPlan {
        FaultPlan {
            dropouts: vec![DropoutWindow {
                agent: 0,
                from: 2,
                until: 4,
            }],
            missing: vec![MissingFeedback { agent: 1, round: 0 }],
            corrupt: vec![
                CorruptFeedback {
                    agent: 1,
                    round: 1,
                    corruption: Corruption::Scale(2.0),
                },
                CorruptFeedback {
                    agent: 1,
                    round: 2,
                    corruption: Corruption::Offset(-1.0),
                },
                CorruptFeedback {
                    agent: 1,
                    round: 3,
                    corruption: Corruption::Replace(9.0),
                },
                CorruptFeedback {
                    agent: 1,
                    round: 4,
                    corruption: Corruption::NaN,
                },
            ],
            delays: vec![PaymentDelay {
                agent: 0,
                round: 0,
                delay: 2,
            }],
        }
    }

    #[test]
    fn lookups_match_the_plan() {
        let mut inj = FaultInjector::new(&tiny_plan());
        assert!(!inj.dropped(0, 1));
        assert!(inj.dropped(0, 2));
        assert!(inj.dropped(0, 3));
        assert!(!inj.dropped(0, 4), "rejoins at `until`");
        assert!(!inj.dropped(1, 2), "other agents unaffected");

        assert_eq!(inj.perturb_feedback(1, 0, 3.0), None);
        assert_eq!(inj.perturb_feedback(1, 1, 3.0), Some(6.0));
        assert_eq!(inj.perturb_feedback(1, 2, 3.0), Some(2.0));
        assert_eq!(inj.perturb_feedback(1, 3, 3.0), Some(9.0));
        assert!(inj.perturb_feedback(1, 4, 3.0).unwrap().is_nan());
        assert_eq!(inj.perturb_feedback(1, 5, 3.0), Some(3.0));

        assert_eq!(inj.payment_delay(0, 0), 2);
        assert_eq!(inj.payment_delay(0, 1), 0);
    }

    #[test]
    fn hit_counts_tally_only_fired_faults_per_kind() {
        let mut inj = FaultInjector::new(&tiny_plan());
        assert_eq!(inj.hit_counts(), FaultHitCounts::default());
        inj.dropped(0, 0); // miss
        inj.dropped(0, 2); // hit
        inj.perturb_feedback(1, 0, 0.5); // lost
        inj.perturb_feedback(1, 1, 0.5); // corrupted
        inj.perturb_feedback(1, 5, 0.5); // clean
        inj.payment_delay(0, 0); // delayed
        inj.payment_delay(0, 1); // on time
        assert_eq!(
            inj.hit_counts(),
            FaultHitCounts {
                dropped: 1,
                lost_feedback: 1,
                corrupted_feedback: 1,
                delayed_payments: 1,
            }
        );
        assert_eq!(inj.hit_counts().total(), 4);
    }

    #[test]
    fn empty_plan_is_the_identity() {
        let mut inj = FaultInjector::new(&FaultPlan::default());
        for agent in 0..3 {
            for round in 0..5 {
                assert!(!inj.dropped(agent, round));
                assert_eq!(inj.perturb_feedback(agent, round, 1.25), Some(1.25));
                assert_eq!(inj.payment_delay(agent, round), 0);
            }
        }
        assert_eq!(inj.hit_counts(), FaultHitCounts::default());
    }
}
