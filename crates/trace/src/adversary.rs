//! Dynamic adversaries over the calibrated generator: communities that
//! split or merge across rounds, sybil influxes on configurable join
//! schedules, and strategically under-reporting malicious workers.
//!
//! All adversarial behaviour is driven by a versioned, JSON-serializable
//! [`AdversaryPlan`] with the same determinism contract as
//! `dcc-faults`' `FaultPlan`: the plan is a fully materialized schedule
//! (no hidden randomness at apply time beyond the plan's own seed), so
//! `(base seed, plan)` determines the generated trace byte-for-byte.
//! Plans can be written by hand or sampled from an
//! [`AdversaryPlanConfig`] with a seeded RNG.
//!
//! # Application model
//!
//! [`AdversarialConfig::generate`] first runs the untouched base
//! generator ([`SyntheticConfig::generate`] — an empty plan therefore
//! yields the *identical* trace, which the golden snapshots rely on),
//! then applies the plan as a deterministic transformation in four
//! phases, each sorted for order independence within the plan:
//!
//! 1. **Splits** — the back half of a campaign's members secede at a
//!    round: a new campaign with fresh target products is appended, and
//!    the splinter's reviews from that round on are redirected to the
//!    new targets. Earlier rounds keep the shared history, exactly as a
//!    real community that fractures would.
//! 2. **Merges** — two campaigns join forces at a round: every member
//!    of both writes a bridge review on the first campaign's lead
//!    target, so the §IV-A co-review components fuse mid-stream.
//! 3. **Sybil influxes** — `count` fresh collusive workers join a
//!    campaign at a round and review its targets once per remaining
//!    round with the collusive class behaviour.
//! 4. **Under-reports** — from a round on, a campaign's members damp
//!    their feedback (upvotes scaled by `factor`) and pull their star
//!    bias toward the truth by the same factor: strategic evasion of
//!    the collusion detector's inflation signal.
//!
//! Finally campaigns are renumbered dense in order of first member id
//! (empty ones — fully merged away — are dropped), which keeps
//! [`crate::TraceDataset`] replays protocol-valid for the streaming
//! service's dense-campaign-creation rule.

use crate::{
    Campaign, Product, ProductId, Review, Reviewer, ReviewerId, SyntheticConfig, TraceDataset,
    TraceError, WorkerClass,
};
use dcc_numerics::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Schema tag embedded in serialized plans; bumped on incompatible
/// layout changes.
pub const ADVERSARY_SCHEMA: &str = "dcc-adversary/1";

/// Fresh target products allocated to the splinter community of a
/// split (mirrors the base generator's per-campaign reservation).
const SPLIT_TARGETS: usize = 3;

/// A sybil influx: `count` new collusive workers join `campaign`
/// starting at `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SybilInflux {
    /// Base-trace campaign index the sybils join.
    pub campaign: usize,
    /// Round the sybils join and start reviewing.
    pub round: usize,
    /// Number of sybil workers (>= 1).
    pub count: usize,
}

/// A community split: the back half of `campaign`'s members secede at
/// `round` into a fresh campaign with fresh targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommunitySplit {
    /// Base-trace campaign index that fractures.
    pub campaign: usize,
    /// First round the splinter reviews its own targets.
    pub round: usize,
}

/// A community merge: `second`'s members join `first` at `round`, and
/// every member of both bridges onto `first`'s lead target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommunityMerge {
    /// Surviving base-trace campaign index.
    pub first: usize,
    /// Absorbed base-trace campaign index (dropped if left empty).
    pub second: usize,
    /// Round the bridge reviews land.
    pub round: usize,
}

/// Strategic under-reporting: from `from_round` on, the members of
/// `campaign` scale their upvotes and star bias by `factor` to evade
/// the inflation signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnderReport {
    /// Campaign index (resolved against post-split/merge membership).
    pub campaign: usize,
    /// First affected round.
    pub from_round: usize,
    /// Damping factor in `[0, 1]` (1 = no evasion, 0 = full evasion).
    pub factor: f64,
}

/// A complete, deterministic adversary schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdversaryPlan {
    /// Seed for the apply-time draws (sybil behaviour, bridge reviews,
    /// splinter target qualities). Equal `(base seed, plan)` pairs
    /// produce byte-identical traces.
    pub seed: u64,
    /// Sybil influxes.
    pub sybils: Vec<SybilInflux>,
    /// Community splits.
    pub splits: Vec<CommunitySplit>,
    /// Community merges.
    pub merges: Vec<CommunityMerge>,
    /// Under-reporting windows.
    pub underreports: Vec<UnderReport>,
}

impl AdversaryPlan {
    /// Whether the plan schedules no adversarial events at all.
    pub fn is_empty(&self) -> bool {
        self.sybils.is_empty()
            && self.splits.is_empty()
            && self.merges.is_empty()
            && self.underreports.is_empty()
    }

    /// Total number of scheduled adversarial events.
    pub fn len(&self) -> usize {
        self.sybils.len() + self.splits.len() + self.merges.len() + self.underreports.len()
    }

    /// Serializes the plan to JSON (schema-tagged).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(ADVERSARY_SCHEMA.into())),
            ("seed".into(), Json::u64(self.seed)),
            (
                "sybils".into(),
                Json::Arr(
                    self.sybils
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("campaign".into(), Json::idx(s.campaign)),
                                ("round".into(), Json::idx(s.round)),
                                ("count".into(), Json::idx(s.count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "splits".into(),
                Json::Arr(
                    self.splits
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("campaign".into(), Json::idx(s.campaign)),
                                ("round".into(), Json::idx(s.round)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "merges".into(),
                Json::Arr(
                    self.merges
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("first".into(), Json::idx(m.first)),
                                ("second".into(), Json::idx(m.second)),
                                ("round".into(), Json::idx(m.round)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "underreports".into(),
                Json::Arr(
                    self.underreports
                        .iter()
                        .map(|u| {
                            Json::Obj(vec![
                                ("campaign".into(), Json::idx(u.campaign)),
                                ("from_round".into(), Json::idx(u.from_round)),
                                ("factor".into(), Json::num(u.factor)),
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

    /// Deserializes a plan from JSON, rejecting unknown schemas.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidDataset`] on a missing/unknown
    /// schema tag, malformed fields, or an event no base trace admits (a
    /// sybil count of 0, a campaign merged with itself, an under-report
    /// factor outside `[0, 1]`).
    pub fn from_json(doc: &Json) -> Result<AdversaryPlan, TraceError> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(ADVERSARY_SCHEMA) => {}
            Some(other) => {
                return Err(TraceError::InvalidDataset(format!(
                    "unknown adversary plan schema {other:?} (expected {ADVERSARY_SCHEMA:?})"
                )))
            }
            None => return Err(miss("schema")),
        }
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| miss("seed"))?;
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_arr)
                .ok_or_else(|| miss(name))
        };
        let sybils = field("sybils")?
            .iter()
            .map(|s| {
                Ok(SybilInflux {
                    campaign: idx_of(s, "campaign")?,
                    round: idx_of(s, "round")?,
                    count: idx_of(s, "count")?,
                })
            })
            .collect::<Result<_, TraceError>>()?;
        let splits = field("splits")?
            .iter()
            .map(|s| {
                Ok(CommunitySplit {
                    campaign: idx_of(s, "campaign")?,
                    round: idx_of(s, "round")?,
                })
            })
            .collect::<Result<_, TraceError>>()?;
        let merges = field("merges")?
            .iter()
            .map(|m| {
                Ok(CommunityMerge {
                    first: idx_of(m, "first")?,
                    second: idx_of(m, "second")?,
                    round: idx_of(m, "round")?,
                })
            })
            .collect::<Result<_, TraceError>>()?;
        let underreports = field("underreports")?
            .iter()
            .map(|u| {
                Ok(UnderReport {
                    campaign: idx_of(u, "campaign")?,
                    from_round: idx_of(u, "from_round")?,
                    factor: u
                        .get("factor")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| miss("underreports.factor"))?,
                })
            })
            .collect::<Result<_, TraceError>>()?;
        let plan = AdversaryPlan {
            seed,
            sybils,
            splits,
            merges,
            underreports,
        };
        plan.check_events()?;
        Ok(plan)
    }

    /// Deserializes a plan from a JSON string.
    ///
    /// # Errors
    ///
    /// Same as [`AdversaryPlan::from_json`].
    pub fn from_json_str(text: &str) -> Result<AdversaryPlan, TraceError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Writes the plan to a file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failure.
    pub fn save(&self, path: &std::path::Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_json_string()).map_err(TraceError::Io)
    }

    /// Reads a plan from a file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failure and
    /// [`TraceError::InvalidDataset`] on malformed content.
    pub fn load(path: &std::path::Path) -> Result<AdversaryPlan, TraceError> {
        Self::from_json_str(&std::fs::read_to_string(path)?)
    }

    /// Validates event references against a base trace's shape, after
    /// the checks the loader applies too.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidDataset`] for out-of-range campaign
    /// indices or rounds, degenerate merges, zero sybil counts, or
    /// factors outside `[0, 1]`.
    pub fn validate(&self, n_campaigns: usize, n_rounds: usize) -> Result<(), TraceError> {
        self.check_events()?;
        let bad = |msg: String| Err(TraceError::InvalidDataset(msg));
        let check_campaign = |what: &str, c: usize| {
            if c >= n_campaigns {
                bad(format!(
                    "{what} references campaign {c} but the base trace has {n_campaigns}"
                ))
            } else {
                Ok(())
            }
        };
        let check_round = |what: &str, r: usize| {
            if r >= n_rounds {
                bad(format!(
                    "{what} schedules round {r} but the base trace has {n_rounds} rounds"
                ))
            } else {
                Ok(())
            }
        };
        for s in &self.sybils {
            check_campaign("sybil influx", s.campaign)?;
            check_round("sybil influx", s.round)?;
        }
        for s in &self.splits {
            check_campaign("split", s.campaign)?;
            check_round("split", s.round)?;
        }
        for m in &self.merges {
            check_campaign("merge", m.first)?;
            check_campaign("merge", m.second)?;
            check_round("merge", m.round)?;
        }
        for u in &self.underreports {
            check_campaign("under-report", u.campaign)?;
            check_round("under-report", u.from_round)?;
        }
        Ok(())
    }

    /// The checks that need no base trace: every sybil influx adds a
    /// sybil, no campaign merges with itself, and every under-report
    /// factor lies in `[0, 1]`.
    fn check_events(&self) -> Result<(), TraceError> {
        let bad = |msg: String| Err(TraceError::InvalidDataset(msg));
        if self.sybils.iter().any(|s| s.count == 0) {
            return bad("sybil influx has count 0".into());
        }
        if let Some(m) = self.merges.iter().find(|m| m.first == m.second) {
            return bad(format!("merge of campaign {} with itself", m.first));
        }
        if let Some(u) = self.underreports.iter().find(|u| !(0.0..=1.0).contains(&u.factor)) {
            return bad(format!("under-report factor {} outside [0, 1]", u.factor));
        }
        Ok(())
    }
}

fn miss(name: &str) -> TraceError {
    TraceError::InvalidDataset(format!("adversary plan is missing field {name:?}"))
}

fn idx_of(doc: &Json, name: &str) -> Result<usize, TraceError> {
    doc.get(name).and_then(Json::as_idx).ok_or_else(|| miss(name))
}

/// Parameters of the seeded adversary-plan sampler. Probabilities are
/// per campaign (merges: per disjoint campaign pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryPlanConfig {
    /// RNG seed; the same seed and config always yield the same plan.
    pub seed: u64,
    /// Number of campaigns in the base trace.
    pub n_campaigns: usize,
    /// Number of rounds in the base trace.
    pub n_rounds: usize,
    /// Chance a campaign splits.
    pub split_prob: f64,
    /// Chance a disjoint campaign pair `(2k, 2k+1)` merges.
    pub merge_prob: f64,
    /// Chance a campaign receives a sybil influx.
    pub sybil_prob: f64,
    /// Influx sizes are drawn uniformly from `1..=max_sybils`.
    pub max_sybils: usize,
    /// Chance a campaign under-reports.
    pub underreport_prob: f64,
    /// Under-report factors are drawn uniformly from `[min_factor, 1)`.
    pub min_factor: f64,
}

impl Default for AdversaryPlanConfig {
    fn default() -> Self {
        AdversaryPlanConfig {
            seed: 42,
            n_campaigns: 8,
            n_rounds: 8,
            split_prob: 0.25,
            merge_prob: 0.25,
            sybil_prob: 0.25,
            max_sybils: 4,
            underreport_prob: 0.25,
            min_factor: 0.2,
        }
    }
}

impl AdversaryPlanConfig {
    /// Samples a concrete [`AdversaryPlan`] — deterministically in
    /// `(self, seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidDataset`] when a probability is
    /// outside `[0, 1]`, `min_factor` is outside `[0, 1]` (or is 1 while
    /// `underreport_prob` is positive: the factor range `[min_factor, 1)`
    /// would be empty), `max_sybils` is zero while `sybil_prob` is
    /// positive, or fewer than two rounds exist while any event
    /// probability is positive.
    pub fn generate(&self) -> Result<AdversaryPlan, TraceError> {
        let bad = |msg: String| Err(TraceError::InvalidDataset(msg));
        for (name, p) in [
            ("split_prob", self.split_prob),
            ("merge_prob", self.merge_prob),
            ("sybil_prob", self.sybil_prob),
            ("underreport_prob", self.underreport_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return bad(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if !(0.0..=1.0).contains(&self.min_factor) {
            return bad(format!("min_factor must be in [0, 1], got {}", self.min_factor));
        }
        if self.underreport_prob > 0.0 && self.min_factor >= 1.0 {
            return bad(format!(
                "min_factor must be below 1 when underreport_prob > 0, got {}",
                self.min_factor
            ));
        }
        if self.sybil_prob > 0.0 && self.max_sybils == 0 {
            return bad("max_sybils must be >= 1 when sybil_prob > 0".into());
        }
        let any_event = self.split_prob > 0.0
            || self.merge_prob > 0.0
            || self.sybil_prob > 0.0
            || self.underreport_prob > 0.0;
        if any_event && self.n_rounds < 2 {
            return bad("at least 2 rounds are needed to schedule mid-trace events".into());
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut plan = AdversaryPlan {
            seed: self.seed,
            ..AdversaryPlan::default()
        };
        // Mid-trace rounds only (1..n_rounds): round-0 churn is the
        // static case the base generator already covers.
        for campaign in 0..self.n_campaigns {
            if self.split_prob > 0.0 && rng.gen_bool(self.split_prob) {
                plan.splits.push(CommunitySplit {
                    campaign,
                    round: rng.gen_range(1..self.n_rounds),
                });
            }
            if self.sybil_prob > 0.0 && rng.gen_bool(self.sybil_prob) {
                plan.sybils.push(SybilInflux {
                    campaign,
                    round: rng.gen_range(1..self.n_rounds),
                    count: rng.gen_range(1..=self.max_sybils),
                });
            }
            if self.underreport_prob > 0.0 && rng.gen_bool(self.underreport_prob) {
                plan.underreports.push(UnderReport {
                    campaign,
                    from_round: rng.gen_range(1..self.n_rounds),
                    factor: rng.gen_range(self.min_factor..1.0),
                });
            }
        }
        let mut pair = 0usize;
        while pair + 1 < self.n_campaigns {
            if self.merge_prob > 0.0 && rng.gen_bool(self.merge_prob) {
                plan.merges.push(CommunityMerge {
                    first: pair,
                    second: pair + 1,
                    round: rng.gen_range(1..self.n_rounds),
                });
            }
            pair += 2;
        }
        Ok(plan)
    }
}

/// A base synthetic workload plus an adversary plan to apply over it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialConfig {
    /// The calibrated base generator.
    pub base: SyntheticConfig,
    /// The adversarial schedule applied on top.
    pub plan: AdversaryPlan,
}

impl AdversarialConfig {
    /// Generates the adversarial trace.
    ///
    /// The base draw sequence is untouched — an empty plan returns the
    /// exact [`SyntheticConfig::generate`] trace — and all apply-time
    /// draws come from an RNG seeded by `(base seed, plan seed)`, so
    /// the result is byte-deterministic in the pair.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidDataset`] when the plan references
    /// campaigns or rounds outside the base trace's shape.
    pub fn generate(&self) -> Result<TraceDataset, TraceError> {
        let base = self.base.generate();
        if self.plan.is_empty() {
            return Ok(base);
        }
        self.plan
            .validate(base.campaigns().len(), self.base.n_rounds)?;

        let mut products: Vec<Product> = base.products().to_vec();
        let mut reviewers: Vec<Reviewer> = base.reviewers().to_vec();
        let mut reviews: Vec<Review> = base.reviews().to_vec();
        let mut campaigns: Vec<Campaign> = base.campaigns().to_vec();

        // Mix the two seeds so adversary draws vary with either half of
        // the determinism pair but depend on nothing else.
        let mut rng = StdRng::seed_from_u64(self.base.seed.rotate_left(32) ^ self.plan.seed);
        let cm = self.base.cm;
        let n_rounds = self.base.n_rounds.max(1);

        // --- Phase 1: splits -------------------------------------------
        let mut splits = self.plan.splits.clone();
        splits.sort_by_key(|s| (s.round, s.campaign));
        for split in &splits {
            let old = &campaigns[split.campaign];
            let members = old.members.clone();
            if members.len() < 2 {
                continue; // nothing left to secede (e.g. split twice)
            }
            let splinter: Vec<ReviewerId> = members[members.len() - members.len() / 2..].to_vec();
            let keep: Vec<ReviewerId> = members[..members.len() - members.len() / 2].to_vec();
            let old_targets = old.targets.clone();

            // Fresh targets for the splinter, qualities drawn like the
            // base catalogue's.
            let new_targets: Vec<ProductId> = (0..SPLIT_TARGETS)
                .map(|_| {
                    let id = ProductId(products.len());
                    products.push(Product {
                        id,
                        true_quality: rng.gen_range(1.5..5.0),
                    });
                    id
                })
                .collect();
            let new_cid = campaigns.len();
            campaigns[split.campaign].members = keep;
            campaigns.push(Campaign {
                id: new_cid,
                members: splinter.clone(),
                targets: new_targets.clone(),
            });
            let splinter_set: BTreeSet<ReviewerId> = splinter.iter().copied().collect();
            for m in &splinter {
                reviewers[m.index()].campaign = Some(new_cid);
            }
            // Redirect the splinter's post-split reviews off the old
            // shared targets (position-preserving).
            for review in reviews.iter_mut() {
                if review.round >= split.round && splinter_set.contains(&review.reviewer) {
                    if let Some(pos) = old_targets.iter().position(|t| *t == review.product) {
                        review.product = new_targets[pos % new_targets.len()];
                    }
                }
            }
        }

        // --- Phase 2: merges -------------------------------------------
        let mut merges = self.plan.merges.clone();
        merges.sort_by_key(|m| (m.round, m.first, m.second));
        for merge in &merges {
            let absorbed = std::mem::take(&mut campaigns[merge.second].members);
            let bridge_opt = campaigns[merge.first].targets.first().copied();
            let Some(bridge) = bridge_opt else {
                campaigns[merge.second].members = absorbed;
                continue;
            };
            let quality = products[bridge.index()].true_quality;
            let mut all: Vec<ReviewerId> = campaigns[merge.first].members.clone();
            all.extend(absorbed.iter().copied());
            for m in &absorbed {
                reviewers[m.index()].campaign = Some(merge.first);
            }
            campaigns[merge.first].members = all.clone();
            for member in &all {
                let stars = (quality + cm.star_bias + normal(&mut rng) * cm.star_noise)
                    .clamp(1.0, 5.0);
                let effort = draw_effort(&mut rng, &cm);
                let upvotes = (cm.effort_response.eval(effort)
                    + normal(&mut rng) * cm.noise_sd
                    + self.base.collusion_boost_per_partner * (all.len() - 1) as f64)
                    .max(0.1);
                reviews.push(Review {
                    reviewer: *member,
                    product: bridge,
                    round: merge.round,
                    stars,
                    length_chars: rng.gen_range(50..400),
                    upvotes,
                });
            }
        }

        // --- Phase 3: sybil influxes -----------------------------------
        let mut sybils = self.plan.sybils.clone();
        sybils.sort_by_key(|s| (s.round, s.campaign));
        for influx in &sybils {
            let targets = campaigns[influx.campaign].targets.clone();
            if targets.is_empty() {
                continue;
            }
            for _ in 0..influx.count {
                let id = ReviewerId(reviewers.len());
                reviewers.push(Reviewer {
                    id,
                    class: WorkerClass::CollusiveMalicious,
                    campaign: Some(influx.campaign),
                    is_expert: false,
                });
                campaigns[influx.campaign].members.push(id);
                let partners = campaigns[influx.campaign].members.len() - 1;
                for round in influx.round..n_rounds {
                    let target = targets[(round - influx.round) % targets.len()];
                    let quality = products[target.index()].true_quality;
                    let stars = (quality + cm.star_bias + normal(&mut rng) * cm.star_noise)
                        .clamp(1.0, 5.0);
                    let effort = draw_effort(&mut rng, &cm);
                    let upvotes = (cm.effort_response.eval(effort)
                        + normal(&mut rng) * cm.noise_sd
                        + self.base.collusion_boost_per_partner * partners as f64)
                        .max(0.1);
                    reviews.push(Review {
                        reviewer: id,
                        product: target,
                        round,
                        stars,
                        length_chars: rng.gen_range(50..400),
                        upvotes,
                    });
                }
            }
        }

        // --- Phase 4: under-reports ------------------------------------
        // Resolved against the membership standing after the structural
        // phases (a worker's `campaign` field), so split/merge movement
        // and sybils are covered.
        let mut underreports = self.plan.underreports.clone();
        underreports.sort_by(|a, b| {
            (a.from_round, a.campaign)
                .cmp(&(b.from_round, b.campaign))
                .then(a.factor.total_cmp(&b.factor))
        });
        for ur in &underreports {
            for review in reviews.iter_mut() {
                if review.round < ur.from_round {
                    continue;
                }
                let member = reviewers
                    .get(review.reviewer.index())
                    .is_some_and(|r| r.campaign == Some(ur.campaign));
                if !member {
                    continue;
                }
                review.upvotes = (review.upvotes * ur.factor).max(0.1);
                let quality = products[review.product.index()].true_quality;
                review.stars =
                    (quality + (review.stars - quality) * ur.factor).clamp(1.0, 5.0);
            }
        }

        // --- Renumber campaigns ----------------------------------------
        // Drop empty (fully merged-away) campaigns and renumber in order
        // of first member id, so a replay through the streaming service
        // creates campaigns densely, never skipping ahead.
        let mut keep: Vec<Campaign> = campaigns
            .into_iter()
            .filter(|c| !c.members.is_empty())
            .collect();
        keep.sort_by_key(|c| c.members.iter().map(|m| m.index()).min().unwrap_or(usize::MAX));
        for (new_id, c) in keep.iter_mut().enumerate() {
            for m in &c.members {
                reviewers[m.index()].campaign = Some(new_id);
            }
            c.id = new_id;
        }

        TraceDataset::new(products, reviewers, reviews, keep)
    }
}

/// A latent effort draw under a class behaviour, capped below the
/// response peak like the base generator's workers.
fn draw_effort(rng: &mut StdRng, behavior: &crate::ClassBehavior) -> f64 {
    let cap = behavior
        .effort_response
        .peak()
        .map(|p| 0.95 * p)
        .unwrap_or(f64::INFINITY);
    truncated_normal(
        rng,
        behavior.effort_mean,
        behavior.effort_sd,
        0.3,
        (behavior.effort_mean + 4.0 * behavior.effort_sd).min(cap),
    )
}

/// Standard-normal draw via Box–Muller (same scheme as the base
/// generator; a separate RNG stream, so the base sequence is untouched).
fn normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal draw truncated (by clamping) to `[lo, hi]`.
fn truncated_normal<R: Rng>(rng: &mut R, mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    (mean + normal(rng) * sd).clamp(lo, hi)
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn busy_plan_for(seed: u64, base: &SyntheticConfig) -> AdversaryPlan {
        AdversaryPlanConfig {
            seed,
            n_campaigns: base.generate().campaigns().len(),
            n_rounds: base.n_rounds,
            split_prob: 0.5,
            merge_prob: 0.5,
            sybil_prob: 0.5,
            underreport_prob: 0.5,
            ..AdversaryPlanConfig::default()
        }
        .generate()
        .unwrap()
    }

    fn busy_plan(seed: u64) -> AdversaryPlan {
        busy_plan_for(seed, &SyntheticConfig::small(7))
    }

    fn traces_identical(a: &TraceDataset, b: &TraceDataset) -> bool {
        a.products() == b.products()
            && a.reviewers() == b.reviewers()
            && a.campaigns() == b.campaigns()
            && a.reviews().len() == b.reviews().len()
            && a.reviews().iter().zip(b.reviews()).all(|(x, y)| {
                x.reviewer == y.reviewer
                    && x.product == y.product
                    && x.round == y.round
                    && x.stars.to_bits() == y.stars.to_bits()
                    && x.length_chars == y.length_chars
                    && x.upvotes.to_bits() == y.upvotes.to_bits()
            })
    }

    #[test]
    fn empty_plan_is_byte_identical_to_base() {
        let base = SyntheticConfig::small(31).generate();
        let adv = AdversarialConfig {
            base: SyntheticConfig::small(31),
            plan: AdversaryPlan::default(),
        }
        .generate()
        .unwrap();
        assert!(traces_identical(&base, &adv));
    }

    #[test]
    fn generation_is_byte_deterministic_in_seed_and_plan() {
        let cfg = AdversarialConfig {
            base: SyntheticConfig::small(7),
            plan: busy_plan(3),
        };
        let a = cfg.generate().unwrap();
        let b = cfg.generate().unwrap();
        assert!(traces_identical(&a, &b), "same (seed, plan) must agree");

        let other_plan = AdversarialConfig {
            base: SyntheticConfig::small(7),
            plan: busy_plan(4),
        }
        .generate()
        .unwrap();
        assert!(!traces_identical(&a, &other_plan), "plan must matter");

        // Base-seed sensitivity, with a hand-written plan valid for any
        // small base (at least 3 campaigns exist at n_cm_target = 40).
        let modest = AdversaryPlan {
            seed: 9,
            sybils: vec![SybilInflux { campaign: 2, round: 3, count: 2 }],
            splits: vec![CommunitySplit { campaign: 0, round: 2 }],
            merges: vec![CommunityMerge { first: 0, second: 1, round: 5 }],
            underreports: vec![UnderReport { campaign: 1, from_round: 4, factor: 0.5 }],
        };
        let on_seed_7 = AdversarialConfig {
            base: SyntheticConfig::small(7),
            plan: modest.clone(),
        }
        .generate()
        .unwrap();
        let on_seed_8 = AdversarialConfig {
            base: SyntheticConfig::small(8),
            plan: modest,
        }
        .generate()
        .unwrap();
        assert!(!traces_identical(&on_seed_7, &on_seed_8), "base seed must matter");
    }

    #[test]
    fn plan_sampler_is_deterministic() {
        assert_eq!(busy_plan(5), busy_plan(5));
        assert_ne!(busy_plan(5), busy_plan(6));
        assert!(!busy_plan(5).is_empty());
    }

    #[test]
    fn json_round_trip_preserves_the_plan() {
        let plan = busy_plan(11);
        let back = AdversaryPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut doc = busy_plan(1).to_json();
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::Str("dcc-adversary/99".into());
        }
        let err = AdversaryPlan::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown adversary plan schema"), "{err}");
        let no_schema = Json::Obj(vec![]);
        assert!(AdversaryPlan::from_json(&no_schema).is_err());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let base = SyntheticConfig::small(2);
        let n = base.generate().campaigns().len();
        for plan in [
            AdversaryPlan {
                sybils: vec![SybilInflux { campaign: n, round: 1, count: 2 }],
                ..AdversaryPlan::default()
            },
            AdversaryPlan {
                sybils: vec![SybilInflux { campaign: 0, round: 1, count: 0 }],
                ..AdversaryPlan::default()
            },
            AdversaryPlan {
                splits: vec![CommunitySplit { campaign: 0, round: 99 }],
                ..AdversaryPlan::default()
            },
            AdversaryPlan {
                merges: vec![CommunityMerge { first: 1, second: 1, round: 1 }],
                ..AdversaryPlan::default()
            },
            AdversaryPlan {
                underreports: vec![UnderReport { campaign: 0, from_round: 1, factor: 1.5 }],
                ..AdversaryPlan::default()
            },
        ] {
            let cfg = AdversarialConfig { base: base.clone(), plan };
            assert!(cfg.generate().is_err());
        }
    }

    #[test]
    fn the_loader_refuses_events_no_trace_admits() {
        let underreport = |factor| AdversaryPlan {
            underreports: vec![UnderReport { campaign: 0, from_round: 1, factor }],
            ..AdversaryPlan::default()
        };
        for (plan, what) in [
            (underreport(f64::NAN), "factor NaN outside"),
            (underreport(-5.0), "factor -5 outside"),
            (
                AdversaryPlan {
                    sybils: vec![SybilInflux { campaign: 0, round: 1, count: 0 }],
                    ..AdversaryPlan::default()
                },
                "count 0",
            ),
            (
                AdversaryPlan {
                    merges: vec![CommunityMerge { first: 1, second: 1, round: 1 }],
                    ..AdversaryPlan::default()
                },
                "with itself",
            ),
        ] {
            let err = AdversaryPlan::from_json_str(&plan.to_json_string()).unwrap_err();
            assert!(matches!(err, TraceError::InvalidDataset(_)), "{err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn invalid_sampler_configs_are_rejected() {
        for bad in [
            AdversaryPlanConfig { split_prob: 1.5, ..AdversaryPlanConfig::default() },
            AdversaryPlanConfig { min_factor: -0.1, ..AdversaryPlanConfig::default() },
            AdversaryPlanConfig { sybil_prob: 0.5, max_sybils: 0, ..AdversaryPlanConfig::default() },
            AdversaryPlanConfig { n_rounds: 1, ..AdversaryPlanConfig::default() },
            AdversaryPlanConfig {
                underreport_prob: 1.0,
                min_factor: 1.0,
                ..AdversaryPlanConfig::default()
            },
        ] {
            assert!(bad.generate().is_err());
        }
        // Without under-reporting the factor is never sampled.
        let unused = AdversaryPlanConfig {
            underreport_prob: 0.0,
            min_factor: 1.0,
            ..AdversaryPlanConfig::default()
        };
        assert!(unused.generate().is_ok());
    }

    #[test]
    fn split_creates_a_new_campaign_with_fresh_targets() {
        let base_cfg = SyntheticConfig::small(9);
        let base = base_cfg.generate();
        let n_products = base.products().len();
        let n_campaigns = base.campaigns().len();
        let trace = AdversarialConfig {
            base: base_cfg,
            plan: AdversaryPlan {
                seed: 1,
                splits: vec![CommunitySplit { campaign: 0, round: 2 }],
                ..AdversaryPlan::default()
            },
        }
        .generate()
        .unwrap();
        assert_eq!(trace.campaigns().len(), n_campaigns + 1);
        assert_eq!(trace.products().len(), n_products + SPLIT_TARGETS);
        // Every campaign's members carry the campaign's own (dense) id.
        for c in trace.campaigns() {
            assert!(!c.members.is_empty());
            for m in &c.members {
                assert_eq!(trace.reviewer(*m).unwrap().campaign, Some(c.id));
            }
        }
        // Campaign ids are dense and ordered by first member id (the
        // streaming-replay protocol requirement).
        let firsts: Vec<usize> = trace
            .campaigns()
            .iter()
            .map(|c| c.members.iter().map(|m| m.index()).min().unwrap())
            .collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "{firsts:?}");
    }

    #[test]
    fn merge_moves_members_and_bridges_reviews() {
        let base_cfg = SyntheticConfig::small(12);
        let base = base_cfg.generate();
        let n_campaigns = base.campaigns().len();
        assert!(n_campaigns >= 2, "small config grows several campaigns");
        let a_size = base.campaigns()[0].size();
        let b_size = base.campaigns()[1].size();
        let bridge = base.campaigns()[0].targets[0];
        let trace = AdversarialConfig {
            base: base_cfg,
            plan: AdversaryPlan {
                seed: 2,
                merges: vec![CommunityMerge { first: 0, second: 1, round: 3 }],
                ..AdversaryPlan::default()
            },
        }
        .generate()
        .unwrap();
        assert_eq!(trace.campaigns().len(), n_campaigns - 1);
        assert_eq!(trace.campaigns()[0].size(), a_size + b_size);
        let bridge_reviews = trace
            .reviews_for(bridge)
            .iter()
            .filter(|r| r.round == 3)
            .count();
        assert!(
            bridge_reviews >= a_size + b_size,
            "all merged members bridge at the merge round"
        );
    }

    #[test]
    fn sybils_join_with_collusive_behavior() {
        let base_cfg = SyntheticConfig::small(14);
        let base = base_cfg.generate();
        let n_workers = base.reviewers().len();
        let trace = AdversarialConfig {
            base: base_cfg,
            plan: AdversaryPlan {
                seed: 3,
                sybils: vec![SybilInflux { campaign: 0, round: 4, count: 5 }],
                ..AdversaryPlan::default()
            },
        }
        .generate()
        .unwrap();
        assert_eq!(trace.reviewers().len(), n_workers + 5);
        for id in n_workers..n_workers + 5 {
            let r = trace.reviewer(ReviewerId(id)).unwrap();
            assert_eq!(r.class, WorkerClass::CollusiveMalicious);
            assert_eq!(r.campaign, Some(0));
            let reviews = trace.reviews_by(ReviewerId(id));
            assert!(!reviews.is_empty());
            assert!(reviews.iter().all(|rv| rv.round >= 4), "no pre-join reviews");
        }
    }

    #[test]
    fn under_reporting_damps_upvotes_and_star_bias() {
        let base_cfg = SyntheticConfig::small(16);
        let base = base_cfg.generate();
        let members: BTreeSet<ReviewerId> =
            base.campaigns()[0].members.iter().copied().collect();
        let trace = AdversarialConfig {
            base: base_cfg,
            plan: AdversaryPlan {
                seed: 4,
                underreports: vec![UnderReport { campaign: 0, from_round: 0, factor: 0.25 }],
                ..AdversaryPlan::default()
            },
        }
        .generate()
        .unwrap();
        for (orig, damped) in base.reviews().iter().zip(trace.reviews()) {
            if members.contains(&orig.reviewer) {
                assert!(damped.upvotes <= orig.upvotes);
                let q = base.product(orig.product).unwrap().true_quality;
                assert!(
                    (damped.stars - q).abs() <= (orig.stars - q).abs() + 1e-12,
                    "bias must shrink toward truth"
                );
            } else {
                assert_eq!(damped.upvotes.to_bits(), orig.upvotes.to_bits());
            }
        }
    }
}
