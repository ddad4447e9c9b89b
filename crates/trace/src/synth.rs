use crate::dataset::EFFORT_SCALE;
use crate::{
    sample_community_size, Campaign, ColumnarBuilder, ColumnarTrace, Product, ProductId, Review,
    Reviewer, ReviewerId, TraceDataset, WorkerClass,
};
use dcc_numerics::Quadratic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Class-conditional generative behaviour.
///
/// Each worker class responds to effort with a concave quadratic (the
/// ground truth behind §IV-B's fits), draws latent effort levels from a
/// truncated normal, perturbs feedback with additive noise (which makes
/// Table III's norm-of-residuals flatten from the quadratic onward), and
/// biases its star ratings relative to the product's true quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassBehavior {
    /// Ground-truth effort→feedback response ψ (concave, increasing on
    /// the generated effort range).
    pub effort_response: Quadratic,
    /// Standard deviation of additive feedback noise.
    pub noise_sd: f64,
    /// Mean of the latent per-worker effort level.
    pub effort_mean: f64,
    /// Standard deviation of the latent per-worker effort level.
    pub effort_sd: f64,
    /// Systematic star-rating bias added to the product's true quality
    /// (malicious classes push ratings up).
    pub star_bias: f64,
    /// Standard deviation of star-rating noise.
    pub star_noise: f64,
}

/// Configuration of the synthetic trace generator.
///
/// Use [`SyntheticConfig::paper_scale`] for the full §V workload and
/// [`SyntheticConfig::small`] for fast tests; every field can be tuned
/// afterwards.
///
/// # Example
///
/// ```
/// use dcc_trace::SyntheticConfig;
///
/// let mut cfg = SyntheticConfig::small(1);
/// cfg.n_honest = 100;
/// let trace = cfg.generate();
/// assert_eq!(
///     trace.workers_of_class(dcc_trace::WorkerClass::Honest).len(),
///     100
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// RNG seed; equal seeds produce identical traces.
    pub seed: u64,
    /// Number of honest workers.
    pub n_honest: usize,
    /// Number of non-collusive malicious workers.
    pub n_ncm: usize,
    /// Target number of collusive malicious workers; the generator adds
    /// whole communities (sized per Table II) until this is reached, so
    /// the realized count may exceed it by at most one community.
    pub n_cm_target: usize,
    /// Number of products in the catalogue.
    pub n_products: usize,
    /// Number of task rounds reviews are spread over.
    pub n_rounds: usize,
    /// Fraction of honest workers marked as experts.
    pub expert_fraction: f64,
    /// Probability that an honest worker is "prolific" (drawing 20–40
    /// reviews instead of 2–9) — calibrates Fig. 8(a)'s ≥20-review filter.
    pub prolific_fraction: f64,
    /// Behaviour of honest workers.
    pub honest: ClassBehavior,
    /// Behaviour of non-collusive malicious workers.
    pub ncm: ClassBehavior,
    /// Behaviour of collusive malicious workers.
    pub cm: ClassBehavior,
    /// Extra upvotes a collusive review receives per community partner
    /// (mutual upvoting — the Fig. 7 feedback inflation).
    pub collusion_boost_per_partner: f64,
}

impl SyntheticConfig {
    /// Default class behaviours shared by both scales.
    ///
    /// The responses carry pronounced curvature (ψ′ spans roughly a 10×
    /// range over the observed effort region) so that the requester's
    /// interior trade-off `ψ′(y*) = μβ/w` moves visibly with the
    /// per-worker weight `w` — the effect behind the Fig. 8(a)/8(b)
    /// distributions.
    fn default_behaviors() -> (ClassBehavior, ClassBehavior, ClassBehavior) {
        let honest = ClassBehavior {
            effort_response: Quadratic::new(-0.15, 2.5, 1.0),
            noise_sd: 1.0,
            effort_mean: 5.0,
            effort_sd: 1.5,
            star_bias: 0.0,
            star_noise: 0.5,
        };
        let ncm = ClassBehavior {
            effort_response: Quadratic::new(-0.14, 2.3, 0.8),
            noise_sd: 0.35,
            effort_mean: 4.5,
            effort_sd: 1.5,
            star_bias: 1.8,
            star_noise: 0.6,
        };
        let cm = ClassBehavior {
            effort_response: Quadratic::new(-0.13, 2.0, 0.5),
            noise_sd: 1.2,
            effort_mean: 5.0,
            effort_sd: 1.6,
            star_bias: 2.2,
            star_noise: 0.5,
        };
        (honest, ncm, cm)
    }

    /// The full workload of §V: 18,176 honest workers, 1,312 non-collusive
    /// malicious workers, ≈212 collusive workers in Table II-sized
    /// communities, 75,508 products, ≈118k reviews.
    pub fn paper_scale(seed: u64) -> Self {
        let (honest, ncm, cm) = Self::default_behaviors();
        SyntheticConfig {
            seed,
            n_honest: 18_176,
            n_ncm: 1_312,
            n_cm_target: 212,
            n_products: 75_508,
            n_rounds: 24,
            expert_fraction: 0.02,
            prolific_fraction: 0.02,
            honest,
            ncm,
            cm,
            collusion_boost_per_partner: 4.0,
        }
    }

    /// A test-sized workload (hundreds of workers) with the same
    /// behavioural calibration.
    pub fn small(seed: u64) -> Self {
        let (honest, ncm, cm) = Self::default_behaviors();
        SyntheticConfig {
            seed,
            n_honest: 300,
            n_ncm: 60,
            n_cm_target: 40,
            n_products: 800,
            n_rounds: 8,
            expert_fraction: 0.05,
            prolific_fraction: 0.05,
            honest,
            ncm,
            cm,
            collusion_boost_per_partner: 4.0,
        }
    }

    /// Behaviour record for a class.
    pub fn behavior(&self, class: WorkerClass) -> &ClassBehavior {
        match class {
            WorkerClass::Honest => &self.honest,
            WorkerClass::NonCollusiveMalicious => &self.ncm,
            WorkerClass::CollusiveMalicious => &self.cm,
        }
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no products, or a
    /// product catalogue too small to give each malicious worker or
    /// community dedicated targets). Both `paper_scale` and `small` are
    /// always valid.
    pub fn generate(&self) -> TraceDataset {
        let mut sink = StructSink::default();
        self.generate_impl(&mut sink);
        #[allow(clippy::expect_used)] // the roundtrip tests exercise every generator path
        TraceDataset::new(sink.products, sink.reviewers, sink.reviews, sink.campaigns)
            .expect("generator produces a consistent dataset")
    }

    /// Generates the trace directly into columnar buffers.
    ///
    /// This runs the exact same draw sequence as [`SyntheticConfig::generate`]
    /// (equal seeds produce bit-identical content either way) but streams
    /// every row into a [`ColumnarBuilder`], so multi-million-worker traces
    /// never materialize `Vec<Reviewer>` / `Vec<Review>` struct rows.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as
    /// [`SyntheticConfig::generate`].
    pub fn generate_columnar(&self) -> ColumnarTrace {
        let mut sink = ColumnarBuilder::new();
        self.generate_impl(&mut sink);
        sink.finish()
    }

    /// The generator proper: one pass of RNG draws streamed into `sink`.
    ///
    /// Any change to the draw sequence here shifts every downstream value
    /// for a given seed — the golden snapshots (`tests/golden/`) pin the
    /// current sequence.
    fn generate_impl<S: TraceSink>(&self, sink: &mut S) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        assert!(self.n_products > 0, "catalogue must be nonempty");

        // --- Products -----------------------------------------------------
        for _ in 0..self.n_products {
            sink.add_product(rng.gen_range(1.5..5.0));
        }

        // --- Campaign layout (Table II sizes) ------------------------------
        let mut campaign_sizes: Vec<usize> = Vec::new();
        let mut cm_members = 0usize;
        while cm_members < self.n_cm_target {
            let size = sample_community_size(&mut rng);
            campaign_sizes.push(size);
            cm_members += size;
        }
        let n_cm: usize = campaign_sizes.iter().sum();

        // --- Reviewer ids: honest, then NCM, then CM grouped by campaign ---
        let n_total = self.n_honest + self.n_ncm + n_cm;
        for _ in 0..self.n_honest {
            sink.add_reviewer(
                WorkerClass::Honest,
                None,
                rng.gen::<f64>() < self.expert_fraction,
            );
        }
        for _ in 0..self.n_ncm {
            sink.add_reviewer(WorkerClass::NonCollusiveMalicious, None, false);
        }
        for (cid, &size) in campaign_sizes.iter().enumerate() {
            for _ in 0..size {
                sink.add_reviewer(WorkerClass::CollusiveMalicious, Some(cid), false);
            }
        }

        // --- Dedicated malicious target products ---------------------------
        // Each NCM worker and each campaign gets targets disjoint from all
        // other malicious actors, so the §IV-A auxiliary graph has exactly
        // the ground-truth components. Honest workers may review anything.
        // The reservation is laid out contiguously — NCM worker j targets
        // products [j·4, j·4+4), campaign c the 3-product block after all
        // NCM reservations — so pools are index ranges, not lookup tables.
        let per_ncm_targets = 4usize;
        let per_campaign_targets = 3usize;
        let reserved = self.n_ncm * per_ncm_targets + campaign_sizes.len() * per_campaign_targets;
        assert!(
            reserved <= self.n_products,
            "catalogue too small: need {reserved} reserved products, have {}",
            self.n_products
        );
        let campaign_target_base = self.n_ncm * per_ncm_targets;

        // Campaign membership is likewise contiguous: blocks of reviewer
        // ids after the honest + NCM prefix, in campaign order.
        let mut member_cursor = self.n_honest + self.n_ncm;
        for (cid, &size) in campaign_sizes.iter().enumerate() {
            let t0 = campaign_target_base + cid * per_campaign_targets;
            sink.add_campaign(
                member_cursor..member_cursor + size,
                t0..t0 + per_campaign_targets,
            );
            member_cursor += size;
        }

        // Maps a CM reviewer's offset past the honest + NCM prefix to its
        // campaign (tiny: one entry per collusive worker).
        let mut campaign_of: Vec<usize> = Vec::with_capacity(n_cm);
        for (cid, &size) in campaign_sizes.iter().enumerate() {
            campaign_of.extend(std::iter::repeat_n(cid, size));
        }

        // --- Reviews -------------------------------------------------------
        // Per worker: draw a latent effort level, a review count, then for
        // each review draw effort, feedback (ψ(effort) + noise, plus the
        // collusion boost), stars, and finally back out the review length so
        // the dataset's derived effort (expertise × length × scale) equals
        // the intended effort exactly. The scratch buffers are reused across
        // workers; nothing per-review survives beyond the sink push.
        let mut product_buf: Vec<usize> = Vec::new();
        let mut drafts: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
        for id in 0..n_total {
            let (class, campaign) = if id < self.n_honest {
                (WorkerClass::Honest, None)
            } else if id < self.n_honest + self.n_ncm {
                (WorkerClass::NonCollusiveMalicious, None)
            } else {
                let cid = campaign_of[id - self.n_honest - self.n_ncm];
                (WorkerClass::CollusiveMalicious, Some(cid))
            };
            let behavior = *self.behavior(class);
            // No rational worker exerts effort past the feedback peak
            // (feedback would fall while cost rises), so the generated
            // efforts stay inside the increasing branch of ψ.
            let effort_cap = behavior
                .effort_response
                .peak()
                .map(|p| 0.95 * p)
                .unwrap_or(f64::INFINITY);
            let latent_effort = truncated_normal(
                &mut rng,
                behavior.effort_mean,
                behavior.effort_sd,
                0.3,
                (behavior.effort_mean + 4.0 * behavior.effort_sd).min(effort_cap),
            );

            let n_reviews = match class {
                WorkerClass::Honest => {
                    if rng.gen::<f64>() < self.prolific_fraction {
                        rng.gen_range(20..=40)
                    } else {
                        rng.gen_range(2..=10)
                    }
                }
                WorkerClass::NonCollusiveMalicious => rng.gen_range(2..=per_ncm_targets),
                WorkerClass::CollusiveMalicious => rng.gen_range(2..=per_campaign_targets),
            };

            let partners = campaign
                .map(|cid| campaign_sizes[cid].saturating_sub(1))
                .unwrap_or(0);

            // Products this worker reviews.
            product_buf.clear();
            match class {
                WorkerClass::Honest => {
                    for _ in 0..n_reviews {
                        product_buf.push(rng.gen_range(0..self.n_products));
                    }
                }
                WorkerClass::NonCollusiveMalicious => {
                    let base = (id - self.n_honest) * per_ncm_targets;
                    for k in 0..n_reviews {
                        product_buf.push(base + k % per_ncm_targets);
                    }
                }
                WorkerClass::CollusiveMalicious => match campaign {
                    Some(cid) => {
                        let base = campaign_target_base + cid * per_campaign_targets;
                        for k in 0..n_reviews {
                            product_buf.push(base + k % per_campaign_targets);
                        }
                    }
                    // Unreachable: the generator assigns every CM worker a
                    // campaign. Degrade to honest-style targets.
                    None => {
                        for _ in 0..n_reviews {
                            product_buf.push(rng.gen_range(0..self.n_products));
                        }
                    }
                },
            }

            // Draw effort + feedback for each review first.
            drafts.clear();
            for (k, &pid) in product_buf.iter().enumerate() {
                let effort = truncated_normal(
                    &mut rng,
                    latent_effort,
                    0.25 * behavior.effort_sd,
                    0.2,
                    (latent_effort + 3.0 * behavior.effort_sd).min(effort_cap),
                );
                let mut feedback = behavior.effort_response.eval(effort)
                    + normal(&mut rng) * behavior.noise_sd;
                if class == WorkerClass::CollusiveMalicious {
                    feedback += self.collusion_boost_per_partner * partners as f64;
                }
                let feedback = feedback.max(0.1);
                let quality = sink.quality(pid);
                let stars = (quality + behavior.star_bias + normal(&mut rng) * behavior.star_noise)
                    .clamp(1.0, 5.0);
                let round = k % self.n_rounds.max(1);
                drafts.push((pid, round, effort, feedback, stars));
            }

            // Expertise will be the mean of the feedback values; choose
            // lengths so expertise × length × EFFORT_SCALE = intended effort.
            let expertise = drafts.iter().map(|d| d.3).sum::<f64>() / drafts.len().max(1) as f64;
            for &(pid, round, effort, feedback, stars) in &drafts {
                let length = if expertise > 0.0 {
                    (effort / (expertise * EFFORT_SCALE)).round().max(1.0) as usize
                } else {
                    (effort * 1000.0).round().max(1.0) as usize
                };
                sink.add_review(id, pid, round, stars, length, feedback);
            }
        }
    }
}

/// Streaming row consumer for the generator: the same draw sequence can
/// materialize either row structs ([`TraceDataset`]) or columnar buffers
/// ([`ColumnarTrace`]) without the generator knowing which.
trait TraceSink {
    /// Appends a product (ids are dense insertion order).
    fn add_product(&mut self, quality: f64);
    /// Quality of an already-added product (stars are biased around it).
    fn quality(&self, i: usize) -> f64;
    /// Appends a reviewer (ids are dense insertion order).
    fn add_reviewer(&mut self, class: WorkerClass, campaign: Option<usize>, is_expert: bool);
    /// Appends a review.
    fn add_review(
        &mut self,
        reviewer: usize,
        product: usize,
        round: usize,
        stars: f64,
        length_chars: usize,
        upvotes: f64,
    );
    /// Appends a campaign; the generator always lays members and targets
    /// out as contiguous id ranges.
    fn add_campaign(&mut self, members: Range<usize>, targets: Range<usize>);
}

/// Sink materializing the classic row-struct vectors.
#[derive(Default)]
struct StructSink {
    products: Vec<Product>,
    reviewers: Vec<Reviewer>,
    reviews: Vec<Review>,
    campaigns: Vec<Campaign>,
}

impl TraceSink for StructSink {
    fn add_product(&mut self, quality: f64) {
        let id = ProductId(self.products.len());
        self.products.push(Product {
            id,
            true_quality: quality,
        });
    }

    fn quality(&self, i: usize) -> f64 {
        self.products.get(i).map_or(f64::NAN, |p| p.true_quality)
    }

    fn add_reviewer(&mut self, class: WorkerClass, campaign: Option<usize>, is_expert: bool) {
        let id = ReviewerId(self.reviewers.len());
        self.reviewers.push(Reviewer {
            id,
            class,
            campaign,
            is_expert,
        });
    }

    fn add_review(
        &mut self,
        reviewer: usize,
        product: usize,
        round: usize,
        stars: f64,
        length_chars: usize,
        upvotes: f64,
    ) {
        self.reviews.push(Review {
            reviewer: ReviewerId(reviewer),
            product: ProductId(product),
            round,
            stars,
            length_chars,
            upvotes,
        });
    }

    fn add_campaign(&mut self, members: Range<usize>, targets: Range<usize>) {
        let id = self.campaigns.len();
        self.campaigns.push(Campaign {
            id,
            members: members.map(ReviewerId).collect(),
            targets: targets.map(ProductId).collect(),
        });
    }
}

impl TraceSink for ColumnarBuilder {
    fn add_product(&mut self, quality: f64) {
        self.push_product(quality);
    }

    fn quality(&self, i: usize) -> f64 {
        self.product_quality(i).unwrap_or(f64::NAN)
    }

    fn add_reviewer(&mut self, class: WorkerClass, campaign: Option<usize>, is_expert: bool) {
        self.push_reviewer(class, campaign, is_expert);
    }

    fn add_review(
        &mut self,
        reviewer: usize,
        product: usize,
        round: usize,
        stars: f64,
        length_chars: usize,
        upvotes: f64,
    ) {
        self.push_review(reviewer, product, round, stars, length_chars, upvotes);
    }

    fn add_campaign(&mut self, members: Range<usize>, targets: Range<usize>) {
        self.push_campaign(members, targets);
    }
}

/// Standard-normal draw via Box–Muller (avoids depending on
/// `rand_distr`, which is not in the offline crate set).
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
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SyntheticConfig::small(11).generate();
        let b = SyntheticConfig::small(11).generate();
        assert_eq!(a.reviews().len(), b.reviews().len());
        assert_eq!(a.reviews()[0], b.reviews()[0]);
        let c = SyntheticConfig::small(12).generate();
        assert_ne!(
            a.reviews()[0], c.reviews()[0],
            "different seeds should differ"
        );
    }

    #[test]
    fn columnar_generation_matches_struct_generation() {
        let cfg = SyntheticConfig::small(13);
        let direct = cfg.generate();
        let col = cfg.generate_columnar().to_dataset().unwrap();
        assert_eq!(direct.products(), col.products());
        assert_eq!(direct.reviewers(), col.reviewers());
        assert_eq!(direct.reviews(), col.reviews());
        assert_eq!(direct.campaigns(), col.campaigns());
        // Bit-exact floats, not just PartialEq on rounded values.
        for (a, b) in direct.reviews().iter().zip(col.reviews()) {
            assert_eq!(a.stars.to_bits(), b.stars.to_bits());
            assert_eq!(a.upvotes.to_bits(), b.upvotes.to_bits());
        }
    }

    #[test]
    fn class_counts_match_config() {
        let cfg = SyntheticConfig::small(3);
        let t = cfg.generate();
        assert_eq!(t.workers_of_class(WorkerClass::Honest).len(), cfg.n_honest);
        assert_eq!(
            t.workers_of_class(WorkerClass::NonCollusiveMalicious).len(),
            cfg.n_ncm
        );
        let cm = t.workers_of_class(WorkerClass::CollusiveMalicious).len();
        assert!(cm >= cfg.n_cm_target, "cm {cm} below target");
        assert!(cm < cfg.n_cm_target + 15, "cm {cm} exceeds target + max community");
    }

    #[test]
    fn campaigns_are_disjoint_and_consistent() {
        let t = SyntheticConfig::small(5).generate();
        let mut seen = std::collections::BTreeSet::new();
        for c in t.campaigns() {
            assert!(c.size() >= 2, "community of size {} is not collusive", c.size());
            for m in &c.members {
                assert!(seen.insert(*m), "worker {m} in two campaigns");
                let r = t.reviewer(*m).unwrap();
                assert_eq!(r.class, WorkerClass::CollusiveMalicious);
                assert_eq!(r.campaign, Some(c.id));
            }
        }
        // Campaign target products are pairwise disjoint.
        let mut targets = std::collections::BTreeSet::new();
        for c in t.campaigns() {
            for p in &c.targets {
                assert!(targets.insert(*p), "product {p} targeted by two campaigns");
            }
        }
    }

    #[test]
    fn derived_effort_matches_intended_range() {
        let t = SyntheticConfig::small(9).generate();
        for r in t.reviews().iter().take(200) {
            let eff = t.effort_of(r);
            assert!(eff > 0.0 && eff < 40.0, "effort {eff} out of plausible range");
            assert!(r.upvotes >= 0.1);
        }
    }

    #[test]
    fn collusive_feedback_exceeds_honest_feedback() {
        let t = SyntheticConfig::small(21).generate();
        let mean_fb = |class| {
            let pts = t.effort_feedback_points(class);
            pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64
        };
        let honest = mean_fb(WorkerClass::Honest);
        let cm = mean_fb(WorkerClass::CollusiveMalicious);
        assert!(
            cm > 1.3 * honest,
            "collusive feedback {cm} should exceed honest {honest} markedly (Fig. 7)"
        );
    }

    #[test]
    fn prolific_honest_workers_exist() {
        let mut cfg = SyntheticConfig::small(2);
        cfg.n_honest = 600;
        let t = cfg.generate();
        let prolific = t.prolific_workers(WorkerClass::Honest, 20);
        assert!(
            prolific.len() >= 10,
            "expected prolific workers, got {}",
            prolific.len()
        );
    }

    #[test]
    fn malicious_stars_biased_upward() {
        let t = SyntheticConfig::small(4).generate();
        let bias = |class| {
            let ids = t.workers_of_class(class);
            let mut total = 0.0;
            let mut n = 0usize;
            for id in ids {
                for r in t.reviews_by(id) {
                    total += r.stars - t.product(r.product).unwrap().true_quality;
                    n += 1;
                }
            }
            total / n as f64
        };
        assert!(bias(WorkerClass::Honest).abs() < 0.3);
        assert!(bias(WorkerClass::NonCollusiveMalicious) > 0.6);
        assert!(bias(WorkerClass::CollusiveMalicious) > 0.6);
    }

    #[test]
    fn rounds_within_configured_range() {
        let cfg = SyntheticConfig::small(6);
        let t = cfg.generate();
        assert!(t.reviews().iter().all(|r| r.round < cfg.n_rounds));
    }
}
