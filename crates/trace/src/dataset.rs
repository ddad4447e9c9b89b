use crate::{Campaign, Product, ProductId, Review, Reviewer, ReviewerId, TraceError, WorkerClass};
use std::sync::OnceLock;

/// Scale applied to `expertise × length_chars` so effort levels land in a
/// numerically comfortable range (thousands of characters).
pub(crate) const EFFORT_SCALE: f64 = 1e-3;

/// An immutable review trace: products, labelled reviewers, reviews, and
/// the ground-truth collusion campaigns that generated it.
///
/// All of the paper's §V parametrization is available as derived queries:
/// per-reviewer *expertise* (average upvotes), per-review *effort*
/// (expertise × length) and *feedback* (upvotes).
///
/// # Example
///
/// ```
/// use dcc_trace::{SyntheticConfig, WorkerClass};
///
/// let trace = SyntheticConfig::small(7).generate();
/// let id = trace.workers_of_class(WorkerClass::Honest)[0];
/// assert!(trace.expertise(id).unwrap() >= 0.0);
/// assert!(!trace.reviews_by(id).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TraceDataset {
    products: Vec<Product>,
    reviewers: Vec<Reviewer>,
    reviews: Vec<Review>,
    campaigns: Vec<Campaign>,
    /// Review positions by reviewer and by product. [`TraceDataset::new`]
    /// builds it, [`TraceDataset::push_review`] drops it, and the first
    /// read after that rebuilds it from `reviews`.
    index: OnceLock<ReviewIndex>,
    /// Per reviewer, the running sum of their upvotes, added in review
    /// order from [`EMPTY_SUM`] by both [`TraceDataset::new`] and
    /// [`TraceDataset::push_review`], so a dataset grown review by review
    /// has the same expertise bits as one built at once.
    upvote_sums: Vec<f64>,
    /// Per product, the running `(sum, count)` of its expert reviews'
    /// stars, folded the same way as `upvote_sums`; their quotient is
    /// [`TraceDataset::expert_consensus`].
    expert_stars: Vec<(f64, usize)>,
}

/// A running sum before its first term: the −0.0 that
/// `Iterator::sum::<f64>` starts from, so a reviewer whose upvotes are
/// all −0.0 has expertise −0.0.
const EMPTY_SUM: f64 = -0.0;

/// Review positions grouped by one key, in compressed-sparse-row form:
/// key `k`'s reviews are `positions[offsets[k]..offsets[k + 1]]`, in
/// review order.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<usize>,
    positions: Vec<usize>,
}

impl Csr {
    /// A table whose runs are sized by `counts` (one slot per key plus a
    /// trailing 0): prefix sums turn `counts[k]` into the end of key
    /// `k`'s run, which [`Csr::place`] then fills from the back.
    fn sized(mut counts: Vec<usize>) -> Self {
        let mut end = 0;
        for slot in &mut counts {
            end += *slot;
            *slot = end;
        }
        Csr {
            offsets: counts,
            positions: vec![0; end],
        }
    }

    /// Writes review position `at` into the back of key `key`'s unfilled
    /// run. Called for every review in reverse review order, it leaves
    /// each run in review order and `offsets[key]` at the run's start.
    fn place(&mut self, key: usize, at: usize) {
        self.offsets[key] -= 1;
        self.positions[self.offsets[key]] = at;
    }

    /// The positions listed under `key`; empty for a key past the table
    /// (an entity pushed after the table was built has no reviews yet).
    fn get(&self, key: usize) -> &[usize] {
        match self.offsets.get(key..) {
            Some(&[start, end, ..]) => self.positions.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }
}

/// A dataset's review index: its reviews' positions by reviewer and by
/// product.
#[derive(Debug, Clone)]
struct ReviewIndex {
    by_reviewer: Csr,
    by_product: Csr,
}

impl ReviewIndex {
    /// Indexes `reviews`, whose reviewer and product ids are below
    /// `reviewers` and `products`: one pass counts each key's reviews,
    /// and one pass over the reviews, last first, places their positions.
    fn build(reviews: &[Review], reviewers: usize, products: usize) -> Self {
        let mut by_reviewer = vec![0; reviewers + 1];
        let mut by_product = vec![0; products + 1];
        for review in reviews {
            by_reviewer[review.reviewer.index()] += 1;
            by_product[review.product.index()] += 1;
        }
        let mut index = ReviewIndex {
            by_reviewer: Csr::sized(by_reviewer),
            by_product: Csr::sized(by_product),
        };
        for (at, review) in reviews.iter().enumerate().rev() {
            index.by_reviewer.place(review.reviewer.index(), at);
            index.by_product.place(review.product.index(), at);
        }
        index
    }
}

/// The reviews one index entry lists — a reviewer's or a product's — in
/// review order, borrowed from the dataset without copying.
#[derive(Debug, Clone, Copy)]
pub struct IndexedReviews<'a> {
    reviews: &'a [Review],
    positions: &'a [usize],
}

impl<'a> IndexedReviews<'a> {
    /// Number of reviews listed.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if no review is listed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The listed reviews, in review order.
    pub fn iter(&self) -> IndexedReviewsIter<'a> {
        IndexedReviewsIter {
            reviews: self.reviews,
            positions: self.positions.iter(),
        }
    }
}

impl<'a> IntoIterator for IndexedReviews<'a> {
    type Item = &'a Review;
    type IntoIter = IndexedReviewsIter<'a>;

    fn into_iter(self) -> IndexedReviewsIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`IndexedReviews`] view.
#[derive(Debug, Clone)]
pub struct IndexedReviewsIter<'a> {
    reviews: &'a [Review],
    positions: std::slice::Iter<'a, usize>,
}

impl<'a> Iterator for IndexedReviewsIter<'a> {
    type Item = &'a Review;

    fn next(&mut self) -> Option<&'a Review> {
        self.positions.next().map(|&i| &self.reviews[i])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

impl TraceDataset {
    /// Assembles a dataset and builds its review index.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidDataset`] if reviewer/product ids are
    /// not dense `0..n`, or any review references a missing entity, or a
    /// campaign references a missing reviewer.
    pub fn new(
        products: Vec<Product>,
        reviewers: Vec<Reviewer>,
        reviews: Vec<Review>,
        campaigns: Vec<Campaign>,
    ) -> Result<Self, TraceError> {
        for (i, p) in products.iter().enumerate() {
            if p.id.index() != i {
                return Err(TraceError::InvalidDataset(format!(
                    "product ids must be dense: slot {i} holds {}",
                    p.id
                )));
            }
        }
        for (i, r) in reviewers.iter().enumerate() {
            if r.id.index() != i {
                return Err(TraceError::InvalidDataset(format!(
                    "reviewer ids must be dense: slot {i} holds {}",
                    r.id
                )));
            }
        }
        let mut upvote_sums = vec![EMPTY_SUM; reviewers.len()];
        let mut expert_stars = vec![(EMPTY_SUM, 0); products.len()];
        for (idx, review) in reviews.iter().enumerate() {
            let w = review.reviewer.index();
            let p = review.product.index();
            if w >= reviewers.len() {
                return Err(TraceError::UnknownEntity(format!(
                    "review {idx} references reviewer {w}"
                )));
            }
            if p >= products.len() {
                return Err(TraceError::UnknownEntity(format!(
                    "review {idx} references product {p}"
                )));
            }
            if !(1.0..=5.0).contains(&review.stars) {
                return Err(TraceError::InvalidDataset(format!(
                    "review {idx} has stars {} outside [1, 5]",
                    review.stars
                )));
            }
            upvote_sums[w] += review.upvotes;
            if reviewers[w].is_expert {
                let (sum, count) = &mut expert_stars[p];
                *sum += review.stars;
                *count += 1;
            }
        }
        for c in &campaigns {
            for m in &c.members {
                if m.index() >= reviewers.len() {
                    return Err(TraceError::UnknownEntity(format!(
                        "campaign {} references reviewer {m}",
                        c.id
                    )));
                }
            }
        }
        let index = ReviewIndex::build(&reviews, reviewers.len(), products.len());
        Ok(TraceDataset {
            products,
            reviewers,
            reviews,
            campaigns,
            index: OnceLock::from(index),
            upvote_sums,
            expert_stars,
        })
    }

    /// An empty dataset — the starting point for incremental construction
    /// via the `push_*` mutators, used by the streaming service to build
    /// the trace event by event. A dataset grown this way is identical
    /// (including derived expertise) to one assembled in a single
    /// [`TraceDataset::new`] call over the same entities in the same
    /// order.
    pub fn empty() -> Self {
        TraceDataset {
            products: Vec::new(),
            reviewers: Vec::new(),
            reviews: Vec::new(),
            campaigns: Vec::new(),
            index: OnceLock::new(),
            upvote_sums: Vec::new(),
            expert_stars: Vec::new(),
        }
    }

    /// Appends a product, enforcing dense ids.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidDataset`] if the product's id is not
    /// the next dense slot.
    pub fn push_product(&mut self, product: Product) -> Result<(), TraceError> {
        if product.id.index() != self.products.len() {
            return Err(TraceError::InvalidDataset(format!(
                "product ids must be dense: slot {} offered {}",
                self.products.len(),
                product.id
            )));
        }
        self.products.push(product);
        self.expert_stars.push((EMPTY_SUM, 0));
        Ok(())
    }

    /// Appends a reviewer, enforcing dense ids.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidDataset`] if the reviewer's id is not
    /// the next dense slot.
    pub fn push_reviewer(&mut self, reviewer: Reviewer) -> Result<(), TraceError> {
        if reviewer.id.index() != self.reviewers.len() {
            return Err(TraceError::InvalidDataset(format!(
                "reviewer ids must be dense: slot {} offered {}",
                self.reviewers.len(),
                reviewer.id
            )));
        }
        self.reviewers.push(reviewer);
        self.upvote_sums.push(EMPTY_SUM);
        Ok(())
    }

    /// Appends a review, updating the reviewer's running upvote sum and
    /// the product's expert tally in constant time. Both are folded in
    /// insertion order exactly as [`TraceDataset::new`] folds them, so
    /// the derived expertise and expert consensus are bit-identical to a
    /// batch rebuild. The review index is dropped; the next read rebuilds
    /// it once, however many reviews were pushed in between.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownEntity`] for a dangling reviewer or
    /// product reference and [`TraceError::InvalidDataset`] for stars
    /// outside `[1, 5]`.
    pub fn push_review(&mut self, review: Review) -> Result<(), TraceError> {
        let idx = self.reviews.len();
        let w = review.reviewer.index();
        let p = review.product.index();
        if w >= self.reviewers.len() {
            return Err(TraceError::UnknownEntity(format!(
                "review {idx} references reviewer {w}"
            )));
        }
        if p >= self.products.len() {
            return Err(TraceError::UnknownEntity(format!(
                "review {idx} references product {p}"
            )));
        }
        if !(1.0..=5.0).contains(&review.stars) {
            return Err(TraceError::InvalidDataset(format!(
                "review {idx} has stars {} outside [1, 5]",
                review.stars
            )));
        }
        self.upvote_sums[w] += review.upvotes;
        if self.reviewers[w].is_expert {
            let (sum, count) = &mut self.expert_stars[p];
            *sum += review.stars;
            *count += 1;
        }
        self.reviews.push(review);
        self.index.take();
        Ok(())
    }

    /// Appends a campaign, validating its member references.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownEntity`] for a member id outside the
    /// reviewer set.
    pub fn push_campaign(&mut self, campaign: Campaign) -> Result<(), TraceError> {
        for m in &campaign.members {
            if m.index() >= self.reviewers.len() {
                return Err(TraceError::UnknownEntity(format!(
                    "campaign {} references reviewer {m}",
                    campaign.id
                )));
            }
        }
        self.campaigns.push(campaign);
        Ok(())
    }

    /// Adds a member to an existing campaign (streaming joins reveal
    /// campaign membership one worker at a time).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownEntity`] for an unknown campaign index
    /// or reviewer id.
    pub fn add_campaign_member(
        &mut self,
        campaign: usize,
        member: ReviewerId,
    ) -> Result<(), TraceError> {
        if member.index() >= self.reviewers.len() {
            return Err(TraceError::UnknownEntity(format!(
                "campaign {campaign} references reviewer {member}"
            )));
        }
        match self.campaigns.get_mut(campaign) {
            Some(c) => {
                c.members.push(member);
                Ok(())
            }
            None => Err(TraceError::UnknownEntity(format!(
                "unknown campaign {campaign}"
            ))),
        }
    }

    /// All products.
    pub fn products(&self) -> &[Product] {
        &self.products
    }

    /// All reviewers.
    pub fn reviewers(&self) -> &[Reviewer] {
        &self.reviewers
    }

    /// All reviews in insertion order.
    pub fn reviews(&self) -> &[Review] {
        &self.reviews
    }

    /// Ground-truth collusion campaigns used by the generator. Detection
    /// code must *not* read these; they exist to validate clustering.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// A reviewer record by id.
    pub fn reviewer(&self, id: ReviewerId) -> Option<&Reviewer> {
        self.reviewers.get(id.index())
    }

    /// A product record by id.
    pub fn product(&self, id: ProductId) -> Option<&Product> {
        self.products.get(id.index())
    }

    /// The reviews written by `id`, in review order (empty for an
    /// unknown reviewer).
    pub fn reviews_by(&self, id: ReviewerId) -> IndexedReviews<'_> {
        self.indexed(self.index().by_reviewer.get(id.index()))
    }

    /// The reviews written for product `id`, in review order (empty for
    /// an unknown product).
    pub fn reviews_for(&self, id: ProductId) -> IndexedReviews<'_> {
        self.indexed(self.index().by_product.get(id.index()))
    }

    fn indexed<'a>(&'a self, positions: &'a [usize]) -> IndexedReviews<'a> {
        IndexedReviews {
            reviews: &self.reviews,
            positions,
        }
    }

    /// The review index, rebuilt first if a review was pushed since it
    /// was last built.
    fn index(&self) -> &ReviewIndex {
        self.index.get_or_init(|| {
            ReviewIndex::build(&self.reviews, self.reviewers.len(), self.products.len())
        })
    }

    /// A reviewer's *expertise*: average upvotes over all their reviews
    /// (§V parametrization #2). Zero for reviewers with no reviews.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownEntity`] for an unknown reviewer.
    pub fn expertise(&self, id: ReviewerId) -> Result<f64, TraceError> {
        self.mean_upvotes(id.index())
            .ok_or_else(|| TraceError::UnknownEntity(format!("reviewer {id}")))
    }

    /// The mean upvotes of reviewer index `w`, 0.0 without reviews;
    /// `None` for an unknown reviewer.
    fn mean_upvotes(&self, w: usize) -> Option<f64> {
        let sum = self.upvote_sums.get(w)?;
        let reviews = self.index().by_reviewer.get(w).len();
        Some(if reviews == 0 {
            0.0
        } else {
            sum / reviews as f64
        })
    }

    /// The *effort level* of a review: the reviewer's expertise times the
    /// review length (§V parametrization #4), scaled by `1e-3` to keep
    /// values in a comfortable numeric range.
    pub fn effort_of(&self, review: &Review) -> f64 {
        let e = self.mean_upvotes(review.reviewer.index()).unwrap_or(0.0);
        e * review.length_chars as f64 * EFFORT_SCALE
    }

    /// The *feedback* of a review: its upvote count (§V parametrization #1).
    pub fn feedback_of(&self, review: &Review) -> f64 {
        review.upvotes
    }

    /// Ids of all workers with the given ground-truth class.
    pub fn workers_of_class(&self, class: WorkerClass) -> Vec<ReviewerId> {
        self.reviewers
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.id)
            .collect()
    }

    /// Per-worker `(mean effort, mean feedback)` observation points for a
    /// class — the fitting inputs of §IV-B (one point per worker, matching
    /// the paper's 18,176 / 1,312 / 212 point counts).
    pub fn effort_feedback_points(&self, class: WorkerClass) -> Vec<(f64, f64)> {
        self.workers_of_class(class)
            .into_iter()
            .filter_map(|id| {
                let reviews = self.reviews_by(id);
                if reviews.is_empty() {
                    return None;
                }
                let n = reviews.len() as f64;
                let eff = reviews.iter().map(|r| self.effort_of(r)).sum::<f64>() / n;
                let fb = reviews.iter().map(|r| self.feedback_of(r)).sum::<f64>() / n;
                Some((eff, fb))
            })
            .collect()
    }

    /// Workers with at least `min_reviews` reviews — the "200 honest
    /// workers (those who have at least 20 reviews in history)" filter of
    /// Fig. 8(a).
    pub fn prolific_workers(&self, class: WorkerClass, min_reviews: usize) -> Vec<ReviewerId> {
        let by_reviewer = &self.index().by_reviewer;
        self.workers_of_class(class)
            .into_iter()
            .filter(|id| by_reviewer.get(id.index()).len() >= min_reviews)
            .collect()
    }

    /// Mean star rating given by experts to `product`, or `None` if no
    /// expert reviewed it. This is the `l̄` ground truth of Eq. 5. Constant
    /// time: the sum was folded in review order as the reviews arrived.
    pub fn expert_consensus(&self, product: ProductId) -> Option<f64> {
        let &(sum, count) = self.expert_stars.get(product.index())?;
        (count > 0).then(|| sum / count as f64)
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn tiny() -> TraceDataset {
        let products = vec![
            Product {
                id: ProductId(0),
                true_quality: 4.0,
            },
            Product {
                id: ProductId(1),
                true_quality: 2.0,
            },
        ];
        let reviewers = vec![
            Reviewer {
                id: ReviewerId(0),
                class: WorkerClass::Honest,
                campaign: None,
                is_expert: true,
            },
            Reviewer {
                id: ReviewerId(1),
                class: WorkerClass::NonCollusiveMalicious,
                campaign: None,
                is_expert: false,
            },
        ];
        let reviews = vec![
            Review {
                reviewer: ReviewerId(0),
                product: ProductId(0),
                round: 0,
                stars: 4.0,
                length_chars: 500,
                upvotes: 10.0,
            },
            Review {
                reviewer: ReviewerId(0),
                product: ProductId(1),
                round: 1,
                stars: 2.5,
                length_chars: 300,
                upvotes: 6.0,
            },
            Review {
                reviewer: ReviewerId(1),
                product: ProductId(0),
                round: 0,
                stars: 5.0,
                length_chars: 100,
                upvotes: 2.0,
            },
        ];
        TraceDataset::new(products, reviewers, reviews, vec![]).unwrap()
    }

    #[test]
    fn indices_and_queries() {
        let d = tiny();
        assert_eq!(d.reviews_by(ReviewerId(0)).len(), 2);
        assert_eq!(d.reviews_by(ReviewerId(1)).len(), 1);
        assert_eq!(d.reviews_for(ProductId(0)).len(), 2);
        assert_eq!(d.reviews_for(ProductId(1)).len(), 1);
        assert!(d.reviews_by(ReviewerId(9)).is_empty());
    }

    #[test]
    fn expertise_is_mean_upvotes() {
        let d = tiny();
        assert_eq!(d.expertise(ReviewerId(0)).unwrap(), 8.0);
        assert_eq!(d.expertise(ReviewerId(1)).unwrap(), 2.0);
        assert!(d.expertise(ReviewerId(5)).is_err());
    }

    #[test]
    fn effort_is_scaled_expertise_times_length() {
        let d = tiny();
        let r = &d.reviews()[0];
        assert!((d.effort_of(r) - 8.0 * 500.0 * 1e-3).abs() < 1e-12);
        assert_eq!(d.feedback_of(r), 10.0);
    }

    #[test]
    fn class_partition() {
        let d = tiny();
        assert_eq!(d.workers_of_class(WorkerClass::Honest), vec![ReviewerId(0)]);
        assert_eq!(
            d.workers_of_class(WorkerClass::CollusiveMalicious),
            Vec::<ReviewerId>::new()
        );
    }

    #[test]
    fn effort_feedback_points_one_per_worker() {
        let d = tiny();
        let pts = d.effort_feedback_points(WorkerClass::Honest);
        assert_eq!(pts.len(), 1);
        let (eff, fb) = pts[0];
        assert!(eff > 0.0);
        assert_eq!(fb, 8.0);
    }

    #[test]
    fn prolific_filter() {
        let d = tiny();
        assert_eq!(d.prolific_workers(WorkerClass::Honest, 2).len(), 1);
        assert!(d.prolific_workers(WorkerClass::Honest, 3).is_empty());
    }

    #[test]
    fn expert_consensus_uses_experts_only() {
        let d = tiny();
        // Product 0: expert (w0) says 4.0; non-expert w1's 5.0 ignored.
        assert_eq!(d.expert_consensus(ProductId(0)), Some(4.0));
        assert_eq!(d.expert_consensus(ProductId(1)), Some(2.5));
    }

    #[test]
    fn dense_ids_enforced() {
        let products = vec![Product {
            id: ProductId(1),
            true_quality: 3.0,
        }];
        assert!(TraceDataset::new(products, vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn dangling_review_rejected() {
        let reviews = vec![Review {
            reviewer: ReviewerId(0),
            product: ProductId(0),
            round: 0,
            stars: 3.0,
            length_chars: 10,
            upvotes: 0.0,
        }];
        assert!(TraceDataset::new(vec![], vec![], reviews, vec![]).is_err());
    }

    #[test]
    fn incremental_build_matches_batch_build() {
        // Replaying a synthetic trace entity-by-entity through the push_*
        // mutators must reproduce the batch-built dataset exactly,
        // including derived expertise bits — the serve-layer correctness
        // contract at the trace layer.
        let batch = crate::SyntheticConfig::small(17).generate();
        let mut inc = TraceDataset::empty();
        for p in batch.products() {
            inc.push_product(p.clone()).unwrap();
        }
        for r in batch.reviewers() {
            inc.push_reviewer(r.clone()).unwrap();
        }
        for c in batch.campaigns() {
            let mut empty = c.clone();
            let members = std::mem::take(&mut empty.members);
            inc.push_campaign(empty).unwrap();
            for m in members {
                inc.add_campaign_member(c.id, m).unwrap();
            }
        }
        for (at, rv) in batch.reviews().iter().enumerate() {
            inc.push_review(rv.clone()).unwrap();
            if at % 97 == 0 {
                // A read between pushes rebuilds the index over the
                // reviews so far: each list is a prefix of the batch
                // list, ending in the review just pushed.
                let (grown, full) = (inc.index(), batch.index());
                for (g, f, key) in [
                    (&grown.by_reviewer, &full.by_reviewer, rv.reviewer.index()),
                    (&grown.by_product, &full.by_product, rv.product.index()),
                ] {
                    let list = g.get(key);
                    assert_eq!(list.last(), Some(&at));
                    assert_eq!(list, &f.get(key)[..list.len()]);
                }
            }
        }
        // Every list, both ways of building, equals the definition: the
        // positions of the key's reviews, in review order.
        let mut by_reviewer = vec![Vec::new(); batch.reviewers().len()];
        let mut by_product = vec![Vec::new(); batch.products().len()];
        for (at, rv) in batch.reviews().iter().enumerate() {
            by_reviewer[rv.reviewer.index()].push(at);
            by_product[rv.product.index()].push(at);
        }
        for built in [&batch, &inc] {
            let index = built.index();
            for (key, expected) in by_reviewer.iter().enumerate() {
                assert_eq!(index.by_reviewer.get(key), expected, "reviewer {key}");
            }
            for (key, expected) in by_product.iter().enumerate() {
                assert_eq!(index.by_product.get(key), expected, "product {key}");
            }
        }
        assert_eq!(inc.products(), batch.products());
        assert_eq!(inc.reviewers(), batch.reviewers());
        assert_eq!(inc.reviews(), batch.reviews());
        assert_eq!(inc.campaigns(), batch.campaigns());
        for r in batch.reviewers() {
            assert_eq!(
                inc.expertise(r.id).unwrap().to_bits(),
                batch.expertise(r.id).unwrap().to_bits()
            );
        }
        // The expert tallies agree, with each other and with the mean of
        // the product's expert reviews summed in review order.
        let mut expert_backed = 0;
        for p in batch.products() {
            let stars: Vec<f64> = batch
                .reviews_for(p.id)
                .iter()
                .filter(|r| batch.reviewers()[r.reviewer.index()].is_expert)
                .map(|r| r.stars)
                .collect();
            let expected = (!stars.is_empty())
                .then(|| stars.iter().sum::<f64>() / stars.len() as f64)
                .map(f64::to_bits);
            expert_backed += usize::from(expected.is_some());
            for built in [&batch, &inc] {
                assert_eq!(built.expert_consensus(p.id).map(f64::to_bits), expected);
            }
        }
        assert!(expert_backed > 0, "the small trace has expert reviews");

        // Upvotes are not validated: a reviewer whose upvotes are all
        // −0.0 keeps expertise −0.0 (the sum's start), and a NaN upvote
        // gives NaN, both ways of building.
        let upvotes: [&[f64]; 3] = [&[-0.0, -0.0, -0.0], &[2.0, f64::NAN, 1.0], &[3.0, 0.5]];
        let reviewers: Vec<Reviewer> = (0..upvotes.len())
            .map(|i| Reviewer {
                id: ReviewerId(i),
                class: WorkerClass::Honest,
                campaign: None,
                is_expert: i == 2,
            })
            .collect();
        let product = Product {
            id: ProductId(0),
            true_quality: 3.0,
        };
        // Interleave the reviewers' reviews.
        let reviews: Vec<Review> = (0..3)
            .flat_map(|round| {
                upvotes.iter().enumerate().filter_map(move |(w, ups)| {
                    ups.get(round).map(|&upvotes| Review {
                        reviewer: ReviewerId(w),
                        product: ProductId(0),
                        round,
                        stars: 3.0,
                        length_chars: 10,
                        upvotes,
                    })
                })
            })
            .collect();
        let batch = TraceDataset::new(
            vec![product.clone()],
            reviewers.clone(),
            reviews.clone(),
            vec![],
        )
        .unwrap();
        let mut inc = TraceDataset::empty();
        inc.push_product(product).unwrap();
        for r in reviewers {
            inc.push_reviewer(r).unwrap();
        }
        for rv in reviews {
            inc.push_review(rv).unwrap();
        }
        for (w, ups) in upvotes.iter().enumerate() {
            let expected = ups.iter().sum::<f64>() / ups.len() as f64;
            for built in [&batch, &inc] {
                assert_eq!(
                    built.expertise(ReviewerId(w)).unwrap().to_bits(),
                    expected.to_bits(),
                    "reviewer {w}"
                );
            }
        }
        assert!(batch.expertise(ReviewerId(0)).unwrap().is_sign_negative());
        assert!(inc.expertise(ReviewerId(1)).unwrap().is_nan());
        // Only reviewer 2 is an expert: its two 3-star reviews.
        for built in [&batch, &inc] {
            assert_eq!(built.expert_consensus(ProductId(0)), Some(3.0));
            assert_eq!(built.expert_consensus(ProductId(1)), None);
        }
    }

    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "the test bounds the pushes' wall time"
    )]
    fn pushing_one_workers_reviews_takes_linear_time() {
        // Each push used to re-sum the reviewer's whole history, so 200k
        // reviews by one worker took minutes.
        let mut d = TraceDataset::empty();
        d.push_product(Product {
            id: ProductId(0),
            true_quality: 3.0,
        })
        .unwrap();
        d.push_reviewer(Reviewer {
            id: ReviewerId(0),
            class: WorkerClass::Honest,
            campaign: None,
            is_expert: false,
        })
        .unwrap();
        let n = 200_000;
        let started = std::time::Instant::now();
        for round in 0..n {
            d.push_review(Review {
                reviewer: ReviewerId(0),
                product: ProductId(0),
                round,
                stars: 4.0,
                length_chars: 10,
                upvotes: (round % 4) as f64,
            })
            .unwrap();
        }
        let took = started.elapsed();
        assert_eq!(d.expertise(ReviewerId(0)).unwrap(), 1.5);
        assert!(took.as_secs() < 10, "{n} reviews took {took:?}");
    }

    #[test]
    fn push_mutators_validate() {
        let mut d = TraceDataset::empty();
        assert!(d
            .push_product(Product {
                id: ProductId(3),
                true_quality: 1.0
            })
            .is_err());
        assert!(d
            .push_reviewer(Reviewer {
                id: ReviewerId(1),
                class: WorkerClass::Honest,
                campaign: None,
                is_expert: false,
            })
            .is_err());
        assert!(d
            .push_review(Review {
                reviewer: ReviewerId(0),
                product: ProductId(0),
                round: 0,
                stars: 3.0,
                length_chars: 10,
                upvotes: 0.0,
            })
            .is_err());
        assert!(d.add_campaign_member(0, ReviewerId(0)).is_err());
    }

    #[test]
    fn invalid_stars_rejected() {
        let products = vec![Product {
            id: ProductId(0),
            true_quality: 3.0,
        }];
        let reviewers = vec![Reviewer {
            id: ReviewerId(0),
            class: WorkerClass::Honest,
            campaign: None,
            is_expert: false,
        }];
        let reviews = vec![Review {
            reviewer: ReviewerId(0),
            product: ProductId(0),
            round: 0,
            stars: 0.5,
            length_chars: 10,
            upvotes: 0.0,
        }];
        assert!(TraceDataset::new(products, reviewers, reviews, vec![]).is_err());
    }
}
