use dcc_trace::{ProductId, Review, ReviewerId, TraceDataset};

/// Stars at or above which a rating counts as extreme (the 5-star
/// ceiling that paid campaigns push, see [`crate::MaliciousDetector`]).
const EXTREME_STARS: f64 = 4.75;

/// A running `(sum, count)`, added to term by term.
#[derive(Debug, Clone, Copy)]
struct Tally {
    sum: f64,
    count: usize,
}

impl Tally {
    /// Product star sums start at −0.0, where `Iterator::sum::<f64>`
    /// starts.
    const STARS: Tally = Tally {
        sum: -0.0,
        count: 0,
    };
    /// Deviation totals start at +0.0.
    const DEVIATIONS: Tally = Tally { sum: 0.0, count: 0 };

    fn add(&mut self, x: f64) {
        self.sum += x;
        self.count += 1;
    }

    fn mean(self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Dense suspect flags indexed by [`ReviewerId::index`]: the workers whose
/// reviews the refined consensus leaves out of the crowd mean, or any
/// other set of workers looked up by id (the design's community
/// members). An id past the end is not suspected.
#[derive(Debug, Clone, Default)]
pub struct SuspectMask {
    flags: Vec<bool>,
}

impl SuspectMask {
    /// The mask of `suspected` over a trace of `reviewers` workers. Ids
    /// outside `0..reviewers` are dropped: no review of that trace can
    /// name them.
    pub fn new<'a>(reviewers: usize, suspected: impl IntoIterator<Item = &'a ReviewerId>) -> Self {
        let mut flags = vec![false; reviewers];
        for id in suspected {
            if let Some(flag) = flags.get_mut(id.index()) {
                *flag = true;
            }
        }
        SuspectMask { flags }
    }

    /// `true` iff `worker` is suspected.
    pub fn contains(&self, worker: ReviewerId) -> bool {
        self.flags.get(worker.index()).copied().unwrap_or(false)
    }
}

/// One product's consensus slot. The mean is derived on read, so a slot
/// is three fields.
#[derive(Debug, Clone, Copy, Default)]
struct ProductConsensus {
    /// Expert-backed: the expert mean. Otherwise the sum of the star
    /// scores behind the crowd mean (enables leave-one-out adjustment).
    sum: f64,
    /// The number of those crowd scores: 0 when expert-backed or
    /// unreviewed.
    count: usize,
    expert_backed: bool,
}

impl ProductConsensus {
    /// The consensus mean, `None` for a product without usable reviews.
    fn mean(&self) -> Option<f64> {
        if self.expert_backed {
            return Some(self.sum);
        }
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The consensus with one crowd review of score `stars` removed; see
    /// [`ConsensusMap::consensus_without`].
    fn without(&self, stars: f64) -> Option<f64> {
        if self.expert_backed {
            return Some(self.sum);
        }
        if self.count <= 1 {
            return None;
        }
        Some((self.sum - stars) / (self.count - 1) as f64)
    }
}

/// One product's reviews folded in review order: the stars of every
/// review, and of the reviews whose author the suspect mask keeps.
#[derive(Debug, Clone, Copy)]
struct ProductTally {
    crowd: Tally,
    trusted: Tally,
}

impl ProductTally {
    const EMPTY: ProductTally = ProductTally {
        crowd: Tally::STARS,
        trusted: Tally::STARS,
    };

    fn add(&mut self, review: &Review, excluded: &SuspectMask) {
        self.crowd.add(review.stars);
        if !excluded.contains(review.reviewer) {
            self.trusted.add(review.stars);
        }
    }

    /// The product's consensus: the expert mean (the trace's own tally)
    /// takes precedence, else the crowd mean of non-excluded reviews,
    /// falling back to the whole crowd when exclusion would empty the
    /// product.
    fn finish(self, expert_mean: Option<f64>) -> ProductConsensus {
        if let Some(mean) = expert_mean {
            return ProductConsensus {
                sum: mean,
                count: 0,
                expert_backed: true,
            };
        }
        if self.crowd.count == 0 {
            return ProductConsensus::default();
        }
        let scores = if self.trusted.count == 0 {
            self.crowd
        } else {
            self.trusted
        };
        ProductConsensus {
            sum: scores.sum,
            count: scores.count,
            expert_backed: false,
        }
    }
}

/// One worker's reviews folded in review order against a
/// [`ConsensusMap`]: everything `e_mal` and the Eq. 5 weight read from
/// them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerTally {
    /// `|stars − l̄|` against the leave-one-out consensus.
    loo: Tally,
    /// `|stars − l̄|` against the consensus.
    plain: Tally,
    /// Reviews rated at least [`EXTREME_STARS`].
    extreme: usize,
    /// All of the worker's reviews.
    reviews: usize,
}

impl WorkerTally {
    const EMPTY: WorkerTally = WorkerTally {
        loo: Tally::DEVIATIONS,
        plain: Tally::DEVIATIONS,
        extreme: 0,
        reviews: 0,
    };

    /// Mean leave-one-out deviation, `None` without a covered review.
    pub(crate) fn loo_deviation(&self) -> Option<f64> {
        self.loo.mean()
    }

    /// Mean deviation, `None` without a covered review.
    pub(crate) fn deviation(&self) -> Option<f64> {
        self.plain.mean()
    }

    /// Share of all the worker's reviews that are extreme, 0 without
    /// reviews.
    pub(crate) fn extreme_share(&self) -> f64 {
        if self.reviews == 0 {
            0.0
        } else {
            self.extreme as f64 / self.reviews as f64
        }
    }
}

/// Per-product "ground truth" review scores `l̄` (§II).
///
/// The paper defines `l̄` as the average review of *experts* — workers
/// whose accuracy and endorsements exceed system thresholds. Products no
/// expert has reviewed fall back to the crowd mean of all their reviews
/// (a weaker consensus, flagged by [`ConsensusMap::is_expert_backed`]).
///
/// Every computation here folds reviews, in review order, into a
/// per-product or per-worker tally. The builders make one pass over
/// [`TraceDataset::reviews`]. The per-worker reads
/// ([`ConsensusMap::accuracy_deviation`] and its leave-one-out variant)
/// fold one worker's reviews through the trace's index, which lists them
/// in review order too, so they read the same bits as the passes.
#[derive(Debug, Clone)]
pub struct ConsensusMap {
    products: Vec<ProductConsensus>,
}

impl ConsensusMap {
    /// Builds the consensus for every product of `trace`.
    pub fn build(trace: &TraceDataset) -> Self {
        Self::build_excluding(trace, &SuspectMask::default())
    }

    /// Builds the consensus while excluding reviews by `excluded` workers
    /// from the crowd fallback — the second pass of robust estimation,
    /// where suspects identified in a first pass no longer pollute `l̄`.
    ///
    /// Expert reviews always take precedence. If excluding suspects would
    /// leave a product with no reviews at all, the unfiltered crowd mean
    /// is used (better a weak consensus than none).
    pub fn build_excluding(trace: &TraceDataset, excluded: &SuspectMask) -> Self {
        let mut tallies = vec![ProductTally::EMPTY; trace.products().len()];
        for review in trace.reviews() {
            if let Some(tally) = tallies.get_mut(review.product.index()) {
                tally.add(review, excluded);
            }
        }
        let products = tallies
            .into_iter()
            .enumerate()
            .map(|(i, tally)| tally.finish(trace.expert_consensus(ProductId(i))))
            .collect();
        ConsensusMap { products }
    }

    /// The consensus score `l̄` for a product, or `None` if the product
    /// has no reviews at all.
    pub fn consensus(&self, product: ProductId) -> Option<f64> {
        self.products.get(product.index())?.mean()
    }

    /// `true` iff the consensus came from expert reviews rather than the
    /// crowd fallback.
    pub fn is_expert_backed(&self, product: ProductId) -> bool {
        self.products
            .get(product.index())
            .map(|p| p.expert_backed)
            .unwrap_or(false)
    }

    /// The consensus for `product` with one crowd review of score `stars`
    /// removed (leave-one-out). Expert-backed consensus is unaffected;
    /// removing the only crowd review yields `None`.
    pub fn consensus_without(&self, product: ProductId, stars: f64) -> Option<f64> {
        self.products.get(product.index())?.without(stars)
    }

    /// Mean absolute deviation of a worker's review scores from the
    /// consensus, over all their reviews with a defined consensus — the
    /// `|l_i − l̄|` accuracy term of Eq. 5. `None` if the worker has no
    /// reviews on consensus-covered products.
    pub fn accuracy_deviation(&self, trace: &TraceDataset, worker: ReviewerId) -> Option<f64> {
        self.worker_tally(trace, worker).deviation()
    }

    /// Like [`ConsensusMap::accuracy_deviation`], but each review is
    /// compared against the *leave-one-out* consensus (the review itself
    /// removed from the crowd mean), which stops a worker's own review
    /// from masking its bias. Used by the malicious-probability estimator.
    pub fn accuracy_deviation_loo(&self, trace: &TraceDataset, worker: ReviewerId) -> Option<f64> {
        self.worker_tally(trace, worker).loo_deviation()
    }

    /// Folds `review` into its author's tally.
    fn fold(&self, tally: &mut WorkerTally, review: &Review) {
        tally.reviews += 1;
        if review.stars >= EXTREME_STARS {
            tally.extreme += 1;
        }
        if let Some(p) = self.products.get(review.product.index()) {
            if let Some(c) = p.without(review.stars) {
                tally.loo.add((review.stars - c).abs());
            }
            if let Some(c) = p.mean() {
                tally.plain.add((review.stars - c).abs());
            }
        }
    }

    /// One worker's tally, folded through the trace's reviewer index.
    fn worker_tally(&self, trace: &TraceDataset, worker: ReviewerId) -> WorkerTally {
        let mut tally = WorkerTally::EMPTY;
        for review in trace.reviews_by(worker) {
            self.fold(&mut tally, review);
        }
        tally
    }

    /// Every worker's tally, indexed by [`ReviewerId::index`], in one pass
    /// over the trace's reviews.
    pub(crate) fn worker_tallies(&self, trace: &TraceDataset) -> Vec<WorkerTally> {
        let mut tallies = vec![WorkerTally::EMPTY; trace.reviewers().len()];
        for review in trace.reviews() {
            if let Some(tally) = tallies.get_mut(review.reviewer.index()) {
                self.fold(tally, review);
            }
        }
        tallies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcc_trace::{SyntheticConfig, WorkerClass};

    #[test]
    fn every_reviewed_product_has_consensus() {
        let trace = SyntheticConfig::small(8).generate();
        let cm = ConsensusMap::build(&trace);
        for r in trace.reviews() {
            assert!(cm.consensus(r.product).is_some());
        }
    }

    #[test]
    fn unreviewed_product_has_no_consensus() {
        let trace = SyntheticConfig::small(8).generate();
        let cm = ConsensusMap::build(&trace);
        let unreviewed = trace
            .products()
            .iter()
            .find(|p| trace.reviews_for(p.id).is_empty())
            .expect("small config leaves products unreviewed");
        assert_eq!(cm.consensus(unreviewed.id), None);
        assert!(!cm.is_expert_backed(unreviewed.id));
    }

    #[test]
    fn consensus_tracks_true_quality() {
        let trace = SyntheticConfig::small(13).generate();
        let cm = ConsensusMap::build(&trace);
        let mut err = 0.0;
        let mut n = 0;
        for p in trace.products() {
            if cm.is_expert_backed(p.id) {
                err += (cm.consensus(p.id).unwrap() - p.true_quality).abs();
                n += 1;
            }
        }
        assert!(n > 0, "expert coverage expected");
        assert!((err / n as f64) < 1.0, "expert consensus far from truth");
    }

    #[test]
    fn malicious_deviate_more_than_honest() {
        let trace = SyntheticConfig::small(5).generate();
        let cm = ConsensusMap::build(&trace);
        let mean_dev = |class| {
            let ids = trace.workers_of_class(class);
            let devs: Vec<f64> = ids
                .iter()
                .filter_map(|&id| cm.accuracy_deviation(&trace, id))
                .collect();
            devs.iter().sum::<f64>() / devs.len() as f64
        };
        let honest = mean_dev(WorkerClass::Honest);
        let ncm = mean_dev(WorkerClass::NonCollusiveMalicious);
        assert!(
            ncm > honest + 0.3,
            "ncm deviation {ncm} should exceed honest {honest}"
        );
    }

    #[test]
    fn leave_one_out_exposes_lone_bias() {
        // A worker whose review is half of a 2-review crowd mean hides its
        // bias; the LOO deviation must be at least the plain deviation on
        // average for malicious workers.
        let trace = SyntheticConfig::small(5).generate();
        let cm = ConsensusMap::build(&trace);
        let ids = trace.workers_of_class(WorkerClass::NonCollusiveMalicious);
        let (mut plain, mut loo, mut n) = (0.0, 0.0, 0usize);
        for id in ids {
            if let (Some(p), Some(l)) = (
                cm.accuracy_deviation(&trace, id),
                cm.accuracy_deviation_loo(&trace, id),
            ) {
                plain += p;
                loo += l;
                n += 1;
            }
        }
        assert!(n > 0);
        assert!(loo / n as f64 >= plain / n as f64);
    }

    #[test]
    fn consensus_without_on_expert_backed_is_unchanged() {
        let trace = SyntheticConfig::small(13).generate();
        let cm = ConsensusMap::build(&trace);
        let expert_product = trace
            .products()
            .iter()
            .find(|p| cm.is_expert_backed(p.id))
            .expect("expert coverage expected");
        assert_eq!(
            cm.consensus_without(expert_product.id, 5.0),
            cm.consensus(expert_product.id)
        );
    }

    #[test]
    fn excluding_suspects_shifts_consensus() {
        let trace = SyntheticConfig::small(5).generate();
        let raw = ConsensusMap::build(&trace);
        let suspected: Vec<_> = trace
            .workers_of_class(WorkerClass::CollusiveMalicious)
            .into_iter()
            .chain(trace.workers_of_class(WorkerClass::NonCollusiveMalicious))
            .collect();
        let excluded = SuspectMask::new(trace.reviewers().len(), &suspected);
        let refined = ConsensusMap::build_excluding(&trace, &excluded);
        // On some malicious-targeted product with honest contrast reviews
        // the consensus must move down (malicious bias removed).
        let mut moved = 0usize;
        for p in trace.products() {
            if let (Some(a), Some(b)) = (raw.consensus(p.id), refined.consensus(p.id)) {
                if b < a - 0.05 {
                    moved += 1;
                }
            }
        }
        assert!(moved > 0, "refinement should move some product consensus");
    }

    #[test]
    fn accuracy_deviation_none_for_unknown_worker() {
        let trace = SyntheticConfig::small(5).generate();
        let cm = ConsensusMap::build(&trace);
        assert_eq!(cm.accuracy_deviation(&trace, ReviewerId(usize::MAX - 1)), None);
    }
}
