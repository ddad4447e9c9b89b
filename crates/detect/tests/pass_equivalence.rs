//! Differential property: the batch passes of `run_pipeline` (one fold
//! over the trace's reviews per consensus map, per `e_mal` vector and per
//! weight vector) equal a reference written here from the definitions,
//! one product or worker at a time through the trace's indices, compared
//! by bits.
//!
//! Every generated trace carries a fixed scaffold of edge cases next to
//! its random part: an unreviewed product, an expert-backed product, a
//! product reviewed by malicious workers only, a single-review product,
//! and a reviewer with no reviews. Reviews are interleaved in a random
//! order, and most star values are not small integers, so a fold in any
//! order but review order would show in the low bits.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_detect::{run_pipeline, ConsensusMap, PipelineConfig, SuspectSource};
use dcc_trace::{Product, ProductId, Review, Reviewer, ReviewerId, TraceDataset, WorkerClass};
use proptest::collection;
use proptest::prelude::*;

/// Star values the generator picks from before falling back to a
/// continuous draw: the extremity boundary and its neighbours, and the
/// ends of the scale.
const STARS: [f64; 5] = [1.0, 4.7, 4.75, 4.8, 5.0];

/// `(class code, expert iff 0)` per random reviewer.
type ReviewerSpec = (u8, u8);
/// `(reviewer pick, product pick, star pick, continuous stars, order key)`.
type ReviewSpec = (usize, usize, usize, f64, u64);

fn class_of(code: u8) -> WorkerClass {
    match code % 3 {
        0 => WorkerClass::Honest,
        1 => WorkerClass::NonCollusiveMalicious,
        _ => WorkerClass::CollusiveMalicious,
    }
}

fn reviewer(id: usize, class: WorkerClass, is_expert: bool) -> Reviewer {
    Reviewer {
        id: ReviewerId(id),
        class,
        campaign: None,
        is_expert,
    }
}

/// The scaffold's entities, by index in the built trace.
struct Scaffold {
    expert_backed: ProductId,
    single_review: ProductId,
    suspects_only: ProductId,
    unreviewed: ProductId,
    idle: ReviewerId,
}

fn build(
    n_products: usize,
    reviewers: &[ReviewerSpec],
    reviews: &[ReviewSpec],
    scaffold_keys: &[u64],
) -> (TraceDataset, Scaffold) {
    let mut people: Vec<Reviewer> = reviewers
        .iter()
        .enumerate()
        .map(|(i, &(class, expert))| reviewer(i, class_of(class), expert == 0))
        .collect();
    let expert = people.len();
    let honest = expert + 1;
    let ncm = expert + 2;
    let cm = expert + 3;
    let idle = expert + 4;
    for (id, class, is_expert) in [
        (expert, WorkerClass::Honest, true),
        (honest, WorkerClass::Honest, false),
        (ncm, WorkerClass::NonCollusiveMalicious, false),
        (cm, WorkerClass::CollusiveMalicious, false),
        (idle, WorkerClass::Honest, false),
    ] {
        people.push(reviewer(id, class, is_expert));
    }
    let scaffold = Scaffold {
        expert_backed: ProductId(n_products),
        single_review: ProductId(n_products + 1),
        suspects_only: ProductId(n_products + 2),
        unreviewed: ProductId(n_products + 3),
        idle: ReviewerId(idle),
    };
    let products: Vec<Product> = (0..n_products + 4)
        .map(|i| Product {
            id: ProductId(i),
            true_quality: 3.0,
        })
        .collect();

    // Random reviews come from anyone but the idle reviewer and land on
    // the random products only, so the scaffold keeps its shape.
    let writers = idle;
    let mut keyed: Vec<(u64, Review)> = reviews
        .iter()
        .enumerate()
        .map(|(i, &(who, what, pick, continuous, key))| {
            let stars = STARS.get(pick).copied().unwrap_or(continuous);
            let review = Review {
                reviewer: ReviewerId(who % writers),
                product: ProductId(what % n_products),
                round: i % 4,
                stars,
                length_chars: 100,
                upvotes: (i % 7) as f64,
            };
            (key, review)
        })
        .collect();
    let scaffold_reviews = [
        (expert, scaffold.expert_backed, 4.2),
        (honest, scaffold.expert_backed, 2.9),
        (honest, scaffold.single_review, 3.3),
        (ncm, scaffold.suspects_only, 4.9),
        (cm, scaffold.suspects_only, 4.75),
        (cm, scaffold.suspects_only, 1.3),
    ];
    for (&(who, product, stars), &key) in scaffold_reviews.iter().zip(scaffold_keys) {
        keyed.push((
            key,
            Review {
                reviewer: ReviewerId(who),
                product,
                round: 0,
                stars,
                length_chars: 100,
                upvotes: 1.0,
            },
        ));
    }
    keyed.sort_by_key(|&(key, _)| key);
    let reviews = keyed.into_iter().map(|(_, review)| review).collect();
    let trace = TraceDataset::new(products, people, reviews, Vec::new()).unwrap();
    (trace, scaffold)
}

/// Stars at or above which a rating counts as extreme.
const EXTREME_STARS: f64 = 4.75;

/// A product's consensus by definition: the mean of its expert reviews,
/// else the `(sum, count)` of its crowd scores, `None` when unreviewed.
#[derive(Debug, Clone, Copy)]
enum Consensus {
    Expert(f64),
    Crowd(f64, usize),
    None,
}

impl Consensus {
    fn mean(self) -> Option<f64> {
        match self {
            Consensus::Expert(mean) => Some(mean),
            Consensus::Crowd(sum, count) => Some(sum / count as f64),
            Consensus::None => None,
        }
    }

    /// Leave-one-out: the crowd mean with one score of `stars` removed.
    fn without(self, stars: f64) -> Option<f64> {
        match self {
            Consensus::Expert(mean) => Some(mean),
            Consensus::Crowd(sum, count) if count > 1 => Some((sum - stars) / (count - 1) as f64),
            _ => None,
        }
    }
}

/// Folds `xs` in order from `start`: `(sum, count)`.
fn fold(start: f64, xs: impl Iterator<Item = f64>) -> (f64, usize) {
    xs.fold((start, 0), |(sum, count), x| (sum + x, count + 1))
}

/// §II's `l̄` for every product, folding `reviews_for` in review order:
/// the expert mean; else the mean of the crowd outside `suspected`; else,
/// when that leaves nobody, the whole crowd. Star sums start at −0.0,
/// where `Iterator::sum::<f64>` starts.
fn consensus(trace: &TraceDataset, suspected: &[ReviewerId]) -> Vec<Consensus> {
    let expert = |r: &Review| trace.reviewers()[r.reviewer.index()].is_expert;
    trace
        .products()
        .iter()
        .map(|p| {
            let reviews = trace.reviews_for(p.id);
            let (sum, count) = fold(-0.0, reviews.iter().filter(|r| expert(r)).map(|r| r.stars));
            if count > 0 {
                return Consensus::Expert(sum / count as f64);
            }
            let trusted = fold(
                -0.0,
                reviews
                    .iter()
                    .filter(|r| !suspected.contains(&r.reviewer))
                    .map(|r| r.stars),
            );
            let (sum, count) = if trusted.1 > 0 {
                trusted
            } else {
                fold(-0.0, reviews.iter().map(|r| r.stars))
            };
            if count > 0 {
                Consensus::Crowd(sum, count)
            } else {
                Consensus::None
            }
        })
        .collect()
}

/// Mean `|stars − l̄|` over one worker's reviews, folding `reviews_by` in
/// review order from +0.0, against the leave-one-out consensus (`loo`) or
/// the plain one; `None` without a covered review.
fn deviation(
    trace: &TraceDataset,
    products: &[Consensus],
    worker: ReviewerId,
    loo: bool,
) -> Option<f64> {
    let deviations = trace.reviews_by(worker).iter().filter_map(|r| {
        let c = products[r.product.index()];
        let reference = if loo { c.without(r.stars) } else { c.mean() };
        reference.map(|l| (r.stars - l).abs())
    });
    let (sum, count) = fold(0.0, deviations);
    (count > 0).then(|| sum / count as f64)
}

/// `e_mal`: the logistic of the mean leave-one-out deviation and the
/// share of ratings at or above [`EXTREME_STARS`]; 0.5 without a covered
/// review.
fn e_mal(
    trace: &TraceDataset,
    raw: &[Consensus],
    worker: ReviewerId,
    config: PipelineConfig,
) -> f64 {
    let Some(dev) = deviation(trace, raw, worker, true) else {
        return 0.5;
    };
    let reviews = trace.reviews_by(worker);
    let extreme = reviews.iter().filter(|r| r.stars >= EXTREME_STARS).count();
    let share = extreme as f64 / reviews.len() as f64;
    let d = config.detector;
    let z = d.deviation_gain * (dev - d.deviation_midpoint)
        + d.extremity_weight * d.deviation_gain * (share - 0.5);
    1.0 / (1.0 + (-z).exp())
}

/// `A_i` for every worker: the size of its §IV-A community (suspects
/// linked by a co-reviewed product, closed transitively) minus one, 0 for
/// a worker outside `suspected`; found with a union-find over reviewer
/// ids rather than the batch path's DFS.
fn partner_table(trace: &TraceDataset, suspected: &[ReviewerId]) -> Vec<usize> {
    fn root(parent: &mut [usize], mut w: usize) -> usize {
        while parent[w] != w {
            parent[w] = parent[parent[w]];
            w = parent[w];
        }
        w
    }
    let mut parent: Vec<usize> = (0..trace.reviewers().len()).collect();
    for p in trace.products() {
        let mut linked = trace
            .reviews_for(p.id)
            .iter()
            .map(|r| r.reviewer.index())
            .filter(|&w| suspected.contains(&ReviewerId(w)));
        if let Some(first) = linked.next() {
            for w in linked {
                let (a, b) = (root(&mut parent, first), root(&mut parent, w));
                parent[a] = b;
            }
        }
    }
    let mut sizes = vec![0; parent.len()];
    for s in suspected {
        sizes[root(&mut parent, s.index())] += 1;
    }
    let mut partners = vec![0; parent.len()];
    for s in suspected {
        partners[s.index()] = sizes[root(&mut parent, s.index())] - 1;
    }
    partners
}

/// Eq. 5, `w_i = ρ/|l_i − l̄| − κ·e_mal − γ·A_i`: the deviation is the
/// leave-one-out mean, else the plain mean, else 1 star, floored; the
/// accuracy term is capped.
fn eq5(
    trace: &TraceDataset,
    refined: &[Consensus],
    worker: ReviewerId,
    e_mal: f64,
    a_i: usize,
    config: PipelineConfig,
) -> f64 {
    let p = config.weights;
    let dev = deviation(trace, refined, worker, true)
        .or_else(|| deviation(trace, refined, worker, false))
        .unwrap_or(1.0)
        .max(p.min_deviation);
    (p.rho / dev).min(p.max_accuracy_term) - p.kappa * e_mal - p.gamma * a_i as f64
}

/// The whole detection from the definitions above.
struct Reference {
    raw: Vec<Consensus>,
    e_mal: Vec<f64>,
    suspected: Vec<ReviewerId>,
    partners: Vec<usize>,
    refined: Vec<Consensus>,
    weights: Vec<f64>,
}

fn reference(trace: &TraceDataset, config: PipelineConfig) -> Reference {
    let raw = consensus(trace, &[]);
    let e_mal: Vec<f64> = trace
        .reviewers()
        .iter()
        .map(|r| e_mal(trace, &raw, r.id, config))
        .collect();
    let suspected: Vec<ReviewerId> = trace
        .reviewers()
        .iter()
        .filter(|r| match config.suspects {
            SuspectSource::GroundTruth => r.class.is_malicious(),
            SuspectSource::Estimated { threshold } => e_mal[r.id.index()] >= threshold,
        })
        .map(|r| r.id)
        .collect();
    let partners = partner_table(trace, &suspected);
    let refined = consensus(trace, &suspected);
    let weights = trace
        .reviewers()
        .iter()
        .map(|r| {
            eq5(
                trace,
                &refined,
                r.id,
                e_mal[r.id.index()],
                partners[r.id.index()],
                config,
            )
        })
        .collect();
    Reference {
        raw,
        e_mal,
        suspected,
        partners,
        refined,
        weights,
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn vec_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every observable of a consensus map agrees with the reference by bits:
/// the consensus, its expert backing, the leave-one-out consensus for
/// each review's stars and a few probes, and each worker's mean plain and
/// leave-one-out deviation.
fn same_map(
    trace: &TraceDataset,
    batch: &ConsensusMap,
    reference: &[Consensus],
    which: &str,
) -> Result<(), TestCaseError> {
    for p in trace.products() {
        let pid = p.id;
        let slot = reference[pid.index()];
        prop_assert_eq!(
            bits(batch.consensus(pid)),
            bits(slot.mean()),
            "{} consensus of {}",
            which,
            pid
        );
        prop_assert_eq!(
            batch.is_expert_backed(pid),
            matches!(slot, Consensus::Expert(_)),
            "{} expert backing of {}",
            which,
            pid
        );
        let probes = trace
            .reviews_for(pid)
            .iter()
            .map(|r| r.stars)
            .chain([1.0, 3.0, 5.0]);
        for stars in probes {
            prop_assert_eq!(
                bits(batch.consensus_without(pid, stars)),
                bits(slot.without(stars)),
                "{} consensus of {} without {}",
                which,
                pid,
                stars
            );
        }
    }
    for r in trace.reviewers() {
        prop_assert_eq!(
            bits(batch.accuracy_deviation(trace, r.id)),
            bits(deviation(trace, reference, r.id, false)),
            "{} deviation of {}",
            which,
            r.id
        );
        prop_assert_eq!(
            bits(batch.accuracy_deviation_loo(trace, r.id)),
            bits(deviation(trace, reference, r.id, true)),
            "{} leave-one-out deviation of {}",
            which,
            r.id
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn batch_passes_match_definition_reference(
        n_products in 1usize..10,
        reviewers in collection::vec((0u8..3, 0u8..4), 1..10),
        reviews in collection::vec((0usize..1000, 0usize..1000, 0usize..12, 1.0f64..5.0, any::<u64>()), 0..60),
        scaffold_keys in collection::vec(any::<u64>(), 6),
        threshold in 0.05f64..0.95,
    ) {
        let (trace, scaffold) = build(n_products, &reviewers, &reviews, &scaffold_keys);

        // The scaffold's edge cases are present.
        let raw = ConsensusMap::build(&trace);
        prop_assert_eq!(raw.consensus(scaffold.unreviewed), None);
        prop_assert!(raw.is_expert_backed(scaffold.expert_backed));
        prop_assert_eq!(trace.reviews_for(scaffold.single_review).len(), 1);
        prop_assert!(trace.reviews_by(scaffold.idle).is_empty());

        for suspects in [SuspectSource::GroundTruth, SuspectSource::Estimated { threshold }] {
            let config = PipelineConfig { suspects, ..PipelineConfig::default() };
            let batch = run_pipeline(&trace, config);
            let reference = reference(&trace, config);

            same_map(&trace, &raw, &reference.raw, "raw")?;
            prop_assert_eq!(vec_bits(batch.estimates.as_slice()), vec_bits(&reference.e_mal));
            prop_assert_eq!(&batch.suspected, &reference.suspected);
            prop_assert_eq!(
                batch.collusion.partner_table(trace.reviewers().len()),
                reference.partners.clone()
            );
            same_map(&trace, &batch.consensus, &reference.refined, "refined")?;
            prop_assert_eq!(vec_bits(batch.weights.as_slice()), vec_bits(&reference.weights));
            prop_assert_eq!(bits(batch.estimates.e_mal(scaffold.idle)), bits(Some(0.5)));
        }

        // With ground-truth suspects every review of `suspects_only` is
        // excluded, so the refined consensus falls back to the whole crowd.
        let refined = run_pipeline(&trace, PipelineConfig::default()).consensus;
        prop_assert_eq!(
            bits(refined.consensus(scaffold.suspects_only)),
            bits(raw.consensus(scaffold.suspects_only))
        );
    }
}
