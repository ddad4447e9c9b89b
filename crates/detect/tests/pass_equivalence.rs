//! Differential property: the batch passes of `run_pipeline` (one fold
//! over the trace's reviews per consensus map, per `e_mal` vector and per
//! weight vector) equal the per-entity path the streaming service takes
//! (`recompute_product` into `ConsensusMap::with_products`,
//! `estimate_one`, `compute_one`), compared by bits.
//!
//! Every generated trace carries a fixed scaffold of edge cases next to
//! its random part: an unreviewed product, an expert-backed product, a
//! product reviewed by malicious workers only, a single-review product,
//! and a reviewer with no reviews. Reviews are interleaved in a random
//! order, and most star values are not small integers, so a fold in any
//! order but review order would show in the low bits.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_detect::{
    cluster_collusive, run_pipeline, ConsensusMap, FeedbackWeights, MaliciousEstimates,
    PipelineConfig, SuspectMask, SuspectSource,
};
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

/// Detection assembled the way the streaming service assembles it: each
/// product and worker on its own, through the trace's indices.
struct PerEntity {
    raw: ConsensusMap,
    e_mal: Vec<f64>,
    suspected: Vec<ReviewerId>,
    refined: ConsensusMap,
    weights: Vec<f64>,
}

fn per_entity(trace: &TraceDataset, config: PipelineConfig) -> PerEntity {
    let products = trace.products().len();
    let map = |excluded: &SuspectMask| {
        let mut map = ConsensusMap::with_products(products);
        for p in trace.products() {
            map.recompute_product(trace, p.id, excluded);
        }
        map
    };
    let raw = map(&SuspectMask::default());
    let e_mal: Vec<f64> = trace
        .reviewers()
        .iter()
        .map(|r| config.detector.estimate_one(trace, &raw, r.id))
        .collect();
    let suspected = match config.suspects {
        SuspectSource::GroundTruth => trace
            .reviewers()
            .iter()
            .filter(|r| r.class.is_malicious())
            .map(|r| r.id)
            .collect(),
        SuspectSource::Estimated { threshold } => {
            MaliciousEstimates::from_values(e_mal.clone()).suspected(threshold)
        }
    };
    let refined = map(&SuspectMask::new(trace.reviewers().len(), &suspected));
    let partners = cluster_collusive(trace, &suspected).partner_counts();
    let weights = trace
        .reviewers()
        .iter()
        .map(|r| {
            FeedbackWeights::compute_one(
                trace,
                &refined,
                Some(e_mal[r.id.index()]),
                &partners,
                config.weights,
                r.id,
            )
        })
        .collect();
    PerEntity {
        raw,
        e_mal,
        suspected,
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

/// Every observable of two consensus maps agrees by bits: the consensus,
/// its expert backing, and the leave-one-out consensus for each review's
/// stars and a few probes.
fn same_map(
    trace: &TraceDataset,
    batch: &ConsensusMap,
    reference: &ConsensusMap,
    which: &str,
) -> Result<(), TestCaseError> {
    for p in trace.products() {
        let pid = p.id;
        prop_assert_eq!(
            bits(batch.consensus(pid)),
            bits(reference.consensus(pid)),
            "{} consensus of {}",
            which,
            pid
        );
        prop_assert_eq!(
            batch.is_expert_backed(pid),
            reference.is_expert_backed(pid),
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
                bits(reference.consensus_without(pid, stars)),
                "{} consensus of {} without {}",
                which,
                pid,
                stars
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn batch_passes_match_per_entity_recompute(
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
            let reference = per_entity(&trace, config);

            same_map(&trace, &raw, &reference.raw, "raw")?;
            prop_assert_eq!(vec_bits(batch.estimates.as_slice()), vec_bits(&reference.e_mal));
            prop_assert_eq!(&batch.suspected, &reference.suspected);
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
