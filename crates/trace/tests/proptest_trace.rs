//! Property tests of the synthetic trace generator's invariants.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_trace::{
    Product, ProductId, Review, Reviewer, ReviewerId, SyntheticConfig, TraceDataset, WorkerClass,
};
use proptest::prelude::*;

fn tiny_config() -> impl Strategy<Value = SyntheticConfig> {
    (
        0u64..1_000,    // seed
        10usize..60,    // honest
        0usize..20,     // ncm
        0usize..25,     // cm target
        1usize..6,      // rounds
    )
        .prop_map(|(seed, n_honest, n_ncm, n_cm, n_rounds)| {
            let mut cfg = SyntheticConfig::small(seed);
            cfg.n_honest = n_honest;
            cfg.n_ncm = n_ncm;
            cfg.n_cm_target = n_cm;
            cfg.n_rounds = n_rounds;
            // Keep the catalogue comfortably larger than the reserved
            // malicious targets.
            cfg.n_products = 400 + 8 * (n_ncm + n_cm);
            cfg
        })
}

/// One step of growing a dataset: a push, a read of everything the
/// dataset derives, or replacing it with its clone.
#[derive(Debug, Clone)]
enum Step {
    Product,
    Reviewer {
        expert: bool,
    },
    /// A review by reviewer `reviewer % n` of product `product % m`,
    /// skipped while either kind of entity is missing.
    Review {
        reviewer: usize,
        product: usize,
        stars: f64,
        upvotes: f64,
    },
    Read,
    Clone,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        0u8..11,
        any::<usize>(),
        any::<usize>(),
        1.0f64..5.0,
        0u8..4,
        0.0f64..20.0,
    )
        .prop_map(|(kind, a, b, stars, upvote_kind, upvotes)| match kind {
            0 => Step::Product,
            1 => Step::Reviewer { expert: a % 2 == 0 },
            2 | 3 => Step::Read,
            4 => Step::Clone,
            _ => Step::Review {
                reviewer: a,
                product: b,
                stars,
                upvotes: match upvote_kind {
                    0 => -0.0,
                    1 => f64::NAN,
                    _ => upvotes,
                },
            },
        });
    proptest::collection::vec(step, 0..80)
}

/// Checks that `grown` derives exactly what `built` does: each reviewer's
/// and product's reviews (a review's `round` is its position), expertise
/// bits, prolific workers and expert consensus, for every entity and one
/// id past the last.
fn same_derived(grown: &TraceDataset, built: &TraceDataset) -> Result<(), TestCaseError> {
    let positions = |reviews: dcc_trace::IndexedReviews<'_>| -> Vec<usize> {
        reviews.iter().map(|r| r.round).collect()
    };
    for w in 0..=built.reviewers().len() {
        let id = ReviewerId(w);
        prop_assert_eq!(
            positions(grown.reviews_by(id)),
            positions(built.reviews_by(id))
        );
        prop_assert_eq!(
            grown.expertise(id).ok().map(f64::to_bits),
            built.expertise(id).ok().map(f64::to_bits)
        );
    }
    for p in 0..=built.products().len() {
        let id = ProductId(p);
        prop_assert_eq!(
            positions(grown.reviews_for(id)),
            positions(built.reviews_for(id))
        );
        prop_assert_eq!(
            grown.expert_consensus(id).map(f64::to_bits),
            built.expert_consensus(id).map(f64::to_bits)
        );
    }
    for class in [
        WorkerClass::Honest,
        WorkerClass::NonCollusiveMalicious,
        WorkerClass::CollusiveMalicious,
    ] {
        for min_reviews in 0..4 {
            prop_assert_eq!(
                grown.prolific_workers(class, min_reviews),
                built.prolific_workers(class, min_reviews)
            );
        }
    }
    Ok(())
}

fn check_structure(cfg: &SyntheticConfig, trace: &TraceDataset) -> Result<(), TestCaseError> {
    // Class counts.
    prop_assert_eq!(
        trace.workers_of_class(WorkerClass::Honest).len(),
        cfg.n_honest
    );
    prop_assert_eq!(
        trace.workers_of_class(WorkerClass::NonCollusiveMalicious).len(),
        cfg.n_ncm
    );
    let cm = trace.workers_of_class(WorkerClass::CollusiveMalicious).len();
    prop_assert!(cm >= cfg.n_cm_target);

    // Campaign structure.
    let mut seen = std::collections::BTreeSet::new();
    for c in trace.campaigns() {
        prop_assert!(c.size() >= 2);
        for m in &c.members {
            prop_assert!(seen.insert(*m), "worker in two campaigns");
        }
    }
    prop_assert_eq!(seen.len(), cm);

    // Every review references valid entities with sane values.
    for r in trace.reviews() {
        prop_assert!(trace.reviewer(r.reviewer).is_some());
        prop_assert!(trace.product(r.product).is_some());
        prop_assert!((1.0..=5.0).contains(&r.stars));
        prop_assert!(r.upvotes >= 0.0);
        prop_assert!(r.length_chars >= 1);
        prop_assert!(r.round < cfg.n_rounds.max(1));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A dataset grown by pushes, read at any point (which rebuilds the
    /// review index after a review push) and cloned between a push and
    /// the next read, derives exactly what `TraceDataset::new` derives
    /// over the same rows.
    #[test]
    fn grown_dataset_matches_one_built_at_once(steps in steps()) {
        let (mut products, mut reviewers, mut reviews) = (Vec::new(), Vec::new(), Vec::new());
        let mut grown = TraceDataset::empty();
        for step in steps.iter().chain([&Step::Read]) {
            match *step {
                Step::Product => {
                    let product = Product { id: ProductId(products.len()), true_quality: 3.0 };
                    grown.push_product(product.clone()).unwrap();
                    products.push(product);
                }
                Step::Reviewer { expert } => {
                    let w = reviewers.len();
                    let reviewer = Reviewer {
                        id: ReviewerId(w),
                        class: [
                            WorkerClass::Honest,
                            WorkerClass::NonCollusiveMalicious,
                            WorkerClass::CollusiveMalicious,
                        ][w % 3],
                        campaign: None,
                        is_expert: expert,
                    };
                    grown.push_reviewer(reviewer.clone()).unwrap();
                    reviewers.push(reviewer);
                }
                Step::Review { reviewer, product, stars, upvotes } => {
                    if reviewers.is_empty() || products.is_empty() {
                        continue;
                    }
                    let review = Review {
                        reviewer: ReviewerId(reviewer % reviewers.len()),
                        product: ProductId(product % products.len()),
                        round: reviews.len(),
                        stars,
                        length_chars: 10,
                        upvotes,
                    };
                    grown.push_review(review.clone()).unwrap();
                    reviews.push(review);
                }
                Step::Read => {
                    let built = TraceDataset::new(
                        products.clone(),
                        reviewers.clone(),
                        reviews.clone(),
                        vec![],
                    )
                    .unwrap();
                    same_derived(&grown, &built)?;
                }
                Step::Clone => grown = grown.clone(),
            }
        }
    }

    /// Structural invariants hold for arbitrary small configurations.
    #[test]
    fn generator_invariants(cfg in tiny_config()) {
        let trace = cfg.generate();
        check_structure(&cfg, &trace)?;
    }

    /// Generation is a pure function of the configuration.
    #[test]
    fn determinism(cfg in tiny_config()) {
        let a = cfg.generate();
        let b = cfg.generate();
        prop_assert_eq!(a.reviews(), b.reviews());
        prop_assert_eq!(a.reviewers(), b.reviewers());
    }

    /// Derived effort equals the intended (generator) effort: expertise ×
    /// length × 1e-3 round-trips through the length encoding.
    #[test]
    fn effort_encoding_consistency(cfg in tiny_config()) {
        let trace = cfg.generate();
        for r in trace.reviews().iter().take(100) {
            let eff = trace.effort_of(r);
            prop_assert!(eff.is_finite() && eff >= 0.0);
            // The worker's effort always sits below its class's peak (the
            // generator caps at 95% of the peak; allow rounding slack).
            let class = trace.reviewer(r.reviewer).unwrap().class;
            let peak = cfg.behavior(class).effort_response.peak().unwrap();
            prop_assert!(eff <= peak * 1.02, "effort {eff} beyond peak {peak}");
        }
    }

    /// Columnar encoding is a lossless bijection on datasets: encode →
    /// materialize → re-encode is byte-identical, and the materialized
    /// dataset preserves every field bit-exactly (floats via `to_bits`).
    #[test]
    fn columnar_roundtrip(cfg in tiny_config()) {
        let trace = cfg.generate();
        let col = dcc_trace::ColumnarTrace::from_dataset(&trace);
        let back = col.to_dataset().expect("materialize");

        // Bit-exact re-encoding: equal datasets produce identical bytes.
        let col2 = dcc_trace::ColumnarTrace::from_dataset(&back);
        prop_assert_eq!(col.as_bytes(), col2.as_bytes());
        prop_assert_eq!(col.checksum(), col2.checksum());

        // Field-level bit exactness, independent of the encoding.
        prop_assert_eq!(trace.reviewers(), back.reviewers());
        prop_assert_eq!(trace.campaigns(), back.campaigns());
        prop_assert_eq!(trace.reviews().len(), back.reviews().len());
        for (a, b) in trace.reviews().iter().zip(back.reviews()) {
            prop_assert_eq!(a.reviewer, b.reviewer);
            prop_assert_eq!(a.product, b.product);
            prop_assert_eq!(a.round, b.round);
            prop_assert_eq!(a.length_chars, b.length_chars);
            prop_assert_eq!(a.stars.to_bits(), b.stars.to_bits());
            prop_assert_eq!(a.upvotes.to_bits(), b.upvotes.to_bits());
        }
        for (a, b) in trace.products().iter().zip(back.products()) {
            prop_assert_eq!(a.true_quality.to_bits(), b.true_quality.to_bits());
        }
    }

    /// Streaming generation (`generate_columnar`) produces the same bytes
    /// as generating the row dataset and encoding it after the fact.
    #[test]
    fn streamed_generation_matches_encoded(cfg in tiny_config()) {
        let streamed = cfg.generate_columnar();
        let encoded = dcc_trace::ColumnarTrace::from_dataset(&cfg.generate());
        prop_assert_eq!(streamed.as_bytes(), encoded.as_bytes());
    }

    /// The full persistence cycle CSV -> columnar -> CSV is lossless:
    /// both ends re-encode to the same columnar bytes.
    #[test]
    fn csv_columnar_csv_cycle(seed in 0u64..25) {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.n_honest = 25;
        cfg.n_ncm = 4;
        cfg.n_cm_target = 5;
        cfg.n_products = 480;
        let trace = cfg.generate();
        let base = std::env::temp_dir().join(format!(
            "dcc_pt_cycle_{}_{}",
            std::process::id(),
            seed
        ));
        let csv_dir = base.join("csv");
        let col_file = base.join("trace.dcol");
        dcc_trace::write_trace_csv(&trace, &csv_dir).expect("write csv");
        let from_csv = dcc_trace::read_trace_csv(&csv_dir).expect("read csv");
        dcc_trace::write_trace_columnar(&from_csv, &col_file).expect("write col");
        let from_col = dcc_trace::read_trace_columnar(&col_file)
            .expect("read col")
            .to_dataset()
            .expect("materialize");
        std::fs::remove_dir_all(&base).ok();
        let enc_csv = dcc_trace::ColumnarTrace::from_dataset(&from_csv);
        let enc_col = dcc_trace::ColumnarTrace::from_dataset(&from_col);
        prop_assert_eq!(enc_csv.as_bytes(), enc_col.as_bytes());
        // Campaign membership survives the whole cycle.
        prop_assert_eq!(from_csv.campaigns(), from_col.campaigns());
    }

    /// Any single-byte corruption of a columnar file is rejected: header
    /// damage fails validation, body damage fails the checksum.
    #[test]
    fn columnar_corruption_rejected(seed in 0u64..40, frac in 0.0f64..1.0) {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.n_honest = 12;
        cfg.n_ncm = 2;
        cfg.n_cm_target = 2;
        cfg.n_products = 420;
        let col = dcc_trace::ColumnarTrace::from_dataset(&cfg.generate());
        let bytes = col.as_bytes();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let mut idx = ((bytes.len() - 1) as f64 * frac) as usize;
        if (12..16).contains(&idx) {
            // The header's reserved field is ignored by the reader; flips
            // there are (by design) not detectable. Corrupt a count instead.
            idx += 4;
        }
        let mut bad = bytes.to_vec();
        bad[idx] ^= 0xff;
        prop_assert!(dcc_trace::ColumnarTrace::from_bytes(bad).is_err());
        // Truncation at the same point is rejected too.
        let truncated = bytes[..idx].to_vec();
        prop_assert!(dcc_trace::ColumnarTrace::from_bytes(truncated).is_err());
    }

    /// CSV round-trips the dataset exactly enough for the pipeline:
    /// identical reviews, reviewers, campaigns.
    #[test]
    fn csv_roundtrip(seed in 0u64..50) {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.n_honest = 30;
        cfg.n_ncm = 5;
        cfg.n_cm_target = 6;
        cfg.n_products = 500;
        let trace = cfg.generate();
        let dir = std::env::temp_dir().join(format!(
            "dcc_pt_rt_{}_{}",
            std::process::id(),
            seed
        ));
        dcc_trace::write_trace_csv(&trace, &dir).expect("write");
        let back = dcc_trace::read_trace_csv(&dir).expect("read");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(trace.reviewers(), back.reviewers());
        prop_assert_eq!(trace.reviews().len(), back.reviews().len());
        prop_assert_eq!(trace.campaigns().len(), back.campaigns().len());
        for (a, b) in trace.reviews().iter().zip(back.reviews()) {
            prop_assert_eq!(a.reviewer, b.reviewer);
            prop_assert_eq!(a.product, b.product);
            prop_assert_eq!(a.length_chars, b.length_chars);
            prop_assert!((a.upvotes - b.upvotes).abs() < 1e-9);
            prop_assert!((a.stars - b.stars).abs() < 1e-9);
        }
    }
}
