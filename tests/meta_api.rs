//! Smoke coverage of the meta-crate's re-exported surface: everything a
//! downstream user reaches through `dyncontract::*` resolves and works.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
// Exact float asserts on values that are bit-determined by construction.
#![allow(clippy::float_cmp)]

use dyncontract as dc;

#[test]
fn numerics_surface() {
    let q = dc::numerics::Quadratic::new(-0.1, 2.0, 0.5);
    assert!(q.is_concave());
    let p = dc::numerics::polyfit(&[0.0, 1.0, 2.0, 3.0], &[0.5, 2.4, 3.9, 5.0], 2).unwrap();
    assert_eq!(p.degree(), 2);
    let pwl = dc::numerics::PiecewiseLinear::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
    assert_eq!(pwl.eval(0.5), 0.5);
    let s = dc::numerics::Summary::of(&[1.0, 2.0, 3.0]).unwrap();
    assert_eq!(s.median, 2.0);
    let x = dc::numerics::solve_least_squares(
        &dc::numerics::Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap(),
        &[1.0, 2.0, 3.0],
    )
    .unwrap();
    assert!((x[1] - 1.0).abs() < 1e-9);
}

#[test]
fn trace_detect_surface() {
    let trace = dc::trace::SyntheticConfig::small(99).generate();
    let summary = dc::trace::TraceSummary::of(&trace);
    assert!(summary.reviews > 0);
    assert!(!summary.to_string().is_empty());
    let det = dc::detect::run_pipeline(&trace, dc::detect::PipelineConfig::default());
    assert!(!det.suspected.is_empty());
    assert!(!det.collusion.size_histogram().is_empty());
}

#[test]
fn core_surface() {
    let params = dc::core::ModelParams {
        mu: 1.0,
        ..dc::core::ModelParams::default()
    };
    let disc = dc::core::Discretization::covering(10, 7.0).unwrap();
    let psi = dc::numerics::Quadratic::new(-0.15, 2.5, 1.0);
    let built = dc::core::ContractBuilder::new(params, disc, psi)
        .honest()
        .weight(1.5)
        .build()
        .unwrap();
    // Named utilities agree with the builder's bookkeeping.
    let direct = dc::core::utilities::requester_worker_utility(
        &params,
        1.5,
        &psi,
        built.contract(),
        built.induced_effort(),
    );
    assert!((direct - built.requester_utility()).abs() < 1e-9);
    // Risk + budget + bandit surfaces resolve.
    let risk = dc::core::RiskProfile::new(0.7).unwrap();
    let _ = dc::core::best_response_risk_averse(&params, &psi, built.contract(), &risk).unwrap();
    assert!(dc::core::first_best_utility(1.5, &params, &psi, 7.0, 100).unwrap().is_finite());
}

#[test]
fn label_surface() {
    let curve = dc::label::AccuracyCurve::new(0.9, 0.5).unwrap();
    assert!(curve.accuracy(3.0) > 0.6);
    assert_eq!(
        dc::label::aggregate::majority(&[dc::label::Label::One, dc::label::Label::Zero]),
        Some(dc::label::Label::One)
    );
    let report = dc::label::run_defense(dc::label::DefenseConfig {
        n_diligent: 8,
        n_adversarial: 4,
        n_items: 51,
        calibration_rounds: 3,
        eval_rounds: 2,
        effort: 4.0,
        seed: 5,
    })
    .unwrap();
    assert!(report.weighted_accuracy >= report.plain_accuracy - 0.1);
}

#[test]
fn experiments_surface() {
    let mut t = dc::experiments::TextTable::new(vec!["a".into()]);
    assert!(t.is_empty());
    t.row(vec!["1".into()]);
    assert!(t.to_csv().contains("a\n1"));
    assert_eq!(
        dc::experiments::ExperimentScale::parse("PAPER"),
        Some(dc::experiments::ExperimentScale::Paper)
    );
}
