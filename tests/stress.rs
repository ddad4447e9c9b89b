//! Paper-scale stress test — gated on `DCC_SLOW_TESTS=1` instead of
//! `#[ignore]`, so the scheduled CI job (`.github/workflows/scheduled.yml`)
//! exercises it without a bespoke `-- --ignored` invocation:
//!
//! ```text
//! DCC_SLOW_TESTS=1 cargo test --release --test stress
//! ```
//!
//! Without the variable the test returns immediately (and says so), so
//! plain `cargo test` stays fast.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
#![allow(
    clippy::disallowed_types,
    reason = "the stress test gates wall time"
)]

use dyncontract::core::{design_contracts, DesignConfig};
use dyncontract::detect::{run_pipeline, PipelineConfig};
use dyncontract::experiments::ExperimentScale;
use std::time::Instant;

/// True when slow, paper-scale tests were explicitly requested.
fn slow_tests_enabled() -> bool {
    std::env::var("DCC_SLOW_TESTS").map(|v| v == "1").unwrap_or(false)
}

#[test]
fn paper_scale_pipeline_under_a_minute() {
    if !slow_tests_enabled() {
        eprintln!("skipping paper-scale stress test; set DCC_SLOW_TESTS=1 to run it");
        return;
    }
    let t0 = Instant::now();
    let trace = ExperimentScale::Paper.generate(42);
    let gen_time = t0.elapsed();
    assert!(trace.reviews().len() > 100_000);

    let t1 = Instant::now();
    let detection = run_pipeline(&trace, PipelineConfig::default());
    let detect_time = t1.elapsed();
    assert!(detection.weights.as_slice().len() > 19_000);

    let t2 = Instant::now();
    let design = design_contracts(&trace, &detection, &DesignConfig::default()).expect("design");
    let design_time = t2.elapsed();
    assert!(design.agents.len() > 19_000);

    let total = t0.elapsed();
    println!(
        "paper scale: gen {gen_time:?}, detect {detect_time:?}, design {design_time:?}, total {total:?}"
    );
    assert!(
        total.as_secs() < 60,
        "paper-scale pipeline took {total:?} (> 60 s)"
    );
}
