//! Replay-based equivalence: streaming a synthetic trace through the
//! service with `verify` on cross-checks every round boundary bitwise
//! against the cold batch pipeline. The randomized version (arbitrary
//! event streams, pools 1–8) lives in the workspace-level
//! `tests/serve_differential.rs`.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::DesignConfig;
use dcc_detect::{PipelineConfig, SuspectSource};
use dcc_faults::Json;
use dcc_obs::{JsonRecorder, Metrics};
use dcc_serve::{design_digest, events_from_trace, ServeEvent, ServeService, ServeState};
use dcc_trace::SyntheticConfig;
use std::sync::Arc;

fn replay_verified(seed: u64, pool: usize) -> ServeService {
    let trace = SyntheticConfig::small(seed).generate();
    let events = events_from_trace(&trace);
    let mut service = ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        pool,
        true,
        Metrics::noop(),
    )
    .expect("config is valid");
    for event in &events {
        service.apply(event).expect("verified round");
    }
    service
}

#[test]
fn replay_matches_batch_at_every_round() {
    for seed in [3, 11, 29] {
        let service = replay_verified(seed, 1);
        assert!(service.stats().rounds >= 2, "seed {seed} produced too few rounds");
    }
}

#[test]
fn pool_size_does_not_change_the_stream() {
    let base = replay_verified(7, 1);
    for pool in [2, 5, 8] {
        let other = replay_verified(7, pool);
        assert_eq!(base.stats(), other.stats(), "pool {pool} diverged");
    }
}

#[test]
fn quiet_rounds_repeat_the_design() {
    // A round boundary with no intervening events changes no input, so
    // it must emit the cold batch design of the unchanged trace, bit for
    // bit, every time.
    let mut service = replay_verified(13, 4);
    let mut digests = Vec::new();
    for _ in 0..3 {
        let out = service
            .apply(&ServeEvent::Round)
            .expect("quiet round")
            .expect("round output");
        assert_eq!(out.dirty_workers, 0);
        assert_eq!(out.dirty_products, 0);
        digests.push(design_digest(out.design.as_ref().expect("design")));
    }
    let busy = service.state().cold_design().expect("cold design");
    assert!(digests.iter().all(|d| *d == design_digest(&busy)));
}

#[test]
fn serve_counters_match_the_summary() {
    // Each boundary adds its own work to the `serve.*` counters, so after
    // a replay they equal the summary line's run totals.
    let recorder = Arc::new(JsonRecorder::new());
    let mut service = ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        2,
        false,
        Metrics::new(recorder.clone()),
    )
    .expect("config is valid");
    for event in &events_from_trace(&SyntheticConfig::small(7).generate()) {
        service.apply(event).expect("event applies");
    }
    let summary = Json::parse(&service.summary_line()).expect("summary parses");
    let metrics = Json::parse(&recorder.to_json_redacted()).expect("metrics parse");
    let counters = metrics.get("counters").expect("counters");
    for (counter, key) in [
        ("serve.fit.refits", "fit_refits"),
        ("serve.solve.resolved", "solve_resolved"),
        ("serve.rounds", "rounds"),
    ] {
        let total = summary
            .get(key)
            .and_then(Json::as_idx)
            .expect("summary key");
        assert!(total > 0, "{key}");
        assert_eq!(
            counters.get(counter).and_then(Json::as_idx),
            Some(total),
            "{counter} vs summary {key}"
        );
    }
}

#[test]
fn estimated_suspect_source_is_rejected() {
    let err = ServeState::new(
        PipelineConfig {
            suspects: SuspectSource::Estimated { threshold: 0.5 },
            ..PipelineConfig::default()
        },
        DesignConfig::default(),
        1,
    )
    .expect_err("estimated mode must be rejected");
    assert!(err.to_string().contains("GroundTruth"), "{err}");
}
