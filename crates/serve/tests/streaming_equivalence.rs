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
use dcc_serve::{design_digest, events_from_trace, ServeEvent, ServeService};
use dcc_trace::{SyntheticConfig, WorkerClass};
use std::sync::Arc;

/// Replays the seeded small trace under `--verify`, returning the service
/// and the number of boundaries that produced a design.
fn replay_verified(seed: u64, pool: usize, pipeline: PipelineConfig) -> (ServeService, usize) {
    let trace = SyntheticConfig::small(seed).generate();
    let events = events_from_trace(&trace);
    let mut service = ServeService::new(
        pipeline,
        DesignConfig::default(),
        pool,
        true,
        Metrics::noop(),
    )
    .expect("config is valid");
    let mut designed = 0;
    for event in &events {
        if let Some(out) = service.apply(event).expect("verified round") {
            designed += usize::from(out.design.is_ok());
        }
    }
    (service, designed)
}

#[test]
fn replay_matches_batch_at_every_round() {
    for seed in [3, 11, 29] {
        let (service, _) = replay_verified(seed, 1, PipelineConfig::default());
        assert!(service.stats().rounds >= 2, "seed {seed} produced too few rounds");
    }
}

#[test]
fn pool_size_does_not_change_the_stream() {
    let (base, _) = replay_verified(7, 1, PipelineConfig::default());
    for pool in [2, 5, 8] {
        let (other, _) = replay_verified(7, pool, PipelineConfig::default());
        assert_eq!(base.stats(), other.stats(), "pool {pool} diverged");
    }
}

#[test]
fn quiet_rounds_repeat_the_design() {
    // A round boundary with no intervening events changes no input, so
    // it must emit the cold batch design of the unchanged trace, bit for
    // bit, every time.
    let (mut service, _) = replay_verified(13, 4, PipelineConfig::default());
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
fn estimated_suspects_match_batch_at_every_round() {
    // E10's estimated suspect set can change with any review; each
    // boundary runs the batch detection, so `--verify` holds for it too.
    let estimated = PipelineConfig {
        suspects: SuspectSource::Estimated { threshold: 0.5 },
        ..PipelineConfig::default()
    };
    for seed in [3, 11, 29] {
        let (service, designed) = replay_verified(seed, 1, estimated);
        let rounds = service.stats().rounds;
        assert!(rounds >= 2, "seed {seed} produced too few rounds");
        assert_eq!(designed, rounds, "seed {seed}: a boundary failed to design");
    }
}

#[test]
fn rejected_events_are_not_counted() {
    let recorder = Arc::new(JsonRecorder::new());
    let mut service = ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        1,
        false,
        Metrics::new(recorder.clone()),
    )
    .expect("config is valid");
    let events = events_from_trace(&SyntheticConfig::small(5).generate());
    let first_round = events
        .iter()
        .position(|e| matches!(e, ServeEvent::Round))
        .expect("a round marker");
    for event in &events[..first_round] {
        service.apply(event).expect("event applies");
    }
    let rejected = [
        ServeEvent::Review {
            worker: usize::MAX / 2,
            product: 0,
            round: 0,
            stars: 3.0,
            length: 10,
            upvotes: 0.0,
        },
        ServeEvent::Product {
            id: 1 << 40,
            quality: 3.0,
        },
        ServeEvent::Join {
            id: 0,
            class: WorkerClass::Honest,
            campaign: None,
            expert: false,
        },
    ];
    for event in &rejected {
        service.apply(event).expect_err("protocol violation");
        assert_eq!(service.stats().events, service.events_applied());
    }
    let out = service
        .apply(&ServeEvent::Round)
        .expect("round applies")
        .expect("round output");
    assert_eq!(out.events, first_round + 1);
    assert_eq!(service.stats().events, first_round + 1);
    let metrics = Json::parse(&recorder.to_json_redacted()).expect("metrics parse");
    let counted = metrics
        .get("counters")
        .and_then(|c| c.get("serve.events"))
        .and_then(Json::as_idx);
    assert_eq!(counted, Some(first_round + 1));
}
