//! Replay-based equivalence: streaming a synthetic trace through the
//! service with `verify` on cross-checks every round boundary bitwise
//! against the cold batch pipeline. The randomized version (arbitrary
//! event streams, pools 1–8) lives in the workspace-level
//! `tests/serve_differential.rs`.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::DesignConfig;
use dcc_detect::{PipelineConfig, SuspectSource};
use dcc_obs::Metrics;
use dcc_serve::{events_from_trace, ServeService, ServeState, ServeStats};
use dcc_trace::SyntheticConfig;

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
fn quiet_rounds_reuse_everything() {
    // A round boundary with no intervening events changes no input, so
    // the incremental path must re-solve nothing and re-fit nothing —
    // and still emit a design identical to the busy round before it.
    let mut service = replay_verified(13, 4);
    let busy = service.stats();
    let mut digests = Vec::new();
    for _ in 0..3 {
        let out = service
            .apply(&dcc_serve::ServeEvent::Round)
            .expect("quiet round")
            .expect("round output");
        assert_eq!(out.dirty_workers, 0);
        assert_eq!(out.dirty_products, 0);
        assert_eq!(out.resolved, 0, "a quiet round must re-solve nothing");
        assert!(out.reused > 0);
        digests.push(dcc_serve::design_digest(
            out.design.as_ref().expect("design"),
        ));
    }
    let quiet = service.stats();
    assert_eq!(quiet.solve_resolved, busy.solve_resolved);
    assert_eq!(quiet.fit_refits, busy.fit_refits);
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn resolve_causes_account_for_every_resolve() {
    let causes = |s: &ServeStats| s.miss_no_entry + s.miss_params + s.miss_psi + s.miss_weight;
    let trace = SyntheticConfig::small(7).generate();
    let mut state =
        ServeState::new(PipelineConfig::default(), DesignConfig::default(), 2).expect("config");
    let mut psi_rounds = 0;
    for event in &events_from_trace(&trace) {
        let before = state.stats();
        if state.apply(event).expect("event applies").is_none() {
            continue;
        }
        let after = state.stats();
        assert_eq!(
            causes(&after),
            after.solve_resolved,
            "round {}",
            after.rounds
        );
        // ψ and the discretization change only through a class refit,
        // so ψ misses appear only in rounds that refit a class.
        if after.miss_psi > before.miss_psi {
            assert!(
                after.fit_refits > before.fit_refits,
                "round {}",
                after.rounds
            );
            psi_rounds += 1;
        }
    }
    let end = state.stats();
    assert!(
        psi_rounds > 0,
        "some refit round re-solved under psi: {end:?}"
    );
    assert!(
        end.miss_no_entry > 0,
        "the first round has no entries: {end:?}"
    );
    assert_eq!(
        end.miss_params, 0,
        "the model parameters never change: {end:?}"
    );
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
