//! Integration: CSV persistence round-trips a trace such that the entire
//! detection + design pipeline reproduces identical results, and a trace
//! whose file numbers its campaigns sparsely reads back consistent enough
//! to stream through `dcc serve`.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dyncontract::core::{design_contracts, DesignConfig};
use dyncontract::detect::{run_pipeline, PipelineConfig};
use dyncontract::obs::Metrics;
use dyncontract::serve::{events_from_trace, ServeService};
use dyncontract::trace::{read_trace_csv, write_trace_csv, SyntheticConfig};

#[test]
fn pipeline_is_invariant_under_csv_roundtrip() {
    let trace = SyntheticConfig::small(909).generate();
    let dir = std::env::temp_dir().join(format!("dyncontract_it_{}", std::process::id()));
    write_trace_csv(&trace, &dir).expect("write");
    let reloaded = read_trace_csv(&dir).expect("read");
    std::fs::remove_dir_all(&dir).ok();

    let d1 = run_pipeline(&trace, PipelineConfig::default());
    let d2 = run_pipeline(&reloaded, PipelineConfig::default());
    assert_eq!(d1.collusion, d2.collusion, "clustering must be identical");
    for (a, b) in d1.weights.as_slice().iter().zip(d2.weights.as_slice()) {
        assert!((a - b).abs() < 1e-9, "weights must match: {a} vs {b}");
    }

    let c1 = design_contracts(&trace, &d1, &DesignConfig::default()).expect("design");
    let c2 = design_contracts(&reloaded, &d2, &DesignConfig::default()).expect("design");
    assert_eq!(c1.agents.len(), c2.agents.len());
    assert!(
        (c1.total_requester_utility - c2.total_requester_utility).abs() < 1e-6,
        "designed utility must match: {} vs {}",
        c1.total_requester_utility,
        c2.total_requester_utility
    );
    for (a, b) in c1.agents.iter().zip(&c2.agents) {
        assert_eq!(a.worker, b.worker);
        assert!((a.compensation - b.compensation).abs() < 1e-9);
        assert_eq!(a.k_opt, b.k_opt);
    }
}

#[test]
fn sparse_campaign_ids_read_back_dense_and_replay_through_serve() {
    let trace = SyntheticConfig::small(911).generate();
    assert!(trace.campaigns().len() >= 2);
    let dir = std::env::temp_dir().join(format!("dyncontract_sparse_{}", std::process::id()));
    write_trace_csv(&trace, &dir).expect("write");
    // Spread the campaign ids apart: 0, 1, 2, … become 3, 6, 9, ….
    let path = dir.join("reviewers.csv");
    let text = std::fs::read_to_string(&path).expect("read reviewers");
    let sparse: String = text
        .lines()
        .map(|line| {
            let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
            if let Ok(c) = fields[2].parse::<usize>() {
                fields[2] = (3 * c + 3).to_string();
            }
            fields.join(",") + "\n"
        })
        .collect();
    std::fs::write(&path, sparse).expect("write reviewers");
    let reloaded = read_trace_csv(&dir).expect("read");
    std::fs::remove_dir_all(&dir).ok();

    // Renumbered in ascending order, the campaigns are the original ones,
    // and every member names its campaign by its new index.
    assert_eq!(reloaded.campaigns().len(), trace.campaigns().len());
    for (back, original) in reloaded.campaigns().iter().zip(trace.campaigns()) {
        assert_eq!((back.id, &back.members), (original.id, &original.members));
    }
    for (back, original) in reloaded.reviewers().iter().zip(trace.reviewers()) {
        assert_eq!(back.campaign, original.campaign, "campaign of {}", back.id);
    }

    let mut service = ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        1,
        true,
        Metrics::noop(),
    )
    .expect("config is valid");
    for event in events_from_trace(&reloaded) {
        service.apply(&event).expect("event applies and verifies");
    }
    assert!(service.stats().rounds >= 2);
}
