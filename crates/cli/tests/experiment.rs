//! `dcc experiment` end to end through the built binary: its exit codes
//! and the files `all --csv DIR` writes.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

mod common;

use common::TempDir;
use std::process::{Command, Output};

fn dcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcc"))
        .args(args)
        .output()
        .expect("dcc runs")
}

#[test]
fn an_unknown_scale_or_experiment_is_a_usage_error() {
    for args in [
        &["experiment", "fig7", "--scale", "tiny"][..],
        &["experiment", "all", "--scale", "tiny"],
        &["experiment", "fig9"],
    ] {
        let out = dcc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

#[test]
fn all_with_extensions_writes_every_csv_and_the_metrics_document() {
    let temp = TempDir::new("dcc_experiment_csv");
    // The command creates the directory it writes to.
    let dir = temp.path().join("csv");
    let out = dcc(&[
        "experiment",
        "all",
        "--scale",
        "small",
        "--extensions",
        "--csv",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--- E15 / adversarial collusion head-to-head (extension) ---"));
    assert!(!stdout.contains("pass --extensions"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected = vec![
        "e10_detection.csv", "e11_collusion.csv", "e12_baselines.csv", "e13_budget.csv",
        "e14_risk.csv", "e15_adversarial.csv", "e8_adaptive.csv", "e9_sensitivity.csv",
        "fig6.csv", "fig7.csv", "fig8a.csv", "fig8b.csv", "fig8c.csv", "metrics.json",
        "table2.csv", "table3.csv",
    ];
    expected.sort();
    assert_eq!(files, expected);
    let metrics = dir.join("metrics.json");
    assert!(stdout.ends_with(&format!("wrote engine metrics to {}\n", metrics.display())));
    let summary = dcc(&["metrics", "summarize", metrics.to_str().unwrap()]);
    assert_eq!(summary.status.code(), Some(0), "{}", String::from_utf8_lossy(&summary.stderr));
    assert!(String::from_utf8_lossy(&summary.stdout).contains("batch.scenarios"));
}
