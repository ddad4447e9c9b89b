//! Golden-snapshot tests over the seeded taint fixture workspace
//! (`fixtures/taint/`): three crates, two cross-crate nondeterminism
//! flows (wall-clock → FNV digest, env → checkpoint), one
//! policy-laundered flow that must stay silent. The committed SARIF
//! output is compared byte-for-byte — any drift in message wording,
//! trace construction, ordering, or serialization shows up as a diff
//! against `tests/golden/`.
//!
//! To regenerate after an intentional change:
//! `cargo run -p dcc-cli -- lint --root crates/lint/fixtures/taint
//! --sarif crates/lint/tests/golden/taint.sarif` (it exits 1 on the
//! two seeded flows, and writes the document all the same).

// Test helpers outside `#[test]` fns miss clippy.toml's in-tests exemption.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_lint::{run, Config};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/taint")
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden {name} reads: {e}"))
}

#[test]
fn taint_fixture_matches_committed_sarif_golden() {
    let cfg = Config::workspace(fixture_root());
    assert!(cfg.policy.is_some(), "fixture policy must be picked up");
    let report = run(&cfg).expect("fixture lint runs");
    assert_eq!(report.to_sarif(), golden("taint.sarif"), "SARIF output drifted");
}

#[test]
fn fixture_findings_are_exactly_the_two_seeded_flows() {
    let report = run(&Config::workspace(fixture_root())).expect("fixture lint runs");
    let got: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        [
            ("determinism-taint", "crates/beta/src/digest.rs", 12),
            ("determinism-taint", "crates/gamma/src/persist.rs", 10),
        ],
        "{:#?}",
        report.findings
    );
    // The wall-clock flow carries the full 4-step cross-crate trace.
    assert_eq!(report.findings[0].trace.len(), 4);
    assert_eq!(report.findings[0].trace[0].path, "crates/alpha/src/time.rs");
}

/// Perturbation detection: adding a third flow to a copy of the fixture
/// must change the output and surface the new finding — the golden
/// cannot pass by accident.
#[test]
fn perturbed_fixture_diverges_from_goldens() {
    let tmp = std::env::temp_dir().join("dcc-lint-golden-perturb");
    let _ = std::fs::remove_dir_all(&tmp);
    for rel in [
        "dcc-lint.policy",
        "crates/alpha/src/time.rs",
        "crates/beta/src/digest.rs",
        "crates/gamma/src/persist.rs",
    ] {
        let dst = tmp.join(rel);
        std::fs::create_dir_all(dst.parent().expect("parent")).expect("mkdir");
        std::fs::copy(fixture_root().join(rel), dst).expect("copy");
    }
    // New flow: a thread-id read laundered into the digest via a fresh fn.
    let beta = tmp.join("crates/beta/src/digest.rs");
    let mut src = std::fs::read_to_string(&beta).expect("beta reads");
    src.push_str(
        "\n/// Perturbation: a second wall-clock flow into the digest.\n\
         pub fn sneaky(seed: u64) -> u64 {\n    fnv_fold(seed, now_us())\n}\n",
    );
    std::fs::write(&beta, src).expect("beta writes");

    let report = run(&Config::workspace(&tmp)).expect("perturbed lint runs");
    assert_ne!(report.to_sarif(), golden("taint.sarif"));
    assert_eq!(report.findings.len(), 3, "{:#?}", report.findings);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("`sneaky`") || f.message.contains("reaches `sneaky`")),
        "new flow must be attributed to `sneaky`: {:#?}",
        report.findings
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
