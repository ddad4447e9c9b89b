//! Fixture-driven end-to-end tests: one known violation per rule, a
//! clean fixture with zero findings, and the registry cross-check over
//! a fixture doc table.

// Test helpers outside `#[test]` fns miss clippy.toml's in-tests exemption.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_lint::{run, Config};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn one_violation(dir: &str, file: &str, rule: &str, line: u32) {
    let report = run(&Config::workspace(fixture_root().join(dir))).expect("fixture lint runs");
    assert_eq!(
        report.findings.len(),
        1,
        "{dir}/{file}: expected exactly one finding, got {:#?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.rule, rule);
    assert_eq!(f.line, line);
    assert_eq!(f.path, file);
}

#[test]
fn float_eq_fixture() {
    one_violation("violations", "float_eq.rs", "float-eq", 4);
}

#[test]
fn metric_registry_fixture() {
    let cfg = Config {
        root: fixture_root().join("registry"),
        registry_module: None,
        registry_doc: Some(PathBuf::from("registry.md")),
        policy: None,
    };
    let report = run(&cfg).expect("registry fixture lint runs");
    // One per-name finding at the call site plus the aggregate drift
    // summary on the doc file.
    assert_eq!(
        report.findings.len(),
        2,
        "expected per-name finding + drift summary, got {:#?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.rule, "metric-registry");
    assert_eq!(f.path, "emit.rs");
    assert_eq!(f.line, 6);
    assert!(f.message.contains("lint.fixture.undocumented"));
    let s = &report.findings[1];
    assert_eq!(s.path, "registry.md");
    assert!(s.message.contains("registry drift"), "{}", s.message);
    assert!(
        s.message.contains("missing from registry.md: lint.fixture.undocumented"),
        "{}",
        s.message
    );
    assert!(s.message.contains("not in code: none"), "{}", s.message);
}

#[test]
fn clean_fixture_has_zero_findings() {
    let cfg = Config {
        root: fixture_root().join("clean"),
        registry_module: None,
        registry_doc: None,
        policy: None,
    };
    let report = run(&cfg).expect("clean fixture lint runs");
    assert!(
        report.findings.is_empty(),
        "clean fixture must have zero findings, got {:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn violations_dir_walk_finds_every_rule_once() {
    let cfg = Config {
        root: fixture_root().join("violations"),
        registry_module: None,
        registry_doc: None,
        policy: None,
    };
    let report = run(&cfg).expect("violations walk runs");
    let rules: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["float-eq"]);
}

/// A `.rs` file the walk cannot read fails the run with its path, as an
/// unwalkable root does: skipping it would report the root clean with
/// that file's findings unread.
#[test]
fn an_unreadable_file_is_an_error_not_a_clean_pass() {
    let root = std::env::temp_dir().join(format!("dcc-lint-unreadable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).expect("mkdir");
    let lib = root.join("src/lib.rs");
    let source = b"fn f(x: f64) -> bool { x == 0.5 }\n";
    std::fs::write(&lib, source).expect("write lib.rs");
    let report = run(&Config::workspace(&root)).expect("a readable root lints");
    let rules: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["float-eq"]);

    // One byte that is not UTF-8, inside a comment.
    std::fs::write(&lib, [&source[..], b"// \xff\n"].concat()).expect("write lib.rs");
    let err = run(&Config::workspace(&root)).expect_err("an unreadable file must fail the run");
    assert!(err.starts_with("read src/lib.rs: "), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}
