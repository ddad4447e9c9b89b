//! `dcc lint`'s exit codes, through the built binary: a lint that cannot
//! read its input is an execution failure (exit 1), as in every other
//! command; only the command line itself is a usage error (exit 2).

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

/// Checks that `out` is an execution failure whose message contains
/// `message`.
fn assert_fails_with(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
}

#[test]
fn a_root_that_does_not_exist_fails() {
    let root = std::env::temp_dir().join(format!("dcc_lint_no_such_dir_{}", std::process::id()));
    let root = root.to_str().unwrap();
    assert_fails_with(&dcc(&["lint", "--root", root]), &format!("walk {root}: "));
}

#[test]
fn a_malformed_policy_fails() {
    let root = TempDir::new("dcc_lint_bad_policy");
    let at = |file: &str| root.path().join(file);
    std::fs::create_dir_all(at("src")).unwrap();
    std::fs::create_dir_all(at("policies")).unwrap();
    std::fs::write(at("src/lib.rs"), "pub fn f() {}\n").unwrap();
    for policy in ["dcc-lint.policy", "policies/strict.policy"] {
        std::fs::write(at(policy), "launder nonsense\n").unwrap();
    }
    let root = root.path().to_str().unwrap();
    // The root's own policy, read by default; then a `--policy` path,
    // which is relative to the root.
    assert_fails_with(
        &dcc(&["lint", "--root", root]),
        "dcc-lint.policy:1: missing mandatory ` -- <reason>`",
    );
    assert_fails_with(
        &dcc(&["lint", "--root", root, "--policy", "policies/strict.policy"]),
        "policies/strict.policy:1: missing mandatory ` -- <reason>`",
    );
}
