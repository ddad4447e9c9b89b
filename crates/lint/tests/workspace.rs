//! End-to-end checks against the real workspace: the full analyzer
//! (token rules + registry cross-check + determinism-taint with the
//! checked-in policy) must be clean at head, and the `metric-registry`
//! direction-1 coverage must see every `serve.*` and `batch.*` name
//! through constant resolution — the serve and batch crates emit via
//! `names::CONST` references, not string literals, so these names
//! prove the const→value resolution path end-to-end.

// Test helpers outside `#[test]` fns miss clippy.toml's in-tests exemption.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_lint::{classify, lexer, registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// The 9 `serve.*` names of the streaming service.
const SERVE_NAMES: &[&str] = &[
    "serve.round",
    "serve.events",
    "serve.rounds",
    "serve.dirty.workers",
    "serve.dirty.products",
    "serve.solve.resolved",
    "serve.fit.refits",
    "serve.checkpoint.saved",
    "serve.checkpoint.restored",
];

/// The 4 supervision names of the supervised batch scheduler.
const BATCH_SUPERVISION_NAMES: &[&str] = &[
    "batch.quarantine.scenarios",
    "batch.quarantine.panics",
    "batch.quarantine.budget_exhausted",
    "batch.checkpoint.restored",
];

#[test]
fn workspace_lint_is_clean_at_head() {
    let cfg = dcc_lint::Config::workspace(workspace_root());
    assert!(
        cfg.policy.is_some(),
        "dcc-lint.policy must exist at the workspace root"
    );
    let report = dcc_lint::run(&cfg).expect("workspace lint runs");
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean, got {:#?}",
        report.findings
    );
}

/// Lexes every non-test `.rs` file under `dir` and feeds it to the
/// emission collector.
fn collect_dir(
    root: &Path,
    dir: &str,
    names: &mut Vec<registry::CodeName>,
    refs: &mut Vec<registry::ConstRef>,
) {
    let mut entries: Vec<_> = std::fs::read_dir(root.join(dir))
        .expect("crate src dir reads")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        let rel = format!(
            "{dir}/{}",
            path.file_name().expect("file name").to_string_lossy()
        );
        let src = std::fs::read_to_string(&path).expect("source reads");
        let lexed = lexer::lex(&src);
        let regions = classify::test_regions(&lexed.tokens);
        registry::collect_emissions(&rel, &lexed.tokens, &regions, names, refs);
    }
}

#[test]
fn serve_and_batch_names_are_covered_end_to_end() {
    let root = workspace_root();

    // Direction 1: emissions in the serve/batch crates plus the CLI
    // (checkpoint counters are emitted from `cmd_serve`), via const
    // refs.
    let mut names = Vec::new();
    let mut refs = Vec::new();
    collect_dir(&root, "crates/serve/src", &mut names, &mut refs);
    collect_dir(&root, "crates/batch/src", &mut names, &mut refs);
    collect_dir(&root, "crates/cli/src", &mut names, &mut refs);
    assert!(
        !refs.is_empty(),
        "serve/batch must emit via names:: constants"
    );

    let obs_src =
        std::fs::read_to_string(root.join("crates/obs/src/lib.rs")).expect("obs lib reads");
    let map = registry::const_map(&lexer::lex(&obs_src).tokens);
    let mut findings = Vec::new();
    registry::resolve_const_refs(&refs, &map, &mut names, &mut findings);
    assert!(
        findings.is_empty(),
        "every emitted constant must resolve, got {findings:#?}"
    );

    let emitted: Vec<&str> = names.iter().map(|n| n.name.as_str()).collect();
    for want in SERVE_NAMES.iter().chain(BATCH_SUPERVISION_NAMES) {
        assert!(
            emitted.contains(want),
            "{want} must be emitted from the serve/batch crates; saw {emitted:#?}"
        );
    }

    // Direction 3: all of them documented.
    let doc_src =
        std::fs::read_to_string(root.join("docs/observability.md")).expect("doc reads");
    let doc = registry::doc_names(&doc_src);
    for want in SERVE_NAMES.iter().chain(BATCH_SUPERVISION_NAMES) {
        assert!(doc.contains_key(*want), "{want} must be documented");
    }

    // And the cross-check over exactly this slice is drift-free.
    let mut drift = Vec::new();
    let doc_slice: BTreeMap<String, u32> = doc
        .into_iter()
        .filter(|(k, _)| {
            names.iter().any(|n| &n.name == k)
        })
        .collect();
    registry::cross_check(&names, &doc_slice, "docs/observability.md", &mut drift);
    assert!(drift.is_empty(), "{drift:#?}");
}

#[test]
fn drift_summary_names_exact_rows_when_a_doc_row_is_removed() {
    let root = workspace_root();
    let doc_src =
        std::fs::read_to_string(root.join("docs/observability.md")).expect("doc reads");
    // Simulate doc drift: drop the serve.events row, add a phantom row.
    let mutated: String = doc_src
        .lines()
        .filter(|l| !l.contains("`serve.events`"))
        .chain(std::iter::once("| `serve.phantom` | counter | never emitted |"))
        .map(|l| format!("{l}\n"))
        .collect();
    let doc = registry::doc_names(&mutated);
    let code = vec![registry::CodeName {
        name: "serve.events".to_string(),
        path: "crates/serve/src/service.rs".to_string(),
        line: 1,
        is_emission: true,
    }];
    let code_present: BTreeMap<String, u32> = doc
        .into_iter()
        .filter(|(k, _)| k.starts_with("serve.phantom"))
        .collect();
    let mut findings = Vec::new();
    registry::cross_check(&code, &code_present, "docs/observability.md", &mut findings);
    let summary = findings
        .iter()
        .find(|f| f.message.contains("registry drift"))
        .expect("summary fires");
    assert!(
        summary.message.contains("missing from docs/observability.md: serve.events"),
        "{}",
        summary.message
    );
    assert!(
        summary.message.contains("not in code: serve.phantom"),
        "{}",
        summary.message
    );
}
