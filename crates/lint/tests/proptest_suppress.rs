//! Property: `// dcc-lint: allow(rule, reason = "…")` suppressions are
//! honored exactly once per line — a suppression silences findings of
//! its rule on its target line only, never a neighboring line, and a
//! suppression with nothing to suppress is reported as
//! `unused-suppression`. That a suppression never silences a different
//! rule is a unit test in `src/suppress.rs`.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_lint::lint_source;
use proptest::prelude::*;

/// Violation templates, one per `float-eq` trigger form: each line
/// triggers the rule exactly once when unsuppressed.
const TEMPLATES: [(&str, &str); 4] = [
    ("float-eq", "let _a = x == 1.0;"),
    ("float-eq", "let _b = y != -2.5;"),
    ("float-eq", "let _c = n as f64 == z;"),
    ("float-eq", "let _d = w == f64::INFINITY;"),
];

/// Builds a source file from (template index, suppressed?) pairs and
/// returns it with the expected (rule, line) findings.
fn build(entries: &[(usize, bool)]) -> (String, Vec<(&'static str, u32)>) {
    let mut src = String::from("fn generated() {\n");
    let mut line = 1u32;
    let mut expected = Vec::new();
    for &(idx, suppressed) in entries {
        let (rule, stmt) = TEMPLATES[idx % TEMPLATES.len()];
        if suppressed {
            src.push_str(&format!(
                "    // dcc-lint: allow({rule}, reason = \"generated case\")\n"
            ));
            line += 1;
        }
        src.push_str("    ");
        src.push_str(stmt);
        src.push('\n');
        line += 1;
        if !suppressed {
            expected.push((rule, line));
        }
    }
    src.push_str("}\n");
    (src, expected)
}

proptest! {
    #[test]
    fn suppressions_silence_exactly_their_line(
        entries in proptest::collection::vec((0usize..4, any::<bool>()), 0..12)
    ) {
        let (src, expected) = build(&entries);
        let findings = lint_source("crates/gen/src/lib.rs", &src);
        // No unused suppressions: every suppression sat on a violating
        // line, so each must have been consumed exactly once.
        prop_assert!(
            findings.iter().all(|f| f.rule != "unused-suppression"),
            "unexpected unused-suppression in {findings:#?}\nsource:\n{src}"
        );
        let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
        prop_assert_eq!(got, expected, "source:\n{}", src);
    }

    #[test]
    fn a_suppression_never_leaks_to_the_next_line(idx in 0usize..4) {
        // Two identical violations; only the first is suppressed. The
        // second must still be reported — the allow is line-scoped.
        let (rule, stmt) = TEMPLATES[idx];
        let src = format!(
            "fn generated() {{\n    // dcc-lint: allow({rule}, reason = \"first only\")\n    {stmt}\n    {stmt}\n}}\n"
        );
        let findings = lint_source("crates/gen/src/lib.rs", &src);
        prop_assert_eq!(findings.len(), 1, "{:#?}", findings);
        prop_assert_eq!(findings[0].rule, rule);
        prop_assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn an_unmatched_suppression_is_reported(idx in 0usize..4) {
        let (rule, _) = TEMPLATES[idx];
        let src = format!(
            "fn generated() {{\n    // dcc-lint: allow({rule}, reason = \"nothing here\")\n    let _x = 1;\n}}\n"
        );
        let findings = lint_source("crates/gen/src/lib.rs", &src);
        prop_assert_eq!(findings.len(), 1, "{:#?}", findings);
        prop_assert_eq!(findings[0].rule, "unused-suppression");
        prop_assert_eq!(findings[0].line, 2);
    }
}
