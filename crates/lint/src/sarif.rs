//! SARIF 2.1.0 emission for GitHub code scanning.
//!
//! The document is byte-deterministic: results arrive pre-sorted by
//! (path, line, rule), the rules array lists only rules that appear
//! (in first-appearance order, referenced by `ruleIndex`), and nothing
//! time- or environment-dependent is embedded — no timestamps, no
//! absolute paths, no invocation records. Taint traces render as
//! `codeFlows`/`threadFlows`.

use crate::report::escape;
use crate::Finding;
use std::fmt::Write as _;

/// One-line rule descriptions for the SARIF rules array.
fn rule_description(rule: &str) -> &'static str {
    match rule {
        "float-eq" => "No visibly-float == / != comparisons; use dcc_numerics helpers.",
        "metric-registry" => "Metric names in code and docs/observability.md must stay in sync.",
        "determinism-taint" => {
            "No nondeterministic value may flow through the call graph into a digest, checkpoint, golden snapshot, or metric emission."
        }
        "taint-policy" => "Taint policy entries must match something in the workspace.",
        "bad-suppression" => "Inline suppressions must name a known rule and carry a reason.",
        "unused-suppression" => "Inline suppressions must suppress an actual finding.",
        _ => "dcc-lint finding.",
    }
}

/// Renders a complete SARIF 2.1.0 document. `findings` must already
/// be sorted by (path, line, rule).
pub fn render(findings: &[Finding]) -> String {
    // Rules array: first-appearance order, deduped.
    let mut rules: Vec<&str> = Vec::new();
    for f in findings {
        if !rules.contains(&f.rule) {
            rules.push(f.rule);
        }
    }
    let rule_index = |rule: &str| rules.iter().position(|r| *r == rule).unwrap_or(0);

    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"dcc-lint\",\"informationUri\":\"https://example.invalid/dcc/docs/static-analysis.md\",\"version\":\"",
    );
    out.push_str(env!("CARGO_PKG_VERSION"));
    out.push_str("\",\"rules\":[");
    for (i, rule) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            escape(rule),
            escape(rule_description(rule))
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ruleId\":{},\"ruleIndex\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\"locations\":[{}]",
            escape(f.rule),
            rule_index(f.rule),
            escape(&f.message),
            location(&f.path, f.line, None)
        );
        if !f.trace.is_empty() {
            out.push_str(",\"codeFlows\":[{\"threadFlows\":[{\"locations\":[");
            for (j, step) in f.trace.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"location\":{}}}",
                    location(&step.path, step.line, Some(&step.note))
                );
            }
            out.push_str("]}]}]");
        }
        out.push('}');
    }
    out.push_str("]}]}");
    out
}

/// A SARIF location object; with a message when used in a thread flow.
fn location(path: &str, line: u32, message: Option<&str>) -> String {
    let mut out = String::from("{");
    if let Some(m) = message {
        let _ = write!(out, "\"message\":{{\"text\":{}}},", escape(m));
    }
    let _ = write!(
        out,
        "\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\"region\":{{\"startLine\":{line}}}}}}}",
        escape(path)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStep;

    #[test]
    fn sarif_document_shape_and_determinism() {
        let plain = Finding::new("float-eq", "a.rs", 3, "float == comparison".to_string());
        let taint = Finding::with_trace(
            "determinism-taint",
            "b.rs",
            9,
            "tainted value may reach digest sink".to_string(),
            vec![
                TraceStep {
                    path: "a.rs".to_string(),
                    line: 2,
                    note: "wall-clock source".to_string(),
                },
                TraceStep {
                    path: "b.rs".to_string(),
                    line: 9,
                    note: "sink call".to_string(),
                },
            ],
        );
        let findings = [plain, taint];
        let doc = render(&findings);
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("\"id\":\"float-eq\""));
        assert!(doc.contains("\"ruleIndex\":1"), "{doc}");
        assert!(doc.contains("\"codeFlows\""));
        assert!(doc.contains("\"startLine\":9"));
        // Determinism: same input, same bytes.
        assert_eq!(doc, render(&findings));
        // No timestamps or absolute paths sneak in.
        assert!(!doc.contains("/root/"));
    }

    #[test]
    fn empty_results_still_render_valid_shell() {
        let doc = render(&[]);
        assert!(doc.contains("\"results\":[]"));
        assert!(doc.contains("\"rules\":[]"));
    }
}
