//! Rendering: human-readable text and the machine-readable
//! `dcc-lint/2` JSON document (v2 adds per-finding taint `trace`
//! arrays; everything else is v1-compatible).

use crate::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders findings as `path:line: [rule] message` lines plus a
/// one-line summary.
pub fn render_text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        for (i, step) in f.trace.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}. {}:{}: {}",
                i + 1,
                step.path,
                step.line,
                step.note
            );
        }
    }
    if findings.is_empty() {
        let _ = writeln!(out, "dcc-lint: {files_scanned} files, no findings");
    } else {
        let _ = writeln!(
            out,
            "dcc-lint: {files_scanned} files, {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
    }
    out
}

/// Renders the `dcc-lint/2` JSON document: a versioned object with the
/// finding list (taint findings carry a `trace` array) and per-rule
/// counts, deterministically ordered.
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    let mut out = String::from("{\"schema\":\"dcc-lint/2\",");
    let _ = write!(out, "\"files_scanned\":{files_scanned},\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{}",
            escape(f.rule),
            escape(&f.path),
            f.line,
            escape(&f.message)
        );
        if !f.trace.is_empty() {
            out.push_str(",\"trace\":[");
            for (j, step) in f.trace.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"path\":{},\"line\":{},\"note\":{}}}",
                    escape(&step.path),
                    step.line,
                    escape(&step.note)
                );
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("],\"counts\":{");
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{n}", escape(rule));
    }
    out.push_str("}}");
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
/// Shared with the SARIF emitter.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_json_round_trip_the_essentials() {
        let findings = vec![
            Finding::new("float-eq", "a.rs", 3, "float `==` comparison".to_string()),
            Finding::new(
                "metric-registry",
                "b.rs",
                7,
                "quote \" and \\ back".to_string(),
            ),
        ];
        let text = render_text(&findings, 2);
        assert!(text.contains("a.rs:3: [float-eq]"));
        assert!(text.contains("2 findings"));
        let json = render_json(&findings, 2);
        assert!(json.starts_with("{\"schema\":\"dcc-lint/2\""));
        assert!(json.contains("\"files_scanned\":2"));
        assert!(json.contains("\\\" and \\\\ back"));
        assert!(json.contains("\"counts\":{\"float-eq\":1,\"metric-registry\":1}"));
    }

    #[test]
    fn taint_traces_render_in_text_and_json() {
        let f = Finding::with_trace(
            "determinism-taint",
            "b.rs",
            9,
            "tainted value may reach digest sink".to_string(),
            vec![
                crate::TraceStep {
                    path: "a.rs".to_string(),
                    line: 2,
                    note: "wall-clock source".to_string(),
                },
                crate::TraceStep {
                    path: "b.rs".to_string(),
                    line: 9,
                    note: "sink call".to_string(),
                },
            ],
        );
        let text = render_text(std::slice::from_ref(&f), 2);
        assert!(text.contains("    1. a.rs:2: wall-clock source"), "{text}");
        assert!(text.contains("    2. b.rs:9: sink call"), "{text}");
        let json = render_json(std::slice::from_ref(&f), 2);
        assert!(
            json.contains("\"trace\":[{\"path\":\"a.rs\",\"line\":2,"),
            "{json}"
        );
    }

    #[test]
    fn empty_findings_render_cleanly() {
        assert!(render_text(&[], 5).contains("no findings"));
        assert!(render_json(&[], 5).contains("\"findings\":[]"));
    }
}
