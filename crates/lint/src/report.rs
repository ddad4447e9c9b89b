//! Rendering: human-readable text, and the JSON string escaping the
//! SARIF emitter uses.

use crate::Finding;
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

/// JSON string escaping (quotes, backslashes, control characters)
/// for the SARIF emitter.
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
    fn text_and_escaping_keep_the_essentials() {
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
        assert_eq!(escape(&findings[1].message), "\"quote \\\" and \\\\ back\"");
    }

    #[test]
    fn taint_traces_render_in_text() {
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
    }

    #[test]
    fn empty_findings_render_cleanly() {
        assert!(render_text(&[], 5).contains("no findings"));
    }
}
