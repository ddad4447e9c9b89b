//! The finding baseline and its ratchet rule.
//!
//! The baseline (`dcc-lint.baseline` at the workspace root) records
//! known findings that are sanctioned pending staged burn-down, one per
//! line with a mandatory justification:
//!
//! ```text
//! # comment
//! determinism-taint crates/x/src/lib.rs:42 -- legacy flow, tracked in ROADMAP
//! ```
//!
//! The ratchet: `dcc lint --baseline <file>` fails when a finding is
//! **not** in the baseline (no new debt), *and* when a baseline entry
//! no longer fires (the debt was paid — the entry must be deleted so
//! the ratchet can never loosen). `--update-baseline` regenerates the
//! file from current findings, preserving justifications for entries
//! that still fire.

use crate::Finding;
use std::fmt::Write as _;

/// One baseline entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Rule id of the baselined finding.
    pub rule: String,
    /// Workspace-relative path of the baselined finding.
    pub path: String,
    /// 1-based line of the baselined finding.
    pub line: u32,
    /// Mandatory justification.
    pub justification: String,
    /// 1-based line in the baseline file (for stale reporting).
    pub file_line: u32,
}

/// The parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<Entry>,
    /// Workspace-relative path of the baseline file itself.
    pub path: String,
}

/// Result of applying the ratchet to a finding list.
#[derive(Debug)]
pub struct Outcome {
    /// Findings not in the baseline — new debt; these fail the run.
    pub fresh: Vec<Finding>,
    /// Baselined findings with their justifications (suppressed in
    /// text/exit-code terms, still visible in SARIF).
    pub suppressed: Vec<(Finding, String)>,
    /// Baseline entries that no longer fire — these also fail the run.
    pub stale: Vec<Entry>,
}

impl Outcome {
    /// Whether the ratchet passes: nothing fresh, nothing stale.
    pub fn clean(&self) -> bool {
        self.fresh.is_empty() && self.stale.is_empty()
    }
}

impl Baseline {
    /// Parses baseline `source` read from `path`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(path: &str, source: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (i, raw) in source.lines().enumerate() {
            let file_line = u32::try_from(i + 1).unwrap_or(u32::MAX);
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let Some((head, justification)) = text.split_once(" -- ") else {
                return Err(format!(
                    "{path}:{file_line}: missing mandatory ` -- <justification>` on baseline entry"
                ));
            };
            let justification = justification.trim();
            if justification.is_empty() {
                return Err(format!(
                    "{path}:{file_line}: empty justification on baseline entry"
                ));
            }
            let mut parts = head.split_whitespace();
            let (Some(rule), Some(loc), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!(
                    "{path}:{file_line}: baseline entries are `<rule> <path>:<line> -- <justification>`"
                ));
            };
            let Some((fpath, line)) = loc.rsplit_once(':') else {
                return Err(format!(
                    "{path}:{file_line}: baseline location must be `<path>:<line>`"
                ));
            };
            let Ok(line) = line.parse::<u32>() else {
                return Err(format!(
                    "{path}:{file_line}: baseline line number {line:?} is not a number"
                ));
            };
            entries.push(Entry {
                rule: rule.to_string(),
                path: fpath.to_string(),
                line,
                justification: justification.to_string(),
                file_line,
            });
        }
        Ok(Baseline {
            entries,
            path: path.to_string(),
        })
    }

    /// Applies the ratchet: splits `findings` into fresh vs. baselined
    /// and reports entries that no longer fire. Matching is exact on
    /// (rule, path, line); each entry absorbs at most one finding.
    pub fn apply(&self, findings: Vec<Finding>) -> Outcome {
        let mut used = vec![false; self.entries.len()];
        let mut fresh = Vec::new();
        let mut suppressed = Vec::new();
        for f in findings {
            let slot = self.entries.iter().enumerate().find(|(i, e)| {
                !used[*i] && e.rule == f.rule && e.path == f.path && e.line == f.line
            });
            match slot {
                Some((i, e)) => {
                    used[i] = true;
                    suppressed.push((f, e.justification.clone()));
                }
                None => fresh.push(f),
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(e, _)| e.clone())
            .collect();
        Outcome {
            fresh,
            suppressed,
            stale,
        }
    }
}

/// Renders a baseline file from current findings, preserving the
/// justification of any entry in `previous` that still matches and
/// stamping `TODO: justify or fix` on genuinely new entries.
pub fn render(findings: &[Finding], previous: &Baseline) -> String {
    let mut out = String::from(
        "# dcc-lint baseline — sanctioned findings pending burn-down.\n\
         # Format: <rule> <path>:<line> -- <justification>\n\
         # The ratchet fails on findings missing here AND on entries that no longer fire.\n",
    );
    for f in findings {
        let prev = previous
            .entries
            .iter()
            .find(|e| e.rule == f.rule && e.path == f.path && e.line == f.line);
        let justification = prev
            .map(|e| e.justification.as_str())
            .unwrap_or("TODO: justify or fix");
        let _ = writeln!(out, "{} {}:{} -- {}", f.rule, f.path, f.line, justification);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: u32) -> Finding {
        Finding::new(rule, path, line, format!("{rule} at {path}:{line}"))
    }

    #[test]
    fn ratchet_passes_only_when_exactly_matched() {
        let b = Baseline::parse(
            "dcc-lint.baseline",
            "determinism-taint a.rs:4 -- legacy\nfloat-eq b.rs:7 -- migrating\n",
        )
        .expect("parses");
        // Exact match on both: clean.
        let out = b.apply(vec![
            finding("determinism-taint", "a.rs", 4),
            finding("float-eq", "b.rs", 7),
        ]);
        assert!(out.clean());
        assert_eq!(out.suppressed.len(), 2);
        assert_eq!(out.suppressed[0].1, "legacy");
        // A new finding trips the ratchet.
        let out = b.apply(vec![
            finding("determinism-taint", "a.rs", 4),
            finding("float-eq", "b.rs", 7),
            finding("metric-registry", "c.rs", 1),
        ]);
        assert!(!out.clean());
        assert_eq!(out.fresh.len(), 1);
        assert_eq!(out.fresh[0].rule, "metric-registry");
        // A fixed finding makes its entry stale — also a failure.
        let out = b.apply(vec![finding("determinism-taint", "a.rs", 4)]);
        assert!(!out.clean());
        assert_eq!(out.stale.len(), 1);
        assert_eq!(out.stale[0].rule, "float-eq");
        assert_eq!(out.stale[0].file_line, 2);
    }

    #[test]
    fn malformed_baselines_are_hard_errors() {
        for bad in [
            "determinism-taint a.rs:4",          // no justification
            "determinism-taint a.rs:4 -- ",      // empty justification
            "determinism-taint a.rs -- x",       // no line number
            "determinism-taint a.rs:four -- x",  // bad line number
            "determinism-taint -- x",            // no location
            "a b c:1 -- x",                      // too many fields
        ] {
            assert!(Baseline::parse("b", bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn update_preserves_justifications_and_stamps_new_entries() {
        let prev = Baseline::parse("b", "float-eq b.rs:7 -- migrating\n").expect("parses");
        let rendered = render(
            &[finding("float-eq", "b.rs", 7), finding("metric-registry", "c.rs", 1)],
            &prev,
        );
        assert!(rendered.contains("float-eq b.rs:7 -- migrating"));
        assert!(rendered.contains("metric-registry c.rs:1 -- TODO: justify or fix"));
        // Round-trip: the rendered file parses and is clean against the
        // same findings.
        let b = Baseline::parse("b", &rendered).expect("round-trips");
        assert!(b
            .apply(vec![finding("float-eq", "b.rs", 7), finding("metric-registry", "c.rs", 1)])
            .clean());
    }
}
