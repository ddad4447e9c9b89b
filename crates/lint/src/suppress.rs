//! Inline suppressions: `// dcc-lint: allow(<rule>, reason = "…")`.
//!
//! A trailing suppression applies to its own line; a standalone
//! suppression applies to the next line. Every suppression must name a
//! known rule and carry a non-empty reason — anything else is itself a
//! `bad-suppression` finding. A suppression that matches no finding is
//! an `unused-suppression` finding, so stale allows cannot linger.

use crate::lexer::Comment;
use crate::rules::RULE_IDS;
use crate::Finding;

/// One parsed suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule id being allowed.
    pub rule: String,
    /// The mandatory justification.
    #[allow(dead_code)]
    pub reason: String,
    /// Line the suppression comment starts on.
    pub comment_line: u32,
    /// Line the suppression applies to.
    pub target_line: u32,
    /// Whether a finding consumed this suppression.
    pub used: bool,
}

/// Parses all suppressions in `comments`; malformed ones become
/// findings in `findings`.
pub fn parse(path: &str, comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///…` lexes as a `//` comment whose text
        // starts with `/`; `//!…` starts with `!`) are documentation,
        // not directives — the suppression syntax may be *described*
        // there without being active.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(idx) = c.text.find("dcc-lint:") else {
            continue;
        };
        let rest = c.text[idx + "dcc-lint:".len()..].trim_start();
        match parse_allow(rest) {
            Ok((rule, reason)) => {
                if !RULE_IDS.contains(&rule.as_str()) {
                    findings.push(Finding::new(
                        "bad-suppression",
                        path,
                        c.line,
                        format!("unknown rule {rule:?} in dcc-lint suppression"),
                    ));
                    continue;
                }
                if reason.trim().is_empty() {
                    findings.push(Finding::new(
                        "bad-suppression",
                        path,
                        c.line,
                        format!("suppression of `{rule}` has an empty reason"),
                    ));
                    continue;
                }
                out.push(Suppression {
                    rule,
                    reason,
                    comment_line: c.line,
                    target_line: if c.trailing { c.line } else { c.line + 1 },
                    used: false,
                });
            }
            Err(msg) => findings.push(Finding::new("bad-suppression", path, c.line, msg)),
        }
    }
    out
}

/// Parses `allow(<rule>, reason = "…")`, returning `(rule, reason)`.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let body = s
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('('))
        .ok_or_else(|| "dcc-lint comment must be `allow(<rule>, reason = \"…\")`".to_string())?;
    let close = body
        .rfind(')')
        .ok_or_else(|| "unterminated dcc-lint allow(...)".to_string())?;
    let body = &body[..close];
    let (rule, rest) = match body.find(',') {
        Some(comma) => (body[..comma].trim(), body[comma + 1..].trim()),
        None => (body.trim(), ""),
    };
    if rule.is_empty() {
        return Err("dcc-lint allow(...) names no rule".to_string());
    }
    if rest.is_empty() {
        return Err(format!(
            "suppression of `{rule}` is missing the mandatory `reason = \"…\"`"
        ));
    }
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| t.rfind('"').map(|q| t[..q].to_string()))
        .ok_or_else(|| {
            format!("suppression of `{rule}` is missing the mandatory `reason = \"…\"`")
        })?;
    Ok((rule.to_string(), reason))
}

/// Drops findings covered by a suppression (marking it used), then
/// reports any suppression that covered nothing.
pub fn apply(
    path: &str,
    suppressions: &mut [Suppression],
    findings: Vec<Finding>,
) -> Vec<Finding> {
    let mut kept = Vec::with_capacity(findings.len());
    for f in findings {
        let slot = suppressions
            .iter_mut()
            .find(|s| s.rule == f.rule && s.target_line == f.line);
        match slot {
            Some(s) => s.used = true,
            None => kept.push(f),
        }
    }
    for s in suppressions.iter().filter(|s| !s.used) {
        kept.push(Finding::new(
            "unused-suppression",
            path,
            s.comment_line,
            format!("suppression of `{}` matches no finding on line {}", s.rule, s.target_line),
        ));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> (Vec<Suppression>, Vec<Finding>) {
        let lexed = lex(src);
        let mut findings = Vec::new();
        let sup = parse("f.rs", &lexed.comments, &mut findings);
        (sup, findings)
    }

    #[test]
    fn trailing_targets_own_line_standalone_targets_next() {
        let src = "\
// dcc-lint: allow(float-eq, reason = \"standalone\")
let a = x; // dcc-lint: allow(float-eq, reason = \"trailing\")
";
        let (sup, findings) = parse_src(src);
        assert!(findings.is_empty());
        assert_eq!(sup.len(), 2);
        assert_eq!((sup[0].rule.as_str(), sup[0].target_line), ("float-eq", 2));
        assert_eq!((sup[1].rule.as_str(), sup[1].target_line), ("float-eq", 2));
    }

    #[test]
    fn missing_reason_is_bad_suppression() {
        let (sup, findings) = parse_src("// dcc-lint: allow(float-eq)\n");
        assert!(sup.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "bad-suppression");
        assert!(findings[0].message.contains("mandatory"));
    }

    #[test]
    fn empty_reason_and_unknown_rule_are_bad() {
        let (sup, findings) = parse_src(
            "// dcc-lint: allow(float-eq, reason = \"  \")\n// dcc-lint: allow(nope, reason = \"x\")\n",
        );
        assert!(sup.is_empty());
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn apply_consumes_matching_findings_and_flags_unused() {
        let (mut sup, _) = parse_src(
            "// dcc-lint: allow(float-eq, reason = \"hit\")\nx\n// dcc-lint: allow(float-eq, reason = \"miss\")\ny\n",
        );
        let findings = vec![Finding::new("float-eq", "f.rs", 2, "v".to_string())];
        let kept = apply("f.rs", &mut sup, findings);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "unused-suppression");
        assert_eq!(kept[0].line, 3);
    }

    #[test]
    fn suppression_is_rule_specific() {
        let (mut sup, _) = parse_src("// dcc-lint: allow(float-eq, reason = \"r\")\nx\n");
        let findings = vec![Finding::new("determinism-taint", "f.rs", 2, "v".to_string())];
        let kept = apply("f.rs", &mut sup, findings);
        // Wrong rule: the finding survives and the suppression is unused.
        assert_eq!(kept.len(), 2);
    }
}
