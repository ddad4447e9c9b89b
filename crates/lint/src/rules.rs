//! The project-specific rules. Each rule walks the token stream of one
//! file; `metric-registry` additionally aggregates across files (see
//! [`crate::registry`]).

use crate::classify::TestRegions;
use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Every enforceable rule id, including the two meta rules produced by
/// suppression handling.
pub const RULE_IDS: &[&str] = &[
    "float-eq",
    "metric-registry",
    "determinism-taint",
    "taint-policy",
    "bad-suppression",
    "unused-suppression",
];

/// Per-file context shared by the token rules.
pub struct FileCtx<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// Token stream.
    pub tokens: &'a [Tok],
    /// `#[cfg(test)]` / `#[test]` line ranges.
    pub test_regions: &'a TestRegions,
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_regions.contains(line)
    }
}

/// Runs all single-file token rules, appending to `findings`.
pub fn run_token_rules(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    float_eq(ctx, findings);
}

/// Identifiers that make a `==`/`!=` operand float-typed on its face.
const FLOAT_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY", "EPSILON", "MAX", "MIN"];

/// `float-eq`: flags `==`/`!=` whose neighborhood is visibly
/// float-typed — a float literal on either side, a `… as f64`/`f32`
/// cast on the left, or an `f64::NAN`-style constant path. Type-aware
/// coverage (two float *variables* compared) is `clippy::float_cmp`'s
/// job; this rule is the source-level complement for what that lint
/// exempts — comparisons with zero and with named constants
/// (`x == 0.0`, `x == f64::INFINITY`) — and also runs on code clippy
/// has been allowed to skip.
fn float_eq(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let prev2 = i.checked_sub(2).and_then(|j| toks.get(j));
        let next = toks.get(i + 1);
        let next2 = toks.get(i + 2);
        let next3 = toks.get(i + 3);

        let lhs_float = matches!(prev, Some(p) if p.kind == TokKind::Float)
            || matches!((prev2, prev), (Some(a), Some(c))
                if a.text == "as" && (c.text == "f64" || c.text == "f32"))
            || matches!((prev2, prev), (Some(sep), Some(c))
                if sep.text == "::" && FLOAT_CONSTS.contains(&c.text.as_str()));
        let rhs_float = matches!(next, Some(n) if n.kind == TokKind::Float)
            || matches!((next, next2), (Some(m), Some(n))
                if m.text == "-" && n.kind == TokKind::Float)
            || matches!((next, next2, next3), (Some(a), Some(sep), Some(c))
                if (a.text == "f64" || a.text == "f32")
                    && sep.text == "::"
                    && FLOAT_CONSTS.contains(&c.text.as_str()));

        if lhs_float || rhs_float {
            findings.push(Finding::new(
                "float-eq",
                ctx.path,
                t.line,
                format!(
                    "float `{}` comparison; use dcc_numerics::{{approx_eq, exact_eq}} \
                     (or exact_ne) instead",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::test_regions;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        let ctx = FileCtx {
            path: "crates/x/src/lib.rs",
            tokens: &lexed.tokens,
            test_regions: &regions,
        };
        let mut findings = Vec::new();
        run_token_rules(&ctx, &mut findings);
        findings
    }

    #[test]
    fn float_eq_catches_literals_casts_and_consts() {
        let f = run("fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-eq");
        assert_eq!(run("fn f(x: f64) { if x != -1.0 {} }\n").len(), 1);
        assert_eq!(run("fn f(n: usize, x: f64) { let _ = n as f64 == x; }\n").len(), 1);
        assert_eq!(run("fn f(x: f64) { let _ = x == f64::INFINITY; }\n").len(), 1);
    }

    #[test]
    fn float_eq_ignores_ints_and_tests() {
        assert!(run("fn f(n: usize) { let _ = n == 0; }\n").is_empty());
        assert!(run("#[cfg(test)]\nmod tests {\n fn t(x: f64) { assert!(x == 1.0); }\n}\n")
            .is_empty());
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "#[test]\nfn t(x: f64) -> bool { x == 1.0 }\nfn lib(x: f64) -> bool { x == 1.0 }\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }
}
