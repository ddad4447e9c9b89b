//! A lightweight item-level Rust parser built on [`crate::lexer`].
//!
//! The goal is *not* to parse Rust — only to recover the structure the
//! determinism-taint pass needs: which functions exist (with their
//! `Type::method` qualification and in-file module path), which token
//! range each body covers, what each body *calls*, and what the file
//! `use`s. Everything else (expressions, types, generics) is skipped
//! with brace/bracket matching.
//!
//! The parser is total: any token stream the lexer produces yields a
//! `ParsedFile` without panicking. Unrecognized constructs are simply
//! not items; the property tests in `tests/proptest_parser.rs` hold it
//! to that contract on adversarial inputs (raw strings, `r#ident`s,
//! nested block comments, unbalanced braces).

use crate::lexer::{Tok, TokKind};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee identifier (the final path segment).
    pub name: String,
    /// Path segments before the name (`alpha::helpers::f` → `["alpha",
    /// "helpers"]`); empty for bare and method calls.
    pub qualifier: Vec<String>,
    /// Whether this is a `.name(…)` method call.
    pub method: bool,
    /// 1-based source line of the callee identifier.
    pub line: u32,
}

/// One `fn` item (free function, inherent/trait method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Qualified name: `Type::name` inside `impl Type`/`trait Type`
    /// blocks, otherwise the bare name.
    pub qual: String,
    /// `::`-joined in-file module path (empty at file root).
    pub module: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (or the declaration
    /// line when there is no body).
    pub end_line: u32,
    /// Token index range of the body contents (between the braces);
    /// empty for bodiless trait declarations.
    pub body: std::ops::Range<usize>,
    /// Call sites in the body, in source order.
    pub calls: Vec<Call>,
}

/// One leaf of a `use` tree: `use a::b::{c, d as e};` yields leaves
/// `c` → `a::b::c` and `e` → `a::b::d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseLeaf {
    /// The name the import binds in this file.
    pub leaf: String,
    /// Full path segments of the imported item.
    pub path: Vec<String>,
}

/// Parser output for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnItem>,
    /// Flattened `use` tree leaves.
    pub uses: Vec<UseLeaf>,
}

/// Keywords that can be followed by `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "ref", "mut",
    "let", "fn", "impl", "trait", "struct", "enum", "union", "where", "pub", "use", "mod",
    "const", "static", "type", "unsafe", "dyn", "break", "continue", "await", "async",
];

/// Parses one lexed file.
pub fn parse_file(path: &str, tokens: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile {
        path: path.to_string(),
        ..ParsedFile::default()
    };
    let mut p = Parser { tokens, out: &mut out };
    p.items(0, tokens.len(), &[], None);
    out
}

struct Parser<'a, 'b> {
    tokens: &'a [Tok],
    out: &'b mut ParsedFile,
}

impl Parser<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.tokens.get(i).is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map_or(0, |t| t.line)
    }

    /// Index just past the `]` matching the `[` at `open`.
    fn skip_bracket(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            match self.text(i) {
                "[" => depth += 1,
                "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Index just past the `}` matching the `{` at `open`.
    fn skip_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            match self.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Walks items in `[start, end)`. `modules` is the enclosing module
    /// path, `owner` the enclosing `impl`/`trait` type (if any).
    fn items(&mut self, start: usize, end: usize, modules: &[String], owner: Option<&str>) {
        let mut i = start;
        while i < end {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" => {
                    i = self.skip_bracket(i + 1, end);
                }
                "mod" if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    if self.text(i + 2) == "{" {
                        let close = self.skip_brace(i + 2, end);
                        let mut nested: Vec<String> = modules.to_vec();
                        nested.push(name);
                        self.items(i + 3, close.saturating_sub(1), &nested, None);
                        i = close;
                    } else {
                        i += 2; // `mod name;` — out-of-line, its own file
                    }
                }
                "impl" | "trait" => {
                    i = self.impl_or_trait(i, end, modules);
                }
                "use" => {
                    i = self.use_tree(i + 1, end);
                }
                "fn" if self.is_ident(i + 1) => {
                    i = self.fn_item(i, end, modules, owner);
                }
                "{" => {
                    // A stray block at item level (e.g. const initializer
                    // we did not special-case): descend so nested fns are
                    // still found.
                    let close = self.skip_brace(i, end);
                    self.items(i + 1, close.saturating_sub(1), modules, owner);
                    i = close;
                }
                _ => i += 1,
            }
        }
    }

    /// Parses an `impl`/`trait` header starting at `kw`, then its items
    /// with the owner type set. Returns the index just past the block.
    fn impl_or_trait(&mut self, kw: usize, end: usize, modules: &[String]) -> usize {
        let is_trait = self.text(kw) == "trait";
        let mut i = kw + 1;
        let mut angle = 0i32;
        let mut ty: Option<String> = None;
        while i < end {
            match self.text(i) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break,
                ";" if angle <= 0 => return i + 1, // `trait X: Y;`-ish or parse slip
                "for" if angle <= 0 && !is_trait => ty = None, // `impl Trait for Type`
                "where" if angle <= 0 => {
                    // Type name is fixed by now; skip to the block.
                    while i < end && self.text(i) != "{" && self.text(i) != ";" {
                        i += 1;
                    }
                    continue;
                }
                _ => {
                    if angle <= 0 && self.is_ident(i) && ty.is_none() {
                        ty = Some(self.text(i).to_string());
                    } else if angle <= 0
                        && self.is_ident(i)
                        && self.text(i + 1) != "("
                        && !is_trait
                    {
                        // Later path segments (`impl a::b::Type`) keep
                        // the last one.
                        if self.text(i.wrapping_sub(1)) == "::" {
                            ty = Some(self.text(i).to_string());
                        }
                    }
                }
            }
            i += 1;
        }
        if i >= end {
            return end;
        }
        let close = self.skip_brace(i, end);
        let owner = ty.unwrap_or_default();
        let owner = (!owner.is_empty()).then_some(owner.as_str());
        self.items(i + 1, close.saturating_sub(1), modules, owner);
        close
    }

    /// Flattens one `use` tree starting just after the `use` keyword.
    /// Returns the index just past the terminating `;`.
    fn use_tree(&mut self, start: usize, end: usize) -> usize {
        // Collect tokens up to the `;`, then flatten.
        let mut stop = start;
        while stop < end && self.text(stop) != ";" {
            stop += 1;
        }
        let mut prefix: Vec<String> = Vec::new();
        self.flatten_use(start, stop, &mut prefix);
        stop.min(end).saturating_add(1).min(end.max(start))
    }

    fn flatten_use(&mut self, start: usize, end: usize, prefix: &mut Vec<String>) {
        let base = prefix.len();
        let mut i = start;
        let mut last: Option<String> = None;
        while i < end {
            match self.text(i) {
                "::" => {
                    if let Some(seg) = last.take() {
                        prefix.push(seg);
                    }
                }
                "{" => {
                    // Group: flatten each comma-separated element.
                    let close = self.skip_brace(i, end);
                    let mut j = i + 1;
                    let mut elem_start = j;
                    let mut depth = 0usize;
                    while j < close.saturating_sub(1) {
                        match self.text(j) {
                            "{" => depth += 1,
                            "}" => depth = depth.saturating_sub(1),
                            "," if depth == 0 => {
                                self.flatten_use(elem_start, j, prefix);
                                elem_start = j + 1;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    self.flatten_use(elem_start, close.saturating_sub(1), prefix);
                    prefix.truncate(base);
                    return;
                }
                "as" => {
                    // `x as y`: the binding is y, the path ends at x.
                    if let (Some(orig), true) = (last.take(), self.is_ident(i + 1)) {
                        let mut path = prefix.clone();
                        path.push(orig);
                        self.out.uses.push(UseLeaf {
                            leaf: self.text(i + 1).to_string(),
                            path,
                        });
                    }
                    prefix.truncate(base);
                    return;
                }
                "*" => {
                    prefix.truncate(base);
                    return; // glob: no single leaf
                }
                _ => {
                    if self.is_ident(i) {
                        last = Some(self.text(i).to_string());
                    }
                }
            }
            i += 1;
        }
        if let Some(leaf) = last {
            let mut path = prefix.clone();
            path.push(leaf.clone());
            self.out.uses.push(UseLeaf { leaf, path });
        }
        prefix.truncate(base);
    }

    /// Parses a `fn` item starting at the `fn` keyword. Returns the
    /// index just past the item.
    fn fn_item(&mut self, kw: usize, end: usize, modules: &[String], owner: Option<&str>) -> usize {
        let name = self.text(kw + 1).to_string();
        let line = self.line(kw);
        // Find the body `{` or a terminating `;`, skipping generic
        // angle depth so `fn f<T: Into<{…}>>` cannot confuse us (close
        // enough: `{` at angle depth 0 opens the body).
        let mut i = kw + 2;
        let mut angle = 0i32;
        while i < end {
            match self.text(i) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "->" => {}
                ";" if angle <= 0 => {
                    self.push_fn(name, line, self.line(i), 0..0, Vec::new(), modules, owner);
                    return i + 1;
                }
                "{" if angle <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        if i >= end {
            self.push_fn(name, line, line, 0..0, Vec::new(), modules, owner);
            return end;
        }
        let close = self.skip_brace(i, end);
        let body = (i + 1)..close.saturating_sub(1);
        let calls = self.scan_calls(body.clone());
        let end_line = self.line(close.saturating_sub(1).min(self.tokens.len().saturating_sub(1)));
        self.push_fn(name, line, end_line.max(line), body.clone(), calls, modules, owner);
        // Nested `fn` items inside the body become their own items.
        self.nested_fns(body, modules, owner);
        close
    }

    #[allow(clippy::too_many_arguments)]
    fn push_fn(
        &mut self,
        name: String,
        line: u32,
        end_line: u32,
        body: std::ops::Range<usize>,
        calls: Vec<Call>,
        modules: &[String],
        owner: Option<&str>,
    ) {
        let qual = match owner {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        self.out.fns.push(FnItem {
            name,
            qual,
            module: modules.join("::"),
            line,
            end_line,
            body,
            calls,
        });
    }

    /// Finds `fn` items nested inside a body and records them (their
    /// calls are also attributed to the enclosing fn by `scan_calls`,
    /// which is the conservative direction for taint).
    fn nested_fns(&mut self, body: std::ops::Range<usize>, modules: &[String], owner: Option<&str>) {
        let mut i = body.start;
        while i < body.end {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" => i = self.skip_bracket(i + 1, body.end),
                "fn" if self.is_ident(i + 1) => {
                    i = self.fn_item(i, body.end, modules, owner);
                }
                _ => i += 1,
            }
        }
    }

    /// Collects call sites in a body token range.
    fn scan_calls(&self, body: std::ops::Range<usize>) -> Vec<Call> {
        let mut calls = Vec::new();
        let mut i = body.start;
        while i < body.end {
            // Skip attributes (`#[allow(…)]` would otherwise look like
            // a call to `allow`).
            if self.text(i) == "#" && self.text(i + 1) == "[" {
                i = self.skip_bracket(i + 1, body.end);
                continue;
            }
            // Skip nested fn signatures so parameter lists are not
            // calls; their bodies are still scanned (conservative).
            if self.text(i) == "fn" && self.is_ident(i + 1) {
                i += 2;
                continue;
            }
            if !self.is_ident(i) || self.text(i + 1) != "(" {
                i += 1;
                continue;
            }
            let name = self.text(i);
            if NON_CALL_KEYWORDS.contains(&name) {
                i += 1;
                continue;
            }
            let prev = i.checked_sub(1).map(|j| self.text(j)).unwrap_or("");
            if prev == "!" {
                i += 1; // macro invocation tail, not a call
                continue;
            }
            let method = prev == ".";
            let mut qualifier = Vec::new();
            if !method && prev == "::" {
                // Walk back `seg :: seg :: name`.
                let mut j = i;
                while j >= 2 && self.text(j - 1) == "::" && self.is_ident(j - 2) {
                    qualifier.push(self.text(j - 2).to_string());
                    j -= 2;
                }
                qualifier.reverse();
            }
            calls.push(Call {
                name: name.to_string(),
                qualifier,
                method,
                line: self.line(i),
            });
            i += 1;
        }
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", &lex(src).tokens)
    }

    #[test]
    fn free_fns_methods_and_modules_are_qualified() {
        let src = "\
fn top() {}
mod inner {
    pub fn deep() {}
    impl Widget {
        fn method(&self) {}
    }
}
impl Other { pub fn call_it(&self) { helper(); } }
trait T { fn decl(&self); fn with_default(&self) { self.decl(); } }
";
        let parsed = parse(src);
        let quals: Vec<(&str, &str)> = parsed
            .fns
            .iter()
            .map(|f| (f.qual.as_str(), f.module.as_str()))
            .collect();
        assert_eq!(
            quals,
            [
                ("top", ""),
                ("deep", "inner"),
                ("Widget::method", "inner"),
                ("Other::call_it", ""),
                ("T::decl", ""),
                ("T::with_default", ""),
            ]
        );
        let call_it = &parsed.fns[3];
        assert_eq!(call_it.calls.len(), 1);
        assert_eq!(call_it.calls[0].name, "helper");
        assert!(!call_it.calls[0].method);
        let with_default = &parsed.fns[5];
        assert_eq!(with_default.calls.len(), 1);
        assert!(with_default.calls[0].method);
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let parsed = parse("impl<'a> Display for TraceRef<'a> { fn fmt(&self) {} }\n");
        assert_eq!(parsed.fns[0].qual, "TraceRef::fmt");
    }

    #[test]
    fn calls_capture_qualifiers_and_skip_macros_and_keywords() {
        let src = "\
fn f() {
    alpha::helpers::now_us();
    format!(\"{}\", x);
    #[allow(dead_code)]
    let y = g();
    if (a) { h(); }
    m.emit(v);
}
";
        let f = &parse(src).fns[0];
        let names: Vec<(&str, bool)> =
            f.calls.iter().map(|c| (c.name.as_str(), c.method)).collect();
        assert_eq!(
            names,
            [("now_us", false), ("g", false), ("h", false), ("emit", true)]
        );
        assert_eq!(f.calls[0].qualifier, ["alpha", "helpers"]);
    }

    #[test]
    fn use_trees_flatten_groups_globs_and_renames() {
        let src = "\
use std::collections::BTreeMap;
use alpha::{one, two::three, four as renamed};
use beta::*;
";
        let parsed = parse(src);
        let leaves: Vec<(String, String)> = parsed
            .uses
            .iter()
            .map(|u| (u.leaf.clone(), u.path.join("::")))
            .collect();
        assert_eq!(
            leaves,
            [
                ("BTreeMap".to_string(), "std::collections::BTreeMap".to_string()),
                ("one".to_string(), "alpha::one".to_string()),
                ("three".to_string(), "alpha::two::three".to_string()),
                ("renamed".to_string(), "alpha::four".to_string()),
            ]
        );
    }

    #[test]
    fn nested_fns_are_items_and_bodies_nest() {
        let src = "fn outer() {\n    fn inner() { leaf(); }\n    inner();\n}\n";
        let parsed = parse(src);
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        // Outer's scan is conservative: it sees both calls.
        assert!(parsed.fns[0].calls.iter().any(|c| c.name == "inner"));
        assert!(parsed.fns[1].calls.iter().any(|c| c.name == "leaf"));
    }

    #[test]
    fn bodiless_decls_and_line_spans() {
        let src = "trait T {\n    fn decl(&self);\n}\nfn spanned() {\n    work();\n}\n";
        let parsed = parse(src);
        assert_eq!(parsed.fns[0].body, 0..0);
        let spanned = &parsed.fns[1];
        assert_eq!(spanned.line, 4);
        assert_eq!(spanned.end_line, 6);
    }

    #[test]
    fn adversarial_tokens_do_not_panic() {
        for src in [
            "fn", "fn (", "impl", "impl {", "use ::;", "mod", "}}}{{{", "fn f(",
            "trait X { fn ", "use a::{b,", "impl<T for {",
        ] {
            let _ = parse(src);
        }
    }
}
