//! The interprocedural determinism-taint pass (`determinism-taint`).
//!
//! Every headline guarantee of this reproduction — bit-exact
//! kill/resume checkpoints, serial ≡ pooled ≡ batch ≡ streaming
//! differential contracts, golden `to_bits` snapshots — assumes no
//! nondeterministic value ever reaches a digest, checkpoint, snapshot,
//! or recorded metric. The token rules can flag a `HashMap` or an
//! `Instant`; this pass proves the *boundary*: it builds a cross-crate
//! call graph from the item parser and propagates function-level taint
//! from **sources** to **sinks**.
//!
//! Sources (a function that contains one is directly tainted):
//!
//! - wall-clock reads (`Instant`, `SystemTime`);
//! - RNG construction outside seeded constructors (`thread_rng`,
//!   `from_entropy`, `OsRng`) — `SeedableRng::from_seed`/`seed_from_u64`
//!   are definitionally *not* sources;
//! - process environment (`env::var`/`vars`/`var_os`/`temp_dir`);
//! - thread identity (`ThreadId`, `thread::current`);
//! - unordered-collection iteration (`HashMap`/`HashSet` with
//!   `iter`/`keys`/`values`/`drain`/…);
//! - float reductions over those iterators (`sum`/`product`/`fold`
//!   after a hash-container mention — accumulation order changes bits).
//!
//! Taint propagates from callee to caller (a function that calls a
//! tainted function observes nondeterministic values), except through
//! **laundering points** declared in the checked-in policy file (see
//! [`crate::policy`]): the `dcc-obs` timing-redaction path, sanctioned
//! timer reads whose values feed redacted spans, the fixed-order pooled
//! merge. A finding is reported when a tainted function calls a
//! **sink** — digest folds (`design_digest`, `fnv*`, `*fingerprint*`),
//! checkpoint serialization (`save_checkpoint`, `save_json_atomic`, …),
//! golden-snapshot writers, and metric emission (`.add`/`.gauge`/
//! `.observe`/`.event`) — or when a sink function is itself tainted.
//! Each finding carries the full source→…→sink trace, rendered as
//! numbered steps in text output and as SARIF code flows.

use crate::classify::TestRegions;
use crate::lexer::{Tok, TokKind};
use crate::parse::{Call, ParsedFile};
use crate::policy::{EntryKind, Policy};
use crate::{Finding, TraceStep};
use std::collections::{BTreeMap, VecDeque};

/// What kind of nondeterminism a source introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// `Instant` / `SystemTime` read.
    WallClock,
    /// Unseeded RNG construction.
    Rng,
    /// Process environment read.
    Env,
    /// Thread identity.
    ThreadId,
    /// `HashMap`/`HashSet` iteration.
    UnorderedIter,
    /// Float reduction over an unordered iterator.
    FloatOrder,
}

impl TaintKind {
    /// Short label used in messages and the source/sink catalogue.
    pub fn label(self) -> &'static str {
        match self {
            TaintKind::WallClock => "wall-clock",
            TaintKind::Rng => "unseeded-rng",
            TaintKind::Env => "process-env",
            TaintKind::ThreadId => "thread-id",
            TaintKind::UnorderedIter => "unordered-iter",
            TaintKind::FloatOrder => "float-order",
        }
    }
}

/// A direct taint source inside a function body.
#[derive(Debug, Clone)]
struct Source {
    kind: TaintKind,
    line: u32,
    what: String,
}

/// One analyzable file: parsed items plus the token stream and test
/// regions they came from.
pub struct Unit<'a> {
    /// Item-level parse of the file.
    pub parsed: &'a ParsedFile,
    /// The file's token stream (body ranges index into it).
    pub tokens: &'a [Tok],
    /// `#[cfg(test)]`/`#[test]` regions — functions inside are skipped.
    pub test_regions: &'a TestRegions,
}

/// Built-in sink catalogue: function-name patterns. Returns the sink
/// category for reporting.
fn builtin_sink_fn(name: &str) -> Option<&'static str> {
    if name == "design_digest" || name.starts_with("fnv") || name.contains("fingerprint") {
        return Some("digest");
    }
    if matches!(name, "save_checkpoint" | "save_json_atomic" | "write_checkpoint") {
        return Some("checkpoint");
    }
    if name.contains("golden") && (name.starts_with("write") || name.starts_with("save")) {
        return Some("golden-snapshot");
    }
    None
}

/// Metric-emission methods (the `dcc-obs` recording surface). Span
/// timings are redacted by the obs layer, so `span`/`span_at` are not
/// sinks; the value-carrying emitters are.
const EMITTER_SINKS: &[&str] = &["add", "gauge", "observe", "event"];

/// How a function became tainted.
#[derive(Debug, Clone)]
enum Witness {
    /// Contains a direct source.
    Direct(Source),
    /// Calls the tainted function `callee` (global index) at `line`.
    Via { callee: usize, line: u32 },
}

struct FnNode {
    path: String,
    name: String,
    qual: String,
    line: u32,
    calls: Vec<Call>,
    laundered: bool,
    sources: Vec<Source>,
    sink_def: Option<&'static str>,
}

/// Runs the taint pass over the parsed workspace. `policy` entries are
/// marked used as they match; stale entries become `taint-policy`
/// findings.
pub fn analyze(units: &[Unit<'_>], policy: &mut Policy) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut nodes: Vec<FnNode> = Vec::new();

    // 1. Collect function nodes (non-test only), apply launder policy,
    //    scan direct sources.
    for unit in units {
        for f in &unit.parsed.fns {
            if unit.test_regions.contains(f.line) {
                continue;
            }
            let mut laundered = false;
            for e in &mut policy.entries {
                if e.kind == EntryKind::Launder
                    && e.pattern.matches_fn(&unit.parsed.path, &f.qual, &f.name)
                {
                    e.used = true;
                    laundered = true;
                }
            }
            let mut sink_def = builtin_sink_fn(&f.name);
            for e in &mut policy.entries {
                if e.kind == EntryKind::Sink
                    && e.pattern.matches_fn(&unit.parsed.path, &f.qual, &f.name)
                {
                    e.used = true;
                    sink_def = sink_def.or(Some("policy"));
                }
            }
            let sources = if laundered {
                Vec::new()
            } else {
                scan_sources(unit.tokens, f.body.clone(), policy)
            };
            nodes.push(FnNode {
                path: unit.parsed.path.clone(),
                name: f.name.clone(),
                qual: f.qual.clone(),
                line: f.line,
                calls: f.calls.clone(),
                laundered,
                sources,
                sink_def,
            });
        }
    }

    // 2. Index by bare name for call resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
    }

    // 3. Reverse call edges: callee -> (caller, call line). Calls whose
    //    name matches a `launder call:` pattern never propagate.
    let mut callers: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes.len()];
    let mut laundered_call_lines: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
    for caller in 0..nodes.len() {
        for c in nodes[caller].calls.clone() {
            let mut laundered_call = false;
            for e in &mut policy.entries {
                if e.kind == EntryKind::Launder && e.pattern.matches_call(&c.name) {
                    e.used = true;
                    laundered_call = true;
                }
            }
            if laundered_call {
                laundered_call_lines[caller].push(c.line);
                continue;
            }
            for target in resolve(&c, &nodes, &by_name) {
                if target != caller {
                    callers[target].push((caller, c.line));
                }
            }
        }
    }

    // 4. Propagate taint from direct sources to callers (BFS, in
    //    deterministic global order).
    let mut witness: Vec<Option<Witness>> = vec![None; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, n) in nodes.iter().enumerate() {
        if let Some(src) = n.sources.first() {
            witness[i] = Some(Witness::Direct(src.clone()));
            queue.push_back(i);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &(caller, line) in &callers[cur] {
            if witness[caller].is_none() && !nodes[caller].laundered {
                witness[caller] = Some(Witness::Via { callee: cur, line });
                queue.push_back(caller);
            }
        }
    }

    // 5. Findings: sink calls inside tainted functions, and tainted
    //    sink definitions.
    for (i, n) in nodes.iter().enumerate() {
        let Some(_) = witness[i] else { continue };
        let (trace_prefix, origin) = taint_chain(i, &nodes, &witness);
        for c in &n.calls {
            if laundered_call_lines[i].contains(&c.line) {
                continue;
            }
            let category = sink_category(c, &nodes, &by_name, policy);
            let Some(category) = category else { continue };
            let mut trace = trace_prefix.clone();
            trace.push(TraceStep {
                path: n.path.clone(),
                line: c.line,
                note: format!("`{}` calls {category} sink `{}` with taint in scope", n.qual, c.name),
            });
            findings.push(Finding::with_trace(
                "determinism-taint",
                &n.path,
                c.line,
                format!(
                    "tainted value may reach {category} sink `{}`: {origin} reaches `{}`",
                    c.name, n.qual
                ),
                trace,
            ));
        }
        if let Some(category) = n.sink_def {
            let mut trace = trace_prefix.clone();
            trace.push(TraceStep {
                path: n.path.clone(),
                line: n.line,
                note: format!("`{}` is a {category} sink and is itself tainted", n.qual),
            });
            findings.push(Finding::with_trace(
                "determinism-taint",
                &n.path,
                n.line,
                format!(
                    "{category} sink `{}` is itself tainted: {origin}",
                    n.qual
                ),
                trace,
            ));
        }
    }

    policy.stale_entries(&mut findings);
    findings
}

/// Reconstructs the source→…→function chain for a tainted node.
/// Returns the trace steps (source first) and a one-line origin
/// description for the message.
fn taint_chain(
    idx: usize,
    nodes: &[FnNode],
    witness: &[Option<Witness>],
) -> (Vec<TraceStep>, String) {
    // Follow Via links down to the Direct source.
    let mut hops: Vec<usize> = vec![idx];
    let mut cur = idx;
    let (src_node, src) = loop {
        match &witness[cur] {
            Some(Witness::Direct(s)) => break (cur, s.clone()),
            Some(Witness::Via { callee, .. }) => {
                cur = *callee;
                if hops.contains(&cur) {
                    // Defensive: witness chains are acyclic by
                    // construction (BFS assigns once), but never loop.
                    break (cur, Source {
                        kind: TaintKind::WallClock,
                        line: nodes[cur].line,
                        what: "cyclic witness".to_string(),
                    });
                }
                hops.push(cur);
            }
            None => {
                break (cur, Source {
                    kind: TaintKind::WallClock,
                    line: nodes[cur].line,
                    what: "unknown".to_string(),
                })
            }
        }
    };
    hops.reverse(); // source-side first
    let mut trace = vec![TraceStep {
        path: nodes[src_node].path.clone(),
        line: src.line,
        note: format!(
            "{} source: {} in `{}`",
            src.kind.label(),
            src.what,
            nodes[src_node].qual
        ),
    }];
    for pair in hops.windows(2) {
        let (callee, caller) = (pair[0], pair[1]);
        let line = match &witness[caller] {
            Some(Witness::Via { line, .. }) => *line,
            _ => nodes[caller].line,
        };
        trace.push(TraceStep {
            path: nodes[caller].path.clone(),
            line,
            note: format!("`{}` calls tainted `{}`", nodes[caller].qual, nodes[callee].qual),
        });
    }
    let origin = format!(
        "{} source ({}) at {}:{}",
        src.kind.label(),
        src.what,
        nodes[src_node].path,
        src.line
    );
    (trace, origin)
}

/// Whether a call site is a sink, and its category. Built-in emitter
/// methods and sink names match directly; policy `sink fn:` entries
/// match through call resolution.
fn sink_category(
    call: &Call,
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    policy: &mut Policy,
) -> Option<&'static str> {
    if call.method && EMITTER_SINKS.contains(&call.name.as_str()) {
        return Some("metric-emission");
    }
    if let Some(cat) = builtin_sink_fn(&call.name) {
        return Some(cat);
    }
    for target in resolve(call, nodes, by_name) {
        for e in &mut policy.entries {
            if e.kind == EntryKind::Sink
                && e.pattern.matches_fn(&nodes[target].path, &nodes[target].qual, &nodes[target].name)
            {
                e.used = true;
                return Some("policy");
            }
        }
    }
    None
}

/// Resolves a call site to candidate function indices by name, narrowed
/// by the call's path qualifier when one is present.
fn resolve(call: &Call, nodes: &[FnNode], by_name: &BTreeMap<&str, Vec<usize>>) -> Vec<usize> {
    let Some(candidates) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    if call.qualifier.is_empty() {
        return candidates.clone();
    }
    // `Type::assoc(…)` or `module::f(…)`: keep candidates whose
    // qualified name or file/module path agrees with the last
    // qualifier segment. Crate names map onto `crates/<dir>` with the
    // `dcc_` prefix stripped.
    let q = call.qualifier.last().map(String::as_str).unwrap_or("");
    let q_norm = q.strip_prefix("dcc_").unwrap_or(q);
    let narrowed: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| {
            let n = &nodes[i];
            n.qual == format!("{q}::{}", call.name)
                || n.path
                    .split('/')
                    .any(|seg| seg == q_norm || seg.strip_suffix(".rs") == Some(q_norm))
        })
        .collect();
    if narrowed.is_empty() {
        candidates.clone()
    } else {
        narrowed
    }
}

/// Scans a body token range for direct sources. `launder call:`
/// patterns suppress matching identifiers (and are marked used).
fn scan_sources(tokens: &[Tok], body: std::ops::Range<usize>, policy: &mut Policy) -> Vec<Source> {
    let mut out = Vec::new();
    let start = body.start.min(tokens.len());
    let end = body.end.min(tokens.len());
    let slice = &tokens[start..end];
    // Hash containers are usually named in the signature
    // (`m: &HashMap<…>`), not the body — scan back to the `fn` keyword.
    let sig_start = (0..start)
        .rev()
        .find(|&k| tokens[k].kind == TokKind::Ident && tokens[k].text == "fn")
        .unwrap_or(start);
    let mentions_hash = tokens[sig_start..end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet"));
    for (j, t) in slice.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = slice.get(j + 1).map(|t| t.text.as_str()).unwrap_or("");
        let next2 = slice.get(j + 2).map(|t| t.text.as_str()).unwrap_or("");
        let prev = j.checked_sub(1).map(|k| slice[k].text.as_str()).unwrap_or("");
        let mut push = |kind: TaintKind, what: String| {
            out.push(Source {
                kind,
                line: t.line,
                what,
            });
        };
        let laundered = policy_launders_call(policy, &t.text);
        if laundered {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => {
                push(TaintKind::WallClock, format!("`{}` read", t.text));
            }
            "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng" => {
                push(TaintKind::Rng, format!("unseeded RNG `{}`", t.text));
            }
            "env" if next == "::" && matches!(next2, "var" | "vars" | "var_os" | "temp_dir") => {
                push(TaintKind::Env, format!("`env::{next2}` read"));
            }
            "ThreadId" => push(TaintKind::ThreadId, "`ThreadId` use".to_string()),
            "thread" if next == "::" && next2 == "current" => {
                push(TaintKind::ThreadId, "`thread::current` read".to_string());
            }
            "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "drain" | "into_iter"
            | "into_keys" | "into_values" | "retain"
                if mentions_hash && prev == "." =>
            {
                push(
                    TaintKind::UnorderedIter,
                    format!("`.{}()` over a hash container", t.text),
                );
            }
            "sum" | "product" | "fold" if mentions_hash && prev == "." => {
                push(
                    TaintKind::FloatOrder,
                    format!("`.{}()` reduction in unordered iteration order", t.text),
                );
            }
            _ => {}
        }
    }
    out
}

fn policy_launders_call(policy: &mut Policy, name: &str) -> bool {
    let mut hit = false;
    for e in &mut policy.entries {
        if e.kind == EntryKind::Launder && e.pattern.matches_call(name) {
            e.used = true;
            hit = true;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::test_regions;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    struct Owned {
        parsed: ParsedFile,
        tokens: Vec<Tok>,
        regions: TestRegions,
    }

    fn build(files: &[(&str, &str)]) -> Vec<Owned> {
        files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let regions = test_regions(&lexed.tokens);
                let parsed = parse_file(path, &lexed.tokens);
                Owned {
                    parsed,
                    tokens: lexed.tokens,
                    regions,
                }
            })
            .collect()
    }

    fn run(files: &[(&str, &str)], policy_src: &str) -> Vec<Finding> {
        let owned = build(files);
        let units: Vec<Unit<'_>> = owned
            .iter()
            .map(|o| Unit {
                parsed: &o.parsed,
                tokens: &o.tokens,
                test_regions: &o.regions,
            })
            .collect();
        let mut policy = Policy::parse("dcc-lint.policy", policy_src).expect("policy parses");
        analyze(&units, &mut policy)
    }

    #[test]
    fn cross_crate_source_helper_sink_flow_is_found() {
        let alpha = "pub fn now_us() -> u64 { Instant::now().elapsed().as_micros() as u64 }\n";
        let beta = "\
pub fn stamp() -> u64 { alpha::now_us() }
pub fn digest_round(xs: &[u64]) -> u64 {
    let t = stamp();
    fnv_fold(xs, t)
}
pub fn fnv_fold(xs: &[u64], seed: u64) -> u64 { xs.iter().fold(seed, |a, b| a ^ b) }
pub fn clean(xs: &[u64]) -> u64 { fnv_fold(xs, 0) }
";
        let f = run(
            &[
                ("crates/alpha/src/lib.rs", alpha),
                ("crates/beta/src/lib.rs", beta),
            ],
            "",
        );
        let taint: Vec<_> = f.iter().filter(|f| f.rule == "determinism-taint").collect();
        assert_eq!(taint.len(), 1, "{taint:#?}");
        let t = taint[0];
        assert_eq!(t.path, "crates/beta/src/lib.rs");
        assert_eq!(t.line, 4); // the fnv_fold call
        assert!(t.message.contains("digest sink `fnv_fold`"), "{}", t.message);
        assert!(t.message.contains("wall-clock"), "{}", t.message);
        // Trace: source, stamp hop, digest_round hop, sink call.
        assert_eq!(t.trace.len(), 4, "{:#?}", t.trace);
        assert_eq!(t.trace[0].path, "crates/alpha/src/lib.rs");
        assert!(t.trace[0].note.contains("wall-clock source"));
        assert!(t.trace[3].note.contains("sink"));
    }

    #[test]
    fn launder_policy_cuts_the_flow_and_unused_entries_are_findings() {
        let src = "\
pub fn timed() -> u64 { Instant::now().elapsed().as_micros() as u64 }
pub fn emit(m: &Metrics) { let v = timed(); m.add(\"x\", v); }
";
        // Unlaundered: the emission fires.
        let f = run(&[("crates/a/src/lib.rs", src)], "");
        assert!(f.iter().any(|f| f.rule == "determinism-taint"));
        // Laundering the timer kills the flow.
        let f = run(
            &[("crates/a/src/lib.rs", src)],
            "launder fn:crates/a/src/lib.rs#timed -- redacted downstream\n",
        );
        assert!(f.iter().all(|f| f.rule != "determinism-taint"), "{f:#?}");
        // A stale entry is reported on the policy file.
        let f = run(
            &[("crates/a/src/lib.rs", src)],
            "launder fn:crates/a/src/lib.rs#timed -- redacted downstream\nlaunder fn:ghost -- gone\n",
        );
        let stale: Vec<_> = f.iter().filter(|f| f.rule == "taint-policy").collect();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "dcc-lint.policy");
        assert_eq!(stale[0].line, 2);
    }

    #[test]
    fn env_source_reaches_policy_declared_sink() {
        let src = "\
pub fn tag() -> String { std::env::var(\"TAG\").unwrap_or_default() }
pub fn persist(rows: &[u64]) { let t = tag(); persist_rows(rows, t); }
pub fn persist_rows(_rows: &[u64], _t: String) {}
";
        let f = run(
            &[("crates/a/src/lib.rs", src)],
            "sink fn:persist_rows -- fixture checkpoint writer\n",
        );
        let taint: Vec<_> = f.iter().filter(|f| f.rule == "determinism-taint").collect();
        assert_eq!(taint.len(), 1, "{f:#?}");
        assert!(taint[0].message.contains("process-env"), "{}", taint[0].message);
        assert!(taint[0].message.contains("policy sink"), "{}", taint[0].message);
    }

    #[test]
    fn unordered_iteration_and_float_reductions_are_sources() {
        let src = "\
pub fn scatter(m: &HashMap<u64, f64>) -> f64 { m.values().sum() }
pub fn digest_scatter(m: &HashMap<u64, f64>) -> u64 { scatter(m) as u64 ^ fnv_mix(1) }
pub fn fnv_mix(x: u64) -> u64 { x }
";
        let f = run(&[("crates/a/src/lib.rs", src)], "");
        let taint: Vec<_> = f.iter().filter(|f| f.rule == "determinism-taint").collect();
        assert_eq!(taint.len(), 1, "{f:#?}");
        assert!(
            taint[0].message.contains("unordered-iter") || taint[0].message.contains("float-order"),
            "{}",
            taint[0].message
        );
    }

    #[test]
    fn tainted_sink_definition_is_reported() {
        let src = "\
pub fn design_digest(xs: &[f64]) -> u64 {
    let salt = std::env::var(\"SALT\").map(|s| s.len() as u64).unwrap_or(0);
    xs.len() as u64 ^ salt
}
";
        let f = run(&[("crates/a/src/lib.rs", src)], "");
        let taint: Vec<_> = f.iter().filter(|f| f.rule == "determinism-taint").collect();
        assert_eq!(taint.len(), 1, "{f:#?}");
        assert_eq!(taint[0].line, 1);
        assert!(taint[0].message.contains("is itself tainted"), "{}", taint[0].message);
    }

    #[test]
    fn seeded_rng_and_test_fns_are_not_sources() {
        let src = "\
pub fn seeded(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }
#[cfg(test)]
mod tests {
    fn t() { let i = Instant::now(); save_checkpoint(i); }
}
";
        let f = run(&[("crates/a/src/lib.rs", src)], "");
        assert!(f.iter().all(|f| f.rule != "determinism-taint"), "{f:#?}");
    }

    #[test]
    fn laundered_call_pattern_is_marked_used_not_stale() {
        let src = "pub fn seeded(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n";
        let f = run(
            &[("crates/a/src/lib.rs", src)],
            "launder call:seed_from_u64 -- seeded construction is the sanctioned RNG entry point\n",
        );
        assert!(f.is_empty(), "{f:#?}");
    }
}
