//! Golden regression harness for the paper's numeric artifacts.
//!
//! Each test regenerates one artifact — the Table II community-size
//! distribution, the Table III NoR fits, and the Fig. 8(b)/8(c)
//! compensation/utility curves — from the seeded synthetic trace
//! (`ExperimentScale::Small`, seed [`dyncontract::experiments::DEFAULT_SEED`])
//! and compares it leaf-by-leaf against the committed snapshot under
//! `tests/golden/`. Numeric leaves must agree within `1e-9`
//! (absolute-or-relative, see [`TOLERANCE`]); any drift fails with the
//! full list of diverging paths.
//!
//! ## Updating the snapshots
//!
//! After an *intentional* numeric change, regenerate and commit:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! git diff tests/golden/   # review the drift before committing it
//! ```
//!
//! With `UPDATE_GOLDEN=1` every test rewrites its snapshot and passes;
//! without it the snapshots are read-only references.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dyncontract::batch::{BatchRunner, ScenarioGrid};
use dyncontract::core::DesignConfig;
use dyncontract::detect::PipelineConfig;
use dyncontract::experiments::{
    adversarial, fig8b, fig8c, table2, table3, ExperimentScale, DEFAULT_SEED,
};
use dyncontract::faults::Json;
use dyncontract::obs::{JsonRecorder, Metrics};
use dyncontract::serve::{design_digest, events_from_trace, fold_digest, ServeService};
use dyncontract::trace::TraceDataset;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Numeric leaves may drift by at most this much, measured as
/// `|a - b| <= TOLERANCE * max(1, |a|, |b|)` — absolute near zero,
/// relative for large magnitudes.
const TOLERANCE: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The one trace all snapshots derive from: the experiment suite's
/// small scale at the shared default seed.
fn trace() -> &'static TraceDataset {
    static TRACE: OnceLock<TraceDataset> = OnceLock::new();
    TRACE.get_or_init(|| ExperimentScale::Small.generate(DEFAULT_SEED))
}

// ---------------------------------------------------------------- encoding

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn render(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            write!(out, "{b}").ok();
        }
        // `{}` prints the shortest representation that round-trips, so
        // a reparsed snapshot compares bit-exactly to the original.
        Json::Num(x) => {
            write!(out, "{x}").ok();
        }
        Json::Str(s) => {
            write!(out, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")).ok();
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\n{pad}  ").ok();
                render_into(item, indent + 1, out);
            }
            if !items.is_empty() {
                write!(out, "\n{pad}").ok();
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\n{pad}  \"{key}\": ").ok();
                render_into(member, indent + 1, out);
            }
            if !members.is_empty() {
                write!(out, "\n{pad}").ok();
            }
            out.push('}');
        }
    }
}

fn encode_table2() -> Json {
    let r = table2::run_on(trace()).unwrap();
    obj(vec![
        (
            "rows",
            Json::Arr(
                r.rows
                    .iter()
                    .map(|(label, count, ours, paper)| {
                        obj(vec![
                            ("size", Json::Str(label.clone())),
                            ("count", Json::idx(*count)),
                            ("ours_pct", Json::num(*ours)),
                            ("paper_pct", Json::num(*paper)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("communities", Json::idx(r.communities)),
        ("collusive_workers", Json::idx(r.collusive_workers)),
    ])
}

fn encode_table3() -> Json {
    let r = table3::run_on(trace()).expect("table3 fits on the seeded trace");
    obj(vec![(
        "rows",
        Json::Arr(
            r.rows
                .iter()
                .map(|(class, nors, points)| {
                    obj(vec![
                        ("class", Json::Str(class.to_string())),
                        ("points", Json::idx(*points)),
                        ("nors", Json::Arr(nors.iter().map(|&v| Json::num(v)).collect())),
                    ])
                })
                .collect(),
        ),
    )])
}

fn encode_fig8b() -> Json {
    let r = fig8b::run_on(trace(), &fig8b::DEFAULT_MUS).expect("fig8b designs");
    obj(vec![(
        "groups",
        Json::Arr(
            r.groups
                .iter()
                .map(|g| {
                    obj(vec![
                        ("mu", Json::num(g.mu)),
                        ("class", Json::Str(g.class.to_string())),
                        ("count", Json::idx(g.summary.count)),
                        ("mean", Json::num(g.summary.mean)),
                        ("std_dev", Json::num(g.summary.std_dev)),
                        ("min", Json::num(g.summary.min)),
                        ("p5", Json::num(g.summary.p5)),
                        ("median", Json::num(g.summary.median)),
                        ("p95", Json::num(g.summary.p95)),
                        ("max", Json::num(g.summary.max)),
                    ])
                })
                .collect(),
        ),
    )])
}

fn encode_fig8c() -> Json {
    let r = fig8c::run_on(trace(), &fig8b::DEFAULT_MUS).expect("fig8c simulates");
    obj(vec![(
        "rows",
        Json::Arr(
            r.rows
                .iter()
                .map(|row| {
                    obj(vec![
                        ("mu", Json::num(row.mu)),
                        ("ours", Json::num(row.ours)),
                        ("exclude", Json::num(row.exclude)),
                        ("fixed", Json::num(row.fixed)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// The 3 μ × 3 budget-fraction design-only grid the batch runner
/// snapshot covers: utilities, full spends, and the funded worker sets
/// selected at each budget level.
fn encode_batch_grid() -> Json {
    let mut grid = ScenarioGrid::for_trace(trace().clone(), &[1.8, 1.5, 1.0]);
    grid.budget_fractions = vec![0.25, 0.5, 1.0];
    let report = BatchRunner::new().run(&grid).expect("batch grid runs");
    obj(vec![(
        "scenarios",
        Json::Arr(
            report
                .records
                .iter()
                .map(|r| {
                    let o = r.outcome().expect("design-only scenario succeeds");
                    obj(vec![
                        ("mu", Json::num(r.scenario.mu)),
                        ("budget_fraction", Json::num(r.scenario.budget_fraction)),
                        ("utility", Json::num(o.design.total_requester_utility)),
                        ("full_spend", Json::num(o.full_spend)),
                        (
                            "funded",
                            Json::Arr(o.budget.funded.iter().map(|&w| Json::idx(w)).collect()),
                        ),
                        ("budget_spend", Json::num(o.budget.spend)),
                        ("budget_utility", Json::num(o.budget.utility)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// The streaming service replaying the seeded trace: every round
/// boundary's work deltas and design fingerprint, the end-of-run
/// counters, and the full redacted `serve.*` metrics document
/// ([`JsonRecorder::to_json_redacted`] zeroes span timings, so the
/// snapshot is wall-clock-free). Uses the same small-scale trace as
/// every other snapshot; the paper-scale stream is exercised by the
/// nightly soak in `.github/workflows/scheduled.yml`.
fn encode_serve_replay() -> Json {
    let recorder = Arc::new(JsonRecorder::new());
    let mut service = ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        2,
        false,
        Metrics::new(recorder.clone()),
    )
    .expect("serve config is valid");
    let mut rounds = Vec::new();
    for event in &events_from_trace(trace()) {
        if let Some(out) = service.apply(event).expect("replay applies cleanly") {
            let design = out.design.as_ref().expect("seeded trace designs every round");
            rounds.push(obj(vec![
                ("round", Json::idx(out.round)),
                ("events", Json::idx(out.events)),
                ("dirty_workers", Json::idx(out.dirty_workers)),
                ("dirty_products", Json::idx(out.dirty_products)),
                ("resolved", Json::idx(out.resolved)),
                ("agents", Json::idx(design.agents.len())),
                ("total_utility", Json::num(design.total_requester_utility)),
                (
                    "digest",
                    Json::Str(format!("{:016x}", fold_digest(&design_digest(design)))),
                ),
            ]));
        }
    }
    let stats = service.stats();
    let metrics = Json::parse(&recorder.to_json_redacted())
        .expect("redacted metrics document parses");
    obj(vec![
        ("rounds", Json::Arr(rounds)),
        (
            "summary",
            obj(vec![
                ("events", Json::idx(stats.events)),
                ("rounds", Json::idx(stats.rounds)),
                ("fit_refits", Json::idx(stats.fit_refits)),
                ("solve_resolved", Json::idx(stats.solve_resolved)),
            ]),
        ),
        ("metrics", metrics),
    ])
}

/// The E15 adversarial head-to-head: the BiP dynamic contract and the
/// collusion-proof baseline simulated on each of the three standard
/// adversary plans (sybil influx, split/merge churn, stealth
/// under-reporting) applied to the seeded trace's generator config.
fn encode_adversarial() -> Json {
    let r = adversarial::run(ExperimentScale::Small, DEFAULT_SEED)
        .expect("adversarial head-to-head runs");
    obj(vec![(
        "rows",
        Json::Arr(
            r.rows
                .iter()
                .map(|row| {
                    obj(vec![
                        ("plan", Json::Str(row.plan.clone())),
                        ("events", Json::idx(row.events)),
                        ("dynamic", Json::num(row.dynamic)),
                        ("collusion_proof", Json::num(row.collusion_proof)),
                    ])
                })
                .collect(),
        ),
    )])
}

// --------------------------------------------------------------- comparison

/// Walks both documents and records every path where they differ —
/// structurally, or numerically beyond [`TOLERANCE`]. Object members
/// compare by key, order-insensitively.
fn diff(path: &str, golden: &Json, actual: &Json, diffs: &mut Vec<String>) {
    match (golden, actual) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(a), Json::Bool(b)) if a == b => {}
        (Json::Str(a), Json::Str(b)) if a == b => {}
        (Json::Num(a), Json::Num(b)) => {
            let scale = 1.0_f64.max(a.abs()).max(b.abs());
            if (a - b).abs() > TOLERANCE * scale {
                diffs.push(format!(
                    "{path}: golden {a:?} vs actual {b:?} (drift {:.3e})",
                    (a - b).abs()
                ));
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                diffs.push(format!("{path}: length {} vs {}", a.len(), b.len()));
                return;
            }
            for (i, (ga, ac)) in a.iter().zip(b).enumerate() {
                diff(&format!("{path}[{i}]"), ga, ac, diffs);
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, ga) in a {
                match b.iter().find(|(k, _)| k == key) {
                    Some((_, ac)) => diff(&format!("{path}.{key}"), ga, ac, diffs),
                    None => diffs.push(format!("{path}.{key}: missing from actual")),
                }
            }
            for (key, _) in b {
                if !a.iter().any(|(k, _)| k == key) {
                    diffs.push(format!("{path}.{key}: not in golden"));
                }
            }
        }
        _ => diffs.push(format!("{path}: golden {golden:?} vs actual {actual:?}")),
    }
}

/// Checks `actual` against `tests/golden/<name>.json`, or rewrites the
/// snapshot when `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: Json) {
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDEN").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, render(&actual))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("updated golden snapshot {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden snapshot {}: {e}\n\
             (regenerate with UPDATE_GOLDEN=1 cargo test --test golden)",
            path.display()
        )
    });
    let golden = Json::parse(&text)
        .unwrap_or_else(|e| panic!("golden snapshot {} is invalid JSON: {e}", path.display()));
    let mut diffs = Vec::new();
    diff(name, &golden, &actual, &mut diffs);
    assert!(
        diffs.is_empty(),
        "golden snapshot {name} drifted beyond {TOLERANCE:e}:\n  {}\n\
         If the change is intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test golden",
        diffs.join("\n  ")
    );
}

// -------------------------------------------------------------------- tests

#[test]
fn golden_table2_community_distribution() {
    check_golden("table2", encode_table2());
}

#[test]
fn golden_table3_fit_residuals() {
    check_golden("table3", encode_table3());
}

#[test]
fn golden_fig8b_compensation_by_class() {
    check_golden("fig8b", encode_fig8b());
}

#[test]
fn golden_fig8c_utility_vs_baselines() {
    check_golden("fig8c", encode_fig8c());
}

#[test]
fn golden_batch_grid() {
    check_golden("batch_grid", encode_batch_grid());
}

#[test]
fn golden_serve_replay() {
    check_golden("serve_replay", encode_serve_replay());
}

#[test]
fn golden_adversarial_head_to_head() {
    check_golden("adversarial", encode_adversarial());
}

/// The adversarial snapshot catches drift in the attacked-trace
/// pipeline: nudging one plan's `collusion_proof` utility by a relative
/// `1e-6` must surface as a diff naming that leaf, and the pristine
/// encoding must agree with itself exactly.
#[test]
fn a_perturbed_adversarial_utility_fails_the_comparison() {
    fn perturb_first_cp(value: &mut Json) -> bool {
        match value {
            Json::Arr(items) => items.iter_mut().any(perturb_first_cp),
            Json::Obj(members) => members.iter_mut().any(|(key, member)| {
                if key == "collusion_proof" {
                    if let Json::Num(x) = member {
                        *x += 1e-6 * x.abs().max(1.0);
                        return true;
                    }
                    false
                } else {
                    perturb_first_cp(member)
                }
            }),
            _ => false,
        }
    }

    let pristine = encode_adversarial();
    let mut perturbed = pristine.clone();
    assert!(perturb_first_cp(&mut perturbed), "found a utility to perturb");

    let mut diffs = Vec::new();
    diff("adversarial", &pristine, &perturbed, &mut diffs);
    assert!(!diffs.is_empty(), "a 1e-6 utility perturbation must be detected");
    assert!(
        diffs[0].contains("collusion_proof"),
        "the diff names the perturbed leaf: {diffs:?}"
    );

    let mut clean = Vec::new();
    diff("adversarial", &pristine, &pristine, &mut clean);
    assert!(clean.is_empty());
}

/// The serve snapshot catches drift in the incremental path: nudging
/// one round's `total_utility` by a relative `1e-6` must surface as a
/// diff naming that leaf, and the pristine encoding must agree with
/// itself exactly.
#[test]
fn a_perturbed_serve_utility_fails_the_comparison() {
    fn perturb_first_utility(value: &mut Json) -> bool {
        match value {
            Json::Arr(items) => items.iter_mut().any(perturb_first_utility),
            Json::Obj(members) => members.iter_mut().any(|(key, member)| {
                if key == "total_utility" {
                    if let Json::Num(x) = member {
                        *x += 1e-6 * x.abs().max(1.0);
                        return true;
                    }
                    false
                } else {
                    perturb_first_utility(member)
                }
            }),
            _ => false,
        }
    }

    let pristine = encode_serve_replay();
    let mut perturbed = pristine.clone();
    assert!(perturb_first_utility(&mut perturbed), "found a utility to perturb");

    let mut diffs = Vec::new();
    diff("serve_replay", &pristine, &perturbed, &mut diffs);
    assert!(!diffs.is_empty(), "a 1e-6 utility perturbation must be detected");
    assert!(
        diffs[0].contains("total_utility"),
        "the diff names the perturbed leaf: {diffs:?}"
    );

    let mut clean = Vec::new();
    diff("serve_replay", &pristine, &pristine, &mut clean);
    assert!(clean.is_empty());
}

/// The batch snapshot catches drift in the scheduler itself: nudging
/// one scenario's `full_spend` by a relative `1e-6` — three orders of
/// magnitude above the `1e-9` tolerance — must surface as a diff
/// naming that leaf.
#[test]
fn a_perturbed_batch_spend_fails_the_comparison() {
    fn perturb_first_spend(value: &mut Json) -> bool {
        match value {
            Json::Arr(items) => items.iter_mut().any(perturb_first_spend),
            Json::Obj(members) => members.iter_mut().any(|(key, member)| {
                if key == "full_spend" {
                    if let Json::Num(x) = member {
                        *x += 1e-6 * x.abs().max(1.0);
                        return true;
                    }
                    false
                } else {
                    perturb_first_spend(member)
                }
            }),
            _ => false,
        }
    }

    let pristine = encode_batch_grid();
    let mut perturbed = pristine.clone();
    assert!(perturb_first_spend(&mut perturbed), "found a spend to perturb");

    let mut diffs = Vec::new();
    diff("batch_grid", &pristine, &perturbed, &mut diffs);
    assert!(!diffs.is_empty(), "a 1e-6 spend perturbation must be detected");
    assert!(
        diffs[0].contains("full_spend"),
        "the diff names the perturbed leaf: {diffs:?}"
    );
}

/// The harness is sensitive enough for its job: perturbing a single fit
/// coefficient by `1e-6` — three orders of magnitude above the `1e-9`
/// tolerance — must surface as a reported diff.
#[test]
fn a_1e6_perturbation_fails_the_comparison() {
    // Perturbs the first NoR coefficient found, skipping integral
    // counts: drift is about fitted coefficients.
    fn perturb_first_nor(value: &mut Json) -> bool {
        match value {
            Json::Arr(items) => items.iter_mut().any(perturb_first_nor),
            Json::Obj(members) => members.iter_mut().any(|(key, member)| {
                if key == "nors" {
                    if let Json::Arr(nors) = member {
                        if let Some(Json::Num(x)) = nors.first_mut() {
                            *x += 1e-6;
                            return true;
                        }
                    }
                    false
                } else {
                    perturb_first_nor(member)
                }
            }),
            _ => false,
        }
    }

    let pristine = encode_table3();
    let mut perturbed = pristine.clone();
    assert!(perturb_first_nor(&mut perturbed), "found a coefficient to perturb");

    let mut diffs = Vec::new();
    diff("table3", &pristine, &perturbed, &mut diffs);
    assert!(
        !diffs.is_empty(),
        "a 1e-6 coefficient perturbation must be detected"
    );
    assert!(diffs[0].contains("nors"), "the diff names the perturbed leaf: {diffs:?}");

    // And the unperturbed encoding agrees with itself exactly.
    let mut clean = Vec::new();
    diff("table3", &pristine, &pristine, &mut clean);
    assert!(clean.is_empty());
}

/// `Json::parse` limits nesting depth; every JSON document the
/// repository commits (these goldens, the linter's goldens, and the
/// benchmark spec) stays well inside the limit.
#[test]
fn every_committed_json_document_parses() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("BENCHMARK.json")];
    for dir in ["tests/golden", "crates/lint/tests/golden"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("golden dir") {
            let path = entry.expect("dir entry").path();
            if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("json" | "sarif")
            ) {
                files.push(path);
            }
        }
    }
    assert!(files.len() >= 9, "found only {files:?}");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable");
        if let Err(e) = Json::parse(&text) {
            panic!("{}: {e}", path.display());
        }
    }
}
