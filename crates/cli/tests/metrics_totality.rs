//! Totality of `dcc metrics summarize`, through the built binary: over
//! any file it prints the summary (exit 0) or a typed error (exit 1),
//! never a panic. That covers the `dcc-obs/1` validator and the summary
//! renderer behind it.
//!
//! Four input families: byte soup over JSON punctuation and the
//! document's keys; a `dcc-obs/1` document — a hand-written one and one
//! a `JsonRecorder` wrote for an engine run — truncated or with a byte
//! overwritten; each document with one number replaced by `1e300`,
//! `-1`, `0.5`, `18446744073709551616`, `"NaN"`, `null` or `[]`; and each
//! document with one value, of any type, replaced by a value of another
//! type.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

mod common;

use common::TempDir;
use dcc_engine::{Engine, EngineConfig, PoolSize, RoundContext};
use dcc_numerics::Json;
use dcc_obs::{JsonRecorder, Metrics};
use dcc_trace::SyntheticConfig;
use proptest::prelude::*;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// What a mutation writes over a number.
const REPLACEMENTS: [&str; 7] = [
    "1e300",
    "-1",
    "0.5",
    "18446744073709551616",
    "\"NaN\"",
    "null",
    "[]",
];

/// What a mutation writes over a value of any type.
const WRONG_TYPES: [&str; 6] = ["\"x\"", "7", "-2.5", "null", "[1]", "{\"k\":true}"];

/// JSON punctuation, literals, digits and the document's keys.
const SOUP: &[u8] = br#"{}[]:,"\ 019-.eEschemadcobs/1pniuvgtlhr_"#;

/// A `dcc-obs/1` metrics document: nested spans, an event, counters,
/// a gauge and a histogram.
const METRICS: &str = r#"{"schema":"dcc-obs/1","spans":[{"id":1,"parent":null,"name":"engine.run","attrs":{"last":"simulate"},"elapsed_us":1009},{"id":2,"parent":1,"name":"stage","attrs":{"stage":"ingest","cached":false},"elapsed_us":535},{"id":3,"parent":2,"name":"trace.load","attrs":{"source":"provided"},"elapsed_us":null}],"events":[{"name":"sim.round","attrs":{"round":0,"benefit":10.5,"payment":3.25,"u_req":7.25}}],"counters":{"sim.rounds":5,"trace.reviews":7778},"gauges":{"design.utility":45991.729},"histograms":{"solve.subproblem_us":{"count":33,"sum":147460,"min":53,"max":10843}}}"#;

/// The document a `JsonRecorder` wrote for a small engine run, built
/// once.
fn recorded() -> &'static str {
    static DOCUMENT: OnceLock<String> = OnceLock::new();
    DOCUMENT.get_or_init(|| {
        let mut synth = SyntheticConfig::small(11);
        synth.n_honest = 14;
        synth.n_ncm = 5;
        synth.n_cm_target = 6;
        synth.n_rounds = 2;
        synth.n_products = 160;
        let mut config = EngineConfig::for_trace(synth.generate());
        config.design.intervals = 8;
        config.pool = PoolSize::Sequential;
        config.sim.rounds = 3;
        let recorder = Arc::new(JsonRecorder::new());
        config.metrics = Metrics::new(recorder.clone());
        Engine::new().run(&mut RoundContext::new(config)).unwrap();
        recorder.to_json()
    })
}

fn valid_document(kind: u8) -> &'static str {
    if kind == 0 {
        METRICS
    } else {
        recorded()
    }
}

/// Replaces the `n`-th value of `doc` that `counts` selects, in
/// document order, with `with`; returns whether there was one.
fn replace_value(
    doc: &mut Json,
    n: &mut usize,
    with: &Json,
    counts: &dyn Fn(&Json) -> bool,
) -> bool {
    let slots: Vec<&mut Json> = match doc {
        Json::Obj(members) => members.iter_mut().map(|(_, v)| v).collect(),
        Json::Arr(items) => items.iter_mut().collect(),
        _ => return false,
    };
    for value in slots {
        if counts(value) {
            if *n == 0 {
                *value = with.clone();
                return true;
            }
            *n -= 1;
        }
        if replace_value(value, n, with, counts) {
            return true;
        }
    }
    false
}

/// Runs `dcc metrics summarize` over `bytes` and checks that it printed
/// the summary or a typed error; returns whether it printed the summary.
fn summarize_is_total(bytes: &[u8]) -> Result<bool, TestCaseError> {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = TempDir::new(&format!("dcc_metrics_totality_{case}"));
    let path = dir.path().join("metrics.json");
    std::fs::write(&path, bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dcc"))
        .args(["metrics", "summarize"])
        .arg(&path)
        .output()
        .expect("dcc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let input = String::from_utf8_lossy(bytes);
    prop_assert!(!stderr.contains("panicked"), "{input:?}: {stderr}");
    match out.status.code() {
        Some(0) => {
            prop_assert!(stdout.starts_with("metrics document (dcc-obs/1)"), "{input:?}: {stdout}");
            Ok(true)
        }
        Some(1) => {
            prop_assert!(stderr.starts_with("error: "), "{input:?}: {stderr}");
            prop_assert!(stdout.is_empty(), "{input:?}: {stdout}");
            Ok(false)
        }
        other => {
            prop_assert!(false, "{input:?}: exit {other:?}: {stderr}");
            Ok(false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn byte_soup_and_damaged_documents_summarize_or_are_refused(
        kind in 0u8..3,
        document in 0u8..2,
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        pick in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let valid = valid_document(document).as_bytes();
        let input = match kind {
            0 => bytes
                .iter()
                .map(|&b| if b < 0xe0 { SOUP[usize::from(b) % SOUP.len()] } else { b })
                .collect(),
            1 => valid[..pick % (valid.len() + 1)].to_vec(),
            _ => {
                let mut damaged = valid.to_vec();
                damaged[pick % valid.len()] = byte;
                damaged
            }
        };
        summarize_is_total(&input)?;
    }

    #[test]
    fn a_replaced_number_summarizes_or_is_refused(
        document in 0u8..2,
        pick in any::<usize>(),
        replacement in 0usize..REPLACEMENTS.len(),
    ) {
        let mut doc = Json::parse(valid_document(document)).unwrap();
        let with = Json::parse(REPLACEMENTS[replacement]).unwrap();
        let mut n = pick % 256;
        replace_value(&mut doc, &mut n, &with, &|v| matches!(v, Json::Num(_)));
        summarize_is_total(doc.to_string().as_bytes())?;
    }

    #[test]
    fn a_value_of_the_wrong_type_summarizes_or_is_refused(
        document in 0u8..2,
        pick in any::<usize>(),
        replacement in 0usize..WRONG_TYPES.len(),
    ) {
        let mut doc = Json::parse(valid_document(document)).unwrap();
        let with = Json::parse(WRONG_TYPES[replacement]).unwrap();
        let mut n = pick % 512;
        let other_type = |v: &Json| std::mem::discriminant(v) != std::mem::discriminant(&with);
        replace_value(&mut doc, &mut n, &with, &other_type);
        summarize_is_total(doc.to_string().as_bytes())?;
    }
}

#[test]
fn the_valid_documents_summarize() {
    for document in 0..2 {
        assert!(summarize_is_total(valid_document(document).as_bytes()).unwrap(), "{document}");
    }
}
