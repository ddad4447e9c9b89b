//! Totality of the JSON parser: `Json::parse` over any text returns a
//! value or a [`JsonError`], never a panic or a stack overflow, and no
//! single allocation it makes is larger than a fixed multiple of the
//! text's length. A value it returns renders back to text that parses
//! to the same value.
//!
//! Four input families: byte soup over JSON punctuation, literals and
//! digits; three kinds of document the workspace writes — an adversary
//! plan from `AdversaryPlanConfig`, a batch checkpoint and a `dcc-obs/1`
//! metrics document — truncated or with a byte overwritten; 200,000-deep
//! nesting; and each document with one number replaced by `1e300`,
//! `-1`, `0.5`, `18446744073709551616`, `"NaN"`, `null` or `[]`.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_numerics::Json;
use dcc_trace::AdversaryPlanConfig;
use proptest::prelude::*;

mod common;

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

/// JSON punctuation, literals, escapes and number characters.
const SOUP: &[u8] = br#"{}[]:,"\ 0123456789-+.eEtruefalsnNIu/"#;

/// A batch checkpoint (`dcc-batch-ckpt/3`): a summary with every float
/// shape and a quarantined failure.
const CHECKPOINT: &str = r#"{"schema":"dcc-batch-ckpt/3","payload":{"fingerprint":"91aa647f0e2b3c44","records":[{"id":0,"summary":{"utility":12.345678901234567,"agents":[{"worker":0,"subproblem":1,"compensation":0.30000000000000004,"induced_effort":1e-17},{"worker":7,"subproblem":0,"compensation":2.2250738585072014e-308,"induced_effort":0}],"degraded":1,"funded":[1,0],"spend":2.5,"budget":3,"budget_utility":1.75,"full_spend":4,"sim":{"rounds":16,"cumulative_utility":-3.25,"mean_round_utility":-0.203125}}},{"id":3,"failure":{"kind":"panic","message":"injected fault: scenario 3 panics at \"Solve\"\n"}}]}}"#;

/// A `dcc-obs/1` metrics document: nested spans, an event, counters,
/// a gauge and a histogram.
const METRICS: &str = r#"{"schema":"dcc-obs/1","spans":[{"id":1,"parent":null,"name":"engine.run","attrs":{"last":"simulate"},"elapsed_us":1009},{"id":2,"parent":1,"name":"stage","attrs":{"stage":"ingest","cached":false},"elapsed_us":535},{"id":3,"parent":2,"name":"trace.load","attrs":{"source":"provided"},"elapsed_us":null}],"events":[{"name":"sim.round","attrs":{"round":0,"benefit":10.5,"payment":3.25,"u_req":7.25}}],"counters":{"sim.rounds":5,"trace.reviews":7778},"gauges":{"design.utility":45991.729},"histograms":{"solve.subproblem_us":{"count":33,"sum":147460,"min":53,"max":10843}}}"#;

/// One of the three valid documents.
fn valid_document(kind: u8, seed: u64) -> String {
    match kind {
        0 => AdversaryPlanConfig {
            seed,
            n_campaigns: 6,
            n_rounds: 8,
            split_prob: 0.5,
            merge_prob: 0.3,
            sybil_prob: 0.5,
            max_sybils: 4,
            underreport_prob: 0.5,
            min_factor: 0.25,
        }
        .generate()
        .unwrap()
        .to_json_string(),
        1 => CHECKPOINT.to_string(),
        _ => METRICS.to_string(),
    }
}

/// Replaces the `n`-th number of `doc`, in document order, with `with`;
/// returns whether there was one.
fn replace_number(doc: &mut Json, n: &mut usize, with: &Json) -> bool {
    let slots: Vec<&mut Json> = match doc {
        Json::Obj(members) => members.iter_mut().map(|(_, v)| v).collect(),
        Json::Arr(items) => items.iter_mut().collect(),
        _ => return false,
    };
    for value in slots {
        if let Json::Num(_) = value {
            if *n == 0 {
                *value = with.clone();
                return true;
            }
            *n -= 1;
        } else if replace_number(value, n, with) {
            return true;
        }
    }
    false
}

/// Parses `text`, checks that its largest allocation is bounded by the
/// text's length and that a value round-trips, and returns whether it
/// parsed.
fn parse_is_total(text: &str) -> Result<bool, TestCaseError> {
    let (outcome, largest) = common::largest_allocation(|| Json::parse(text));
    // An array element is a 32-byte `Json` from as few as two bytes
    // (`1,`), in a vector that grows by doubling; an object member is
    // 56 bytes from at least five (`"":1,`); strings copy their bytes.
    prop_assert!(
        largest <= 32 * text.len() + 1024,
        "{} bytes of text made a {largest}-byte allocation",
        text.len()
    );
    match outcome {
        Ok(value) => {
            prop_assert_eq!(Json::parse(&value.to_string()), Ok(value));
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_soup_and_damaged_documents_parse_or_are_refused(
        kind in 0u8..3,
        document in 0u8..3,
        seed in 0u64..1000,
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        pick in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let valid = valid_document(document, seed);
        let text = match kind {
            0 => bytes
                .iter()
                .map(|&b| match b {
                    0..=0xdf => char::from(SOUP[usize::from(b) % SOUP.len()]),
                    _ => char::from(b),
                })
                .collect(),
            1 => valid[..pick % (valid.len() + 1)].to_string(),
            _ => {
                let mut damaged = valid.into_bytes();
                let at = pick % damaged.len();
                damaged[at] = SOUP[usize::from(byte) % SOUP.len()];
                String::from_utf8_lossy(&damaged).into_owned()
            }
        };
        parse_is_total(&text)?;
    }

    #[test]
    fn a_document_with_a_number_replaced_still_parses(
        document in 0u8..3,
        seed in 0u64..1000,
        pick in any::<usize>(),
        replacement in 0usize..REPLACEMENTS.len(),
    ) {
        let mut doc = Json::parse(&valid_document(document, seed)).unwrap();
        let with = Json::parse(REPLACEMENTS[replacement]).unwrap();
        let mut n = pick % 64;
        replace_number(&mut doc, &mut n, &with);
        prop_assert!(parse_is_total(&doc.to_string())?);
    }
}

#[test]
fn the_valid_documents_parse() {
    for document in 0..3 {
        assert!(
            Json::parse(&valid_document(document, 7)).is_ok(),
            "document {document}"
        );
    }
}

#[test]
fn deep_nesting_is_refused_within_the_allocation_bound() {
    for open in ["[", "{\"k\":", "[{\"k\":"] {
        let text = open.repeat(200_000);
        let (outcome, largest) = common::largest_allocation(|| Json::parse(&text));
        let err = outcome.unwrap_err();
        assert!(err.message.contains("nest deeper than 128"), "{err}");
        assert!(largest <= 32 * text.len() + 1024, "{largest}");
    }
}

#[test]
fn a_number_past_the_f64_range_is_refused() {
    // `1e999` used to parse to an infinite `Json::Num`, which rendered
    // as `inf`: text that no parser reads back.
    for text in ["1e999", "[1,-1e999]", r#"{"value":9e9999}"#] {
        let err = Json::parse(text).unwrap_err();
        assert!(err.message.contains("out of range"), "{text}: {err}");
    }
}
