//! Totality of the `dcc-adversary/1` loader: `AdversaryPlan::from_json_str`
//! over any text returns a plan, a [`TraceError::Parse`] (the text is
//! not JSON) or a [`TraceError::InvalidDataset`] (the JSON is not a
//! plan), never a panic or another error kind, and no single allocation
//! it makes is larger than a fixed multiple of the text's length. A plan
//! it returns renders back to a document that loads to the same plan.
//!
//! Four input families: byte soup over JSON punctuation and the plan's
//! keys; a plan from `AdversaryPlanConfig` truncated or with a byte
//! overwritten; 200,000-deep nesting; and a plan with one number
//! replaced by `1e300`, `-1`, `0.5`, `18446744073709551616`, `"NaN"`,
//! `null` or `[]`. An index field holding such a value is refused; an
//! under-report `factor` loads only as `0.5`, the one value in `[0, 1]`.
//! Every plan the loader accepts passes `AdversaryPlan::validate`'s
//! checks that need no base trace.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_numerics::Json;
use dcc_trace::{AdversaryPlan, AdversaryPlanConfig, TraceError};
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

/// JSON punctuation, literals, digits and the plan's keys.
const SOUP: &[u8] = br#"{}[]:,"\ 019-.eEschemadcvry/sybilpoutmegfnkN"#;

/// A busy plan: every event kind.
fn valid_plan(seed: u64) -> String {
    AdversaryPlanConfig {
        seed,
        n_campaigns: 6,
        n_rounds: 8,
        split_prob: 0.5,
        merge_prob: 0.5,
        sybil_prob: 0.5,
        max_sybils: 4,
        underreport_prob: 0.5,
        min_factor: 0.25,
    }
    .generate()
    .unwrap()
    .to_json_string()
}

/// Replaces the `n`-th number of `doc`, in document order, with `with`;
/// returns the key the number sat under.
fn replace_number(doc: &mut Json, n: &mut usize, with: &Json) -> Option<String> {
    let slots: Vec<(Option<&String>, &mut Json)> = match doc {
        Json::Obj(members) => members.iter_mut().map(|(k, v)| (Some(&*k), v)).collect(),
        Json::Arr(items) => items.iter_mut().map(|v| (None, v)).collect(),
        _ => return None,
    };
    for (key, value) in slots {
        if let Json::Num(_) = value {
            if *n == 0 {
                *value = with.clone();
                return Some(key.cloned().unwrap_or_default());
            }
            *n -= 1;
        } else if let Some(found) = replace_number(value, n, with) {
            return Some(found);
        }
    }
    None
}

/// Loads `text`, checks the outcome is typed, its largest allocation is
/// bounded by the text's length and a plan round-trips, and returns
/// whether it loaded.
fn load_is_total(text: &str) -> Result<bool, TestCaseError> {
    let (outcome, largest) = common::largest_allocation(|| AdversaryPlan::from_json_str(text));
    // The JSON tree bounds it (see `json_totality.rs`): an event decodes
    // into at most 24 bytes from a 30-byte object.
    prop_assert!(
        largest <= 32 * text.len() + 1024,
        "{} bytes of text made a {largest}-byte allocation",
        text.len()
    );
    match outcome {
        Ok(plan) => {
            // Against a trace with every campaign and round, only the
            // checks that need no base trace can fail.
            prop_assert!(plan.validate(usize::MAX, usize::MAX).is_ok(), "{text:?}");
            let again = AdversaryPlan::from_json_str(&plan.to_json_string()).unwrap();
            prop_assert_eq!(again.to_json_string(), plan.to_json_string());
            Ok(true)
        }
        Err(TraceError::Parse { .. } | TraceError::InvalidDataset(_)) => Ok(false),
        Err(other) => {
            prop_assert!(false, "{text:?}: unexpected error kind: {other}");
            Ok(false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_soup_and_damaged_plans_load_or_are_refused(
        kind in 0u8..3,
        seed in 0u64..1000,
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        pick in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let valid = valid_plan(seed);
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
                String::from_utf8(damaged).unwrap()
            }
        };
        load_is_total(&text)?;
    }

    #[test]
    fn a_number_that_is_no_index_is_refused_in_an_index_field(
        seed in 0u64..1000,
        pick in any::<usize>(),
        replacement in 0usize..REPLACEMENTS.len(),
    ) {
        let mut doc = Json::parse(&valid_plan(seed)).unwrap();
        let with = Json::parse(REPLACEMENTS[replacement]).unwrap();
        let mut n = pick % 64;
        let Some(key) = replace_number(&mut doc, &mut n, &with) else {
            // Fewer numbers than `pick`: the plan is unchanged.
            prop_assert!(load_is_total(&doc.to_string())?);
            return Ok(());
        };
        let loaded = load_is_total(&doc.to_string())?;
        // A factor is a float in [0, 1]; every other number of a plan is
        // an index.
        let factor = key == "factor" && REPLACEMENTS[replacement] == "0.5";
        prop_assert_eq!(loaded, factor, "{} = {}", key, REPLACEMENTS[replacement]);
    }
}

#[test]
fn deep_nesting_is_a_parse_error() {
    for open in ["[", "{\"sybils\":"] {
        let text = open.repeat(200_000);
        let (outcome, largest) = common::largest_allocation(|| AdversaryPlan::from_json_str(&text));
        assert!(
            matches!(outcome, Err(TraceError::Parse { .. })),
            "{outcome:?}"
        );
        assert!(largest <= 32 * text.len() + 1024, "{largest}");
    }
}
