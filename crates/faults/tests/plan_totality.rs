//! Totality of the fault-plan decoder: `FaultPlan::from_json_str` over
//! any text returns a plan or [`CoreError::InvalidInput`], never a panic
//! or another error kind. A plan it returns renders back to a document
//! that decodes to the same plan.
//!
//! Three input families: byte soup over JSON punctuation and the plan's
//! keys; a valid plan truncated or with a byte overwritten; and a valid
//! plan with one number replaced by a value that is no index (`1e300`,
//! `-1`, `0.5`, `2^64`, `"NaN"`, `null`, `[]`, `{}`). An index field
//! holding such a value is refused; a corruption `value` holding a
//! number or `"NaN"` decodes. Entries the generator never writes — a
//! dropout window that is never active, a payment delay of 0 — are
//! refused by name.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::CoreError;
use dcc_faults::{FaultPlan, FaultPlanConfig, Json};
use proptest::prelude::*;

/// What a mutation writes over a number.
const REPLACEMENTS: [&str; 8] =
    ["1e300", "-1", "0.5", "18446744073709551616", "\"NaN\"", "null", "[]", "{}"];

/// JSON punctuation, literals and the plan's keys, for byte soup.
const SOUP: &[u8] = br#"{}[]:,"\ 019-.eE+dropoutsmisngcrueavlyfkNI"#;

/// A busy plan over a few agents: every list and corruption kind.
fn valid_plan(seed: u64) -> String {
    FaultPlanConfig {
        agents: 4,
        rounds: 6,
        dropout_prob: 0.1,
        missing_prob: 0.2,
        corrupt_prob: 0.3,
        nan_prob: 0.1,
        delay_prob: 0.3,
        seed,
        ..FaultPlanConfig::default()
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

/// Decodes `text`: a plan (which must round-trip) or an invalid-input
/// error. Returns whether it decoded.
fn decode_is_total(text: &str) -> Result<bool, TestCaseError> {
    match FaultPlan::from_json_str(text) {
        Ok(plan) => {
            let again = FaultPlan::from_json_str(&plan.to_json_string()).unwrap();
            prop_assert_eq!(again.to_json_string(), plan.to_json_string());
            Ok(true)
        }
        Err(CoreError::InvalidInput(_)) => Ok(false),
        Err(other) => {
            prop_assert!(false, "{text:?}: unexpected error kind: {other}");
            Ok(false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_soup_and_damaged_plans_decode_or_are_refused(
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
        decode_is_total(&text)?;
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
            prop_assert!(decode_is_total(&doc.to_string())?);
            return Ok(());
        };
        let decoded = decode_is_total(&doc.to_string())?;
        // A corruption value is a float (or "NaN"); every other number
        // of a plan is an index.
        let float = key == "value" && replacement <= 4;
        prop_assert_eq!(decoded, float, "{} = {}", key, REPLACEMENTS[replacement]);
    }
}

#[test]
fn an_index_at_or_above_2_pow_64_is_refused_by_name() {
    for delay in ["1e300", "18446744073709551616", "-1", "0.5"] {
        let text = format!(
            r#"{{"dropouts":[],"missing":[],"corrupt":[],"delays":[{{"agent":0,"round":1,"delay":{delay}}}]}}"#
        );
        let err = FaultPlan::from_json_str(&text).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");
        assert!(err.to_string().contains("\"delay\""), "{err}");
    }
    let largest = r#"{"dropouts":[],"missing":[],"corrupt":[],"delays":[{"agent":0,"round":1,"delay":18446744073709549568}]}"#;
    let plan = FaultPlan::from_json_str(largest).unwrap();
    assert_eq!(plan.delays[0].delay, 18_446_744_073_709_549_568);
}

#[test]
fn entries_the_generator_never_writes_are_refused_by_name() {
    let plan = |dropouts: &str, delays: &str| {
        format!(r#"{{"dropouts":[{dropouts}],"missing":[],"corrupt":[],"delays":[{delays}]}}"#)
    };
    let window = r#"{"agent":0,"from":1,"until":3}"#;
    let delay = r#"{"agent":0,"round":1,"delay":2}"#;
    assert!(FaultPlan::from_json_str(&plan(window, delay)).is_ok());
    let never_active = format!(r#"{window},{{"agent":0,"from":5,"until":2}}"#);
    let zero_delay = format!(r#"{delay},{{"agent":0,"round":1,"delay":0}}"#);
    for (text, entry, field) in [
        (plan(&never_active, ""), "dropouts[1]", "\"until\""),
        (plan(r#"{"agent":3,"from":4,"until":4}"#, ""), "dropouts[0]", "\"until\""),
        (plan("", &zero_delay), "delays[1]", "\"delay\""),
    ] {
        let err = FaultPlan::from_json_str(&text).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{text}: {err}");
        let message = err.to_string();
        assert!(
            message.contains(entry) && message.contains(field),
            "{text}: {message}"
        );
    }
}
