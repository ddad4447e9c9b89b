//! Totality of the grid-spec decoder: `ScenarioGrid::parse` over any
//! text returns a validated grid or [`BatchError::Spec`], never a panic
//! or another error kind.
//!
//! Three input families: byte soup over JSON punctuation and the spec's
//! keys; a valid spec truncated or with a byte overwritten; and a valid
//! spec with one number replaced by `1e300`, `-1`, `0.5`, `2^64`,
//! `"NaN"`, `null`, `[]` or `{}`. A seed, round count or interval count
//! holding such a value is refused — none of them is an index. Fixed
//! cases pin the refusal of an interval count past the cap.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_batch::{BatchError, ScenarioGrid};
use dcc_faults::Json;
use proptest::prelude::*;

/// What a mutation writes over a number.
const REPLACEMENTS: [&str; 8] =
    ["1e300", "-1", "0.5", "18446744073709551616", "\"NaN\"", "null", "[]", "{}"];

/// JSON punctuation, literals and the spec's keys, for byte soup.
const SOUP: &[u8] = br#"{}[]:,"\ 019-.eE+schematrcvlbusdgyimnfxoqpwk"#;

/// The integer fields of a spec.
const INDEX_KEYS: [&str; 4] = ["seed", "rounds", "intervals", "per_worker_fit_min_reviews"];

/// A valid spec setting every field, its values drawn from `d`.
fn valid_spec(d: [u8; 6]) -> String {
    let trace = match d[0] % 3 {
        0 => r#"{"csv": "trace-dir", "label": "t"}"#.to_string(),
        1 => r#"{"col": "trace.col"}"#.to_string(),
        _ => format!(r#"{{"scale": "small", "seed": {}}}"#, d[1]),
    };
    format!(
        r#"{{"schema": "dcc-batch/1",
            "traces": [{trace}, {{"scale": "paper", "seed": {seed}}}],
            "mus": [1.5, {mu}, -1.0],
            "budget_fractions": [0.5, {fraction}],
            "strategies": ["dynamic", "fixed:0.75", "exclude", "collusion-proof"],
            "sim": {{"rounds": {rounds}, "noise": 0.25, "seed": {seed}}},
            "design": {{"omega": 1.0, "beta": 1.0, "intervals": {intervals},
                        "effort_quantile": 95.0, "per_worker_fit_min_reviews": {min}}}}}"#,
        seed = d[1],
        mu = 0.5 + f64::from(d[2]) / 64.0,
        fraction = f64::from(d[3]) / 255.0,
        rounds = 1 + d[4] % 20,
        intervals = 1 + d[5] % 80,
        min = 3 + d[5] % 10,
    )
}

/// Replaces the `n`-th number of `doc`, in document order, with `with`;
/// returns the key the number sat under (empty inside an array).
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

/// Parses `text`: a grid that validates and expands, or a spec error.
/// Returns whether it parsed.
fn parse_is_total(text: &str) -> Result<bool, TestCaseError> {
    match ScenarioGrid::parse(text) {
        Ok(grid) => {
            prop_assert!(grid.validate().is_ok());
            let expected = grid.traces.len()
                * grid.mus.len()
                * grid.budget_fractions.len()
                * grid.strategies.len();
            prop_assert_eq!(grid.scenarios().len(), expected);
            Ok(true)
        }
        Err(BatchError::Spec(_)) => Ok(false),
        Err(other) => {
            prop_assert!(false, "{text:?}: unexpected error kind: {other}");
            Ok(false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_soup_and_damaged_specs_parse_or_are_refused(
        kind in 0u8..3,
        d in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        pick in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let valid = valid_spec([d.0, d.1, d.2, d.3, d.4, d.5]);
        prop_assert!(parse_is_total(&valid)?, "{valid}");
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
        parse_is_total(&text)?;
    }

    #[test]
    fn a_number_that_is_no_index_is_refused_in_an_integer_field(
        d in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        pick in any::<usize>(),
        replacement in 0usize..REPLACEMENTS.len(),
    ) {
        let mut doc = Json::parse(&valid_spec([d.0, d.1, d.2, d.3, d.4, d.5])).unwrap();
        let with = Json::parse(REPLACEMENTS[replacement]).unwrap();
        let mut n = pick % 24;
        let Some(key) = replace_number(&mut doc, &mut n, &with) else {
            prop_assert!(parse_is_total(&doc.to_string())?);
            return Ok(());
        };
        let parsed = parse_is_total(&doc.to_string())?;
        if INDEX_KEYS.contains(&key.as_str()) {
            prop_assert!(!parsed, "{} = {} parsed", key, REPLACEMENTS[replacement]);
        }
    }
}

#[test]
fn an_interval_count_past_the_cap_is_refused() {
    let spec = |intervals: &str| {
        format!(
            r#"{{"traces": [{{"scale": "small", "seed": 1}}], "mus": [1.0],
                "design": {{"intervals": {intervals}}}}}"#
        )
    };
    assert!(ScenarioGrid::parse(&spec("1024")).is_ok());
    for intervals in ["1025", "10000", "100000000000"] {
        let err = ScenarioGrid::parse(&spec(intervals)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "GridSpec.design: invalid parameters: DesignConfig.intervals must be <= 1024, \
                 got {intervals}"
            )
        );
    }
    for seed in ["1e300", "18446744073709551616"] {
        let text = format!(r#"{{"traces": [{{"scale": "small", "seed": {seed}}}], "mus": [1.0]}}"#);
        let err = ScenarioGrid::parse(&text).unwrap_err();
        assert!(err.to_string().contains("GridSpec.traces[0].seed"), "{err}");
        let text = format!(
            r#"{{"traces": [{{"scale": "small"}}], "mus": [1.0], "sim": {{"seed": {seed}}}}}"#
        );
        let err = ScenarioGrid::parse(&text).unwrap_err();
        assert!(err.to_string().contains("GridSpec.sim.seed"), "{err}");
    }
}
