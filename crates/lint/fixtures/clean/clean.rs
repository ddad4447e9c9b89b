// Fixture: near-miss patterns for every rule; the analyzer must report
// zero findings here. Not compiled — consumed by
// crates/lint/tests/fixtures.rs.

/// Integer comparisons, ranges, and tuple indexing are not float-eq.
pub fn int_paths(n: usize, pair: (f64, u64)) -> bool {
    let mut total = 0usize;
    for i in 0..n {
        total += i;
    }
    total == n && pair.1 == 7
}

/// `unwrap_or*` and epsilon comparisons are the approved forms.
pub fn approved(x: Option<f64>, a: f64, b: f64) -> bool {
    let v = x.unwrap_or(0.0);
    (a - b).abs() < 1e-12 && v.is_finite()
}

/// Deterministic containers are fine.
pub fn ordered() -> usize {
    let m: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    m.len()
}

/// Strings and comments mentioning HashMap, Instant::now(), 1.0 == 2.0,
/// or .unwrap() must not trip the lexer-based rules.
pub fn documentation() -> &'static str {
    "prefer BTreeMap over HashMap; never call .unwrap() or Instant::now()"
}

// A suppressed line with a reason is clean only when it has a finding;
// this one is genuinely needed by the rule it allows.
pub fn is_unit(x: f64) -> bool {
    // dcc-lint: allow(float-eq, reason = "fixture exercising a used suppression")
    x == 1.0
}

#[cfg(test)]
mod tests {
    // Test code may use all of it.
    #[test]
    fn test_code_is_exempt() {
        let t = std::time::Instant::now();
        let m = std::collections::HashMap::<u32, u32>::new();
        assert!(m.is_empty());
        assert!(0.0 == 0.0 || t.elapsed().as_nanos() as f64 >= 0.0);
        let v: Option<u32> = Some(1);
        v.unwrap();
    }
}
