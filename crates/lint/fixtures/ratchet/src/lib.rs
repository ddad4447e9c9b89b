//! Ratchet fixture: exactly two determinism-taint findings with no
//! policy, exercised against the three committed baseline variants
//! (`baseline-ok`, `baseline-short`, `baseline-stale`).
use std::time::Instant;

/// Wall-clock source.
pub fn ticks() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}

/// Finding 1: clock into the digest.
pub fn digest(seed: u64) -> u64 {
    fnv_fold(seed, ticks())
}

/// Env source.
pub fn region() -> String {
    std::env::var("DCC_REGION").unwrap_or_default()
}

/// Finding 2: env into the checkpoint.
pub fn persist(state: &str) {
    save_checkpoint(state, &region());
}

pub fn fnv_fold(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0100_0000_01b3)
}

pub fn save_checkpoint(_state: &str, _region: &str) {}
