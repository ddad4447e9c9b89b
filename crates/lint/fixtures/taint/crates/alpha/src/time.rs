//! Wall-clock helpers: the taint sources of the fixture workspace.
//! No token rule reads clocks (that ban is clippy's), so the golden
//! output holds the `determinism-taint` rule alone.
use std::time::Instant;

/// Microseconds of elapsed wall-clock time — a determinism-taint
/// source that leaks cross-crate into `beta::digest_round`.
pub fn now_us() -> u64 {
    Instant::now().elapsed().as_micros() as u64
}

/// Laundered by the fixture policy: flows out of this fn are
/// sanctioned and must produce no findings downstream.
pub fn sanctioned_timer() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}
