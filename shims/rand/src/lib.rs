//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the tiny slice of `rand` it actually uses: [`rngs::StdRng`],
//! [`SeedableRng`], and the [`Rng`] extension trait with `gen`,
//! `gen_range`, and `gen_bool`. The generator is xoshiro256++ seeded via
//! SplitMix64 — high-quality, fast, and *deterministic across platforms
//! and releases*, which checkpoint resume relies on: a resumed simulation
//! replays its recorded rounds from the seed.
//!
//! The value streams differ from upstream `rand`'s ChaCha12-based
//! `StdRng`; nothing in this workspace depends on upstream streams, only
//! on same-seed reproducibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A low-level random number generator: the subset of `rand_core`'s
/// `RngCore` the workspace needs.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    /// The seed type (a fixed-size byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Creates a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64` via SplitMix64 expansion (the
    /// same construction upstream `rand` documents for this method).
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64 { state };
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Types samplable uniformly over their "standard" domain (`[0, 1)` for
/// floats, the full range for integers, fair coin for `bool`) — the
/// shim's stand-in for `rand`'s `Standard` distribution.
pub trait StandardSample: Sized {
    /// Draws one value from the standard distribution.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges samplable uniformly — the shim's stand-in for `rand`'s
/// `SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range, matching upstream `gen_range`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::standard_sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f32::standard_sample(rng);
        self.start + u * (self.end - self.start)
    }
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + (rng.next_u64() as $t);
                }
                lo + (bounded_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(bounded_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(i8, i16, i32, i64, isize);

/// Uniform draw from `[0, bound)` by rejection sampling (`bound > 0`).
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let zone = u64::MAX - (u64::MAX % bound) - 1;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

/// High-level sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Draws `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool needs p in [0, 1]");
        f64::standard_sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The shim's generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(b);
            }
            // xoshiro must not start from the all-zero state.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 0xD1B5_4A32_D192_ED03, 1, 2];
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unit_interval_and_ranges() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            let r = rng.gen_range(3.0f64..5.0);
            assert!((3.0..5.0).contains(&r));
            let i = rng.gen_range(2usize..=10);
            assert!((2..=10).contains(&i));
            let j = rng.gen_range(0usize..17);
            assert!(j < 17);
            let k = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&k));
        }
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
