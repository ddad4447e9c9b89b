//! Offline drop-in subset of the `criterion` 0.5 API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of `criterion` its benches use: [`Criterion`],
//! [`BenchmarkId`], benchmark groups with `bench_function` /
//! `bench_with_input` / `sample_size`, the [`criterion_group!`] /
//! [`criterion_main!`] macros, and [`black_box`].
//!
//! Instead of criterion's statistical engine this shim runs a short
//! warm-up, then measures `sample_size` timed iterations (auto-scaled so
//! each sample takes ≳1 ms) and prints median / mean / min wall-clock
//! times per iteration. Good enough to compare runs by eye; not a
//! replacement for real criterion when it is available.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark harness times with the wall clock"
)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group: a function name plus an
/// optional parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id for `function_name` at `parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id carrying only a parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { name: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// The timing harness handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, running it enough times per sample for stable
    /// wall-clock readings.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and per-sample iteration count: aim for >= 1 ms/sample.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed();
        let iters = if once >= Duration::from_millis(1) {
            1
        } else {
            let target = Duration::from_millis(1).as_nanos();
            ((target / once.as_nanos().max(1)) as usize).clamp(1, 1_000_000)
        };

        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(t.elapsed() / iters as u32);
        }
    }

    fn report(&self, label: &str) {
        if self.samples.is_empty() {
            println!("{label:<40} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        println!(
            "{label:<48} median {median:>12.3?}  mean {mean:>12.3?}  min {min:>12.3?}  ({} samples)",
            sorted.len()
        );
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        let label = format!("{}/{}", self.name, id);
        self.criterion.run_one(&label, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        self.criterion.run_one(&label, |b| f(b, input));
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Starts a [`BenchmarkGroup`] named `name`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        let label = id.to_string();
        self.run_one(&label, f);
        self
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        bencher.report(label);
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_addition(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2)));
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(benches, bench_addition);

    #[test]
    fn harness_runs() {
        benches();
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}
