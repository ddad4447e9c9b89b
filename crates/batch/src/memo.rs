//! The content-addressed stage memo: cross-scenario (and cross-run)
//! reuse of the Detect, Fit, Solve/Construct and Simulate stage outputs.
//!
//! Keys are FNV-1a 64 fingerprints:
//!
//! - a **trace fingerprint** covers every field of every product,
//!   reviewer, review, and campaign in the dataset, so two traces share
//!   detection results only if they are content-identical;
//! - a **pipeline fingerprint** covers the full `PipelineConfig`
//!   (via its `Debug` form — the config is a flat `Copy` struct, so the
//!   form is total);
//! - a **fit fingerprint** covers exactly the design fields
//!   `prepare_design` reads (ω, intervals, effort quantile, per-worker
//!   fit threshold) — deliberately *not* μ, which only the solve stage
//!   consumes;
//! - a **solve fingerprint** covers the full `DesignConfig` including
//!   μ and the failure policy (the pool size is not part of it: the
//!   solve is bit-identical across pool sizes) — so a grid that varies
//!   only the budget fraction or the strategy solves each distinct
//!   design exactly once, and a warm rerun solves nothing;
//! - a **simulate fingerprint** covers the strategy and the simulation
//!   config (via their `Debug` forms, total for the same reason) and
//!   joins the solve key — deliberately *not* the budget fraction, which
//!   the simulation never reads — so a budget sweep simulates each
//!   (design, strategy) once.
//!
//! Each memoized stage holds one panic-safe [`Slot`] per key, so two
//! workers never compute the same value concurrently and a computation
//! that panics leaves its slot empty instead of storing a partial
//! value. Values are stored behind `Arc`, so cache hits clone a
//! pointer, not a detection result. The memo never evicts: a batch
//! sweep touches a handful of (trace, config) pairs, and the caller
//! controls lifetime by dropping the [`StageMemo`].

use crate::supervisor::Slot;
use dcc_core::{ContractDesign, DesignPrep, SimulationConfig, SimulationOutcome, StrategyKind};
use dcc_detect::{DetectionResult, PipelineConfig};
use dcc_numerics::Fnv;
use dcc_trace::TraceDataset;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Hit/miss counts for one memoized stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo (or from a lower-id scenario in
    /// the same run).
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
}

impl CacheStats {
    /// Records `hit` into the appropriate counter.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Per-stage cache statistics for one batch run.
///
/// Trace stats count distinct trace *specs* resolved; detect and fit
/// stats count *scenarios* (hits + misses = scenario count), mirroring
/// what a serial engine sweep would recompute per scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Trace materialization (synthetic generation / CSV ingest).
    pub trace: CacheStats,
    /// Detection-pipeline runs.
    pub detect: CacheStats,
    /// Effort-fit / subproblem-decomposition runs.
    pub fit: CacheStats,
    /// Subproblem-solve + contract-construction runs (per distinct
    /// design configuration, μ included).
    pub solve: CacheStats,
    /// Strategy-assembly + simulation runs (per distinct solve key,
    /// strategy and simulation config); zero for design-only grids.
    pub simulate: CacheStats,
}

/// Key of a memoized detection result: (trace, pipeline) fingerprints.
pub(crate) type DetectKey = (u64, u64);
/// Key of a memoized fit: (trace, pipeline, fit-config) fingerprints.
pub(crate) type FitKey = (u64, u64, u64);
/// Key of a memoized solved design: (trace, pipeline, fit-config,
/// solve-config) fingerprints.
pub(crate) type SolveKey = (u64, u64, u64, u64);
/// Key of a memoized simulation: the solve key and the
/// strategy-and-sim-config fingerprint.
pub(crate) type SimKey = (SolveKey, u64);

/// One memoized stage: a compute-once [`Slot`] per key.
pub(crate) struct StageCache<K, T> {
    slots: Mutex<BTreeMap<K, Arc<Slot<T>>>>,
}

impl<K, T> Default for StageCache<K, T> {
    fn default() -> Self {
        StageCache { slots: Mutex::default() }
    }
}

impl<K: Ord, T: Clone> StageCache<K, T> {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<K, Arc<Slot<T>>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value computed under `key`, if any.
    pub(crate) fn get(&self, key: &K) -> Option<T> {
        let slot = self.lock().get(key).cloned()?;
        slot.peek()
    }

    /// The value under `key`, computed by `compute` unless another
    /// caller has computed (or is computing) it.
    ///
    /// # Errors
    ///
    /// The panic message when this caller's own `compute` panicked; the
    /// slot is then empty again (see [`Slot::get_or_compute`]).
    pub(crate) fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> T,
    ) -> Result<T, String> {
        let slot = Arc::clone(self.lock().entry(key).or_insert_with(|| Arc::new(Slot::new())));
        slot.get_or_compute(compute)
    }

    /// Keys holding a computed value.
    fn len(&self) -> usize {
        self.lock().values().filter(|slot| slot.peek().is_some()).count()
    }
}

/// Shared, thread-safe memo for Detect, Fit, Solve and Simulate stage
/// outputs.
///
/// Clone the surrounding `Arc<StageMemo>` into several
/// [`crate::BatchRunner`]s to share warm caches across runs; a fresh
/// memo reproduces cold-start behavior.
#[derive(Default)]
pub struct StageMemo {
    /// Source key → materialized trace + its content fingerprint.
    traces: Mutex<BTreeMap<String, (Arc<TraceDataset>, u64)>>,
    pub(crate) detect: StageCache<DetectKey, Arc<DetectionResult>>,
    /// Fit outcomes are memoized *including* deterministic failures, so
    /// a warm rerun replays the same error without re-fitting.
    pub(crate) fit: StageCache<FitKey, Result<Arc<DesignPrep>, String>>,
    /// Solved designs, memoized including deterministic failures for
    /// the same reason as fits.
    pub(crate) solve: StageCache<SolveKey, Result<Arc<ContractDesign>, String>>,
    /// Simulated outcomes, memoized including deterministic failures
    /// for the same reason as fits.
    pub(crate) simulate: StageCache<SimKey, Result<Arc<SimulationOutcome>, String>>,
}

impl fmt::Debug for StageMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageMemo").field("len", &self.len()).finish()
    }
}

impl StageMemo {
    /// An empty (cold) memo.
    pub fn new() -> Self {
        StageMemo::default()
    }

    /// Number of memoized (trace, detection, fit, solve, simulate)
    /// entries.
    pub fn len(&self) -> (usize, usize, usize, usize, usize) {
        let traces = self.traces.lock().unwrap_or_else(PoisonError::into_inner).len();
        (
            traces,
            self.detect.len(),
            self.fit.len(),
            self.solve.len(),
            self.simulate.len(),
        )
    }

    /// `true` when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0, 0, 0, 0)
    }

    pub(crate) fn get_trace(&self, key: &str) -> Option<(Arc<TraceDataset>, u64)> {
        self.traces.lock().unwrap_or_else(PoisonError::into_inner).get(key).cloned()
    }

    pub(crate) fn insert_trace(&self, key: String, trace: Arc<TraceDataset>, fingerprint: u64) {
        self.traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, (trace, fingerprint));
    }
}

/// Content fingerprint of a trace: every field of every product,
/// reviewer, review, and campaign, plus section lengths (so e.g. an
/// empty-reviews trace cannot collide with an empty-products one).
pub(crate) fn trace_fingerprint(trace: &TraceDataset) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(trace.products().len());
    for p in trace.products() {
        h.write_usize(p.id.0);
        h.write_f64(p.true_quality);
    }
    h.write_usize(trace.reviewers().len());
    for r in trace.reviewers() {
        h.write_usize(r.id.0);
        h.write_bytes(r.class.code().as_bytes());
        match r.campaign {
            Some(c) => {
                h.write_u64(1);
                h.write_usize(c);
            }
            None => h.write_u64(0),
        }
        h.write_u64(u64::from(r.is_expert));
    }
    h.write_usize(trace.reviews().len());
    for r in trace.reviews() {
        h.write_usize(r.reviewer.0);
        h.write_usize(r.product.0);
        h.write_usize(r.round);
        h.write_f64(r.stars);
        h.write_usize(r.length_chars);
        h.write_f64(r.upvotes);
    }
    h.write_usize(trace.campaigns().len());
    for c in trace.campaigns() {
        h.write_usize(c.id);
        h.write_usize(c.members.len());
        for m in &c.members {
            h.write_usize(m.0);
        }
        h.write_usize(c.targets.len());
        for t in &c.targets {
            h.write_usize(t.0);
        }
    }
    h.finish()
}

/// Fingerprint of the detection-pipeline configuration.
///
/// `PipelineConfig` is a flat `Copy` struct of enums and floats, so its
/// `Debug` form is a total, deterministic encoding.
pub(crate) fn pipeline_fingerprint(pipeline: &PipelineConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(format!("{pipeline:?}").as_bytes());
    h.finish()
}

/// Fingerprint of the fit-relevant design fields — the ones
/// `prepare_design` reads: ω, intervals, effort quantile, and the
/// per-worker fit threshold. μ and the failure policy are deliberately
/// excluded; they only affect the solve stage, so a μ sweep fits once.
pub(crate) fn fit_fingerprint(design: &dcc_core::DesignConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_f64(design.params.omega);
    h.write_usize(design.intervals);
    h.write_f64(design.effort_quantile);
    match design.per_worker_fit_min_reviews {
        Some(n) => {
            h.write_u64(1);
            h.write_usize(n);
        }
        None => h.write_u64(0),
    }
    h.finish()
}

/// Fingerprint of the solve-relevant design fields: the whole
/// `DesignConfig` (a flat `Copy` struct, so its `Debug` form is total).
/// μ and the failure policy change the solved contracts, so both are
/// covered.
pub(crate) fn solve_fingerprint(design: &dcc_core::DesignConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(format!("{design:?}").as_bytes());
    h.finish()
}

/// Fingerprint of what a simulation reads besides its solved design:
/// the strategy (a fixed payment's amount and the collusion-proof
/// parameters included) and the simulation config, both flat `Copy`
/// values whose `Debug` forms are total.
pub(crate) fn simulate_fingerprint(strategy: StrategyKind, sim: &SimulationConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(format!("{strategy:?}").as_bytes());
    h.write_bytes(format!("{sim:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

    use super::*;
    use dcc_trace::SyntheticConfig;

    fn tiny(seed: u64) -> TraceDataset {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.n_honest = 10;
        cfg.n_ncm = 3;
        cfg.n_cm_target = 4;
        cfg.n_products = 60;
        cfg.n_rounds = 2;
        cfg.generate()
    }

    #[test]
    fn trace_fingerprint_is_content_addressed() {
        let a = tiny(1);
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&tiny(1)));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&tiny(2)));
    }

    #[test]
    fn fit_fingerprint_ignores_mu_and_policy() {
        let base = dcc_core::DesignConfig::default();
        let mut mu = base;
        mu.params.mu = 0.25;
        let mut policy = base;
        policy.failure_policy = dcc_core::FailurePolicy::Skip;
        assert_eq!(fit_fingerprint(&base), fit_fingerprint(&mu));
        assert_eq!(fit_fingerprint(&base), fit_fingerprint(&policy));
        let mut intervals = base;
        intervals.intervals += 1;
        assert_ne!(fit_fingerprint(&base), fit_fingerprint(&intervals));
    }

    #[test]
    fn solve_fingerprint_tracks_mu_and_policy() {
        let base = dcc_core::DesignConfig::default();
        let mut mu = base;
        mu.params.mu = 0.25;
        assert_ne!(solve_fingerprint(&base), solve_fingerprint(&mu));
        let mut policy = base;
        policy.failure_policy = dcc_core::FailurePolicy::Skip;
        assert_ne!(solve_fingerprint(&base), solve_fingerprint(&policy));
    }

    #[test]
    fn simulate_fingerprint_tracks_the_strategy_and_sim_config() {
        let sim = SimulationConfig::default();
        let fixed = |amount| simulate_fingerprint(StrategyKind::FixedPayment { amount }, &sim);
        assert_eq!(fixed(1.0), fixed(1.0));
        assert_ne!(fixed(1.0), fixed(0.5));
        assert_ne!(
            fixed(1.0),
            simulate_fingerprint(StrategyKind::DynamicContract, &sim)
        );
        let reseeded = SimulationConfig {
            seed: sim.seed + 1,
            ..sim
        };
        assert_ne!(
            simulate_fingerprint(StrategyKind::DynamicContract, &sim),
            simulate_fingerprint(StrategyKind::DynamicContract, &reseeded)
        );
    }

    #[test]
    fn memo_roundtrips_entries() {
        let memo = StageMemo::new();
        assert!(memo.is_empty());
        let trace = Arc::new(tiny(1));
        let fp = trace_fingerprint(&trace);
        memo.insert_trace("synthetic:x".to_string(), Arc::clone(&trace), fp);
        let (got, got_fp) = memo.get_trace("synthetic:x").expect("trace entry");
        assert_eq!(got_fp, fp);
        assert_eq!(got.reviews().len(), trace.reviews().len());
        assert_eq!(memo.len(), (1, 0, 0, 0, 0));
    }
}
