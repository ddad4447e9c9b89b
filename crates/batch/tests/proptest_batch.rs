//! Determinism properties of the batch scheduler: for any pool size —
//! and for any failure policy, warm or cold memo — the pooled batch
//! run must be **bit-identical** to the sequential batch run. This is
//! the suite the nightly ThreadSanitizer job drives over the scenario
//! fan-out (`.github/workflows/scheduled.yml`).

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_batch::{
    BatchFaultPlan, BatchOptions, BatchReport, BatchRunner, FailureKind, FaultMode, FaultPoint,
    ScenarioFault, ScenarioGrid, SupervisorOptions,
};
use dcc_core::{FailurePolicy, SimulationConfig, StrategyKind};
use dcc_engine::PoolSize;
use dcc_obs::{JsonRecorder, Metrics};
use dcc_trace::{SyntheticConfig, TraceDataset};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

const SEEDS: [u64; 2] = [11, 52];

fn trace(seed: u64) -> TraceDataset {
    let mut synth = SyntheticConfig::small(seed);
    synth.n_honest = 14;
    synth.n_ncm = 5;
    synth.n_cm_target = 6;
    synth.n_rounds = 2;
    synth.n_products = 160;
    synth.generate()
}

/// A small mixed grid: two traces, three μs (one poisonous under
/// non-abort policies), two budget fractions, two strategies, short
/// simulation. 24 scenarios.
fn grid(poison: bool) -> ScenarioGrid {
    let mut grid = ScenarioGrid::for_trace(trace(SEEDS[0]), &[1.5, 1.0]);
    grid.traces.push(dcc_batch::TraceSpec {
        label: "second".to_string(),
        source: dcc_engine::TraceSource::Provided(trace(SEEDS[1])),
    });
    if poison {
        grid.mus.push(-1.0);
    }
    grid.budget_fractions = vec![0.5, 1.0];
    grid.strategies =
        vec![StrategyKind::DynamicContract, StrategyKind::FixedPayment { amount: 0.75 }];
    grid.sim = Some(SimulationConfig { rounds: 4, feedback_noise_sd: 0.25, seed: 9 });
    grid
}

/// Bit-exact string encoding of everything deterministic in a report:
/// scenario identities, cache flags, per-worker contracts (f64s via
/// `to_bits`), budget selections, and simulation utilities. Wall-clock
/// fields are deliberately excluded.
fn encode(report: &BatchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "stats {:?}", report.stats);
    for r in &report.records {
        let s = &r.scenario;
        let _ = write!(
            out,
            "#{} t{} mu={:016x} bf={:016x} strat={} d{} f{} s{} ",
            s.id,
            s.trace,
            s.mu.to_bits(),
            s.budget_fraction.to_bits(),
            dcc_batch::strategy_label(s.strategy),
            u8::from(r.detect_cached),
            u8::from(r.fit_cached),
            u8::from(r.solve_cached),
        );
        match (r.failure(), r.outcome()) {
            (Some(e), _) => {
                let _ = writeln!(out, "err={e}");
            }
            (None, None) => {
                let _ = writeln!(out, "restored");
            }
            (None, Some(o)) => {
                let _ = write!(
                    out,
                    "u={:016x} spend={:016x} funded={:?} ",
                    o.design.total_requester_utility.to_bits(),
                    o.full_spend.to_bits(),
                    o.budget.funded,
                );
                for a in &o.design.agents {
                    let _ = write!(
                        out,
                        "[{} {:016x} {:016x}]",
                        a.worker.0,
                        a.compensation.to_bits(),
                        a.induced_effort.to_bits(),
                    );
                }
                match &o.sim {
                    Some(sim) => {
                        let _ = write!(out, " sim={:016x}", sim.cumulative_requester_utility.to_bits());
                        for c in &sim.agent_compensation {
                            let _ = write!(out, ",{:016x}", c.to_bits());
                        }
                    }
                    None => {
                        let _ = write!(out, " sim=none");
                    }
                }
                let _ = writeln!(out);
            }
        }
    }
    out
}

fn reference(poison: bool) -> &'static String {
    static CLEAN: OnceLock<String> = OnceLock::new();
    static POISON: OnceLock<String> = OnceLock::new();
    let cell = if poison { &POISON } else { &CLEAN };
    cell.get_or_init(|| {
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Sequential,
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        encode(&runner.run(&grid(poison)).expect("sequential reference"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch scheduler is bit-identical at every pool size, with
    /// and without mid-batch scenario failures.
    #[test]
    fn batch_report_is_pool_invariant(pool in 2usize..=16, poison in any::<bool>()) {
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Fixed(pool),
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let report = runner.run(&grid(poison)).expect("pooled batch run");
        prop_assert_eq!(&encode(&report), reference(poison));
    }

    /// A warm memo changes throughput, never results: rerunning the
    /// grid on the same runner reproduces the cold report bit-exactly
    /// (cache *flags* flip to hits, which the stats record).
    #[test]
    fn warm_memo_preserves_results(pool in 1usize..=8) {
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Fixed(pool),
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let cold = runner.run(&grid(false)).expect("cold run");
        let warm = runner.run(&grid(false)).expect("warm run");
        prop_assert_eq!(warm.stats.detect.misses, 0);
        prop_assert_eq!(warm.stats.fit.misses, 0);
        prop_assert_eq!(warm.stats.solve.misses, 0);
        for (c, w) in cold.records.iter().zip(&warm.records) {
            let (c, w) = (c.outcome().unwrap(), w.outcome().unwrap());
            prop_assert_eq!(
                c.design.total_requester_utility.to_bits(),
                w.design.total_requester_utility.to_bits()
            );
            prop_assert_eq!(&c.budget.funded, &w.budget.funded);
        }
    }

    /// The redacted metrics document is pool-size-independent: all
    /// recording happens post-merge in input order, and the timing
    /// redaction zeroes span durations, `_us` histograms, and
    /// `_per_sec` gauges.
    #[test]
    fn redacted_batch_metrics_are_pool_invariant(pool in 2usize..=8) {
        let render = |pool: PoolSize| {
            let recorder = Arc::new(JsonRecorder::new());
            let runner = BatchRunner::with_options(BatchOptions {
                pool,
                policy: FailurePolicy::Skip,
                metrics: Metrics::new(recorder.clone()),
            });
            runner.run(&grid(false)).expect("metered batch run");
            recorder.to_json_redacted()
        };
        // batch.pool differs by construction; compare after fixing it.
        let seq = render(PoolSize::Sequential).replace("\"batch.pool\":1", "\"batch.pool\":X");
        let par = render(PoolSize::Fixed(pool))
            .replace(&format!("\"batch.pool\":{pool}"), "\"batch.pool\":X");
        prop_assert_eq!(seq, par);
    }

    /// A scenario whose solve stage panics *inside* the shared slot
    /// leaves no partial `StageMemo` entry at any pool size: the
    /// poisoned solve key is absent, shared detect/fit state still
    /// lands, and every sibling is bit-identical to the sequential
    /// unfaulted reference.
    #[test]
    fn panicking_scenario_leaves_no_partial_memo_entry(pool in 1usize..=16) {
        // Simple μ-sweep grid: each scenario owns a unique solve key,
        // so the in-stage panic deterministically fires in scenario
        // 1's own slot while detect/fit are shared with siblings.
        let grid = ScenarioGrid::for_trace(trace(SEEDS[0]), &[1.5, 1.0, 0.7]);
        let sup = SupervisorOptions {
            faults: BatchFaultPlan::new().with_fault(1, ScenarioFault {
                point: FaultPoint::Solve,
                mode: FaultMode::PanicInStage,
            }),
            ..SupervisorOptions::default()
        };
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Fixed(pool),
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        });
        let report = runner
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completes");
        prop_assert_eq!(report.failed(), 1);
        prop_assert_eq!(
            report.records[1].failure().expect("quarantined").kind,
            FailureKind::Panic
        );
        // Memo contents: 1 trace, 1 detect, 1 fit, and only the two
        // healthy solves — the panicked computation must not leave a
        // poisoned entry behind.
        let (traces, detects, fits, solves) = runner.memo().len();
        prop_assert_eq!((traces, detects, fits, solves), (1, 1, 1, 2));
        // Siblings are bit-identical to the sequential unfaulted run.
        let clean = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Sequential,
            policy: FailurePolicy::Skip,
            ..BatchOptions::default()
        })
        .run(&grid)
        .expect("clean sequential run");
        for (f, c) in report.records.iter().zip(&clean.records) {
            if f.scenario.id == 1 {
                continue;
            }
            let (f, c) = (f.summary().expect("sibling ok"), c.summary().expect("clean ok"));
            prop_assert_eq!(f, c);
        }
    }
}
