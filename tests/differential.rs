//! Differential harness: three independent executions of the same
//! μ-sweep — a fresh serial engine run per scenario, a pooled engine
//! solve, and the batch runner — must agree **byte-for-byte** on every
//! deterministic output (all floats compared via `to_bits`).
//!
//! This is the external check backing `dcc-batch`'s central claim: the
//! batch scheduler is an optimization, never a semantic change. The
//! grouped solve — one candidate set per (ω, ψ, δ) key — is checked the
//! same way, against building every subproblem alone. CI runs
//! this suite at `PROPTEST_CASES=256` (`.github/workflows/ci.yml`,
//! `batch` job); the in-file default keeps local runs quick.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dyncontract::batch::{
    BatchFaultPlan, BatchOptions, BatchOutcome, BatchReport, BatchRunner, CheckpointConfig,
    FailureKind, FaultMode, FaultPoint, ScenarioFault, ScenarioGrid, SupervisorOptions,
};
use dyncontract::core::{
    solve_subproblems, BipSolution, ContractBuilder, ContractDesign, CoreError, Discretization,
    FailurePolicy, ModelParams, Subproblem, SubproblemSolution,
};
use dyncontract::engine::{Engine, EngineConfig, PoolSize, RoundContext, StageKind};
use dyncontract::numerics::Quadratic;
use dyncontract::obs::Metrics;
use dyncontract::trace::{SyntheticConfig, TraceDataset};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The μ-sweep all three executions run.
const MUS: [f64; 3] = [1.5, 1.0, 0.6];
/// Distinct trace shapes (seeds) the property quantifies over.
const SEEDS: [u64; 3] = [5, 23, 71];

fn trace(seed: u64) -> TraceDataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.n_honest = 14;
    cfg.n_ncm = 5;
    cfg.n_cm_target = 6;
    cfg.n_rounds = 2;
    cfg.n_products = 160;
    cfg.generate()
}

/// Byte-exact encoding of one design: per-worker contract knots,
/// payments, compensation, and induced effort, plus the total, all via
/// `to_bits` so any 1-ulp drift fails the comparison.
fn encode(out: &mut String, design: &ContractDesign) {
    let _ = write!(out, "U={:016x}", design.total_requester_utility.to_bits());
    for a in &design.agents {
        let _ = write!(
            out,
            " [{} c={:016x} y={:016x} k=",
            a.worker.0,
            a.compensation.to_bits(),
            a.induced_effort.to_bits(),
        );
        for (d, x) in a
            .contract
            .feedback_knots()
            .iter()
            .zip(a.contract.payments())
        {
            let _ = write!(out, "{:016x}:{:016x},", d.to_bits(), x.to_bits());
        }
        let _ = write!(out, "]");
    }
    let _ = writeln!(out);
}

/// The sweep through the staged engine: one fresh context per μ, solve
/// pool as given.
fn engine_sweep(seed: u64, pool: PoolSize) -> String {
    let trace = trace(seed);
    let mut out = String::new();
    for &mu in &MUS {
        let mut config = EngineConfig::for_trace(trace.clone());
        config.design.params.mu = mu;
        config.pool = pool;
        let mut ctx = RoundContext::new(config);
        Engine::new()
            .run_to(&mut ctx, StageKind::ConstructContracts)
            .expect("engine design");
        encode(&mut out, ctx.design().expect("design ran"));
    }
    out
}

/// The same sweep through the batch runner.
fn batch_sweep(seed: u64, pool: PoolSize, policy: FailurePolicy) -> String {
    let grid = ScenarioGrid::for_trace(trace(seed), &MUS);
    let runner = BatchRunner::with_options(BatchOptions {
        pool,
        policy,
        ..BatchOptions::default()
    });
    let report = runner.run(&grid).expect("batch run");
    let mut out = String::new();
    for record in &report.records {
        encode(&mut out, &record.outcome().expect("scenario ok").design);
    }
    out
}

/// The serial-engine reference, computed once per seed.
fn reference(seed_idx: usize) -> &'static str {
    static REFS: OnceLock<Vec<String>> = OnceLock::new();
    &REFS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| engine_sweep(seed, PoolSize::Sequential))
            .collect()
    })[seed_idx]
}

/// The fitted §IV-B decomposition for one seed, computed once: run the
/// engine through `FitEffort` and take the prepared subproblems.
fn subproblems(seed_idx: usize) -> &'static [Subproblem] {
    static PREPS: OnceLock<Vec<Vec<Subproblem>>> = OnceLock::new();
    &PREPS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let mut ctx = RoundContext::new(EngineConfig::for_trace(trace(seed)));
                Engine::new()
                    .run_to(&mut ctx, StageKind::FitEffort)
                    .expect("engine prep");
                ctx.prep().expect("prep ran").subproblems.clone()
            })
            .collect()
    })[seed_idx]
}

/// Byte-exact encoding of a raw `BipSolution` (pre-contract-construction):
/// ids, membership, and every solved quantity via `to_bits`.
fn encode_bip(solution: &BipSolution) -> String {
    let mut out = String::new();
    let _ = write!(out, "U={:016x}", solution.total_requester_utility.to_bits());
    for s in &solution.solutions {
        let _ = write!(
            out,
            " [{} m={:?} c={:016x} y={:016x} u={:016x} k=",
            s.id,
            s.members,
            s.built.compensation().to_bits(),
            s.built.induced_effort().to_bits(),
            s.built.requester_utility().to_bits(),
        );
        for (d, x) in s
            .built
            .contract()
            .feedback_knots()
            .iter()
            .zip(s.built.contract().payments())
        {
            let _ = write!(out, "{:016x}:{:016x},", d.to_bits(), x.to_bits());
        }
        let _ = write!(out, "]");
    }
    out
}

fn policy(idx: usize) -> FailurePolicy {
    match idx {
        0 => FailurePolicy::Abort,
        1 => FailurePolicy::Skip,
        _ => FailurePolicy::FallbackBaseline { amount: 0.5 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine's pooled subproblem solve is byte-identical to its
    /// sequential solve at every pool size.
    #[test]
    fn pooled_engine_solve_matches_serial(seed_idx in 0usize..SEEDS.len(), pool in 1usize..=16) {
        let swept = engine_sweep(SEEDS[seed_idx], PoolSize::Fixed(pool));
        prop_assert_eq!(swept.as_str(), reference(seed_idx));
    }

    /// The one solve (`solve_subproblems`) is byte-identical to its
    /// pool-1 run at every pool size and μ, under every failure policy.
    /// One corrupted weight sends the degraded policies down their
    /// fallback and skip paths, and Abort down its error path.
    #[test]
    fn pooled_solve_matches_pool_one(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
        mu_idx in 0usize..MUS.len(),
        victim in 0usize..64,
    ) {
        let clean = subproblems(seed_idx);
        let mut corrupted = clean.to_vec();
        let n = corrupted.len();
        corrupted[victim % n].weight = f64::NAN;
        let params = ModelParams { mu: MUS[mu_idx], ..ModelParams::default() };
        let solve = |sps: &[Subproblem], policy, pool| {
            solve_subproblems(sps, &params, pool, policy, &Metrics::noop())
        };

        let (one, _) = solve(clean, FailurePolicy::Abort, 1).expect("clean pool-1 solve");
        let (pooled, pooled_deg) =
            solve(clean, FailurePolicy::Abort, pool).expect("clean pooled solve");
        prop_assert_eq!(encode_bip(&pooled), encode_bip(&one));
        prop_assert!(pooled_deg.is_empty());

        let one_err = solve(&corrupted, FailurePolicy::Abort, 1).expect_err("abort fails");
        let pooled_err = solve(&corrupted, FailurePolicy::Abort, pool).expect_err("abort fails");
        prop_assert_eq!(pooled_err.to_string(), one_err.to_string());

        for policy in [FailurePolicy::Skip, FailurePolicy::FallbackBaseline { amount: 0.5 }] {
            let (one, one_deg) = solve(&corrupted, policy, 1).expect("degraded pool-1 solve");
            let (pooled, pooled_deg) = solve(&corrupted, policy, pool).expect("degraded solve");
            prop_assert_eq!(one_deg.len(), 1, "exactly the victim degrades");
            prop_assert_eq!(encode_bip(&pooled), encode_bip(&one));
            prop_assert_eq!(format!("{pooled_deg:?}"), format!("{one_deg:?}"));
        }
    }

    /// The batch runner — any scenario-pool size, any failure policy —
    /// is byte-identical to the fresh serial engine loop.
    #[test]
    fn batch_runner_matches_serial_engine(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
        policy_idx in 0usize..3,
    ) {
        let swept = batch_sweep(SEEDS[seed_idx], PoolSize::Fixed(pool), policy(policy_idx));
        prop_assert_eq!(swept.as_str(), reference(seed_idx));
    }

    /// A warm memo is invisible in the output: rerunning the grid on
    /// the same runner reproduces the cold bytes even though every
    /// stage is answered from cache.
    #[test]
    fn warm_batch_rerun_matches_serial_engine(seed_idx in 0usize..SEEDS.len(), pool in 1usize..=8) {
        let grid = ScenarioGrid::for_trace(trace(SEEDS[seed_idx]), &MUS);
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Fixed(pool),
            ..BatchOptions::default()
        });
        runner.run(&grid).expect("cold run");
        let warm = runner.run(&grid).expect("warm run");
        let mut out = String::new();
        for record in &warm.records {
            encode(&mut out, &record.outcome().expect("scenario ok").design);
        }
        prop_assert_eq!(out.as_str(), reference(seed_idx));
    }
}

/// The (ω, ψ, δ) keys the grouped-solve checks draw from: ω = 0.0 next
/// to ω = −0.0 under one ψ and δ, a second discretization under the same
/// ψ, a malicious key with its own ψ and δ, and a convex ψ that fails
/// validation.
fn grouping_keys() -> [(f64, Quadratic, Discretization); 5] {
    let psi = Quadratic::new(-0.05, 2.0, 0.5);
    let fine = Discretization::new(12, 0.75).expect("valid discretization");
    let coarse = Discretization::new(8, 1.0).expect("valid discretization");
    let other = Discretization::new(10, 0.7).expect("valid discretization");
    [
        (0.0, psi, fine),
        (-0.0, psi, fine),
        (0.0, psi, coarse),
        (0.4, Quadratic::new(-0.15, 2.5, 1.0), other),
        (0.4, Quadratic::new(0.1, 1.0, 0.0), fine),
    ]
}

/// Weights for the grouped-solve checks, the rejected non-finite ones
/// included.
const GROUPING_WEIGHTS: [f64; 9] = [
    1.0,
    0.35,
    2.5,
    -0.7,
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Subproblems from `(key, weight, community)` rows over
/// [`grouping_keys`] and [`GROUPING_WEIGHTS`]; a community row covers
/// three workers.
fn grouping_subproblems(rows: &[(usize, usize, bool)]) -> Vec<Subproblem> {
    let keys = grouping_keys();
    rows.iter()
        .enumerate()
        .map(|(i, &(key, weight, community))| {
            let (omega, psi, disc) = keys[key % keys.len()];
            Subproblem {
                id: 7 * i + 3,
                members: if community {
                    vec![i, 100 + i, 200 + i]
                } else {
                    vec![i]
                },
                omega,
                weight: GROUPING_WEIGHTS[weight % GROUPING_WEIGHTS.len()],
                psi,
                disc,
            }
        })
        .collect()
}

/// Checks the grouped `solve_subproblems` against building every
/// subproblem alone with `ContractBuilder`, under all three policies:
/// healthy solutions equal to the bit (`Debug` prints every float
/// exactly, −0.0 included), the total equal in bits to the in-order sum,
/// Abort failing with the first failing subproblem's error, and each
/// degraded subproblem carrying its own build error — a non-finite
/// weight's even in a key whose ψ is invalid.
fn check_grouped_solve(sps: &[Subproblem], pool: usize) {
    let params = ModelParams {
        mu: 1.5,
        ..ModelParams::default()
    };
    let reference: Vec<Result<SubproblemSolution, String>> = sps
        .iter()
        .map(|sp| {
            ContractBuilder::new(params, sp.disc, sp.psi)
                .malicious(sp.omega)
                .weight(sp.weight)
                .build()
                .map(|built| SubproblemSolution {
                    id: sp.id,
                    members: sp.members.clone(),
                    built,
                })
                .map_err(|e| {
                    CoreError::InvalidInput(format!("subproblem {} failed: {e}", sp.id)).to_string()
                })
        })
        .collect();
    for (sp, want) in sps.iter().zip(&reference) {
        if !sp.weight.is_finite() {
            let err = want.as_ref().expect_err("a non-finite weight fails");
            assert!(err.contains("weight must be finite"), "{err}");
        }
    }
    let first_error = reference.iter().find_map(|r| r.as_ref().err());

    for policy in [
        FailurePolicy::Abort,
        FailurePolicy::Skip,
        FailurePolicy::FallbackBaseline { amount: 0.5 },
    ] {
        let solved = solve_subproblems(sps, &params, pool, policy, &Metrics::noop());
        if let (FailurePolicy::Abort, Some(want)) = (policy, first_error) {
            let got = solved.expect_err("abort fails on a failing subproblem");
            assert_eq!(&got.to_string(), want, "pool {pool}");
            continue;
        }
        let (solution, report) = solved.expect("solve succeeds");
        assert_eq!(solution.solutions.len(), sps.len());
        let mut degraded = report.degraded.iter();
        for (i, (got, want)) in solution.solutions.iter().zip(&reference).enumerate() {
            match want {
                Ok(want) => {
                    assert_eq!(got, want, "{policy:?} pool {pool} subproblem {i}");
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{policy:?} pool {pool} subproblem {i} bits"
                    );
                    assert_eq!(got.built.diagnostics(), want.built.diagnostics());
                    assert_eq!(got.built.utility_bounds(), want.built.utility_bounds());
                }
                Err(want) => {
                    let d = degraded.next().expect("a failing subproblem degrades");
                    assert_eq!(d.subproblem, got.id);
                    assert_eq!(&d.reason, want, "{policy:?} pool {pool} subproblem {i}");
                }
            }
        }
        assert!(
            degraded.next().is_none(),
            "only failing subproblems degrade"
        );
        let in_order: f64 = solution
            .solutions
            .iter()
            .map(|s| s.built.requester_utility())
            .sum();
        assert_eq!(
            solution.total_requester_utility.to_bits(),
            in_order.to_bits(),
            "{policy:?} pool {pool} total"
        );
    }
}

/// Every key and weight of the grouped-solve checks at once: shared and
/// singleton keys, a community, ω = ±0.0, two discretizations under one
/// ψ, and a convex key holding a NaN weight.
#[test]
fn grouped_solve_matches_builder_on_every_key_kind() {
    let rows = [
        (0, 0, false),
        (1, 1, false),
        (0, 3, true),
        (2, 2, false),
        (1, 4, false),
        (3, 6, false),
        (4, 6, false),
        (4, 0, true),
        (3, 7, true),
        (0, 8, false),
        (2, 5, false),
        (3, 1, false),
    ];
    let sps = grouping_subproblems(&rows);
    for pool in 1..=16 {
        check_grouped_solve(&sps, pool);
    }
    // Without the convex key, Abort succeeds too.
    let healthy: Vec<_> = rows
        .iter()
        .copied()
        .filter(|r| r.0 != 4 && r.1 < 6)
        .collect();
    check_grouped_solve(&grouping_subproblems(&healthy), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The grouped solve is the per-subproblem `ContractBuilder::build`
    /// reference for 1–4 keys drawn from [`grouping_keys`], singleton and
    /// shared, with any weight, under every policy at pools 1–16.
    #[test]
    fn grouped_solve_matches_builder_per_subproblem(
        keys in proptest::collection::vec(0usize..5, 1..=4),
        rows in proptest::collection::vec((0usize..4, 0usize..GROUPING_WEIGHTS.len(), 0usize..4), 1..=24),
        pool in 1usize..=16,
    ) {
        let rows: Vec<(usize, usize, bool)> = rows
            .iter()
            .map(|&(pick, weight, community)| (keys[pick % keys.len()], weight, community == 0))
            .collect();
        check_grouped_solve(&grouping_subproblems(&rows), pool);
    }
}

/// Byte-exact encoding of a *supervised* report's deterministic
/// surface: cache stats, cache flags, canonical summaries (every float
/// via `to_bits`), failures, and the quarantine — the parts an
/// interrupted-and-resumed run must reproduce exactly.
fn encode_supervised(report: &BatchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "stats {:?}", report.stats);
    for r in &report.records {
        let _ = write!(
            out,
            "#{} d{} f{} s{} ",
            r.scenario.id,
            u8::from(r.detect_cached),
            u8::from(r.fit_cached),
            u8::from(r.solve_cached),
        );
        match (r.summary(), r.failure()) {
            (Some(s), _) => {
                let _ = write!(
                    out,
                    "u={:016x} full={:016x} budget={:016x} spend={:016x} bu={:016x} deg={} funded={:?} ",
                    s.total_requester_utility.to_bits(),
                    s.full_spend.to_bits(),
                    s.budget.to_bits(),
                    s.spend.to_bits(),
                    s.budget_utility.to_bits(),
                    s.degraded,
                    s.funded,
                );
                for a in &s.agents {
                    let _ = write!(
                        out,
                        "[{} p{} c={:016x} y={:016x}]",
                        a.worker,
                        a.subproblem,
                        a.compensation.to_bits(),
                        a.induced_effort.to_bits(),
                    );
                }
                match &s.sim {
                    Some(sim) => {
                        let _ = writeln!(
                            out,
                            " sim r{} cum={:016x} mean={:016x}",
                            sim.rounds,
                            sim.cumulative_requester_utility.to_bits(),
                            sim.mean_round_utility.to_bits(),
                        );
                    }
                    None => {
                        let _ = writeln!(out, " sim=none");
                    }
                }
            }
            (None, Some(f)) => {
                let _ = writeln!(out, "err={f}");
            }
            (None, None) => {
                let _ = writeln!(out, "lost");
            }
        }
    }
    for (id, f) in report.failures() {
        let _ = writeln!(out, "quarantine #{id} {} {}", f.kind.label(), f.message);
    }
    out
}

/// A 6-scenario grid (3 μ × 2 budget fractions) for the kill/resume
/// properties.
fn supervised_grid(seed: u64) -> ScenarioGrid {
    let mut grid = ScenarioGrid::for_trace(trace(seed), &MUS);
    grid.budget_fractions = vec![0.5, 1.0];
    grid
}

fn options(pool: PoolSize, policy: FailurePolicy) -> BatchOptions {
    BatchOptions {
        pool,
        policy,
        ..BatchOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash-recovery differential: killing a checkpointed run after k
    /// fresh scenarios and resuming it — at any pool size, under every
    /// failure policy — reproduces the uninterrupted report
    /// byte-for-byte (floats via `to_bits`, quarantine included).
    #[test]
    fn killed_and_resumed_batch_matches_uninterrupted(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
        policy_idx in 0usize..3,
        kill_at in 1usize..=5,
    ) {
        let seed = SEEDS[seed_idx];
        let grid = supervised_grid(seed);
        let scenarios = grid.scenarios();
        let full = BatchRunner::with_options(options(PoolSize::Fixed(pool), policy(policy_idx)))
            .run(&grid)
            .expect("uninterrupted run");
        let path = std::env::temp_dir().join(format!(
            "dcc-diff-resume-{}-s{seed}-p{pool}-f{policy_idx}-k{kill_at}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let killed = BatchRunner::with_options(options(PoolSize::Fixed(pool), policy(policy_idx)))
            .run_supervised(&grid, &scenarios, &SupervisorOptions {
                kill_after: Some(kill_at),
                checkpoint: Some(CheckpointConfig::new(&path)),
                ..SupervisorOptions::default()
            })
            .expect("killed run");
        let was_killed = matches!(killed, BatchOutcome::Killed { .. });
        prop_assert!(was_killed, "run must stop at the kill threshold");
        let resumed = BatchRunner::with_options(options(PoolSize::Fixed(pool), policy(policy_idx)))
            .run_supervised(&grid, &scenarios, &SupervisorOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                resume: true,
                ..SupervisorOptions::default()
            })
            .expect("resumed run")
            .into_report()
            .expect("resume completes");
        let _ = std::fs::remove_file(&path);
        prop_assert!(resumed.restored >= kill_at.min(scenarios.len()));
        prop_assert_eq!(encode_supervised(&resumed), encode_supervised(&full));
    }

    /// Panic containment differential: a scenario that panics mid-batch
    /// is quarantined deterministically while every sibling still
    /// matches the fresh serial-engine reference byte-for-byte — at
    /// every pool size.
    #[test]
    fn injected_panic_leaves_siblings_byte_identical(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
    ) {
        let seed = SEEDS[seed_idx];
        let grid = ScenarioGrid::for_trace(trace(seed), &MUS);
        let sup = SupervisorOptions {
            faults: BatchFaultPlan::new().with_fault(1, ScenarioFault {
                point: FaultPoint::Solve,
                mode: FaultMode::Panic,
            }),
            ..SupervisorOptions::default()
        };
        let report = BatchRunner::with_options(options(PoolSize::Fixed(pool), FailurePolicy::Skip))
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completes");
        let mut out = String::new();
        for (i, record) in report.records.iter().enumerate() {
            if i == 1 {
                let f = record.failure().expect("scenario 1 quarantined");
                prop_assert_eq!(f.kind, FailureKind::Panic);
                prop_assert!(f.message.contains("injected fault"), "{}", f.message);
                // Splice in the reference line so the remaining lines
                // line up with the serial sweep.
                let mut ctx = RoundContext::new({
                    let mut config = EngineConfig::for_trace(trace(seed));
                    config.design.params.mu = MUS[1];
                    config
                });
                Engine::new()
                    .run_to(&mut ctx, StageKind::ConstructContracts)
                    .expect("engine design");
                encode(&mut out, ctx.design().expect("design ran"));
            } else {
                encode(&mut out, &record.outcome().expect("sibling ok").design);
            }
        }
        prop_assert_eq!(out.as_str(), reference(seed_idx));
        prop_assert_eq!(report.failures().map(|(id, _)| id).collect::<Vec<_>>(), vec![1]);
    }
}
