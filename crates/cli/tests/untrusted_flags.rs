//! Flags as a user types them, through the built binary: a flag the
//! command does not read is a usage error (exit 2) that names it,
//! raised before the command does any work; an interval count too
//! large to allocate fails with a typed error instead of aborting; and
//! a plan generator refuses a value it cannot sample from instead of
//! panicking.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use std::process::{Command, Output};

fn dcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcc"))
        .args(args)
        .output()
        .expect("dcc runs")
}

#[test]
fn a_misspelled_flag_is_a_usage_error_naming_it() {
    let out_dir = std::env::temp_dir().join(format!("dcc_flags_gen_{}", std::process::id()));
    let out_dir = out_dir.to_str().unwrap();
    for (args, flag) in [
        (&["experiment", "table2", "--sclae", "paper"][..], "--sclae"),
        (&["simulate", "no-such-trace", "--noies", "5"], "--noies"),
        (&["batch", "no-such-grid.json", "--retries", "2"], "--retries"),
        (
            &["batch", "no-such-grid.json", "--checkpoint", "c", "--checkpoint-every", "4"],
            "--checkpoint-every",
        ),
        (&["gen", "--out", out_dir, "--sede", "3"], "--sede"),
        (&["check", "--intervals", "20", "--weigth", "2"], "--weigth"),
    ] {
        let out = dcc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown flag {flag} for dcc {}", args[0])),
            "{args:?}: {stderr}"
        );
    }
    // Refused before any work: gen wrote no trace.
    assert!(!std::path::Path::new(out_dir).exists());
}

#[test]
fn only_batch_and_serve_take_checkpoint_flags() {
    for command in ["simulate", "run", "design", "replay"] {
        for (flags, flag) in [
            (&["--checkpoint", "sim.ckpt"][..], "--checkpoint"),
            (&["--kill-at", "4"], "--kill-at"),
            (&["--resume"], "--resume"),
        ] {
            let args: Vec<&str> = [command, "no-such-trace"].iter().chain(flags).copied().collect();
            let out = dcc(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with(&format!("error: unknown flag {flag} for dcc {command}")),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn only_simulate_and_run_take_simulate_flags() {
    // design and replay stop at the construct stage, so a strategy, a
    // horizon, a noise seed or a fault plan could only be ignored.
    for command in ["design", "replay"] {
        for (flags, flag) in [
            (&["--strategy", "fixed"][..], "--strategy"),
            (&["--amount", "2"], "--amount"),
            (&["--rounds", "3"], "--rounds"),
            (&["--noise", "9"], "--noise"),
            (&["--seed", "99"], "--seed"),
            (&["--fault-plan", "no-such-plan.json"], "--fault-plan"),
        ] {
            let args: Vec<&str> = [command, "no-such-trace"].iter().chain(flags).copied().collect();
            let out = dcc(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with(&format!("error: unknown flag {flag} for dcc {command}")),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn a_plan_generator_refuses_a_range_it_cannot_sample() {
    let dir = std::env::temp_dir().join(format!("dcc_flags_plans_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("plan.json");
    let out_file = out_file.to_str().unwrap();
    for scale in ["1", "0.5", "nan", "inf", "1e308"] {
        let out = dcc(&[
            "faults", "gen", "--agents", "3", "--corrupt", "1", "--outlier-scale", scale,
            "--out", out_file,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--outlier-scale {scale}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("outlier_scale"), "{stderr}");
    }
    let out = dcc(&[
        "adversary", "gen", "--underreport-prob", "1", "--min-factor", "1", "--out", out_file,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("min_factor"), "{stderr}");
    assert!(!std::path::Path::new(out_file).exists(), "no plan was written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_interval_count_past_the_cap_is_refused_not_allocated() {
    let out = dcc(&["check", "--intervals", "100000000000"]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: invalid parameters: discretization allows at most 1024 intervals, \
         got 100000000000\n"
    );

    let dir = std::env::temp_dir().join(format!("dcc_intervals_grid_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = dir.join("grid.json");
    std::fs::write(
        &grid,
        r#"{"traces": [{"scale": "small", "seed": 1}], "mus": [1.0],
            "design": {"intervals": 100000000000}}"#,
    )
    .unwrap();
    let out = dcc(&["batch", grid.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("GridSpec.design: invalid parameters: DesignConfig.intervals must be <= 1024"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
