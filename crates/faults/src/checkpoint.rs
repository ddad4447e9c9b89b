//! One checkpoint document for every resumable run, and the simulation
//! checkpoint built on it.
//!
//! Simulation, batch and serve checkpoints share one shape,
//!
//! ```text
//! {"schema": "dcc-<sim|batch>-ckpt/2" | "dcc-serve-ckpt/3", "payload": …}
//! ```
//!
//! built by [`checkpoint_document`], written by [`save_json_atomic`],
//! and read back by [`load_checkpoint_payload`], which names the path in
//! every error, maps a missing file to [`CoreError::Io`], and refuses
//! any other schema (the formats of earlier releases included).
//!
//! A checkpoint records a run's inputs, not its state, and each payload
//! carries an FNV-1a fingerprint of those inputs. The repeated game is a
//! pure function of its agents, parameters, configuration, noise seed
//! and fault plan, so a simulation checkpoint is just
//! `{"fingerprint", "rounds_done"}`: a resume rebuilds the agents,
//! checks the fingerprint, and replays the recorded rounds with a fresh
//! [`crate::FaultInjector`]. [`check_fingerprint`] refuses a sim or batch
//! checkpoint of any other run with [`CoreError::CheckpointMismatch`]. A
//! serve checkpoint (`dcc_serve::ckpt`) is the count and running
//! fingerprint of the events applied, with one pair per round boundary,
//! so a refused serve resume names the first round that differs.

use crate::FaultPlan;
use dcc_core::{AgentSpec, CoreError, ModelParams, SimulationConfig};
use dcc_numerics::{Fnv, Json};
use std::path::{Path, PathBuf};

/// Schema tag of the simulation checkpoint.
pub const SIM_CKPT_SCHEMA: &str = "dcc-sim-ckpt/2";

/// Wraps a payload in the shared checkpoint document.
pub fn checkpoint_document(schema: &str, payload: Json) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(schema.into())),
        ("payload".into(), payload),
    ])
}

/// Writes a JSON document to `path` atomically: the bytes go to a
/// sibling temp file first and are renamed into place, so a crash
/// mid-write can never leave a truncated checkpoint where a valid one
/// used to be. Every checkpoint writer (simulation, batch scheduler,
/// streaming service) goes through here.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure; the temp file is
/// removed on a failed rename.
pub fn save_json_atomic(path: &Path, doc: &Json) -> Result<(), CoreError> {
    let tmp = temp_sibling(path);
    let result = std::fs::write(&tmp, doc.to_string())
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(|e| CoreError::io(format!("write checkpoint {}", path.display()), e))
}

/// The temp file [`save_json_atomic`] writes before renaming it to
/// `path`: the whole file name plus `.tmp` (`run.ckpt.tmp`). Replacing
/// the extension instead would make `state.tmp` its own temp file and
/// give `run.ckpt` and `run.json` the same one.
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Reads the checkpoint document at `path` and returns its payload.
///
/// # Errors
///
/// [`CoreError::Io`] when the file cannot be read (a missing file
/// included), and [`CoreError::InvalidInput`] naming the path when it is
/// not a JSON document of the given `schema` with a payload.
pub fn load_checkpoint_payload(path: &Path, schema: &str) -> Result<Json, CoreError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CoreError::io(format!("read checkpoint {}", path.display()), e))?;
    let text = String::from_utf8(bytes).map_err(|_| malformed(path, "is not UTF-8 text"))?;
    let doc = Json::parse(&text).map_err(|e| malformed(path, &e.to_string()))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(found) if found == schema => {}
        Some(found) => {
            return Err(malformed(path, &format!("has schema {found:?}, expected {schema:?}")))
        }
        None => return Err(malformed(path, &format!("has no schema (expected {schema:?})"))),
    }
    let Json::Obj(fields) = doc else {
        return Err(malformed(path, "is not a JSON object"));
    };
    fields
        .into_iter()
        .find_map(|(key, value)| (key == "payload").then_some(value))
        .ok_or_else(|| malformed(path, "has no payload"))
}

/// Renders an input fingerprint as a payload value.
pub fn fingerprint_json(fingerprint: u64) -> Json {
    Json::Str(format!("{fingerprint:016x}"))
}

/// Checks a payload's `"fingerprint"` against the resuming run's.
///
/// # Errors
///
/// [`CoreError::CheckpointMismatch`] when the fingerprints differ, and
/// [`CoreError::InvalidInput`] when the payload has none.
pub fn check_fingerprint(path: &Path, payload: &Json, expected: u64) -> Result<(), CoreError> {
    let found = payload
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed(path, "has no input fingerprint"))?;
    let expected = format!("{expected:016x}");
    if found != expected {
        return Err(CoreError::CheckpointMismatch {
            path: path.into(),
            detail: format!("input fingerprint {found} does not match this run's {expected}"),
        });
    }
    Ok(())
}

/// Fingerprint of everything a simulation run is a function of: the
/// requester parameters, the game configuration (rounds, noise, seed),
/// the fault plan, and every agent.
pub fn sim_fingerprint(
    params: &ModelParams,
    config: &SimulationConfig,
    plan: &FaultPlan,
    agents: &[AgentSpec],
) -> u64 {
    let ModelParams { mu, beta, omega, kappa, gamma, rho } = *params;
    let SimulationConfig { rounds, feedback_noise_sd, seed } = *config;
    let mut h = Fnv::new();
    for x in [mu, beta, omega, kappa, gamma, rho, feedback_noise_sd] {
        h.write_f64(x);
    }
    h.write_usize(rounds);
    h.write_u64(seed);
    h.write_bytes(plan.to_json_string().as_bytes());
    h.write_usize(agents.len());
    for agent in agents {
        let AgentSpec { id, members, omega, weight, psi, contract, in_system } = agent;
        h.write_usize(*id);
        h.write_usize(*members);
        for x in [*omega, *weight, psi.r2(), psi.r1(), psi.r0()] {
            h.write_f64(x);
        }
        for column in [contract.feedback_knots(), contract.payments()] {
            h.write_usize(column.len());
            for &x in column {
                h.write_f64(x);
            }
        }
        h.write_u64(u64::from(*in_system));
    }
    h.finish()
}

/// The checkpoint document of a simulation run with input `fingerprint`
/// that has completed `rounds_done` rounds.
pub fn sim_checkpoint(fingerprint: u64, rounds_done: usize) -> Json {
    checkpoint_document(
        SIM_CKPT_SCHEMA,
        Json::Obj(vec![
            ("fingerprint".into(), fingerprint_json(fingerprint)),
            ("rounds_done".into(), Json::idx(rounds_done)),
        ]),
    )
}

/// Reads a simulation checkpoint for the run with input `fingerprint`
/// and `rounds` configured rounds, and returns how many rounds it
/// records as done.
///
/// # Errors
///
/// Those of [`load_checkpoint_payload`] and [`check_fingerprint`], and
/// [`CoreError::InvalidInput`] when `rounds_done` is missing or exceeds
/// `rounds`.
pub fn load_sim_checkpoint(path: &Path, fingerprint: u64, rounds: usize) -> Result<usize, CoreError> {
    let payload = load_checkpoint_payload(path, SIM_CKPT_SCHEMA)?;
    check_fingerprint(path, &payload, fingerprint)?;
    match payload.get("rounds_done").and_then(Json::as_idx) {
        Some(done) if done <= rounds => Ok(done),
        Some(done) => Err(malformed(
            path,
            &format!("records {done} rounds done but the run has {rounds}"),
        )),
        None => Err(malformed(path, "has no rounds_done count")),
    }
}

fn malformed(path: &Path, what: &str) -> CoreError {
    CoreError::InvalidInput(format!("checkpoint {} {what}", path.display()))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
    use super::*;
    use crate::plan::FaultPlanConfig;
    use dcc_core::{ContractBuilder, Discretization};
    use dcc_numerics::Quadratic;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn agent(id: usize, omega: f64) -> AgentSpec {
        let psi = Quadratic::new(-0.05, 2.0, 0.5);
        let disc = Discretization::new(16, 0.625).unwrap();
        let built = ContractBuilder::new(ModelParams::default(), disc, psi).malicious(omega);
        let contract = built.build().unwrap().contract().clone();
        AgentSpec { id, members: 1, omega, weight: 1.0, psi, contract, in_system: true }
    }

    fn config() -> SimulationConfig {
        SimulationConfig { rounds: 12, feedback_noise_sd: 0.5, seed: 3 }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcc-faults-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn temp_files_are_distinct_from_each_other_and_their_targets() {
        let targets = ["x.tmp", "x.ckpt", "x.json"].map(temp_path);
        let temps = targets.clone().map(|target| temp_sibling(&target));
        for (i, target) in targets.iter().enumerate() {
            assert!(!temps.contains(target), "{} is a temp file", target.display());
            for other in &temps[i + 1..] {
                assert_ne!(&temps[i], other);
            }
        }
        for (target, temp) in targets.iter().zip(&temps) {
            save_json_atomic(target, &sim_checkpoint(1, 2)).unwrap();
            assert_eq!(load_sim_checkpoint(target, 1, 2).unwrap(), 2);
            assert!(!temp.exists(), "{} left behind", temp.display());
            std::fs::remove_file(target).unwrap();
        }
    }

    #[test]
    fn sim_checkpoint_round_trips_and_refuses_other_runs() {
        let agents = vec![agent(0, 0.0), agent(1, 0.4)];
        let plan = FaultPlan::default();
        let fp = sim_fingerprint(&ModelParams::default(), &config(), &plan, &agents);
        let path = temp_path("sim.json");
        save_json_atomic(&path, &sim_checkpoint(fp, 5)).unwrap();
        assert_eq!(load_sim_checkpoint(&path, fp, 12).unwrap(), 5);

        let err = load_sim_checkpoint(&path, fp ^ 1, 12).unwrap_err();
        assert!(matches!(err, CoreError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains(&path.display().to_string()), "{err}");

        let err = load_sim_checkpoint(&path, fp, 4).unwrap_err();
        assert!(err.to_string().contains("5 rounds done"), "{err}");

        let err = load_sim_checkpoint(&temp_path("missing.json"), fp, 12).unwrap_err();
        assert!(matches!(err, CoreError::Io { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_covers_every_input() {
        let params = ModelParams::default();
        let agents = vec![agent(0, 0.0), agent(1, 0.4)];
        let plan = FaultPlan::default();
        let base = sim_fingerprint(&params, &config(), &plan, &agents);
        assert_eq!(base, sim_fingerprint(&params, &config(), &plan, &agents));

        let mu = ModelParams { mu: params.mu + 0.5, ..params };
        let seed = SimulationConfig { seed: 4, ..config() };
        let rounds = SimulationConfig { rounds: 13, ..config() };
        let busy = FaultPlanConfig { agents: 2, rounds: 12, dropout_prob: 0.5, seed: 1, ..Default::default() }
            .generate()
            .unwrap();
        let mut excluded = agents.clone();
        excluded[1].in_system = false;
        for other in [
            sim_fingerprint(&mu, &config(), &plan, &agents),
            sim_fingerprint(&params, &seed, &plan, &agents),
            sim_fingerprint(&params, &rounds, &plan, &agents),
            sim_fingerprint(&params, &config(), &busy, &agents),
            sim_fingerprint(&params, &config(), &plan, &excluded),
            sim_fingerprint(&params, &config(), &plan, &agents[..1]),
        ] {
            assert_ne!(base, other);
        }
    }

    /// Well-formed JSON that is not a `/2` simulation checkpoint: wrong
    /// shapes, other schemas, and the `/1`-era formats.
    const WRONG_SHAPES: [&str; 8] = [
        "[]",
        r#"{"schema":"dcc-sim-ckpt/2"}"#,
        r#"{"schema":"dcc-sim-ckpt/2","payload":[]}"#,
        r#"{"schema":"dcc-sim-ckpt/2","payload":{"fingerprint":7,"rounds_done":1}}"#,
        r#"{"schema":"dcc-sim-ckpt/1","payload":{}}"#,
        r#"{"schema":"dcc-batch-ckpt/2","payload":{}}"#,
        r#"{"version":1,"kind":"sim","next_round":3,"rng":["1","2","3","4"]}"#,
        r#"{"format":"dcc-serve-ckpt/1","rounds_emitted":0,"events":[]}"#,
    ];

    proptest! {
        #[test]
        fn sim_loader_is_total(
            kind in 0u8..4,
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            pick in any::<usize>(),
            rounds_done in any::<u64>(),
        ) {
            let valid = sim_checkpoint(7, 3).to_string();
            let input = match kind {
                0 => bytes,
                1 => valid.as_bytes()[..pick % valid.len()].to_vec(),
                2 => WRONG_SHAPES[pick % WRONG_SHAPES.len()].as_bytes().to_vec(),
                _ => format!(
                    r#"{{"schema":"dcc-sim-ckpt/2","payload":{{"fingerprint":"0000000000000007","rounds_done":{rounds_done}}}}}"#
                )
                .into_bytes(),
            };
            let path = temp_path("total.json");
            std::fs::write(&path, &input).unwrap();
            match load_sim_checkpoint(&path, 7, 10) {
                Ok(done) => {
                    prop_assert!(done <= 10);
                }
                Err(CoreError::InvalidInput(m)) => {
                    prop_assert!(m.contains(&path.display().to_string()), "{m}");
                }
                Err(other) => {
                    prop_assert!(false, "unexpected error kind: {other}");
                }
            }
        }
    }
}
