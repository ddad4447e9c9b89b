//! Checkpointed crash recovery for the streaming service.
//!
//! A checkpoint is the service's **event log**, not its state: the
//! service is a deterministic state machine, so re-applying the log
//! from empty rebuilds the exact state (bit-for-bit, counters
//! included) at a fraction of the format complexity. The file is the
//! shared `dcc_faults` checkpoint document with schema
//! `dcc-serve-ckpt/2`, written atomically (tmp + rename, via
//! [`dcc_faults::save_json_atomic`]) so a crash mid-write never leaves
//! a torn checkpoint behind. Because the payload *is* the input, a
//! resume checks it against the resuming run's events directly: the
//! log must be a prefix of them.

use dcc_core::CoreError;
use dcc_faults::{checkpoint_document, load_checkpoint_payload, save_json_atomic, Json};
use std::path::Path;

use crate::event::ServeEvent;

/// Schema tag of the checkpoint document.
pub const CKPT_FORMAT: &str = "dcc-serve-ckpt/2";

/// Writes the event log as a checkpoint, atomically.
///
/// # Errors
///
/// Propagates I/O failures (the tmp file is removed on error).
pub fn save_checkpoint(path: &Path, log: &[ServeEvent]) -> Result<(), CoreError> {
    let payload = Json::Obj(vec![(
        "events".to_string(),
        Json::Arr(log.iter().map(ServeEvent::to_json).collect()),
    )]);
    save_json_atomic(path, &checkpoint_document(CKPT_FORMAT, payload))
}

/// Loads a checkpointed event log for a run over `input` and returns
/// how many leading events of `input` it holds; re-applying
/// `input[..n]` restores the checkpointed state.
///
/// # Errors
///
/// Returns [`CoreError::CheckpointMismatch`] naming the first differing
/// event when the log is not a prefix of `input`, and the errors of
/// [`load_checkpoint_payload`] plus [`CoreError::InvalidInput`] for a
/// missing `events` array or an undecodable event.
pub fn load_checkpoint(path: &Path, input: &[ServeEvent]) -> Result<usize, CoreError> {
    let payload = load_checkpoint_payload(path, CKPT_FORMAT)?;
    let events = payload.get("events").and_then(Json::as_arr).ok_or_else(|| {
        CoreError::InvalidInput(format!("checkpoint {} has no events array", path.display()))
    })?;
    let mismatch = |detail: String| CoreError::CheckpointMismatch {
        path: path.into(),
        detail,
    };
    for (i, doc) in events.iter().enumerate() {
        let event = ServeEvent::from_json(doc).map_err(|e| {
            CoreError::InvalidInput(format!("checkpoint {} event {i}: {e}", path.display()))
        })?;
        // Compare canonical lines, so floats match by bits (a NaN
        // quality is the same input as itself, -0 is not 0).
        match input.get(i) {
            Some(given) if given.to_line() == event.to_line() => {}
            Some(_) => return Err(mismatch(format!("its event {i} differs from the input's"))),
            None => {
                return Err(mismatch(format!(
                    "it holds {} events but the input has only {}",
                    events.len(),
                    input.len()
                )))
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
    use super::*;
    use crate::event::events_from_trace;
    use dcc_trace::{SyntheticConfig, WorkerClass};
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcc-serve-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn checkpoint_round_trips_the_event_log() {
        let log = events_from_trace(&SyntheticConfig::small(9).generate());
        let path = temp_path("ckpt.json");
        save_checkpoint(&path, &log[..log.len() / 2]).expect("save");
        assert_eq!(load_checkpoint(&path, &log).expect("load"), log.len() / 2);
        save_checkpoint(&path, &log).expect("save");
        assert_eq!(load_checkpoint(&path, &log).expect("load"), log.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_log_that_is_not_a_prefix_of_the_input_is_refused() {
        let a = events_from_trace(&SyntheticConfig::small(9).generate());
        let b = events_from_trace(&SyntheticConfig::small(11).generate());
        let first_diff = a.iter().zip(&b).position(|(x, y)| x != y).expect("streams differ");
        let path = temp_path("other.json");
        save_checkpoint(&path, &a[..first_diff + 3]).expect("save");
        let err = load_checkpoint(&path, &b).expect_err("must refuse");
        assert!(matches!(err, CoreError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains(&format!("event {first_diff} ")), "{err}");
        let err = load_checkpoint(&path, &a[..first_diff]).expect_err("must refuse");
        assert!(err.to_string().contains("input has only"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn earlier_formats_are_refused() {
        let path = temp_path("old.json");
        std::fs::write(&path, "{\"format\":\"dcc-serve-ckpt/1\",\"events\":[]}").expect("write");
        let err = load_checkpoint(&path, &[]).expect_err("must reject");
        assert!(err.to_string().contains("dcc-serve-ckpt/2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    fn small_log() -> Vec<ServeEvent> {
        vec![
            ServeEvent::Product { id: 0, quality: f64::NAN },
            ServeEvent::Join { id: 0, class: WorkerClass::Honest, campaign: None, expert: false },
            ServeEvent::Review { worker: 0, product: 0, round: 0, stars: 4.0, length: 80, upvotes: -0.0 },
            ServeEvent::Round,
        ]
    }

    /// Well-formed JSON that is not a `/2` serve checkpoint: wrong
    /// shapes, and the `/1` document of earlier releases.
    const WRONG_SHAPES: [&str; 6] = [
        "{}",
        "\"events\"",
        r#"{"schema":"dcc-serve-ckpt/2","payload":{"events":{}}}"#,
        r#"{"schema":"dcc-serve-ckpt/2","payload":{"events":[{"ev":"review"}]}}"#,
        r#"{"schema":"dcc-serve-ckpt/2","payload":{"events":[{"ev":"product","id":1e300,"quality":1}]}}"#,
        r#"{"format":"dcc-serve-ckpt/1","rounds_emitted":0,"events":[]}"#,
    ];

    proptest! {
        #[test]
        fn serve_loader_is_total(
            kind in 0u8..4,
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            pick in any::<usize>(),
            prefix in 0usize..5,
        ) {
            let log = small_log();
            let valid = checkpoint_document(
                CKPT_FORMAT,
                Json::Obj(vec![(
                    "events".to_string(),
                    Json::Arr(log.iter().map(ServeEvent::to_json).collect()),
                )]),
            )
            .to_string();
            let path = temp_path("total.json");
            match kind {
                0 => std::fs::write(&path, &bytes).unwrap(),
                1 => std::fs::write(&path, &valid.as_bytes()[..pick % valid.len()]).unwrap(),
                2 => std::fs::write(&path, WRONG_SHAPES[pick % WRONG_SHAPES.len()]).unwrap(),
                _ => save_checkpoint(&path, &log[..prefix.min(log.len())]).unwrap(),
            }
            // The input is a prefix of the log, so only a short enough
            // log fits it.
            let input = &log[..pick % (log.len() + 1)];
            match load_checkpoint(&path, input) {
                Ok(n) => {
                    prop_assert!(n <= input.len());
                }
                Err(CoreError::InvalidInput(m)) => {
                    prop_assert!(m.contains(&path.display().to_string()), "{m}");
                }
                Err(CoreError::CheckpointMismatch { path: p, .. }) => {
                    prop_assert_eq!(&*p, path.as_path());
                }
                Err(other) => {
                    prop_assert!(false, "unexpected error kind: {other}");
                }
            }
        }
    }
}
