//! Checkpointed crash recovery for the streaming service.
//!
//! The service is a deterministic state machine, so re-applying the same
//! events from empty rebuilds its exact state (bit-for-bit, counters
//! included). A resume re-applies the leading events of its own input,
//! so a checkpoint records no events: its payload is the [`EventLog`],
//! the number of events applied plus a running FNV-1a fingerprint of
//! them ([`ServeEvent::fold_into`]) at the end and at every round
//! boundary, under schema `dcc-serve-ckpt/3`:
//!
//! ```text
//! {"schema":"dcc-serve-ckpt/3","payload":{"events_applied":5000,
//!  "fingerprint":"…","rounds":[[4766,"…"]]}}
//! ```
//!
//! It is the shared `dcc_faults` checkpoint document, written atomically
//! by [`dcc_faults::save_json_atomic`]. A resume refolds its input's
//! prefix and refuses a checkpoint whose fingerprints differ, naming the
//! first round that differs. 64 bits suffice: the file only guards
//! against resuming from another stream's checkpoint, and even a false
//! accept prints exactly what an uninterrupted run over the resuming
//! input prints.

use dcc_core::CoreError;
use dcc_faults::{
    checkpoint_document, fingerprint_json, load_checkpoint_payload, save_json_atomic, Json,
};
use dcc_numerics::Fnv;
use std::path::Path;

use crate::event::ServeEvent;

/// Schema tag of the checkpoint document.
pub const CKPT_FORMAT: &str = "dcc-serve-ckpt/3";

/// The events a service has applied, as its checkpoint records them:
/// their count, a running fingerprint of them, and one
/// `(events, fingerprint)` pair per round boundary.
#[derive(Debug, Default)]
pub struct EventLog {
    events: usize,
    hash: Fnv,
    rounds: Vec<(usize, u64)>,
}

impl EventLog {
    /// The log of `events` applied in order.
    pub(crate) fn of(events: &[ServeEvent]) -> EventLog {
        let mut log = EventLog::default();
        for event in events {
            log.push(event);
        }
        log
    }

    /// Folds one applied event in.
    pub(crate) fn push(&mut self, event: &ServeEvent) {
        event.fold_into(&mut self.hash);
        self.events += 1;
        if matches!(event, ServeEvent::Round) {
            self.rounds.push((self.events, self.hash.finish()));
        }
    }

    /// Events applied.
    pub(crate) fn events(&self) -> usize {
        self.events
    }
}

/// Writes an event log's checkpoint, atomically.
///
/// # Errors
///
/// Propagates I/O failures (the tmp file is removed on error).
pub fn save_checkpoint(path: &Path, log: &EventLog) -> Result<(), CoreError> {
    let round = |&(events, fp): &(usize, u64)| {
        Json::Arr(vec![Json::idx(events), fingerprint_json(fp)])
    };
    let payload = Json::Obj(vec![
        ("events_applied".into(), Json::idx(log.events)),
        ("fingerprint".into(), fingerprint_json(log.hash.finish())),
        ("rounds".into(), Json::Arr(log.rounds.iter().map(round).collect())),
    ]);
    save_json_atomic(path, &checkpoint_document(CKPT_FORMAT, payload))
}

/// Loads a checkpoint for a run over `input` and returns how many
/// leading events of `input` it records; re-applying `input[..n]`
/// restores the checkpointed state.
///
/// # Errors
///
/// Returns [`CoreError::CheckpointMismatch`] when the checkpoint records
/// more events than `input` holds, or fingerprints other events than
/// `input[..n]` (naming the first round that differs); the errors of
/// [`load_checkpoint_payload`]; and [`CoreError::InvalidInput`] for a
/// missing field or a round entry that is malformed, out of order, or
/// past `events_applied`.
pub fn load_checkpoint(path: &Path, input: &[ServeEvent]) -> Result<usize, CoreError> {
    let payload = load_checkpoint_payload(path, CKPT_FORMAT)?;
    let malformed =
        |what: String| CoreError::InvalidInput(format!("checkpoint {} {what}", path.display()));
    let mismatch = |detail: String| CoreError::CheckpointMismatch {
        path: path.into(),
        detail,
    };
    let n = payload
        .get("events_applied")
        .and_then(Json::as_idx)
        .ok_or_else(|| malformed("has no events_applied count".into()))?;
    let prefix = input.get(..n).ok_or_else(|| {
        mismatch(format!("it records {n} events but the input has only {}", input.len()))
    })?;
    let (Some(fingerprint), Some(entries)) = (
        payload.get("fingerprint").and_then(fingerprint_of),
        payload.get("rounds").and_then(Json::as_arr),
    ) else {
        return Err(malformed("has no fingerprint or rounds array".into()));
    };
    let mut rounds: Vec<(usize, u64)> = Vec::new();
    for (k, entry) in entries.iter().enumerate() {
        match round_entry(entry) {
            Some((events, fp)) if events > rounds.last().map_or(0, |r| r.0) && events <= n => {
                rounds.push((events, fp));
            }
            _ => {
                return Err(malformed(format!(
                    "round {k} is not an [events, fingerprint] pair in order within {n} events"
                )))
            }
        }
    }
    let ours = EventLog::of(prefix);
    let k = ours.rounds.iter().zip(&rounds).take_while(|(a, b)| a == b).count();
    if k < ours.rounds.len().max(rounds.len()) || ours.hash.finish() != fingerprint {
        return Err(mismatch(format!("its round {k} differs from the input's")));
    }
    Ok(n)
}

/// A fingerprint as [`fingerprint_json`] renders it.
fn fingerprint_of(doc: &Json) -> Option<u64> {
    u64::from_str_radix(doc.as_str()?, 16).ok()
}

/// One `[events, fingerprint]` round entry.
fn round_entry(entry: &Json) -> Option<(usize, u64)> {
    match entry.as_arr()? {
        [events, fp] => Some((events.as_idx()?, fingerprint_of(fp)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
    use super::*;
    use crate::event::events_from_trace;
    use dcc_trace::{SyntheticConfig, WorkerClass};
    use proptest::prelude::*;
    use std::path::PathBuf;

    /// A fresh directory of one test's own under the system temp dir,
    /// removed with everything in it when dropped, so also when the test
    /// fails.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        /// The path of `file` inside the directory.
        fn join(&self, file: &str) -> PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn checkpoint_round_trips_the_event_log() {
        let events = events_from_trace(&SyntheticConfig::small(9).generate());
        let dir = TempDir::new("dcc-serve-ckpt-round-trip");
        let path = dir.join("ckpt.json");
        // Mid-round and at the end of the stream.
        for n in [events.len() / 2, events.len()] {
            save_checkpoint(&path, &EventLog::of(&events[..n])).expect("save");
            assert_eq!(load_checkpoint(&path, &events).expect("load"), n);
        }
        assert!(std::fs::metadata(&path).expect("stat").len() < 1024);
    }

    #[test]
    fn a_log_that_is_not_a_prefix_of_the_input_is_refused() {
        let a = events_from_trace(&SyntheticConfig::small(9).generate());
        let mut b = a.clone();
        // Change one review in round 2; rounds 0 and 1 still match.
        let boundaries: Vec<usize> = EventLog::of(&a).rounds.iter().map(|&(e, _)| e).collect();
        let changed = boundaries[1] + 3;
        let ServeEvent::Review { stars, .. } = &mut b[changed] else {
            panic!("event {changed} is not a review");
        };
        *stars = -0.0;
        let dir = TempDir::new("dcc-serve-ckpt-other");
        let path = dir.join("other.json");
        save_checkpoint(&path, &EventLog::of(&a[..boundaries[3] + 5])).expect("save");
        let err = load_checkpoint(&path, &b).expect_err("must refuse");
        assert!(matches!(err, CoreError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("round 2 "), "{err}");
        // A change in the round in progress names that round.
        save_checkpoint(&path, &EventLog::of(&a[..changed + 1])).expect("save");
        let err = load_checkpoint(&path, &b).expect_err("must refuse");
        assert!(err.to_string().contains("round 2 "), "{err}");
        let err = load_checkpoint(&path, &a[..changed]).expect_err("must refuse");
        assert!(err.to_string().contains("input has only"), "{err}");
    }

    #[test]
    fn earlier_formats_are_refused() {
        let dir = TempDir::new("dcc-serve-ckpt-old");
        let path = dir.join("old.json");
        for old in [
            r#"{"format":"dcc-serve-ckpt/1","events":[]}"#,
            r#"{"schema":"dcc-serve-ckpt/2","payload":{"events":[]}}"#,
        ] {
            std::fs::write(&path, old).expect("write");
            let err = load_checkpoint(&path, &[]).expect_err("must reject");
            assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");
            assert!(err.to_string().contains("dcc-serve-ckpt/3"), "{err}");
        }
    }

    fn small_log() -> Vec<ServeEvent> {
        vec![
            ServeEvent::Product { id: 0, quality: f64::NAN },
            ServeEvent::Join { id: 0, class: WorkerClass::Honest, campaign: None, expert: false },
            ServeEvent::Round,
            ServeEvent::Review { worker: 0, product: 0, round: 0, stars: 4.0, length: 80, upvotes: -0.0 },
            ServeEvent::Round,
        ]
    }

    /// Well-formed JSON that is not a valid `/3` serve checkpoint: wrong
    /// shapes, round entries out of order or past `events_applied`, and
    /// the documents of earlier releases.
    const WRONG_SHAPES: [&str; 11] = [
        "{}",
        "\"events\"",
        r#"{"schema":"dcc-serve-ckpt/3","payload":{}}"#,
        r#"{"schema":"dcc-serve-ckpt/3","payload":{"events_applied":1e300,"fingerprint":"0000000000000000","rounds":[]}}"#,
        r#"{"schema":"dcc-serve-ckpt/3","payload":{"events_applied":2,"fingerprint":7,"rounds":[]}}"#,
        r#"{"schema":"dcc-serve-ckpt/3","payload":{"events_applied":2,"fingerprint":"0000000000000000","rounds":{}}}"#,
        r#"{"schema":"dcc-serve-ckpt/3","payload":{"events_applied":5,"fingerprint":"0000000000000000","rounds":[[5,"0000000000000000"],[3,"0000000000000000"]]}}"#,
        r#"{"schema":"dcc-serve-ckpt/3","payload":{"events_applied":3,"fingerprint":"0000000000000000","rounds":[[4,"0000000000000000"]]}}"#,
        r#"{"schema":"dcc-serve-ckpt/3","payload":{"events_applied":3,"fingerprint":"0000000000000000","rounds":[[3]]}}"#,
        r#"{"schema":"dcc-serve-ckpt/2","payload":{"events":[{"ev":"round"}]}}"#,
        r#"{"format":"dcc-serve-ckpt/1","rounds_emitted":0,"events":[]}"#,
    ];

    #[test]
    fn round_entries_out_of_order_or_past_the_end_are_invalid() {
        let dir = TempDir::new("dcc-serve-ckpt-rounds");
        let path = dir.join("rounds.json");
        for doc in &WRONG_SHAPES[6..8] {
            std::fs::write(&path, doc).expect("write");
            let err = load_checkpoint(&path, &small_log()).expect_err("must reject");
            assert!(matches!(&err, CoreError::InvalidInput(m) if m.contains("in order")), "{err}");
        }
    }

    proptest! {
        #[test]
        fn serve_loader_is_total(
            kind in 0u8..4,
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            pick in any::<usize>(),
            prefix in 0usize..6,
        ) {
            let log = small_log();
            let dir = TempDir::new("dcc-serve-ckpt-total");
            let path = dir.join("total.json");
            save_checkpoint(&path, &EventLog::of(&log[..4])).unwrap();
            let valid = std::fs::read(&path).unwrap();
            match kind {
                0 => std::fs::write(&path, &bytes).unwrap(),
                1 => std::fs::write(&path, &valid[..pick % valid.len()]).unwrap(),
                2 => std::fs::write(&path, WRONG_SHAPES[pick % WRONG_SHAPES.len()]).unwrap(),
                _ => save_checkpoint(&path, &EventLog::of(&log[..prefix.min(log.len())])).unwrap(),
            }
            // The input is a prefix of the log, so only a short enough
            // checkpoint fits it.
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
