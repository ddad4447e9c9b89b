//! One checkpoint document for every resumable run.
//!
//! Batch and serve checkpoints share one shape,
//!
//! ```text
//! {"schema": "dcc-batch-ckpt/3" | "dcc-serve-ckpt/3", "payload": …}
//! ```
//!
//! built by [`checkpoint_document`], written by [`save_json_atomic`],
//! and read back by [`load_checkpoint_payload`], which names the path in
//! every error, maps a missing file to [`CoreError::Io`], and refuses
//! any other schema (the formats of earlier releases included).
//!
//! A checkpoint records a run's inputs and what is already finished,
//! and each payload carries an FNV-1a fingerprint of those inputs
//! ([`fingerprint_json`]). [`check_fingerprint`] refuses a batch
//! checkpoint of any other run with [`CoreError::CheckpointMismatch`]. A
//! serve checkpoint (`dcc_serve::ckpt`) is the count and running
//! fingerprint of the events applied, with one pair per round boundary,
//! so a refused serve resume names the first round that differs.

use dcc_core::CoreError;
use dcc_numerics::Json;
use std::path::{Path, PathBuf};

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
/// used to be. Both checkpoint writers (the batch scheduler and the
/// streaming service) go through here.
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

fn malformed(path: &Path, what: &str) -> CoreError {
    CoreError::InvalidInput(format!("checkpoint {} {what}", path.display()))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
    use super::*;
    use crate::temp_dir::TempDir;

    const SCHEMA: &str = "dcc-test-ckpt/1";

    fn document(fingerprint: u64) -> Json {
        checkpoint_document(
            SCHEMA,
            Json::Obj(vec![("fingerprint".into(), fingerprint_json(fingerprint))]),
        )
    }

    #[test]
    fn temp_files_are_distinct_from_each_other_and_their_targets() {
        let dir = TempDir::new("dcc-faults-ckpt-temps");
        let targets = ["x.tmp", "x.ckpt", "x.json"].map(|name| dir.join(name));
        let temps = targets.clone().map(|target| temp_sibling(&target));
        for (i, target) in targets.iter().enumerate() {
            assert!(!temps.contains(target), "{} is a temp file", target.display());
            for other in &temps[i + 1..] {
                assert_ne!(&temps[i], other);
            }
        }
        for (target, temp) in targets.iter().zip(&temps) {
            save_json_atomic(target, &document(1)).unwrap();
            let payload = load_checkpoint_payload(target, SCHEMA).unwrap();
            check_fingerprint(target, &payload, 1).unwrap();
            assert!(!temp.exists(), "{} left behind", temp.display());
            std::fs::remove_file(target).unwrap();
        }
    }

    #[test]
    fn a_document_round_trips_and_refuses_other_runs() {
        let dir = TempDir::new("dcc-faults-ckpt-doc");
        let path = dir.join("doc.json");
        save_json_atomic(&path, &document(5)).unwrap();
        let payload = load_checkpoint_payload(&path, SCHEMA).unwrap();
        check_fingerprint(&path, &payload, 5).unwrap();

        let err = check_fingerprint(&path, &payload, 4).unwrap_err();
        assert!(matches!(err, CoreError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains(&path.display().to_string()), "{err}");

        let err = load_checkpoint_payload(&path, "dcc-other-ckpt/1").unwrap_err();
        assert!(err.to_string().contains("has schema"), "{err}");

        let err = load_checkpoint_payload(&dir.join("missing.json"), SCHEMA).unwrap_err();
        assert!(matches!(err, CoreError::Io { .. }), "{err}");
    }
}
