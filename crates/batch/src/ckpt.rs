//! The `dcc-batch-ckpt/3` checkpoint: a periodic partial-results
//! snapshot of a supervised batch run, keyed by the grid fingerprint.
//!
//! A checkpoint stores, per completed scenario, either a
//! [`ScenarioSummary`] (the canonical deterministic outputs of a
//! successful scenario) or the [`ScenarioFailure`] that quarantined it:
//! each record is `{"id", "summary"}` or `{"id", "failure"}`, and a file
//! of an earlier schema (`/1`, `/2`) is refused. Floats round-trip
//! bit-exactly through [`dcc_faults::Json`]'s shortest-round-trip
//! rendering, which is what makes a resumed run's output byte-identical
//! to an uninterrupted one.
//!
//! It is the shared checkpoint document of `dcc_faults::checkpoint`
//! (`{"schema", "payload"}`), written by `save_json_atomic` after every
//! fresh completion. On load the
//! payload's input fingerprint must match the running grid's, so a
//! checkpoint from a different grid (or a different trace seed) is a
//! `CoreError::CheckpointMismatch` instead of silently mixed results.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use dcc_core::CoreError;
use dcc_faults::{
    check_fingerprint, checkpoint_document, fingerprint_json, load_checkpoint_payload,
    save_json_atomic, Json,
};

use crate::runner::ScenarioOutcome;
use crate::supervisor::{FailureKind, ScenarioFailure};

/// Schema tag of the batch checkpoint document.
pub const CKPT_SCHEMA: &str = "dcc-batch-ckpt/3";

/// The canonical per-agent outputs of a designed scenario — everything
/// the batch CLI and the differential suites derive per agent.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSummary {
    /// Worker index within the trace.
    pub worker: usize,
    /// Subproblem the worker was assigned to.
    pub subproblem: usize,
    /// Designed per-round compensation.
    pub compensation: f64,
    /// Effort level the contract induces.
    pub induced_effort: f64,
}

/// The canonical outputs of a simulated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Rounds simulated.
    pub rounds: usize,
    /// Cumulative requester utility over the run.
    pub cumulative_requester_utility: f64,
    /// Mean per-round requester utility.
    pub mean_round_utility: f64,
}

/// The deterministic, checkpoint-serializable outputs of one
/// successful scenario. This is the *canonical output surface* of a
/// batch scenario: everything `dcc batch` renders and everything the
/// byte-identity differential tests compare is derivable from it,
/// whether the scenario was computed this run or restored from a
/// `dcc-batch-ckpt/3` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// The designed `Σ (w q − μ c)` requester utility.
    pub total_requester_utility: f64,
    /// Per-agent design outputs, in design order.
    pub agents: Vec<AgentSummary>,
    /// Subproblems the failure policy degraded.
    pub degraded: usize,
    /// Funded subproblem ids, in funding order.
    pub funded: Vec<usize>,
    /// Total compensation committed within budget.
    pub spend: f64,
    /// The budget that was available.
    pub budget: f64,
    /// Requester utility of the funded set.
    pub budget_utility: f64,
    /// Unbudgeted total spend of the full design.
    pub full_spend: f64,
    /// Simulation outputs, when the grid simulates.
    pub sim: Option<SimSummary>,
}

impl ScenarioSummary {
    /// Derives the canonical summary of a computed outcome.
    pub fn of(outcome: &ScenarioOutcome) -> Self {
        ScenarioSummary {
            total_requester_utility: outcome.design.total_requester_utility,
            agents: outcome
                .design
                .agents
                .iter()
                .map(|a| AgentSummary {
                    worker: a.worker.index(),
                    subproblem: a.subproblem,
                    compensation: a.compensation,
                    induced_effort: a.induced_effort,
                })
                .collect(),
            degraded: outcome.design.degradation.len(),
            funded: outcome.budget.funded.clone(),
            spend: outcome.budget.spend,
            budget: outcome.budget.budget,
            budget_utility: outcome.budget.utility,
            full_spend: outcome.full_spend,
            sim: outcome.sim.as_ref().map(|sim| SimSummary {
                rounds: sim.rounds.len(),
                cumulative_requester_utility: sim.cumulative_requester_utility,
                mean_round_utility: sim.mean_round_utility,
            }),
        }
    }
}

/// One checkpointed scenario result: its success summary or the
/// failure that quarantined it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CkptEntry {
    Summary(ScenarioSummary),
    Failure(ScenarioFailure),
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn summary_to_json(s: &ScenarioSummary) -> Json {
    let mut fields = vec![
        ("utility", Json::num(s.total_requester_utility)),
        (
            "agents",
            Json::Arr(
                s.agents
                    .iter()
                    .map(|a| {
                        obj(vec![
                            ("worker", Json::idx(a.worker)),
                            ("subproblem", Json::idx(a.subproblem)),
                            ("compensation", Json::num(a.compensation)),
                            ("induced_effort", Json::num(a.induced_effort)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("degraded", Json::idx(s.degraded)),
        ("funded", Json::Arr(s.funded.iter().map(|&f| Json::idx(f)).collect())),
        ("spend", Json::num(s.spend)),
        ("budget", Json::num(s.budget)),
        ("budget_utility", Json::num(s.budget_utility)),
        ("full_spend", Json::num(s.full_spend)),
    ];
    if let Some(sim) = &s.sim {
        fields.push((
            "sim",
            obj(vec![
                ("rounds", Json::idx(sim.rounds)),
                ("cumulative_utility", Json::num(sim.cumulative_requester_utility)),
                ("mean_round_utility", Json::num(sim.mean_round_utility)),
            ]),
        ));
    }
    obj(fields)
}

fn field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, String> {
    json.get(name).ok_or_else(|| format!("missing field {name}"))
}

fn as_f64(json: &Json, name: &str) -> Result<f64, String> {
    field(json, name)?
        .as_f64()
        .ok_or_else(|| format!("field {name} is not a number"))
}

fn as_idx(json: &Json, name: &str) -> Result<usize, String> {
    field(json, name)?
        .as_idx()
        .ok_or_else(|| format!("field {name} is not an index"))
}

fn as_str<'a>(json: &'a Json, name: &str) -> Result<&'a str, String> {
    field(json, name)?
        .as_str()
        .ok_or_else(|| format!("field {name} is not a string"))
}

fn as_arr<'a>(json: &'a Json, name: &str) -> Result<&'a [Json], String> {
    field(json, name)?
        .as_arr()
        .ok_or_else(|| format!("field {name} is not an array"))
}

fn summary_from_json(json: &Json) -> Result<ScenarioSummary, String> {
    let agents = as_arr(json, "agents")?
        .iter()
        .map(|a| {
            Ok(AgentSummary {
                worker: as_idx(a, "worker")?,
                subproblem: as_idx(a, "subproblem")?,
                compensation: as_f64(a, "compensation")?,
                induced_effort: as_f64(a, "induced_effort")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let funded = as_arr(json, "funded")?
        .iter()
        .map(|f| f.as_idx().ok_or_else(|| "funded entry is not an index".to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let sim = match json.get("sim") {
        None => None,
        Some(sim) => Some(SimSummary {
            rounds: as_idx(sim, "rounds")?,
            cumulative_requester_utility: as_f64(sim, "cumulative_utility")?,
            mean_round_utility: as_f64(sim, "mean_round_utility")?,
        }),
    };
    Ok(ScenarioSummary {
        total_requester_utility: as_f64(json, "utility")?,
        agents,
        degraded: as_idx(json, "degraded")?,
        funded,
        spend: as_f64(json, "spend")?,
        budget: as_f64(json, "budget")?,
        budget_utility: as_f64(json, "budget_utility")?,
        full_spend: as_f64(json, "full_spend")?,
        sim,
    })
}

fn entry_to_json(id: usize, entry: &CkptEntry) -> Json {
    let result = match entry {
        CkptEntry::Summary(summary) => ("summary", summary_to_json(summary)),
        CkptEntry::Failure(failure) => (
            "failure",
            obj(vec![
                ("kind", Json::Str(failure.kind.label().to_string())),
                ("message", Json::Str(failure.message.clone())),
            ]),
        ),
    };
    obj(vec![("id", Json::idx(id)), result])
}

fn entry_from_json(json: &Json, total: usize) -> Result<(usize, CkptEntry), String> {
    let id = as_idx(json, "id")?;
    if id >= total {
        return Err(format!("scenario id {id} out of range (grid has {total})"));
    }
    let entry = match (json.get("summary"), json.get("failure")) {
        (Some(summary), None) => CkptEntry::Summary(summary_from_json(summary)?),
        (None, Some(failure)) => {
            let kind_label = as_str(failure, "kind")?;
            let kind = FailureKind::parse(kind_label)
                .ok_or_else(|| format!("unknown failure kind {kind_label:?}"))?;
            CkptEntry::Failure(ScenarioFailure {
                kind,
                message: as_str(failure, "message")?.to_string(),
            })
        }
        _ => return Err(format!("record {id} needs exactly one of summary/failure")),
    };
    Ok((id, entry))
}

/// The checkpoint document of a grid with fingerprint `grid_fp`.
/// Entries are keyed (and rendered) in scenario-id order, so the bytes
/// are a pure function of the results.
pub(crate) fn checkpoint_doc(grid_fp: u64, entries: &BTreeMap<usize, CkptEntry>) -> Json {
    checkpoint_document(
        CKPT_SCHEMA,
        obj(vec![
            ("fingerprint", fingerprint_json(grid_fp)),
            (
                "records",
                Json::Arr(entries.iter().map(|(&id, e)| entry_to_json(id, e)).collect()),
            ),
        ]),
    )
}

/// Decodes a checkpoint payload's records against a grid of `total`
/// scenarios.
///
/// # Errors
///
/// A diagnostic string on a malformed record, an out-of-range id, or a
/// duplicate id.
fn parse_records(payload: &Json, total: usize) -> Result<BTreeMap<usize, CkptEntry>, String> {
    let mut entries = BTreeMap::new();
    for record in as_arr(payload, "records")? {
        let (id, entry) = entry_from_json(record, total)?;
        if entries.insert(id, entry).is_some() {
            return Err(format!("duplicate checkpoint record for scenario {id}"));
        }
    }
    Ok(entries)
}

/// Reads the checkpoint at `path` for the running grid (fingerprint
/// `grid_fp`, `total` scenarios).
///
/// # Errors
///
/// [`CoreError::Io`] for an unreadable file,
/// [`CoreError::CheckpointMismatch`] for another grid's checkpoint, and
/// [`CoreError::InvalidInput`] naming the path for anything malformed.
pub(crate) fn load_checkpoint(
    path: &Path,
    grid_fp: u64,
    total: usize,
) -> Result<BTreeMap<usize, CkptEntry>, CoreError> {
    let payload = load_checkpoint_payload(path, CKPT_SCHEMA)?;
    check_fingerprint(path, &payload, grid_fp)?;
    parse_records(&payload, total)
        .map_err(|e| CoreError::InvalidInput(format!("checkpoint {}: {e}", path.display())))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct WriterState {
    entries: BTreeMap<usize, CkptEntry>,
    /// First I/O error, surfaced after the run (worker threads must
    /// not abort mid-scenario on a full disk).
    error: Option<CoreError>,
}

/// Thread-safe checkpoint writer. `record` is called from worker
/// threads as scenarios complete; the file is rewritten (whole,
/// atomically) on every fresh completion and on [`CkptWriter::flush`].
pub(crate) struct CkptWriter {
    path: PathBuf,
    grid_fp: u64,
    state: Mutex<WriterState>,
}

impl CkptWriter {
    pub(crate) fn new(path: &Path, grid_fp: u64, restored: BTreeMap<usize, CkptEntry>) -> Self {
        CkptWriter {
            path: path.to_path_buf(),
            grid_fp,
            state: Mutex::new(WriterState { entries: restored, error: None }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one fresh completion and rewrites the file.
    pub(crate) fn record(&self, id: usize, entry: CkptEntry) {
        let mut state = self.lock();
        state.entries.insert(id, entry);
        self.write(&mut state);
    }

    /// Forces a write of the current entries.
    pub(crate) fn flush(&self) {
        let mut state = self.lock();
        self.write(&mut state);
    }

    /// Scenarios with checkpointed results.
    pub(crate) fn completed(&self) -> usize {
        self.lock().entries.len()
    }

    /// The first I/O error hit while writing, if any.
    pub(crate) fn take_error(&self) -> Option<CoreError> {
        self.lock().error.take()
    }

    fn write(&self, state: &mut WriterState) {
        let result = save_json_atomic(&self.path, &checkpoint_doc(self.grid_fp, &state.entries));
        if let (Err(e), None) = (result, &state.error) {
            state.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;

    fn sample_summary(sim: bool) -> ScenarioSummary {
        ScenarioSummary {
            total_requester_utility: 12.345_678_901_234_567,
            agents: vec![
                AgentSummary {
                    worker: 0,
                    subproblem: 1,
                    compensation: 0.1 + 0.2, // deliberately non-representable
                    induced_effort: 1e-17,
                },
                AgentSummary {
                    worker: 7,
                    subproblem: 0,
                    compensation: f64::MIN_POSITIVE,
                    induced_effort: 0.0,
                },
            ],
            degraded: 1,
            funded: vec![1, 0],
            spend: 2.5,
            budget: 3.0,
            budget_utility: 1.75,
            full_spend: 4.0,
            sim: sim.then(|| SimSummary {
                rounds: 16,
                cumulative_requester_utility: -3.25,
                mean_round_utility: -0.203_125,
            }),
        }
    }

    #[test]
    fn summaries_round_trip_bit_exactly() {
        for sim in [false, true] {
            let summary = sample_summary(sim);
            let json = summary_to_json(&summary);
            let reparsed = Json::parse(&json.to_string()).unwrap();
            let back = summary_from_json(&reparsed).unwrap();
            assert_eq!(back, summary);
            // PartialEq on f64 treats -0.0 == 0.0; check bits too.
            assert_eq!(
                back.total_requester_utility.to_bits(),
                summary.total_requester_utility.to_bits()
            );
            for (a, b) in back.agents.iter().zip(&summary.agents) {
                assert_eq!(a.compensation.to_bits(), b.compensation.to_bits());
                assert_eq!(a.induced_effort.to_bits(), b.induced_effort.to_bits());
            }
        }
    }

    fn sample_entries() -> BTreeMap<usize, CkptEntry> {
        let mut entries = BTreeMap::new();
        entries.insert(0, CkptEntry::Summary(sample_summary(true)));
        entries.insert(
            3,
            CkptEntry::Failure(ScenarioFailure {
                kind: FailureKind::Panic,
                message: "injected fault: scenario 3 panics at Solve".into(),
            }),
        );
        entries
    }

    #[test]
    fn documents_round_trip_and_validate() {
        let entries = sample_entries();
        let dir = TempDir::new("dcc-batch-ckpt-roundtrip");
        let path = dir.join("roundtrip.ckpt");
        save_json_atomic(&path, &checkpoint_doc(0xdead_beef, &entries)).unwrap();
        let back = load_checkpoint(&path, 0xdead_beef, 6).unwrap();
        assert_eq!(back, entries);
        // Rendering is canonical: a round-trip reproduces the bytes.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(checkpoint_doc(0xdead_beef, &back).to_string(), text);

        let err = load_checkpoint(&path, 0xdead_beee, 6).unwrap_err();
        assert!(matches!(err, CoreError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let err = load_checkpoint(&path, 0xdead_beef, 3).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // The records of a `/2` file carry an attempt count; whatever
        // its records, the file is refused by its schema, as is `/1`.
        for old in ["dcc-batch-ckpt/1", "dcc-batch-ckpt/2"] {
            std::fs::write(&path, text.replace(CKPT_SCHEMA, old)).unwrap();
            let err = load_checkpoint(&path, 0xdead_beef, 6).unwrap_err();
            assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");
            assert!(err.to_string().contains(&format!("has schema \"{old}\"")), "{err}");
        }
    }

    #[test]
    fn out_of_range_and_duplicate_ids_are_rejected() {
        let entry = CkptEntry::Summary(sample_summary(false));
        let records = |ids: &[usize]| {
            obj(vec![(
                "records",
                Json::Arr(ids.iter().map(|&id| entry_to_json(id, &entry)).collect()),
            )])
        };
        assert!(parse_records(&records(&[5, 0]), 6).is_ok());
        let err = parse_records(&records(&[6]), 6).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse_records(&records(&[2, 2]), 6).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn writer_rewrites_the_file_on_every_completion() {
        let dir = TempDir::new("dcc-batch-ckpt-writer");
        let path = dir.join("writer.ckpt");
        let writer = CkptWriter::new(&path, 9, BTreeMap::new());
        writer.record(1, CkptEntry::Summary(sample_summary(false)));
        assert_eq!(load_checkpoint(&path, 9, 4).unwrap().len(), 1);
        writer.record(0, CkptEntry::Summary(sample_summary(true)));
        assert_eq!(writer.completed(), 2);
        assert_eq!(load_checkpoint(&path, 9, 4).unwrap().len(), 2);
        assert!(writer.take_error().is_none());
    }

    /// Well-formed JSON that is not a `/3` batch checkpoint: wrong
    /// shapes, and the `/1` and `/2` documents of earlier releases.
    const WRONG_SHAPES: [&str; 7] = [
        "{}",
        "[1,2]",
        r#"{"schema":"dcc-batch-ckpt/3","payload":{"fingerprint":"0000000000000009"}}"#,
        r#"{"schema":"dcc-batch-ckpt/3","payload":{"fingerprint":"0000000000000009","records":[{"id":0}]}}"#,
        r#"{"schema":"dcc-batch-ckpt/3","payload":{"fingerprint":"0000000000000009","records":[{"id":-1,"failure":{"kind":"panic","message":""}}]}}"#,
        r#"{"schema":"dcc-batch-ckpt/2","payload":{"fingerprint":"0000000000000009","records":[{"id":0,"attempts":1,"failure":{"kind":"panic","message":""}}]}}"#,
        r#"{"schema":"dcc-batch-ckpt/1","grid_fingerprint":"0000000000000009","scenarios":6,"records":[]}"#,
    ];

    proptest::proptest! {
        #[test]
        fn batch_loader_is_total(
            kind in 0u8..4,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            pick in proptest::prelude::any::<usize>(),
            ids in proptest::collection::vec(0usize..12, 0..6),
        ) {
            let entry = CkptEntry::Summary(sample_summary(true));
            let valid = checkpoint_doc(9, &sample_entries()).to_string();
            let input = match kind {
                0 => bytes,
                1 => valid.as_bytes()[..pick % valid.len()].to_vec(),
                2 => WRONG_SHAPES[pick % WRONG_SHAPES.len()].as_bytes().to_vec(),
                _ => checkpoint_document(
                    CKPT_SCHEMA,
                    obj(vec![
                        ("fingerprint", fingerprint_json(9)),
                        ("records", Json::Arr(ids.iter().map(|&id| entry_to_json(id, &entry)).collect())),
                    ]),
                )
                .to_string()
                .into_bytes(),
            };
            let dir = TempDir::new("dcc-batch-ckpt-total");
            let path = dir.join("total.ckpt");
            std::fs::write(&path, &input).unwrap();
            match load_checkpoint(&path, 9, 6) {
                Ok(loaded) => {
                    proptest::prop_assert!(loaded.keys().all(|&id| id < 6));
                    if kind == 3 {
                        proptest::prop_assert_eq!(loaded.len(), ids.len());
                    }
                }
                Err(CoreError::InvalidInput(m)) => {
                    proptest::prop_assert!(m.contains(&path.display().to_string()), "{m}");
                }
                Err(other) => {
                    proptest::prop_assert!(false, "unexpected error kind: {other}");
                }
            }
        }
    }
}
