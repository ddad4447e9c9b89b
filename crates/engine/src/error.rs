use crate::stages::StageKind;
use dcc_core::CoreError;
use std::fmt;

/// Errors produced by the engine or its stages.
#[derive(Debug)]
pub enum EngineError {
    /// A stage propagated a core solver/simulation error.
    Core(CoreError),
    /// A caller or stage asked the [`crate::RoundContext`] for an output
    /// that an earlier stage has not produced yet — the engine was not
    /// run far enough.
    MissingOutput {
        /// The stage whose output is missing.
        stage: StageKind,
    },
    /// The trace source could not be materialized (unreadable CSV
    /// directory, …).
    Ingest(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::MissingOutput { stage } => write!(
                f,
                "stage {stage} has produced no output yet; run the engine through it first"
            ),
            EngineError::Ingest(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}
