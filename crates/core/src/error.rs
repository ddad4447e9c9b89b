use dcc_numerics::NumericsError;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// A cloneable, comparable wrapper around [`std::io::Error`] (which is
/// neither `Clone` nor `PartialEq`) so [`CoreError`] can keep both
/// derives. Equality compares only the [`std::io::ErrorKind`].
#[derive(Debug, Clone)]
pub struct IoSource(pub Arc<std::io::Error>);

impl PartialEq for IoSource {
    fn eq(&self, other: &Self) -> bool {
        self.0.kind() == other.0.kind()
    }
}

impl fmt::Display for IoSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<std::io::Error> for IoSource {
    fn from(e: std::io::Error) -> Self {
        IoSource(Arc::new(e))
    }
}

/// Errors produced by the contract-design core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A model or discretization parameter was outside its valid domain.
    InvalidParams(String),
    /// The effort function violates the model's assumptions (§II requires
    /// a concave, twice-differentiable ψ, increasing on the discretized
    /// effort region).
    InvalidEffortFunction(String),
    /// A constructed contract violated an invariant (monotonicity, knot
    /// ordering).
    InvalidContract(String),
    /// Error from the numeric substrate.
    Numerics(NumericsError),
    /// Input collections disagreed in length or were empty where content
    /// was required.
    InvalidInput(String),
    /// A 1-based effort-interval index fell outside the discretization
    /// (`1..=intervals`).
    InvalidInterval {
        /// The offending index.
        interval: usize,
        /// Number of intervals in the discretization.
        intervals: usize,
    },
    /// An I/O operation (checkpoint write, fault-plan read, …) failed.
    Io {
        /// What the operation was trying to do (path, phase).
        context: String,
        /// The underlying I/O error.
        source: IoSource,
    },
    /// A checkpoint was written by a different run than the one resuming
    /// from it: its input fingerprint differs, or (for a serve
    /// checkpoint) it records more events than the resuming run's input
    /// holds or the fingerprints of that input's prefix differ, and the
    /// detail names the first differing round.
    CheckpointMismatch {
        /// The checkpoint file (boxed, so the variant is no larger than
        /// the others and every `Result<_, CoreError>` keeps its size).
        path: Box<Path>,
        /// What differs.
        detail: String,
    },
}

impl CoreError {
    /// Wraps an I/O error with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        CoreError::Io {
            context: context.into(),
            source: source.into(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParams(m) => write!(f, "invalid parameters: {m}"),
            CoreError::InvalidEffortFunction(m) => write!(f, "invalid effort function: {m}"),
            CoreError::InvalidContract(m) => write!(f, "invalid contract: {m}"),
            CoreError::Numerics(e) => write!(f, "numerics error: {e}"),
            CoreError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            CoreError::InvalidInterval { interval, intervals } => write!(
                f,
                "interval index {interval} outside the discretization (1..={intervals})"
            ),
            CoreError::Io { context, source } => write!(f, "io error: {context}: {source}"),
            CoreError::CheckpointMismatch { path, detail } => write!(
                f,
                "checkpoint {} belongs to a different run ({detail}); refusing to resume from it",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Numerics(e) => Some(e),
            CoreError::Io { source, .. } => Some(source.0.as_ref()),
            _ => None,
        }
    }
}

impl From<NumericsError> for CoreError {
    fn from(e: NumericsError) -> Self {
        CoreError::Numerics(e)
    }
}

impl From<dcc_numerics::JsonError> for CoreError {
    fn from(e: dcc_numerics::JsonError) -> Self {
        // Matches the message the parser produced when it still returned
        // `CoreError` directly, so error-text comparisons (the serve
        // differential's err/err branch) see identical strings.
        CoreError::InvalidInput(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::InvalidParams("mu must be positive".into());
        assert_eq!(e.to_string(), "invalid parameters: mu must be positive");
        let n = CoreError::from(NumericsError::SingularSystem);
        assert!(n.source().is_some());
        assert_eq!(n.to_string(), "numerics error: linear system is singular");
    }

    #[test]
    fn io_display_and_source() {
        use std::error::Error;
        let e = CoreError::io(
            "write checkpoint chk.json",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        assert_eq!(
            e.to_string(),
            "io error: write checkpoint chk.json: denied"
        );
        let src = e.source().expect("io error carries a source");
        assert_eq!(src.to_string(), "denied");
    }

    #[test]
    fn io_equality_is_by_kind() {
        let a = CoreError::io(
            "x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "first"),
        );
        let b = CoreError::io(
            "x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "second"),
        );
        let c = CoreError::io(
            "x",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "third"),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
