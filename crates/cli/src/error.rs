//! The CLI's error type: every failure path returns a [`CliError`]
//! instead of panicking, and `main` maps the variant to an exit code
//! (`2` for usage mistakes, `1` for runtime failures) — the tool never
//! unwinds on user input.

use dcc_core::CoreError;
use dcc_engine::EngineError;
use std::fmt;

/// A failure surfaced to the terminal user.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is wrong (unknown command, bad flag
    /// value, missing argument). Exit code 2.
    Usage(String),
    /// A pipeline stage failed (design, simulation, checkpoint IO, ...).
    /// Exit code 1.
    Core(CoreError),
    /// The command ran but its verdict is failure (e.g. `dcc check`
    /// found a violated bound); the message is the full report. Exit
    /// code 1.
    Failed(String),
}

impl CliError {
    /// The process exit code for this failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Core(_) | CliError::Failed(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Core(e)
    }
}

// Every engine error is a runtime failure (exit 1).
impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Core(c) => CliError::Core(c),
            other => CliError::Failed(other.to_string()),
        }
    }
}

// The minimal flag parser reports bad flag values as plain strings;
// those are always usage mistakes.
impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_distinguish_usage_from_failure() {
        assert_eq!(CliError::Usage("bad flag".into()).exit_code(), 2);
        assert_eq!(
            CliError::Core(CoreError::InvalidInput("x".into())).exit_code(),
            1
        );
        assert_eq!(CliError::Failed("report".into()).exit_code(), 1);
    }

    #[test]
    fn engine_errors_keep_their_exit_codes() {
        let core = CliError::from(EngineError::Core(CoreError::InvalidInput("x".into())));
        assert_eq!(core.exit_code(), 1);
        let ingest = CliError::from(EngineError::Ingest("cannot read trace".into()));
        assert_eq!(ingest.exit_code(), 1);
    }

    #[test]
    fn display_and_source() {
        let e = CliError::from(CoreError::InvalidInput("bad".into()));
        assert_eq!(e.to_string(), "invalid input: bad");
        assert!(std::error::Error::source(&e).is_some());
        let u = CliError::from(String::from("flag --x: cannot parse"));
        assert!(matches!(u, CliError::Usage(_)));
        assert!(std::error::Error::source(&u).is_none());
    }
}
