//! The workspace-wide error type.

use std::fmt;

/// Result alias using the workspace [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors shared across the VeCycle crates.
///
/// Subsystems with richer failure modes (checkpoint I/O, migration engine)
/// define their own error enums and convert into this one at the public
/// boundary where a single type is more convenient.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value was out of its valid range.
    InvalidConfig {
        /// Which parameter was invalid and why.
        reason: String,
    },
    /// An entity lookup (host, VM, checkpoint, machine) failed.
    NotFound {
        /// What was being looked up.
        what: String,
    },
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// Stored data failed validation (corruption, truncation, bad magic).
    Corrupt {
        /// What was corrupt and how it was detected.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Error::NotFound { what } => write!(f, "not found: {what}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corrupt { detail } => write!(f, "corrupt data: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::NotFound {
            what: "checkpoint for vm-3".into(),
        };
        assert_eq!(e.to_string(), "not found: checkpoint for vm-3");
    }

    #[test]
    fn io_error_preserves_source() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e = Error::from(io);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("eof"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
