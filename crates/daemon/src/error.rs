//! Typed daemon errors: every protocol failure mode has a name.

use std::fmt;

/// Everything that can go wrong in a daemon session. Protocol tests
/// match on variants, so failure modes stay distinguishable.
#[derive(Debug)]
pub enum DaemonError {
    /// An underlying socket operation failed (includes read timeouts
    /// and peers closing mid-message).
    Io(std::io::Error),
    /// The peer spoke a different protocol version.
    VersionMismatch {
        /// Our protocol version.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// The handshake magic was wrong — not a vecycled peer.
    BadMagic,
    /// A frame declared a payload beyond the per-connection read limit.
    OversizedFrame {
        /// Declared payload length.
        len: u64,
        /// The enforced limit.
        max: u64,
    },
    /// A well-formed frame arrived in the wrong protocol state.
    UnexpectedFrame {
        /// What the state machine was waiting for.
        expected: &'static str,
        /// The frame kind that arrived.
        got: u8,
    },
    /// The peer reported an error and closed.
    Remote(String),
    /// A payload failed validation (bad lengths, bad content, hash
    /// mismatch) — every hardened decoder surfaces here.
    Corrupt(String),
    /// A session rule was violated (wrong role, missing bulk exchange,
    /// out-of-order data message).
    Protocol(String),
    /// A submitted scenario failed validation.
    BadSpec(String),
    /// The job id does not exist or is not in a cancellable state.
    BadJob(String),
    /// The core oracle fired: measured socket bytes diverged from the
    /// analytic ledger + pinned framing overhead. A model bug.
    LedgerMismatch {
        /// `forward` (source→dest) or `reverse`.
        direction: &'static str,
        /// Bytes actually on the wire.
        measured: u64,
        /// Ledger total plus pinned overhead.
        expected: u64,
    },
    /// `wait_job` ran out of time. Carries the last state the job was
    /// observed in, so an operator staring at a timeout sees *where*
    /// it was stuck, not just that it was.
    WaitTimeout {
        /// The job being waited on.
        job: u64,
        /// How long the wait ran, in milliseconds.
        waited_ms: u64,
        /// The last status snapshot of the job, if any arrived.
        last: Option<Box<crate::control::JobView>>,
    },
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "i/o: {e}"),
            DaemonError::VersionMismatch { ours, theirs } => {
                write!(f, "unsupported protocol version {theirs} (ours {ours})")
            }
            DaemonError::BadMagic => write!(f, "bad handshake magic"),
            DaemonError::OversizedFrame { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds limit {max}")
            }
            DaemonError::UnexpectedFrame { expected, got } => {
                write!(f, "unexpected frame kind {got:#04x}, expected {expected}")
            }
            DaemonError::Remote(msg) => write!(f, "peer error: {msg}"),
            DaemonError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
            DaemonError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DaemonError::BadSpec(msg) => write!(f, "invalid scenario: {msg}"),
            DaemonError::BadJob(msg) => write!(f, "bad job: {msg}"),
            DaemonError::LedgerMismatch {
                direction,
                measured,
                expected,
            } => write!(
                f,
                "ledger mismatch ({direction}): measured {measured} bytes, \
                 analytic ledger + framing overhead {expected}"
            ),
            DaemonError::WaitTimeout {
                job,
                waited_ms,
                last,
            } => match last {
                Some(view) => write!(
                    f,
                    "wait timeout: job {job} still {} after {waited_ms} ms \
                     (detail: {:?})",
                    view.state, view.detail
                ),
                None => write!(
                    f,
                    "wait timeout: job {job} never observed within {waited_ms} ms"
                ),
            },
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

impl From<vecycle_types::Error> for DaemonError {
    fn from(e: vecycle_types::Error) -> Self {
        match e {
            vecycle_types::Error::Io(io) => DaemonError::Io(io),
            vecycle_types::Error::Corrupt { detail } => DaemonError::Corrupt(detail),
            vecycle_types::Error::InvalidConfig { reason } => DaemonError::BadSpec(reason),
            other => DaemonError::Protocol(other.to_string()),
        }
    }
}
