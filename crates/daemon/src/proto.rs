//! Handshake and fixed control payloads, plus the pinned framing
//! overhead that the ledger-reconciliation oracle subtracts.
//!
//! Every payload here has a fixed length; [`forward_overhead`] and
//! [`reverse_overhead`] are *derived from those constants*, so any
//! protocol change moves the overhead formula and the reconciliation
//! tests in the same commit — drift fails loudly.
//!
//! A session says only what the [`ScenarioSpec`] in JOB and the content
//! hashes do not already prove (protocol version 7). The source sends
//! HELLO‖JOB in one flight; the destination answers HELLO_ACK — "job
//! accepted" — then the bulk exchange when the spec's strategy is
//! vecycle or the session is a retry epoch. COMPLETE and DONE each carry
//! one side's 8-byte content hash. A retry adds no frame: it is a fresh
//! session against the pages earlier epochs landed, so every epoch
//! reconciles against the same overheads.

use serde::{Deserialize, Serialize};
use vecycle_sim::ScenarioSpec;

use crate::frame::{frame_cost, kind, Frame};
use crate::DaemonError;

/// Protocol magic: a vecycled peer.
pub const MAGIC: &[u8; 8] = b"VECYCLD1";
/// Protocol version spoken by this build; a peer at any other version
/// is refused at HELLO.
pub const VERSION: u16 = 7;
/// Handshake role: the migration source (connects).
pub const ROLE_SOURCE: u8 = 0;
/// Handshake role: the migration destination (accepts).
pub const ROLE_DEST: u8 = 1;

/// HELLO / HELLO_ACK payload length: magic + version + role.
pub(crate) const HELLO_LEN: u64 = 8 + 2 + 1;
/// COMPLETE payload length: the source's content hash
/// ([`crate::scenario::content_hash`]).
pub(crate) const COMPLETE_LEN: u64 = 8;
/// DONE payload length: the destination's content hash.
pub const DONE_LEN: u64 = 8;

/// The job announcement a source sends right behind its HELLO.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMsg {
    /// Source-daemon job id — correlates logs, keys the destination's
    /// partial state, and anchors exactly-once completion.
    pub job: u64,
    /// Retry epoch: 0 is a fresh transfer; N ≥ 1 recycles the pages
    /// earlier epochs landed at the destination.
    pub resume: u64,
    /// The scenario both sides rebuild deterministically.
    pub spec: ScenarioSpec,
}

impl JobMsg {
    /// The JSON encoding sent in the JOB frame.
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("job message serializes")
    }

    /// Parses a JOB frame payload.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Corrupt`] on malformed JSON or UTF-8.
    pub fn decode(payload: &[u8]) -> Result<JobMsg, DaemonError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| DaemonError::Corrupt(format!("job payload not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| DaemonError::Corrupt(format!("job JSON: {e}")))
    }
}

/// Builds a HELLO / HELLO_ACK payload for `role` at `version`.
pub fn hello_payload(version: u16, role: u8) -> [u8; HELLO_LEN as usize] {
    let mut p = [0u8; HELLO_LEN as usize];
    p[0..8].copy_from_slice(MAGIC);
    p[8..10].copy_from_slice(&version.to_be_bytes());
    p[10] = role;
    p
}

/// Validates a HELLO / HELLO_ACK payload, returning `(version, role)`.
///
/// # Errors
///
/// [`DaemonError::BadMagic`] on wrong magic or length,
/// [`DaemonError::VersionMismatch`] on any version other than ours.
pub fn parse_hello(payload: &[u8]) -> Result<(u16, u8), DaemonError> {
    if payload.len() as u64 != HELLO_LEN || &payload[0..8] != MAGIC {
        return Err(DaemonError::BadMagic);
    }
    let version = u16::from_be_bytes([payload[8], payload[9]]);
    if version != VERSION {
        return Err(DaemonError::VersionMismatch {
            ours: VERSION,
            theirs: version,
        });
    }
    Ok((version, payload[10]))
}

/// `payload` as exactly `N` bytes — COMPLETE's and DONE's 8-byte hash.
///
/// # Errors
///
/// [`DaemonError::Corrupt`] naming `what` on any other length.
pub fn fixed<const N: usize>(payload: &[u8], what: &str) -> Result<[u8; N], DaemonError> {
    payload
        .try_into()
        .map_err(|_| DaemonError::Corrupt(format!("{what} payload length {}", payload.len())))
}

/// Requires `frame` to be of `want` kind, converting ERR frames into
/// [`DaemonError::Remote`] and anything else into
/// [`DaemonError::UnexpectedFrame`].
///
/// # Errors
///
/// As described above.
pub(crate) fn expect_kind(
    frame: Frame,
    want: u8,
    what: &'static str,
) -> Result<Frame, DaemonError> {
    if frame.kind == kind::ERR {
        return Err(DaemonError::Remote(
            String::from_utf8_lossy(&frame.payload).into_owned(),
        ));
    }
    if frame.kind != want {
        return Err(DaemonError::UnexpectedFrame {
            expected: what,
            got: frame.kind,
        });
    }
    Ok(frame)
}

/// Source→destination framing overhead of one successful migration:
/// HELLO + JOB(json) + COMPLETE. Everything else the source sends is
/// priced data-plane traffic.
pub fn forward_overhead(job_json_len: u64) -> u64 {
    frame_cost(HELLO_LEN) + frame_cost(job_json_len) + frame_cost(COMPLETE_LEN)
}

/// Destination→source framing overhead of one successful migration:
/// HELLO_ACK + DONE. The bulk checksum exchange is *not* here — it is
/// priced traffic in the reverse ledger.
pub fn reverse_overhead() -> u64 {
    frame_cost(HELLO_LEN) + frame_cost(DONE_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_and_rejects_drift() {
        let p = hello_payload(VERSION, ROLE_SOURCE);
        assert_eq!(parse_hello(&p).unwrap(), (VERSION, ROLE_SOURCE));
        let drift = parse_hello(&hello_payload(99, ROLE_SOURCE)).unwrap_err();
        assert_eq!(
            drift.to_string(),
            "unsupported protocol version 99 (ours 7)"
        );
        let mut bad = p;
        bad[0] = b'X';
        assert!(matches!(parse_hello(&bad), Err(DaemonError::BadMagic)));
        assert!(matches!(parse_hello(&p[..10]), Err(DaemonError::BadMagic)));
    }

    #[test]
    fn complete_and_done_are_one_hash() {
        assert_eq!((COMPLETE_LEN, DONE_LEN), (8, 8));
        assert_eq!(fixed::<8>(b"12345678", "done").unwrap(), *b"12345678");
        // Version 2's status byte ahead of the hash is corrupt.
        let err = fixed::<8>(&[0; 9], "done").unwrap_err();
        assert_eq!(err.to_string(), "corrupt payload: done payload length 9");
    }

    #[test]
    fn overhead_formula_is_pinned() {
        // 3 frames forward, 2 reverse, 5 bytes of framing each.
        assert_eq!(forward_overhead(100), (11 + 5) + (100 + 5) + (8 + 5));
        assert_eq!(reverse_overhead(), (11 + 5) + (8 + 5));
    }

    #[test]
    fn job_msg_round_trips() {
        let msg = JobMsg {
            job: 3,
            resume: 2,
            spec: ScenarioSpec::golden(0x7ec),
        };
        let back = JobMsg::decode(msg.encode().as_bytes()).unwrap();
        assert_eq!(back, msg);
        assert!(JobMsg::decode(b"\xff\xfe").is_err());
        assert!(JobMsg::decode(b"{\"nope\":1}").is_err());
    }
}
