//! Length-prefixed control framing: `[u8 kind][u32 len BE][payload]`.
//!
//! Control frames carry the handshake, job submission and the
//! operator RPCs; the migration data plane inside a session uses the
//! byte-exact [`wiremsg`](vecycle_net::wiremsg) codec instead (its
//! sizes are the analytic prices). Readers validate the declared
//! length against a per-connection limit *before* allocating.

use std::io::{Read, Write};

use crate::DaemonError;

/// Bytes of framing per control frame: 1-byte kind + 4-byte length.
pub const HEADER: u64 = 5;

/// Default per-connection payload limit. Control payloads are small
/// (the largest is a job spec in JSON); 1 MiB is generous headroom.
pub const MAX_PAYLOAD: u64 = 1 << 20;

/// Control frame kinds. 0x04 and 0x05 are unassigned (protocol
/// version 2's OFFER and WANT), and so are 0x08 and 0x09 (version 3's
/// resume announcement and verdict).
pub mod kind {
    /// Session opener, source → destination; JOB follows unasked.
    pub const HELLO: u8 = 0x01;
    /// Job accepted (sent once the destination holds its host claim),
    /// destination → source.
    pub const HELLO_ACK: u8 = 0x02;
    /// Job announcement (JSON scenario), source → destination.
    pub const JOB: u8 = 0x03;
    /// End of stream + source content hash, source → destination.
    pub const COMPLETE: u8 = 0x06;
    /// Destination content hash, destination → source.
    pub const DONE: u8 = 0x07;
    /// Typed error message; sender closes after.
    pub const ERR: u8 = 0x0E;
    /// Operator request (JSON), client → daemon.
    pub const CTRL: u8 = 0x10;
    /// Operator response (JSON), daemon → client.
    pub const CTRL_OK: u8 = 0x11;
}

/// One decoded control frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind (see [`kind`]).
    pub kind: u8,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// The wire cost of a frame with a `payload_len`-byte payload.
pub fn frame_cost(payload_len: u64) -> u64 {
    HEADER + payload_len
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates socket write errors.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — callers build control
/// payloads, so an oversized one is a construction bug.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    assert!(
        payload.len() as u64 <= MAX_PAYLOAD,
        "control payload exceeds frame limit"
    );
    let mut buf = Vec::with_capacity(HEADER as usize + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one frame, enforcing the payload limit before allocating.
///
/// # Errors
///
/// [`DaemonError::OversizedFrame`] when the declared length exceeds
/// `max_payload`; [`DaemonError::Io`] on short reads or EOF.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u64) -> Result<Frame, DaemonError> {
    let mut header = [0u8; HEADER as usize];
    r.read_exact(&mut header)?;
    let kind = header[0];
    let len = u32::from_be_bytes(header[1..5].try_into().expect("4 bytes")) as u64;
    if len > max_payload {
        return Err(DaemonError::OversizedFrame {
            len,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame { kind, payload })
}

/// Sends an [`kind::ERR`] frame carrying `msg`; best-effort (a peer
/// that already vanished is not an additional error).
pub fn send_err<W: Write>(w: &mut W, msg: &str) {
    let _ = write_frame(w, kind::ERR, msg.as_bytes());
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind::JOB, b"payload").unwrap();
        assert_eq!(buf.len() as u64, frame_cost(7));
        let f = read_frame(&mut &buf[..], MAX_PAYLOAD).unwrap();
        assert_eq!(f.kind, kind::JOB);
        assert_eq!(f.payload, b"payload");
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = vec![kind::CTRL];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut &buf[..], MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, DaemonError::OversizedFrame { .. }), "{err}");
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind::DONE, &[0u8; 8]).unwrap();
        for cut in [0, 3, HEADER as usize, buf.len() - 1] {
            let err = read_frame(&mut &buf[..cut], MAX_PAYLOAD).unwrap_err();
            assert!(matches!(err, DaemonError::Io(_)), "cut {cut}: {err}");
        }
    }
}
