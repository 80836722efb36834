//! The one record framing of the daemon's append-only files:
//!
//! ```text
//! [u32 BE payload len][payload][8-byte FNV-1a 64 of payload]
//! ```
//!
//! The write-ahead job journal ([`crate::journal`]) and the
//! destination's partial log ([`crate::partial_log`]) both append
//! records in this frame and both read them back under the same rule: a
//! file is its *intact record prefix*. [`scan`] stops at the first
//! record that is short, declares more than the caller's cap or fails
//! its checksum, and everything before that point is kept — which is
//! exactly what a crash mid-append leaves behind. A declared length is
//! compared with the bytes that remain before anything is sized by it,
//! and payloads are handed out as borrowed slices, so scanning
//! allocates nothing.

use vecycle_hash::{Fnv1a64, Hasher};

/// Bytes of framing around one payload: length prefix plus trailer.
pub const OVERHEAD: usize = 4 + 8;

fn checksum(payload: &[u8]) -> [u8; 8] {
    let mut fnv = Fnv1a64::new();
    fnv.update(payload);
    fnv.finalize()
}

/// Opens a record at the end of `buf` and returns the mark [`seal`]
/// closes it with; the caller appends the payload in between, so a
/// record can be built in place in a reused buffer.
pub fn begin(buf: &mut Vec<u8>) -> usize {
    let mark = buf.len();
    buf.extend_from_slice(&[0; 4]);
    mark
}

/// Closes the record opened at `mark`: fills in the length of
/// everything appended since and adds the checksum trailer.
///
/// # Panics
///
/// Panics if the payload does not fit the 32-bit length prefix — every
/// writer in this crate builds records orders of magnitude smaller.
pub fn seal(buf: &mut Vec<u8>, mark: usize) {
    let len = u32::try_from(buf.len() - mark - 4).expect("record payload fits a u32 length");
    buf[mark..mark + 4].copy_from_slice(&len.to_be_bytes());
    let trailer = checksum(&buf[mark + 4..]);
    buf.extend_from_slice(&trailer);
}

/// Appends `payload` to `buf` as one whole record.
pub fn push(buf: &mut Vec<u8>, payload: &[u8]) {
    let mark = begin(buf);
    buf.extend_from_slice(payload);
    seal(buf, mark);
}

/// Walks the intact record prefix of `bytes`, yielding each payload.
/// `max_payload` is the largest payload the format's writer produces: a
/// larger declared length ends the scan like any other damage.
pub fn scan(bytes: &[u8], max_payload: usize) -> Scan<'_> {
    Scan {
        bytes,
        off: 0,
        max_payload,
    }
}

/// The iterator behind [`scan`].
pub struct Scan<'a> {
    bytes: &'a [u8],
    off: usize,
    max_payload: usize,
}

impl Scan<'_> {
    /// Byte offset just past the last record yielded — the length of
    /// the intact prefix so far.
    pub fn offset(&self) -> usize {
        self.off
    }
}

impl<'a> Iterator for Scan<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.off..];
        let len = u32::from_be_bytes(*rest.first_chunk::<4>()?) as usize;
        if len > self.max_payload {
            return None;
        }
        let (payload, trailer) = rest.get(4..4 + len + 8)?.split_at(len);
        if trailer != checksum(payload) {
            return None;
        }
        self.off += len + OVERHEAD;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_records() -> Vec<u8> {
        let mut buf = Vec::new();
        push(&mut buf, b"first");
        push(&mut buf, b"");
        let mark = begin(&mut buf);
        buf.extend_from_slice(b"built ");
        buf.extend_from_slice(b"in place");
        seal(&mut buf, mark);
        buf
    }

    #[test]
    fn records_round_trip_and_offsets_track_the_prefix() {
        let buf = three_records();
        let mut s = scan(&buf, 64);
        assert_eq!(s.next(), Some(&b"first"[..]));
        assert_eq!(s.offset(), 5 + OVERHEAD);
        assert_eq!(s.next(), Some(&b""[..]));
        assert_eq!(s.next(), Some(&b"built in place"[..]));
        assert_eq!(s.offset(), buf.len());
        assert_eq!(s.next(), None);
        assert_eq!(s.offset(), buf.len(), "a finished scan stays put");
    }

    #[test]
    fn every_truncation_keeps_exactly_the_whole_records() {
        let buf = three_records();
        let ends = [5 + OVERHEAD, 5 + 2 * OVERHEAD, buf.len()];
        for cut in 0..=buf.len() {
            let mut s = scan(&buf[..cut], 64);
            let whole = s.by_ref().count();
            assert_eq!(whole, ends.iter().filter(|&&e| e <= cut).count(), "{cut}");
            assert_eq!(s.offset(), if whole == 0 { 0 } else { ends[whole - 1] });
        }
    }

    #[test]
    fn a_flipped_byte_ends_the_scan_at_the_damaged_record() {
        let buf = three_records();
        for pos in 5 + OVERHEAD..5 + 2 * OVERHEAD {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            let mut s = scan(&bad, 64);
            assert_eq!(s.by_ref().count(), 1, "flip at {pos}");
            assert_eq!(s.offset(), 5 + OVERHEAD);
        }
    }

    #[test]
    fn an_oversized_declared_length_ends_the_scan_without_reading_it() {
        let mut buf = three_records();
        let clean = buf.len();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut s = scan(&buf, 64);
        assert_eq!(s.by_ref().count(), 3);
        assert_eq!(s.offset(), clean);
        // A record over the caller's cap is damage too, however intact.
        assert_eq!(scan(&three_records(), 4).count(), 0);
    }
}
