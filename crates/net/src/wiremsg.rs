//! Byte-exact codec for the priced migration messages.
//!
//! [`wire`] answers "what does this message cost"; this
//! module makes real bytes match that answer. Every encoded
//! [`WireMsg`] is exactly as long as the corresponding price function
//! says — a unit test pins each variant, so the analytic model and the
//! socket bytes cannot drift apart silently. The daemon's
//! ledger-reconciliation oracle depends on this equality.
//!
//! Layout (mirrors the priced `MSG_HEADER = 12`): an 8-byte big-endian
//! *field* (page number, round number or entry count, per kind), a
//! 1-byte kind, a 3-byte big-endian payload length, then the payload.
//! Decoding is hardened: lengths are validated against per-kind
//! expectations *before* any allocation, arithmetic is checked, and all
//! malformed input surfaces as [`Error::Corrupt`] — never a panic or an
//! unbounded read.
//!
//! A full page has one form, `idx ‖ digest`. On the wire its page bytes
//! are the digest's *filler*, the digest repeated over the page
//! ("sending the checksum along with the full page", §3.2):
//! [`WireMsg::encode`] writes them and [`WireMsg::read_from`] refuses a
//! page that is not them. A decoded `Full` is therefore already checked,
//! and no message holds page bytes at either end. A bulk exchange can
//! stream through one chunk ([`write_bulk_exchange`], [`read_bulk_exchange`]).

use vecycle_types::{Bytes, Error, PageDigest, PAGE_SIZE};

use crate::wire;

/// Bytes of framing per message; equals [`wire::MSG_HEADER`].
pub const HEADER: usize = 12;

/// Hard ceiling on a single message payload: a bulk exchange of one
/// million digests (a 4 GiB VM of unique pages). The 3-byte length
/// field caps payloads at 16 MiB - 1 anyway; this named limit is what
/// readers enforce.
pub const MAX_PAYLOAD: usize = 0xFF_FFFF;

/// Message kind tags on the wire.
pub mod kind {
    /// Full page: digest + page bytes.
    pub(crate) const FULL: u8 = 1;
    /// Checksum only — the destination already holds the content.
    pub(crate) const CHECKSUM: u8 = 2;
    /// Back-reference to a page sent earlier in this migration.
    pub(crate) const DEDUP_REF: u8 = 3;
    /// All-zero page marker.
    pub(crate) const ZERO: u8 = 4;
    /// End of one pre-copy round (the per-round control message).
    pub(crate) const ROUND_END: u8 = 5;
    /// End of the stop-and-copy flush (the final control message).
    pub(crate) const STOP_END: u8 = 6;
    /// Bulk checksum pre-exchange: `count` digests, destination→source.
    pub const BULK_EXCHANGE: u8 = 7;
}

/// One migration message in its on-the-wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// A full page: the digest, then `PAGE_SIZE` bytes of its filler.
    Full {
        /// Guest page number.
        idx: u64,
        /// Content checksum, sent alongside the page.
        digest: PageDigest,
    },
    /// Only the checksum: the destination resolves it locally.
    Checksum {
        /// Guest page number.
        idx: u64,
        /// Content checksum.
        digest: PageDigest,
    },
    /// Dedup back-reference to an earlier page of this migration.
    DedupRef {
        /// Guest page number.
        idx: u64,
        /// The earlier page carrying identical content.
        source: u64,
    },
    /// An all-zero page, suppressed to a marker.
    Zero {
        /// Guest page number.
        idx: u64,
    },
    /// Round delimiter: all messages of round `round` have been sent.
    RoundEnd {
        /// 1-based round number.
        round: u64,
    },
    /// Stream delimiter: the stop-and-copy flush is complete.
    StopEnd,
    /// The destination's bulk checksum pre-exchange.
    BulkExchange {
        /// Distinct digests, ascending (protocol 7).
        digests: Vec<PageDigest>,
    },
}

/// Payload bytes of a `Full`: the digest, then the page.
const FULL_PAYLOAD: usize = PageDigest::LEN + PAGE_SIZE as usize;

impl WireMsg {
    /// The encoded size, always equal to the analytic price of the
    /// corresponding [`wire`] function (pinned by tests).
    pub fn encoded_len(&self) -> Bytes {
        match self {
            WireMsg::Full { .. } => wire::full_page_msg(),
            WireMsg::Checksum { .. } => wire::checksum_msg(),
            WireMsg::DedupRef { .. } => wire::dedup_ref_msg(),
            WireMsg::Zero { .. } => wire::zero_page_msg(),
            WireMsg::RoundEnd { .. } | WireMsg::StopEnd => Bytes::new(wire::MSG_HEADER),
            WireMsg::BulkExchange { digests } => wire::bulk_exchange(digests.len() as u64),
        }
    }

    /// Appends the encoded message to `out`; a `Full`'s page is its
    /// digest's filler.
    ///
    /// # Panics
    ///
    /// Panics if a `BulkExchange` exceeds [`MAX_PAYLOAD`] — a
    /// construction bug, not a runtime condition (validate page counts
    /// upstream).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len().as_u64() as usize);
        match self {
            WireMsg::Full { idx, digest } => {
                put_header(out, *idx, kind::FULL, FULL_PAYLOAD);
                let start = out.len();
                out.extend_from_slice(digest.as_bytes());
                // The payload is one digest after another, so it doubles
                // itself.
                while out.len() - start < FULL_PAYLOAD {
                    let have = out.len() - start;
                    out.extend_from_within(start..start + have.min(FULL_PAYLOAD - have));
                }
            }
            WireMsg::Checksum { idx, digest } => {
                put_header(out, *idx, kind::CHECKSUM, PageDigest::LEN);
                out.extend_from_slice(digest.as_bytes());
            }
            WireMsg::DedupRef { idx, source } => {
                put_header(out, *idx, kind::DEDUP_REF, 8);
                out.extend_from_slice(&source.to_be_bytes());
            }
            WireMsg::Zero { idx } => {
                put_header(out, *idx, kind::ZERO, 1);
                out.push(0);
            }
            WireMsg::RoundEnd { round } => put_header(out, *round, kind::ROUND_END, 0),
            WireMsg::StopEnd => put_header(out, 0, kind::STOP_END, 0),
            WireMsg::BulkExchange { digests } => {
                write_bulk_exchange(
                    digests.iter().copied(),
                    out,
                    usize::MAX,
                    &mut std::io::sink(),
                )
                .expect("a sink never fails");
            }
        }
    }

    /// Reads one message from `r`. The declared payload length is
    /// checked against the kind's before any payload byte is read.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on short reads (including EOF mid-message) and
    /// [`Error::Corrupt`] on unknown kinds, wrong per-kind payload
    /// lengths, payloads beyond [`MAX_PAYLOAD`], or invalid payload
    /// content — a full page that is not its digest's filler included.
    /// Never panics, allocates nothing but a bulk exchange's digests,
    /// and for those no more than a small multiple of the payload bytes
    /// that actually arrived.
    pub fn read_from<R: std::io::Read>(r: &mut R) -> vecycle_types::Result<WireMsg> {
        let (field, kind, len) = read_header(r)?;
        let expect = |want: usize, what: &str| -> vecycle_types::Result<()> {
            if len != want {
                return Err(Error::Corrupt {
                    detail: format!("{what} payload length {len}, expected {want}"),
                });
            }
            Ok(())
        };
        match kind {
            kind::FULL => {
                expect(FULL_PAYLOAD, "full-page")?;
                read_full(r, field)
            }
            kind::CHECKSUM => {
                expect(PageDigest::LEN, "checksum")?;
                let mut digest = [0u8; PageDigest::LEN];
                r.read_exact(&mut digest)?;
                Ok(WireMsg::Checksum {
                    idx: field,
                    digest: PageDigest::new(digest),
                })
            }
            kind::DEDUP_REF => {
                expect(8, "dedup-ref")?;
                let mut source = [0u8; 8];
                r.read_exact(&mut source)?;
                Ok(WireMsg::DedupRef {
                    idx: field,
                    source: u64::from_be_bytes(source),
                })
            }
            kind::ZERO => {
                expect(1, "zero-marker")?;
                let mut pad = [0u8; 1];
                r.read_exact(&mut pad)?;
                if pad[0] != 0 {
                    return Err(Error::Corrupt {
                        detail: format!("zero-marker pad byte {}", pad[0]),
                    });
                }
                Ok(WireMsg::Zero { idx: field })
            }
            kind::ROUND_END => {
                expect(0, "round-end")?;
                Ok(WireMsg::RoundEnd { round: field })
            }
            kind::STOP_END => {
                expect(0, "stop-end")?;
                Ok(WireMsg::StopEnd)
            }
            kind::BULK_EXCHANGE => {
                let first = |count: usize| Ok(Vec::with_capacity(count.min(BULK_CHUNK)));
                let digests = read_bulk_payload(r, field, len, first, |digests, d| {
                    push_arrived(digests, field as usize, d);
                    Ok(())
                })?;
                Ok(WireMsg::BulkExchange { digests })
            }
            other => Err(Error::Corrupt {
                detail: format!("unknown wire message kind {other}"),
            }),
        }
    }
}

/// Appends a bulk exchange of `digests` to `chunk`, writing `chunk` out
/// to `w` whenever the next digest would take it past `limit` bytes; the
/// tail left in `chunk` is the caller's to write.
///
/// # Errors
///
/// The first error writing to `w`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`].
pub fn write_bulk_exchange<W: std::io::Write>(
    digests: impl ExactSizeIterator<Item = PageDigest>,
    chunk: &mut Vec<u8>,
    limit: usize,
    w: &mut W,
) -> std::io::Result<()> {
    let len = digests.len() * PageDigest::LEN;
    assert!(len <= MAX_PAYLOAD, "bulk exchange exceeds length field");
    put_header(chunk, digests.len() as u64, kind::BULK_EXCHANGE, len);
    for d in digests {
        if chunk.len() + PageDigest::LEN > limit {
            w.write_all(chunk)?;
            chunk.clear();
        }
        chunk.extend_from_slice(d.as_bytes());
    }
    Ok(())
}

/// Appends a message header.
fn put_header(out: &mut Vec<u8>, field: u64, kind: u8, len: usize) {
    out.extend_from_slice(&field.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
}

/// Reads a message header — field, kind, payload length — in one read:
/// two cost a second buffered-read call, slower on a warm stream.
#[inline]
fn read_header<R: std::io::Read>(r: &mut R) -> std::io::Result<(u64, u8, usize)> {
    let mut h = [0u8; HEADER];
    r.read_exact(&mut h)?;
    let field = u64::from_be_bytes(h[..8].try_into().expect("8 bytes"));
    let len = u32::from_be_bytes([0, h[9], h[10], h[11]]) as usize;
    Ok((field, h[8], len))
}

/// Reads the payload of page `idx`'s `Full` and refuses it unless the
/// page is its digest's filler. Out of line, so the payload sits in this
/// frame only: a page-sized array in the frame of an inlined decoder
/// slowed every message, full page or not.
#[inline(never)]
fn read_full<R: std::io::Read>(r: &mut R, idx: u64) -> vecycle_types::Result<WireMsg> {
    let mut payload = [0u8; FULL_PAYLOAD];
    r.read_exact(&mut payload)?;
    if !is_filler(&payload) {
        return Err(Error::Corrupt {
            detail: format!("full page {idx} bytes do not match the digest filler"),
        });
    }
    let digest = PageDigest::new(payload[..PageDigest::LEN].try_into().expect("16 bytes"));
    Ok(WireMsg::Full { idx, digest })
}

/// Whether a `Full` payload — the digest, then the page — is the digest
/// repeated end to end: it equals itself shifted by one digest. One block
/// compare rather than one per 16 bytes.
fn is_filler(payload: &[u8; FULL_PAYLOAD]) -> bool {
    payload[PageDigest::LEN..] == payload[..FULL_PAYLOAD - PageDigest::LEN]
}

/// Digests per bounded read of a bulk-exchange payload (16 KiB).
const BULK_CHUNK: usize = 1024;

/// Reads a bulk exchange as it arrives: `admit` makes the sink from the
/// header's checked count (or refuses it) before any payload byte is
/// read, and `push` hands the sink each digest in wire order.
///
/// # Errors
///
/// [`WireMsg::read_from`]'s for the message, a message of another kind,
/// and the first error of `admit` or `push`.
pub fn read_bulk_exchange<R: std::io::Read, T>(
    r: &mut R,
    admit: impl FnOnce(usize) -> vecycle_types::Result<T>,
    push: impl FnMut(&mut T, PageDigest) -> vecycle_types::Result<()>,
) -> vecycle_types::Result<T> {
    let (field, kind, len) = read_header(r)?;
    if kind != kind::BULK_EXCHANGE {
        return Err(Error::Corrupt {
            detail: format!("expected the bulk checksum exchange, got wire message kind {kind}"),
        });
    }
    read_bulk_payload(r, field, len, admit, push)
}

/// Appends `d` to a list of `count` digests begun at one chunk, growing
/// it by what has *arrived*: once full, to at most four times the
/// digests read, capped at `count`. A header declaring 16 MiB over a
/// short body costs one chunk; an honest payload is never held twice.
fn push_arrived(digests: &mut Vec<PageDigest>, count: usize, d: PageDigest) {
    if digests.len() == digests.capacity() {
        digests.reserve_exact((digests.len() * 3).min(count - digests.len()));
    }
    digests.push(d);
}

/// The one bulk-payload loop. The header's count `field` is checked
/// against its payload length `len`, which caps it at 16 MiB, before
/// `admit` sizes anything; then one stack chunk per [`BULK_CHUNK`].
fn read_bulk_payload<R: std::io::Read, T>(
    r: &mut R,
    field: u64,
    len: usize,
    admit: impl FnOnce(usize) -> vecycle_types::Result<T>,
    mut push: impl FnMut(&mut T, PageDigest) -> vecycle_types::Result<()>,
) -> vecycle_types::Result<T> {
    let need = field.checked_mul(16).ok_or_else(|| Error::Corrupt {
        detail: format!("bulk-exchange count {field} overflows payload size"),
    })?;
    if need != len as u64 {
        return Err(Error::Corrupt {
            detail: format!("bulk-exchange payload length {len} != 16 x count {field}"),
        });
    }
    let count = field as usize;
    let mut into = admit(count)?;
    let mut chunk = [0u8; BULK_CHUNK * PageDigest::LEN];
    for at in (0..count).step_by(BULK_CHUNK) {
        let bytes = &mut chunk[..(count - at).min(BULK_CHUNK) * PageDigest::LEN];
        r.read_exact(bytes)?;
        for d in bytes.chunks_exact(PageDigest::LEN) {
            push(&mut into, PageDigest::new(d.try_into().expect("16 bytes")))?;
        }
    }
    Ok(into)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(n: u64) -> PageDigest {
        PageDigest::from_content_id(n)
    }

    /// Page `idx` in full, with content `n`.
    fn full(idx: u64, n: u64) -> WireMsg {
        WireMsg::Full {
            idx,
            digest: digest(n),
        }
    }

    fn round_trip(msg: &WireMsg) -> WireMsg {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(
            buf.len() as u64,
            msg.encoded_len().as_u64(),
            "encoded length must equal the analytic price"
        );
        let mut r = &buf[..];
        let back = WireMsg::read_from(&mut r).unwrap();
        assert!(r.is_empty(), "decoder must consume the whole message");
        back
    }

    fn every_variant() -> [WireMsg; 7] {
        [
            full(7, 1),
            WireMsg::Checksum {
                idx: 8,
                digest: digest(2),
            },
            WireMsg::DedupRef { idx: 9, source: 3 },
            WireMsg::Zero { idx: 10 },
            WireMsg::RoundEnd { round: 4 },
            WireMsg::StopEnd,
            WireMsg::BulkExchange {
                digests: (0..100).map(digest).collect(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_at_its_priced_size() {
        for msg in &every_variant() {
            assert_eq!(&round_trip(msg), msg);
        }
    }

    #[test]
    fn prices_are_pinned_per_variant() {
        assert_eq!(full(0, 0).encoded_len(), wire::full_page_msg());
        assert_eq!(
            WireMsg::Checksum {
                idx: 0,
                digest: digest(0)
            }
            .encoded_len(),
            wire::checksum_msg()
        );
        assert_eq!(
            WireMsg::DedupRef { idx: 0, source: 0 }.encoded_len(),
            wire::dedup_ref_msg()
        );
        assert_eq!(
            WireMsg::Zero { idx: 0 }.encoded_len(),
            wire::zero_page_msg()
        );
        assert_eq!(
            WireMsg::RoundEnd { round: 1 }.encoded_len().as_u64(),
            wire::MSG_HEADER
        );
        assert_eq!(WireMsg::StopEnd.encoded_len().as_u64(), wire::MSG_HEADER);
        let digests: Vec<_> = (0..37).map(digest).collect();
        assert_eq!(
            WireMsg::BulkExchange { digests }.encoded_len(),
            wire::bulk_exchange(37)
        );
    }

    #[test]
    fn truncated_input_is_io_error_not_panic() {
        let mut buf = Vec::new();
        full(1, 5).encode(&mut buf);
        for cut in [0, 5, HEADER, HEADER + 10, buf.len() - 1] {
            let err = WireMsg::read_from(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, Error::Io { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn unknown_kind_is_corrupt() {
        let mut buf = Vec::new();
        WireMsg::Zero { idx: 0 }.encode(&mut buf);
        buf[8] = 0xEE;
        let err = WireMsg::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn wrong_payload_length_is_corrupt() {
        let mut buf = Vec::new();
        WireMsg::Checksum {
            idx: 0,
            digest: digest(1),
        }
        .encode(&mut buf);
        buf[11] = 17; // declare one extra byte
        let err = WireMsg::read_from(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
    }

    #[test]
    fn bulk_count_mismatch_and_overflow_are_corrupt() {
        let mut buf = Vec::new();
        WireMsg::BulkExchange {
            digests: (0..4).map(digest).collect(),
        }
        .encode(&mut buf);
        // Forge the count without touching the length field.
        buf[0..8].copy_from_slice(&5u64.to_be_bytes());
        assert!(matches!(
            WireMsg::read_from(&mut &buf[..]),
            Err(Error::Corrupt { .. })
        ));
        // A count whose *16 overflows u64 must fail the checked multiply.
        buf[0..8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(
            WireMsg::read_from(&mut &buf[..]),
            Err(Error::Corrupt { .. })
        ));
        // The streamed reader refuses another kind of message.
        buf[8] = kind::STOP_END;
        let err = read_bulk_exchange(&mut &buf[..], |_| Ok(()), |_, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("got wire message kind 6"), "{err}");
    }

    /// A reader that hands out one byte per `read` call — the worst
    /// fragmentation a socket can produce.
    struct OneByte<'a>(&'a [u8]);

    impl std::io::Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn every_variant_decodes_identically_one_byte_at_a_time() {
        let mut buf = Vec::new();
        let msgs = every_variant();
        for msg in &msgs {
            msg.encode(&mut buf);
        }
        let mut r = OneByte(&buf);
        for msg in &msgs {
            assert_eq!(&WireMsg::read_from(&mut r).unwrap(), msg);
        }
        assert!(r.0.is_empty(), "decoder must consume exactly the stream");
    }

    #[test]
    fn bulk_payloads_round_trip_across_chunk_boundaries() {
        for count in [
            0,
            1,
            BULK_CHUNK - 1,
            BULK_CHUNK,
            BULK_CHUNK + 1,
            5 * BULK_CHUNK + 7,
        ] {
            let msg = WireMsg::BulkExchange {
                digests: (0..count as u64).map(digest).collect(),
            };
            let back = round_trip(&msg);
            assert_eq!(back, msg, "{count} digests");
            let WireMsg::BulkExchange { digests } = back else {
                unreachable!()
            };
            assert!(
                digests.capacity() <= count.max(1),
                "{count} digests held in capacity {}",
                digests.capacity()
            );
        }
    }

    #[test]
    fn bulk_short_body_is_io_error_sized_by_what_arrived() {
        // The largest header the length field can carry, then a body
        // that stops early: an I/O error, and the digests vector never
        // grew past what the bytes present justify.
        let count = (MAX_PAYLOAD / 16) as u64;
        for body_digests in [0usize, 1, BULK_CHUNK, 3 * BULK_CHUNK + 5] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&count.to_be_bytes());
            buf.push(kind::BULK_EXCHANGE);
            buf.extend_from_slice(&((count * 16) as u32).to_be_bytes()[1..4]);
            buf.resize(HEADER + body_digests * 16 + 9, 0xAB);
            let err = WireMsg::read_from(&mut &buf[..]).unwrap_err();
            assert!(matches!(err, Error::Io { .. }), "{body_digests}: {err}");

            // The growth rule: capacity stays within one chunk or 4x
            // the digests already read, whatever the header says.
            let mut digests = Vec::with_capacity(BULK_CHUNK);
            let body = &buf[HEADER..];
            let all = count as usize;
            let push = |v: &mut &mut Vec<PageDigest>, d| {
                push_arrived(v, all, d);
                Ok(())
            };
            let read =
                read_bulk_payload(&mut &body[..], count, all * 16, |_| Ok(&mut digests), push);
            assert!(read.is_err());
            assert_eq!(digests.len(), body.len() / 16 / BULK_CHUNK * BULK_CHUNK);
            assert!(
                digests.capacity() <= (4 * digests.len()).max(BULK_CHUNK),
                "{body_digests}: capacity {}",
                digests.capacity()
            );
        }
    }

    #[test]
    fn nonzero_zero_marker_pad_is_corrupt() {
        let mut buf = Vec::new();
        WireMsg::Zero { idx: 3 }.encode(&mut buf);
        *buf.last_mut().unwrap() = 1;
        assert!(matches!(
            WireMsg::read_from(&mut &buf[..]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn junk_bytes_never_panic() {
        // Deterministic junk: an xorshift stream sliced at many offsets.
        let mut draw = vecycle_types::rng::Xorshift::new(0x9E37_79B9_7F4A_7C15);
        let junk: Vec<u8> = (0..4096).map(|_| draw.next() as u8).collect();
        for start in (0..junk.len()).step_by(61) {
            let _ = WireMsg::read_from(&mut &junk[start..]);
        }
    }

    /// A `Full` encodes its digest, then the digest over the page.
    #[test]
    fn a_full_page_encodes_as_its_digest_repeated() {
        let d = digest(42);
        let mut buf = vec![1, 2];
        WireMsg::Full { idx: 3, digest: d }.encode(&mut buf);
        let payload = &buf[2 + HEADER..];
        assert_eq!(payload.len(), FULL_PAYLOAD);
        for chunk in payload.chunks(16) {
            assert_eq!(chunk, d.as_bytes());
        }
    }

    /// Any payload byte off the filler — in the digest or the page — is
    /// refused with the page's number, after the whole message is read.
    #[test]
    fn a_full_page_off_its_filler_is_refused() {
        let mut buf = Vec::new();
        full(9, 42).encode(&mut buf);
        for at in [HEADER, HEADER + 16, HEADER + 17, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[at] ^= 1;
            let mut r = &bad[..];
            let err = WireMsg::read_from(&mut r).unwrap_err();
            assert_eq!(
                err.to_string(),
                Error::Corrupt {
                    detail: "full page 9 bytes do not match the digest filler".into()
                }
                .to_string(),
                "byte {at} flipped"
            );
            assert!(r.is_empty(), "byte {at}: the message is read whole");
        }
    }
}
