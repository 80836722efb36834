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
//! A page crosses without a page-sized allocation at either end: a
//! sender with no page bytes writes a `Full` through
//! [`encode_full_filler`], and a receiver reads one through
//! [`WireMsg::read_landed`] into a page buffer it reuses. Both move
//! exactly the bytes of the owned forms.

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
    pub const FULL: u8 = 1;
    /// Checksum only — the destination already holds the content.
    pub const CHECKSUM: u8 = 2;
    /// Back-reference to a page sent earlier in this migration.
    pub const DEDUP_REF: u8 = 3;
    /// All-zero page marker.
    pub const ZERO: u8 = 4;
    /// End of one pre-copy round (the per-round control message).
    pub const ROUND_END: u8 = 5;
    /// End of the stop-and-copy flush (the final control message).
    pub const STOP_END: u8 = 6;
    /// Bulk checksum pre-exchange: `count` digests, destination→source.
    pub const BULK_EXCHANGE: u8 = 7;
}

/// One migration message in its on-the-wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// A full page: digest plus `PAGE_SIZE` bytes of content.
    Full {
        /// Guest page number.
        idx: u64,
        /// Content checksum, sent alongside the page.
        digest: PageDigest,
        /// Exactly `PAGE_SIZE` bytes.
        page: Vec<u8>,
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
        /// Distinct digests, in the destination index's sorted order.
        digests: Vec<PageDigest>,
    },
}

/// Payload bytes of a `Full`: the digest, then the page.
const FULL_PAYLOAD: usize = PageDigest::LEN + PAGE_SIZE as usize;

/// Whether `page` is `digest` repeated end to end — the digest-level
/// stand-in for page bytes. An empty `page` passes: it is a `Full` in
/// its landed `idx ‖ digest` form, whose bytes were checked where they
/// were read. Two block compares (the head is the digest, and the page
/// equals itself shifted by one digest) rather than one per 16 bytes.
pub fn is_filler(page: &[u8], digest: &PageDigest) -> bool {
    let d = digest.as_bytes();
    page.is_empty()
        || (page.len().is_multiple_of(d.len())
            && page.starts_with(d)
            && page[d.len()..] == page[..page.len() - d.len()])
}

impl WireMsg {
    /// Builds a `Full` message whose page bytes are the digest-level
    /// filler: the 16-byte digest repeated to fill the page. Digest
    /// sources carry no real bytes; the filler keeps the message at
    /// full wire size and lets the receiver verify content integrity.
    pub fn full_filler(idx: u64, digest: PageDigest) -> WireMsg {
        let mut page = Vec::with_capacity(PAGE_SIZE as usize);
        while page.len() < PAGE_SIZE as usize {
            page.extend_from_slice(digest.as_bytes());
        }
        WireMsg::Full { idx, digest, page }
    }

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

    /// Appends the encoded message to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a `Full` page is not exactly `PAGE_SIZE` bytes or a
    /// `BulkExchange` exceeds [`MAX_PAYLOAD`] — both are construction
    /// bugs, not runtime conditions (use [`WireMsg::full_filler`] and
    /// page-count validation upstream).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireMsg::Full { idx, digest, page } => {
                assert_eq!(page.len() as u64, PAGE_SIZE, "full page must be PAGE_SIZE");
                put_header(out, *idx, kind::FULL, FULL_PAYLOAD);
                out.extend_from_slice(digest.as_bytes());
                out.extend_from_slice(page);
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
            WireMsg::BulkExchange { digests } => encode_bulk_exchange(digests, out),
        }
    }

    /// Reads one message from `r`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on short reads (including EOF mid-message) and
    /// [`Error::Corrupt`] on unknown kinds, wrong per-kind payload
    /// lengths, payloads beyond [`MAX_PAYLOAD`], or invalid payload
    /// content. Never panics, never allocates more than the declared
    /// (validated) payload length, and for a bulk exchange no more than
    /// a small multiple of the payload bytes that actually arrived.
    pub fn read_from<R: std::io::Read>(r: &mut R) -> vecycle_types::Result<WireMsg> {
        read_msg(r, None)
    }

    /// Reads one message from `r` as a receiver that keeps no page does:
    /// a `Full`'s page bytes are read into `page`, and the message comes
    /// back in its landed `idx ‖ digest` form, with no page bytes of its
    /// own. Every other kind, and every error, is exactly
    /// [`WireMsg::read_from`]'s. Allocates nothing but a bulk exchange's
    /// digests, so one `page` serves a whole stream.
    ///
    /// # Errors
    ///
    /// As [`WireMsg::read_from`].
    pub fn read_landed<R: std::io::Read>(
        r: &mut R,
        page: &mut [u8; PAGE_SIZE as usize],
    ) -> vecycle_types::Result<WireMsg> {
        read_msg(r, Some(page))
    }
}

/// Appends exactly what `WireMsg::full_filler(idx, digest).encode(out)`
/// appends — header, digest, then the digest repeated over the page —
/// without building the page first.
pub fn encode_full_filler(idx: u64, digest: PageDigest, out: &mut Vec<u8>) {
    put_header(out, idx, kind::FULL, FULL_PAYLOAD);
    let start = out.len();
    out.extend_from_slice(digest.as_bytes());
    // The payload is one digest after another, so it doubles itself.
    while out.len() - start < FULL_PAYLOAD {
        let have = out.len() - start;
        out.extend_from_within(start..start + have.min(FULL_PAYLOAD - have));
    }
}

/// Appends a bulk exchange of `digests` — what
/// `WireMsg::BulkExchange { digests }.encode(out)` appends, from a
/// borrowed list.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_bulk_exchange(digests: &[PageDigest], out: &mut Vec<u8>) {
    let len = digests.len() * PageDigest::LEN;
    assert!(len <= MAX_PAYLOAD, "bulk exchange exceeds length field");
    put_header(out, digests.len() as u64, kind::BULK_EXCHANGE, len);
    for d in digests {
        out.extend_from_slice(d.as_bytes());
    }
}

/// Appends a header and reserves room for its `len`-byte payload.
fn put_header(out: &mut Vec<u8>, field: u64, kind: u8, len: usize) {
    out.reserve(HEADER + len);
    out.extend_from_slice(&field.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
}

/// Reads one message — the decoder behind both [`WireMsg::read_from`]
/// and [`WireMsg::read_landed`]: a `Full`'s page goes into `page` when
/// given (and the message keeps none), into a fresh vector otherwise.
/// The declared payload length is checked against the kind's before
/// any payload byte is read.
fn read_msg<R: std::io::Read>(
    r: &mut R,
    page: Option<&mut [u8; PAGE_SIZE as usize]>,
) -> vecycle_types::Result<WireMsg> {
    // One 12-byte read: split into an 8- and a 4-byte read, the header
    // costs a second buffered-read call per message, which measured
    // slower on a warm stream than the load it saves.
    let mut header = [0u8; HEADER];
    r.read_exact(&mut header)?;
    let field = u64::from_be_bytes(header[0..8].try_into().expect("8 bytes"));
    let kind = header[8];
    let len = u32::from_be_bytes([0, header[9], header[10], header[11]]) as usize;
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
            let mut digest = [0u8; PageDigest::LEN];
            r.read_exact(&mut digest)?;
            let page = match page {
                Some(buf) => {
                    r.read_exact(buf)?;
                    Vec::new()
                }
                None => {
                    let mut page = vec![0u8; PAGE_SIZE as usize];
                    r.read_exact(&mut page)?;
                    page
                }
            };
            Ok(WireMsg::Full {
                idx: field,
                digest: PageDigest::new(digest),
                page,
            })
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
            // The declared count is peer-controlled: checked multiply,
            // and the length-field equality bounds it by the 16 MiB
            // payload cap before `read_digests` sizes anything.
            let need = field.checked_mul(16).ok_or_else(|| Error::Corrupt {
                detail: format!("bulk-exchange count {field} overflows payload size"),
            })?;
            if need != len as u64 {
                return Err(Error::Corrupt {
                    detail: format!("bulk-exchange payload length {len} != 16 x count {field}"),
                });
            }
            let mut digests = Vec::new();
            read_digests(r, field as usize, &mut digests)?;
            Ok(WireMsg::BulkExchange { digests })
        }
        other => Err(Error::Corrupt {
            detail: format!("unknown wire message kind {other}"),
        }),
    }
}

/// Digests per bounded read of a bulk-exchange payload (16 KiB).
const BULK_CHUNK: usize = 1024;

/// Appends `count` digests to the empty `digests`, one bounded read per
/// [`BULK_CHUNK`]. The vector is sized by what has *arrived*, not by
/// what the header declared: it starts at one chunk and grows to at
/// most four times the digests already read, capped at `count`, so a
/// header declaring 16 MiB over a short body costs one chunk and an
/// honest payload is never held twice.
fn read_digests<R: std::io::Read>(
    r: &mut R,
    count: usize,
    digests: &mut Vec<PageDigest>,
) -> std::io::Result<()> {
    digests.reserve_exact(count.min(BULK_CHUNK));
    let mut chunk = [0u8; BULK_CHUNK * PageDigest::LEN];
    while digests.len() < count {
        let n = (count - digests.len()).min(BULK_CHUNK);
        let bytes = &mut chunk[..n * PageDigest::LEN];
        r.read_exact(bytes)?;
        if digests.len() == digests.capacity() {
            digests.reserve_exact((digests.len() * 3).min(count - digests.len()));
        }
        digests.extend(
            bytes
                .chunks_exact(PageDigest::LEN)
                .map(|d| PageDigest::new(d.try_into().expect("16-byte chunk"))),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(n: u64) -> PageDigest {
        PageDigest::from_content_id(n)
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
            WireMsg::full_filler(7, digest(1)),
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
        assert_eq!(
            WireMsg::full_filler(0, digest(0)).encoded_len(),
            wire::full_page_msg()
        );
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
        WireMsg::full_filler(1, digest(5)).encode(&mut buf);
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
            let mut digests = Vec::new();
            let body = &buf[HEADER..];
            assert!(read_digests(&mut &body[..], count as usize, &mut digests).is_err());
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
        let mut page = [0u8; PAGE_SIZE as usize];
        for start in (0..junk.len()).step_by(61) {
            let owned = WireMsg::read_from(&mut &junk[start..]).map(|msg| landed(&msg));
            let kept = WireMsg::read_landed(&mut &junk[start..], &mut page);
            assert_eq!(
                format!("{owned:?}"),
                format!("{kept:?}"),
                "offset {start}: both decoders agree"
            );
        }
    }

    /// `msg` as [`WireMsg::read_landed`] returns it.
    fn landed(msg: &WireMsg) -> WireMsg {
        match msg {
            WireMsg::Full { idx, digest, .. } => WireMsg::Full {
                idx: *idx,
                digest: *digest,
                page: Vec::new(),
            },
            other => other.clone(),
        }
    }

    #[test]
    fn read_landed_decodes_every_variant_with_the_page_in_the_buffer() {
        let mut buf = Vec::new();
        let msgs = every_variant();
        for msg in &msgs {
            msg.encode(&mut buf);
        }
        let mut r = OneByte(&buf);
        let mut page = [0u8; PAGE_SIZE as usize];
        for msg in &msgs {
            let got = WireMsg::read_landed(&mut r, &mut page).unwrap();
            assert_eq!(got, landed(msg));
            if let WireMsg::Full { page: sent, .. } = msg {
                assert_eq!(&page[..], &sent[..], "the page bytes land in the buffer");
            }
        }
        assert!(r.0.is_empty(), "decoder must consume exactly the stream");
    }

    #[test]
    fn the_filler_encoder_writes_what_full_filler_encodes() {
        for idx in [0, 7, u64::MAX] {
            let d = digest(idx ^ 3);
            let (mut built, mut direct) = (vec![1, 2], vec![1, 2]);
            WireMsg::full_filler(idx, d).encode(&mut built);
            encode_full_filler(idx, d, &mut direct);
            assert_eq!(direct, built, "page {idx}");
        }
    }

    #[test]
    fn filler_page_is_digest_repeated() {
        let d = digest(42);
        let WireMsg::Full { page, .. } = WireMsg::full_filler(0, d) else {
            panic!("full_filler must build Full");
        };
        assert_eq!(page.len() as u64, PAGE_SIZE);
        for chunk in page.chunks(16) {
            assert_eq!(chunk, d.as_bytes());
        }
    }

    #[test]
    fn is_filler_accepts_the_filler_and_the_landed_form_only() {
        let d = digest(42);
        let WireMsg::Full { mut page, .. } = WireMsg::full_filler(0, d) else {
            unreachable!("full_filler builds Full")
        };
        assert!(is_filler(&page, &d) && is_filler(&[], &d));
        assert!(!is_filler(&page, &digest(43)));
        assert!(!is_filler(&page[..100], &d), "a torn page");
        for at in [0, 16, 4095] {
            page[at] ^= 1;
            assert!(!is_filler(&page, &d), "byte {at} flipped");
            page[at] ^= 1;
        }
    }
}
