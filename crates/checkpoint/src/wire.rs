//! On-disk serialization of checkpoints, with corruption detection.
//!
//! Every file is a 32-byte big-endian header (magic, version, kind,
//! reserved, VM id, timestamp, page count), a payload, and an 8-byte
//! FNV-1a 64 trailer. Two layouts exist:
//!
//! | kind | version | payload | trailer covers |
//! |---|---|---|---|
//! | digests | 1 | 16-byte digest per page | header + payload |
//! | pages | 2 | digest table (16 bytes per page) ‖ page bytes | header + table |
//!
//! A page file of any other version (the table-less version 1 of older
//! releases) is refused by its version: an unreadable checkpoint is a
//! miss, and the migration runs without it.
//!
//! In a version-2 page file the digest table *is* the page check: the
//! trailer guards header and table, and the load pass — which has to
//! derive every page's MD5 anyway, because that is what a checkpoint is
//! recycled by — rejects any page whose digest differs from its table
//! entry. Digests are never trusted from disk; the table a loaded
//! checkpoint carries is the one computed from the bytes read.
//!
//! Both directions stream. [`Checkpoint::read_from`] reads header, table
//! and then every page straight into the buffer that page will live in;
//! [`Checkpoint::write_to`] hands the pages' buffers to the writer a
//! megabyte of slices at a time. Neither stages a guest-sized copy.

use std::io::{self, IoSlice, IoSliceMut, Read};

use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_mem::PageBuf;
use vecycle_types::{Error, PageDigest, SimTime, VmId, PAGE_SIZE};

use crate::{Checkpoint, CheckpointData};

const MAGIC: &[u8; 8] = b"VECYCHK1";
const HEADER: usize = 32;
const TRAILER: usize = 8;
const DIGEST: usize = 16;
/// Digest files.
const VERSION: u16 = 1;
/// Page files carrying a digest table.
const VERSION_TABLED: u16 = 2;
const KIND_DIGESTS: u8 = 0;
const KIND_PAGES: u8 = 1;
/// Page buffers handed to one vectored read or write: 1 MiB.
const IO_BATCH: usize = 256;

/// How the bytes between header and trailer are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Digests,
    TabledPages,
}

impl Layout {
    fn of(version: u16, kind: u8) -> vecycle_types::Result<Layout> {
        match (version, kind) {
            (VERSION, KIND_DIGESTS) => Ok(Layout::Digests),
            (VERSION_TABLED, KIND_PAGES) => Ok(Layout::TabledPages),
            (VERSION | VERSION_TABLED, kind) if kind > KIND_PAGES => Err(Error::Corrupt {
                detail: format!("unknown checkpoint kind {kind}"),
            }),
            _ => Err(Error::Corrupt {
                detail: format!("unsupported checkpoint version {version} (kind {kind})"),
            }),
        }
    }

    /// Payload bytes one page occupies in a file of this layout.
    fn bytes_per_page(self) -> u64 {
        match self {
            Layout::Digests => DIGEST as u64,
            Layout::TabledPages => DIGEST as u64 + PAGE_SIZE,
        }
    }
}

/// The fixed 32 bytes every checkpoint file starts with.
struct Header {
    layout: Layout,
    vm: VmId,
    taken_at: SimTime,
    /// Declared page count. Attacker-controlled (a refixed trailer gets
    /// a forged header this far): nothing is ever sized from it — every
    /// reader grows with the bytes it actually receives.
    pages: u64,
    /// Payload bytes `pages` implies for this layout.
    payload: u64,
}

impl Header {
    fn parse(head: &[u8]) -> vecycle_types::Result<Header> {
        // Magic 0..8, version 8..10, kind 10, reserved 11, VM id 12..16,
        // timestamp 16..24, page count 24..32.
        let head = &head[..HEADER];
        if &head[..8] != MAGIC {
            return Err(Error::Corrupt {
                detail: "bad checkpoint magic".into(),
            });
        }
        let u64_at = |at: usize| u64::from_be_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        let layout = Layout::of(u16::from_be_bytes([head[8], head[9]]), head[10])?;
        let vm = VmId::new(u32::from_be_bytes([head[12], head[13], head[14], head[15]]));
        let taken_at = SimTime::from_epoch(vecycle_types::SimDuration::from_nanos(u64_at(16)));
        let pages = u64_at(24);
        let payload = pages
            .checked_mul(layout.bytes_per_page())
            .ok_or_else(|| Error::Corrupt {
                detail: format!("declared page count {pages} overflows the payload size"),
            })?;
        Ok(Header {
            layout,
            vm,
            taken_at,
            pages,
            payload,
        })
    }

    /// Bytes of digest table (or digest payload) after the header.
    fn table_len(&self) -> u64 {
        self.pages * DIGEST as u64
    }

    /// The declared count must account for exactly the payload bytes
    /// present.
    fn check_payload(&self, present: u64) -> vecycle_types::Result<()> {
        if present == self.payload {
            return Ok(());
        }
        Err(Error::Corrupt {
            detail: format!(
                "payload length {present} != {} expected for {} declared pages",
                self.payload, self.pages
            ),
        })
    }
}

/// Estimates how many pages a file of `file_len` bytes held, from the
/// kind its first bytes (`head`) declare — for files that failed
/// validation, whose payload is untrustworthy. A page file of any
/// version counts as table entry and page bytes per page; anything else
/// falls back to the densest layout (one 16-byte digest per page).
pub(crate) fn estimated_pages(head: &[u8], file_len: u64) -> u64 {
    let per_page = match head.get(..LAYOUT_PREFIX) {
        Some([magic @ .., _, _, KIND_PAGES]) if magic == MAGIC => {
            Layout::TabledPages.bytes_per_page()
        }
        _ => DIGEST as u64,
    };
    file_len.saturating_sub((HEADER + TRAILER) as u64) / per_page
}

/// Bytes [`estimated_pages`] wants from the start of a file: magic,
/// version, kind.
pub(crate) const LAYOUT_PREFIX: usize = 11;

/// Fills `bufs` from `r` in as few reads as `r` needs, stopping early
/// only where the input ends. Returns the bytes read.
fn read_full<R: Read>(r: &mut R, mut bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
    let mut got = 0;
    while !bufs.is_empty() {
        match r.read_vectored(bufs) {
            Ok(0) => break,
            Ok(n) => {
                got += n;
                IoSliceMut::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Reads up to `count` pages, each into a fresh buffer of its own pushed
/// onto `pages`, and returns the bytes read — fewer than `count` pages'
/// worth where the input ends. Batches double up to [`IO_BATCH`], so the
/// buffers allocated ahead of a read never exceed what earlier reads
/// delivered plus one page, whatever `count` claims.
fn read_pages<R: Read>(r: &mut R, count: u64, pages: &mut Vec<PageBuf>) -> io::Result<u64> {
    let (mut got, mut left, mut batch) = (0u64, count, 1usize);
    while left > 0 {
        let n = left.min(batch as u64) as usize;
        let start = pages.len();
        pages.extend(std::iter::repeat_with(PageBuf::new_page).take(n));
        let mut slices: Vec<IoSliceMut<'_>> = pages[start..]
            .iter_mut()
            .map(|page| IoSliceMut::new(page.get_mut().expect("fresh buffers are unshared")))
            .collect();
        let read = read_full(r, &mut slices)?;
        got += read as u64;
        if read < n * PAGE_SIZE as usize {
            break;
        }
        left -= n as u64;
        batch = (batch * 2).min(IO_BATCH);
    }
    Ok(got)
}

/// Writes every page, [`IO_BATCH`] buffers per vectored call.
fn write_pages<W: io::Write>(w: &mut W, pages: &[PageBuf]) -> io::Result<()> {
    for batch in pages.chunks(IO_BATCH) {
        let mut slices: Vec<IoSlice<'_>> = batch.iter().map(|page| IoSlice::new(page)).collect();
        let mut left = &mut slices[..];
        while !left.is_empty() {
            match w.write_vectored(left) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

impl Checkpoint {
    /// Serializes the checkpoint to `w` (layouts in the module docs).
    ///
    /// A digest checkpoint is header ‖ digests ‖ trailer. A full-byte
    /// checkpoint is header ‖ digest table ‖ page bytes ‖ trailer, the
    /// trailer covering header and table: the page bytes are written
    /// straight from the pages' own buffers and guarded by their table
    /// entries, so saving hashes nothing the checkpoint does not already
    /// know and copies nothing on its way to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: io::Write>(&self, mut w: W) -> vecycle_types::Result<()> {
        let (version, kind, pages): (u16, u8, &[PageBuf]) = match self.data() {
            CheckpointData::Digests(_) => (VERSION, KIND_DIGESTS, &[]),
            CheckpointData::Pages(pages) => (VERSION_TABLED, KIND_PAGES, pages),
        };
        let table = self.digest_table();
        let mut head = Vec::with_capacity(HEADER + table.len() * DIGEST);
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&version.to_be_bytes());
        head.extend_from_slice(&[kind, 0]); // kind, reserved
        head.extend_from_slice(&self.vm().as_u32().to_be_bytes());
        head.extend_from_slice(&self.taken_at().since_epoch().as_nanos().to_be_bytes());
        head.extend_from_slice(&self.page_count().as_u64().to_be_bytes());
        for digest in table {
            head.extend_from_slice(digest.as_bytes());
        }
        w.write_all(&head)?;
        write_pages(&mut w, pages)?;
        w.write_all(&Fnv1a64::digest(&head))?;
        Ok(())
    }

    /// Length of the prefix of a checkpoint `file` that its FNV trailer
    /// covers: header and digest table for a well-formed version-2 page
    /// file, everything before the trailer otherwise (including any
    /// file the decoder rejects before it looks at the trailer). For
    /// tools that re-seal a modified file — the fuzzer's trailer-fixing
    /// mutator.
    pub fn trailer_coverage(file: &[u8]) -> usize {
        let body = file.len().saturating_sub(TRAILER);
        let table_end = body.checked_sub(HEADER).and_then(|payload| {
            let header = Header::parse(file).ok()?;
            let tabled = header.layout == Layout::TabledPages
                && header.check_payload(payload as u64).is_ok();
            tabled.then(|| HEADER + header.table_len() as usize)
        });
        table_end.unwrap_or(body)
    }

    /// Deserializes a checkpoint previously written by
    /// [`Checkpoint::write_to`].
    ///
    /// Reads the input once, front to back: the header, the digest table
    /// as far as the input supplies it, then each page into the buffer
    /// it will live in. A page payload is digested in one multi-lane
    /// pass; the resulting table is checked against the stored one and
    /// kept by the returned checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic, version, kind, a payload
    /// length that disagrees with the declared page count, trailer
    /// mismatch, or a page whose digest differs from its table entry
    /// (naming the page), and [`Error::Io`] on read failures.
    pub fn read_from<R: Read>(mut r: R) -> vecycle_types::Result<Checkpoint> {
        // The shortest file is a header and a trailer.
        let mut head = [0u8; HEADER + TRAILER];
        let got = read_full(&mut r, &mut [IoSliceMut::new(&mut head)])?;
        if got < head.len() {
            return Err(Error::Corrupt {
                detail: format!("checkpoint file too short: {got} bytes"),
            });
        }
        let (head, peeked) = head.split_at(HEADER);
        let header = Header::parse(head)?;
        // What followed the header is payload, or already the trailer.
        let mut r = peeked.chain(r);
        let mut covered = Fnv1a64::new();
        covered.update(head);

        // `got` counts the bytes after the header; a stage runs only if
        // the ones before it found all their bytes.
        let mut table = Vec::new();
        let mut got = (&mut r).take(header.table_len()).read_to_end(&mut table)? as u64;
        covered.update(&table);
        let mut pages = Vec::new();
        if got == header.table_len() && header.layout != Layout::Digests {
            got += read_pages(&mut r, header.pages, &mut pages)?;
        }
        let mut trailer = [0u8; TRAILER];
        if got == header.payload {
            got += read_full(&mut r, &mut [IoSliceMut::new(&mut trailer)])? as u64;
        }
        if got.checked_sub(TRAILER as u64) == Some(header.payload) {
            got += io::copy(&mut r, &mut io::sink())?; // must be nothing
        }
        // At least the eight peeked bytes were counted.
        header.check_payload(got - TRAILER as u64)?;
        if covered.finalize() != trailer {
            return Err(Error::Corrupt {
                detail: "checkpoint trailer checksum mismatch".into(),
            });
        }

        let stored = table.chunks_exact(DIGEST);
        if header.layout == Layout::Digests {
            let digests = stored
                .map(|d| PageDigest::new(d.try_into().expect("16-byte chunks")))
                .collect();
            return Checkpoint::from_parts(
                header.vm,
                header.taken_at,
                CheckpointData::Digests(digests),
            );
        }
        let views: Vec<&[u8]> = pages.iter().map(|page| &page[..]).collect();
        let digests = vecycle_hash::digest_pages(&views);
        if let Some(page) = digests
            .iter()
            .zip(stored)
            .position(|(computed, stored)| computed.as_bytes()[..] != *stored)
        {
            return Err(Error::Corrupt {
                detail: format!("checkpoint page {page} does not match its stored digest"),
            });
        }
        Ok(Checkpoint::from_pages_with_digests(
            header.vm,
            header.taken_at,
            pages,
            digests,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::{ByteMemory, DigestMemory};
    use vecycle_types::{PageCount, PageIndex, SimDuration};

    fn sample() -> Checkpoint {
        let mem = DigestMemory::with_distinct_content(PageCount::new(32), 3);
        Checkpoint::capture(
            VmId::new(7),
            SimTime::EPOCH + SimDuration::from_hours(5),
            &mem,
        )
    }

    #[test]
    fn digest_checkpoint_round_trips() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        let back = Checkpoint::read_from(&file[..]).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn byte_checkpoint_round_trips() {
        let mem = ByteMemory::with_distinct_content(PageCount::new(4), 11);
        let cp = Checkpoint::capture_bytes(VmId::new(1), SimTime::EPOCH, &mem);
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        let back = Checkpoint::read_from(&file[..]).unwrap();
        assert_eq!(back, cp);
        assert!(back.restore_byte_memory().unwrap().content_equals(&mem));
    }

    #[test]
    fn truncation_is_detected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        for cut in [file.len() - 1, file.len() / 2, 10] {
            let err = Checkpoint::read_from(&file[..cut]).unwrap_err();
            assert!(matches!(err, Error::Corrupt { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        let mid = file.len() / 2;
        file[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::read_from(&file[..]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        file[0] = b'X';
        // Trailer now mismatches too; either way it must fail Corrupt.
        assert!(matches!(
            Checkpoint::read_from(&file[..]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        // Bump version and re-fix the trailer so only the version differs.
        file[9] = 2;
        let body_len = file.len() - 8;
        let mut fnv = Fnv1a64::new();
        fnv.update(&file[..body_len]);
        let t = fnv.finalize();
        file[body_len..].copy_from_slice(&t);
        let err = Checkpoint::read_from(&file[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    /// Recomputes the FNV trailer of `file` so a forged header or table
    /// passes the integrity check and reaches the checks behind it.
    fn refix_trailer(file: &mut [u8]) {
        let trailer = Fnv1a64::digest(&file[..Checkpoint::trailer_coverage(file)]);
        let body_len = file.len() - TRAILER;
        file[body_len..].copy_from_slice(&trailer);
    }

    #[test]
    fn forged_page_count_is_rejected_before_allocating() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        // Page count lives at offset 24 (magic 8 + version 2 + kind 1 +
        // reserved 1 + vm 4 + timestamp 8). Forge counts whose naive
        // `pages * 16` wraps to a small (or matching) value, plus a
        // plainly huge one: all must fail Corrupt without a giant
        // pre-allocation or an overflow panic.
        for forged in [
            u64::MAX,
            u64::MAX / 16 + 1,
            (1u64 << 60) + cp.page_count().as_u64(), // wraps to the real count * 16
            1 << 32,
        ] {
            let mut f = file.clone();
            f[24..32].copy_from_slice(&forged.to_be_bytes());
            refix_trailer(&mut f);
            let err = Checkpoint::read_from(&f[..]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt { .. }),
                "pages={forged}: {err}"
            );
        }
    }

    #[test]
    fn forged_kind_with_fixed_trailer_is_rejected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        file[10] = 7; // unknown kind
        refix_trailer(&mut file);
        let err = Checkpoint::read_from(&file[..]).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn empty_input_is_corrupt_not_panic() {
        assert!(matches!(
            Checkpoint::read_from(&[][..]),
            Err(Error::Corrupt { .. })
        ));
    }

    /// The table-less page file (version 1) an older release wrote: 8
    /// pages.
    const V1_PAGES: &[u8] = include_bytes!("../../../tests/fixtures/vm-pages-v1.ckpt");

    fn page_sample(pages: u64) -> (Checkpoint, Vec<u8>) {
        let mem = ByteMemory::with_distinct_content(PageCount::new(pages), 11);
        let cp = Checkpoint::capture_bytes(VmId::new(1), SimTime::EPOCH, &mem);
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        (cp, file)
    }

    fn corrupt_detail(file: &[u8]) -> String {
        match Checkpoint::read_from(file) {
            Err(Error::Corrupt { detail }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn page_file_is_header_table_pages_trailer() {
        let (cp, file) = page_sample(3);
        let page = PAGE_SIZE as usize;
        assert_eq!(file.len(), HEADER + 3 * (DIGEST + page) + TRAILER);
        assert_eq!(file[8..11], [0, 2, KIND_PAGES]);
        let table: Vec<u8> = cp.digests().iter().flat_map(|d| *d.as_bytes()).collect();
        assert_eq!(file[HEADER..HEADER + 3 * DIGEST], table[..]);
        let CheckpointData::Pages(pages) = cp.data() else {
            panic!("page checkpoint")
        };
        let bytes: Vec<u8> = pages.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(file[HEADER + 3 * DIGEST..file.len() - TRAILER], bytes[..]);
        // The trailer covers header and table, not the pages.
        assert_eq!(
            file[file.len() - TRAILER..],
            Fnv1a64::digest(&file[..HEADER + 3 * DIGEST])
        );
        assert_eq!(Checkpoint::trailer_coverage(&file), HEADER + 3 * DIGEST);
    }

    #[test]
    fn lazily_and_eagerly_tabled_checkpoints_write_the_same_file() {
        let (cp, file) = page_sample(3);
        let lazy = Checkpoint::from_parts(cp.vm(), cp.taken_at(), cp.data().clone()).unwrap();
        let mut again = Vec::new();
        lazy.write_to(&mut again).unwrap();
        assert_eq!(again, file);
    }

    #[test]
    fn loaded_page_checkpoint_carries_the_digests_of_its_bytes() {
        let (cp, file) = page_sample(5);
        let back = Checkpoint::read_from(&file[..]).unwrap();
        assert_eq!(back, cp);
        for i in 0..5 {
            let idx = PageIndex::new(i);
            assert_eq!(
                back.digest(idx),
                vecycle_hash::page_digest(back.read_page(idx).unwrap())
            );
        }
    }

    #[test]
    fn one_flipped_bit_anywhere_in_a_page_file_is_corrupt() {
        let (_, file) = page_sample(3);
        let page = PAGE_SIZE as usize;
        let pages_at = HEADER + 3 * DIGEST;
        // Header, table, trailer: one probe per field or entry.
        for at in [
            0,
            9,
            10,
            11,
            15,
            20,
            31,
            HEADER,
            HEADER + DIGEST + 3,
            pages_at - 1,
        ] {
            let mut f = file.clone();
            f[at] ^= 0x04;
            corrupt_detail(&f);
        }
        let mut f = file.clone();
        *f.last_mut().unwrap() ^= 0x80;
        assert!(corrupt_detail(&f).contains("trailer"));
        // A page: the error names it.
        for (k, offset) in [(0, 0), (1, 17), (2, page - 1)] {
            let mut f = file.clone();
            f[pages_at + k * page + offset] ^= 0x01;
            assert!(
                corrupt_detail(&f).contains(&format!("page {k} ")),
                "page {k} offset {offset}"
            );
        }
    }

    #[test]
    fn forged_table_entry_with_refixed_trailer_fails_the_page_check() {
        let (_, mut file) = page_sample(3);
        file[HEADER + DIGEST] ^= 0xff; // entry of page 1
        refix_trailer(&mut file);
        assert!(corrupt_detail(&file).contains("page 1 "));
    }

    #[test]
    fn every_truncation_of_a_page_file_is_corrupt() {
        let (_, file) = page_sample(2);
        for cut in 0..file.len() {
            corrupt_detail(&file[..cut]);
        }
    }

    /// Hands out (or accepts) at most `step` bytes a call and counts
    /// the bytes that crossed: a reader or writer that splits every
    /// vectored batch mid-slice.
    struct Trickle<T> {
        inner: T,
        step: usize,
        moved: usize,
    }

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len());
            let got = self.inner.read(&mut buf[..n])?;
            self.moved += got;
            Ok(got)
        }
    }

    impl io::Write for Trickle<Vec<u8>> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len());
            self.moved += n;
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_reads_and_short_writes_move_the_same_file() {
        let (cp, file) = page_sample(19); // batches of 1, 2, 4, 8 and a tail
        for step in [1, 4095, 4097, 3 * 4096 + 5] {
            let mut sink = Trickle {
                inner: Vec::new(),
                step,
                moved: 0,
            };
            cp.write_to(&mut sink).unwrap();
            assert_eq!(sink.inner, file, "step {step}");
            let mut source = Trickle {
                inner: &file[..],
                step,
                moved: 0,
            };
            let back = Checkpoint::read_from(&mut source).unwrap();
            assert_eq!((back.digests(), back), (cp.digests(), cp.clone()));
            assert_eq!(source.moved, file.len());
        }
    }

    /// A header that claims 2⁴⁰ pages in front of 68 bytes: the reader
    /// takes what the input has, reports the length that disagrees, and
    /// allocates one page buffer at most
    /// (`crates/fuzz/tests/alloc_bounds.rs` holds it to the byte budget).
    #[test]
    fn a_forged_count_on_a_short_input_sizes_nothing() {
        let (_, file) = page_sample(1);
        let mut digests = Vec::new();
        sample().write_to(&mut digests).unwrap();
        for (layout, input) in [&file[..], &digests[..]].iter().enumerate() {
            let mut forged = input[..100].to_vec();
            forged[24..32].copy_from_slice(&(1u64 << 40).to_be_bytes());
            let before = PageBuf::allocated();
            let detail = corrupt_detail(&forged);
            assert!(
                detail.contains("payload length 60 !="),
                "layout {layout}: {detail}"
            );
            assert!(PageBuf::allocated() - before <= 1, "layout {layout}");
        }
        // An honest count on an input cut inside page 5: same error, and
        // the buffers stay within twice the pages that arrived, plus one.
        let (_, mut cut) = page_sample(8);
        cut.truncate(HEADER + 8 * DIGEST + 5 * PAGE_SIZE as usize + 77);
        let before = PageBuf::allocated();
        assert!(corrupt_detail(&cut).contains("payload length"));
        assert!(PageBuf::allocated() - before <= 2 * 5 + 1);
    }

    #[test]
    fn table_and_page_region_must_match_the_declared_count_exactly() {
        let (cp, file) = page_sample(2);
        let pages_at = HEADER + 2 * DIGEST;
        // A short table, a ragged page region, trailing bytes: each with
        // the trailer re-sealed so only the length disagrees.
        let mut short_table = file.clone();
        short_table.drain(HEADER..HEADER + DIGEST);
        let mut ragged = file.clone();
        ragged.remove(pages_at + 5);
        let mut trailing = file.clone();
        trailing.extend_from_slice(&[0u8; 16]);
        for mut f in [short_table, ragged, trailing] {
            refix_trailer(&mut f);
            assert!(corrupt_detail(&f).contains("payload length"));
        }
        // Forged counts: plainly huge, overflowing `pages * 4112`, and
        // off by one — none sizes a table or view vector.
        for forged in [
            u64::MAX,
            u64::MAX / (DIGEST as u64 + PAGE_SIZE) + 1,
            1 << 32,
            cp.page_count().as_u64() + 1,
            cp.page_count().as_u64() - 1,
            0,
        ] {
            let mut f = file.clone();
            f[24..32].copy_from_slice(&forged.to_be_bytes());
            refix_trailer(&mut f);
            let detail = corrupt_detail(&f);
            assert!(
                detail.contains("payload length") || detail.contains("overflows"),
                "pages={forged}: {detail}"
            );
        }
        // A digest file relabelled as version 2 is not a layout.
        let mut f = Vec::new();
        sample().write_to(&mut f).unwrap();
        f[9] = 2;
        refix_trailer(&mut f);
        assert!(corrupt_detail(&f).contains("version"));
    }

    #[test]
    fn version_1_page_file_is_refused_by_its_version() {
        assert_eq!(V1_PAGES[8..11], [0, 1, KIND_PAGES]);
        assert_eq!(
            corrupt_detail(V1_PAGES),
            "unsupported checkpoint version 1 (kind 1)"
        );
    }

    #[test]
    fn page_estimate_follows_the_declared_layout() {
        let (_, tabled) = page_sample(3);
        let mut digests = Vec::new();
        sample().write_to(&mut digests).unwrap();
        // A refused page file still counts as pages: 8 table-less pages
        // hold 7 tabled ones.
        for (file, pages) in [(&tabled[..], 3), (V1_PAGES, 7), (&digests[..], 32)] {
            let head = &file[..LAYOUT_PREFIX];
            assert_eq!(estimated_pages(head, file.len() as u64), pages);
        }
        // Unreadable header: the densest layout.
        assert_eq!(estimated_pages(b"garbage", 40 + 160), 10);
        assert_eq!(estimated_pages(&[], 7), 0);
    }
}
