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
//! trailer guards header and table, and page *i* sits at a fixed offset
//! behind them. A page is verified against its table entry before it is
//! used, so the check costs one MD5 of each page that is used — the
//! same MD5 a checkpoint is recycled by. One decoder reads a file at
//! fixed offsets, from the open file or from its bytes in memory: one
//! check reads header, table and trailer, with the length taken from the
//! source itself, and [`PageFile`] reads pages by their offsets and
//! checks them against the table. [`Checkpoint::open_file`] (behind
//! [`crate::DiskStore::load`]) keeps the file and reads a page when it
//! is used; [`Checkpoint::read_from`] reads every page of a file's bytes
//! at once.
//!
//! [`Checkpoint::write_to`] streams header and table through one 8 KiB
//! chunk on the stack and hands the pages' buffers to the writer a
//! megabyte of slices at a time. No path stages a guest-sized copy.

use std::fs::File;
use std::io::{self, IoSlice};
use std::ops::Deref;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use vecycle_hash::{ChecksumAlgorithm, Fnv1a64, Hasher};
use vecycle_mem::PageBuf;
use vecycle_types::{Error, PageDigest, PageIndex, SimTime, VmId, PAGE_SIZE};

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
/// Page buffers handed to one vectored write: 1 MiB.
const IO_BATCH: usize = 256;
/// Table bytes the decoder reads, and header and table bytes
/// [`Checkpoint::write_to`] writes, at a time.
const TABLE_CHUNK: usize = 512 * DIGEST;

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
    /// a forged header this far): nothing is sized from it before the
    /// source's real length agrees with it.
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

    /// The pages behind header and table of a page file held by `file`.
    fn pages_in<F>(&self, file: F) -> PageFile<F> {
        let pages_at = HEADER as u64 + self.table_len();
        PageFile { file, pages_at }
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

/// Writes every page, [`IO_BATCH`] buffers per vectored call, through
/// one list of slices on the stack.
fn write_pages<W: io::Write>(w: &mut W, pages: &[PageBuf]) -> io::Result<()> {
    let mut slices = [IoSlice::new(&[]); IO_BATCH];
    for batch in pages.chunks(IO_BATCH) {
        for (slice, page) in slices.iter_mut().zip(batch) {
            *slice = IoSlice::new(page);
        }
        let mut left = &mut slices[..batch.len()];
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
    /// know and copies nothing on its way to `w`. Header and table pass
    /// through one 8 KiB chunk on the stack, hashed for the trailer as
    /// each chunk is written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: io::Write>(&self, mut w: W) -> vecycle_types::Result<()> {
        let read;
        let (version, kind, pages): (u16, u8, &[PageBuf]) = match self.data() {
            Some(CheckpointData::Digests(_)) => (VERSION, KIND_DIGESTS, &[]),
            Some(CheckpointData::Pages(pages)) => (VERSION_TABLED, KIND_PAGES, pages),
            None => {
                read = self.read_range(0..self.page_count().as_u64())?;
                (VERSION_TABLED, KIND_PAGES, &read)
            }
        };
        // Header (offsets as `Header::parse` reads them), then the table
        // behind it in the same chunk; both are multiples of a digest.
        let mut chunk = [0u8; TABLE_CHUNK];
        chunk[..8].copy_from_slice(MAGIC);
        chunk[8..10].copy_from_slice(&version.to_be_bytes());
        chunk[10] = kind; // reserved byte 11 stays zero
        chunk[12..16].copy_from_slice(&self.vm().as_u32().to_be_bytes());
        chunk[16..24].copy_from_slice(&self.taken_at().since_epoch().as_nanos().to_be_bytes());
        chunk[24..32].copy_from_slice(&self.page_count().as_u64().to_be_bytes());
        let (mut at, mut covered) = (HEADER, Fnv1a64::new());
        for digest in self.digest_table() {
            if at == TABLE_CHUNK {
                covered.update(&chunk);
                w.write_all(&chunk)?;
                at = 0;
            }
            chunk[at..at + DIGEST].copy_from_slice(digest.as_bytes());
            at += DIGEST;
        }
        covered.update(&chunk[..at]);
        w.write_all(&chunk[..at])?;
        write_pages(&mut w, pages)?;
        w.write_all(&covered.finalize())?;
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

    /// Decodes a whole checkpoint file held in memory, as written by
    /// [`Checkpoint::write_to`].
    ///
    /// Makes the checks [`Checkpoint::open_file`] makes, then reads every
    /// page into the buffer it will live in and checks them all against
    /// the stored table in one multi-lane pass; the returned checkpoint
    /// keeps that table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic, version, kind, a payload
    /// length that disagrees with the declared page count, trailer
    /// mismatch, or a page whose digest differs from its table entry
    /// (naming the page).
    pub fn read_from(file: &[u8]) -> vecycle_types::Result<Checkpoint> {
        let (header, table) = check(file)?;
        let (vm, taken_at) = (header.vm, header.taken_at);
        if header.layout == Layout::Digests {
            return Checkpoint::from_parts(vm, taken_at, CheckpointData::Digests(table));
        }
        let page = |k: usize| PageIndex::new(k as u64);
        let pages = header
            .pages_in(file)
            .read_verified(table.len(), page, &table)?;
        Ok(Checkpoint::from_pages_with_digests(
            vm, taken_at, pages, table,
        ))
    }

    /// Opens a checkpoint file written by [`Checkpoint::write_to`] for
    /// pages read on use: checks the header, the length — the file's,
    /// from its metadata, against the header's page count — and the
    /// trailer over header and table, and keeps `file` for the pages.
    /// Reads header, table and trailer and nothing else; the table is
    /// sized from the checked length.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::read_from`], except that a page's bytes are
    /// checked when it is read ([`Checkpoint::read_pages`]), and
    /// [`Error::Io`] on read failures.
    pub fn open_file(file: File) -> vecycle_types::Result<Checkpoint> {
        let (header, table) = check(&file)?;
        let (vm, taken_at) = (header.vm, header.taken_at);
        match header.layout {
            Layout::Digests => Checkpoint::from_parts(vm, taken_at, CheckpointData::Digests(table)),
            Layout::TabledPages => {
                let pages = header.pages_in(Arc::new(file));
                Ok(Checkpoint::in_file(vm, taken_at, pages, table))
            }
        }
    }
}

/// A checkpoint file read at byte offsets: the open file, or its bytes.
pub(crate) trait ReadAt {
    /// The source's real length.
    fn len(&self) -> io::Result<u64>;

    /// Fills `buf` from byte `at` on, or fails with `UnexpectedEof`.
    fn fill_at(&self, buf: &mut [u8], at: u64) -> io::Result<()>;
}

impl ReadAt for File {
    fn len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn fill_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        self.read_exact_at(buf, at)
    }
}

impl ReadAt for [u8] {
    fn len(&self) -> io::Result<u64> {
        Ok(<[u8]>::len(self) as u64)
    }

    fn fill_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        let bytes = usize::try_from(at)
            .ok()
            .and_then(|at| self.get(at..)?.get(..buf.len()));
        buf.copy_from_slice(bytes.ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }
}

/// Fills `buf` from `src` at `at`; a source that ends first is corrupt
/// (a file cut after its length was checked).
fn read_exact_at<S: ReadAt + ?Sized>(
    src: &S,
    buf: &mut [u8],
    at: u64,
) -> vecycle_types::Result<()> {
    src.fill_at(buf, at).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => Error::Corrupt {
            detail: format!("checkpoint file ends before byte {}", at + buf.len() as u64),
        },
        _ => e.into(),
    })
}

/// The one check of a checkpoint file, in this order: too short, magic,
/// version and kind, count overflow, length — the source's real length
/// against the header's count — and the trailer over header and table.
/// Reads header, table and trailer, and nothing is sized from the
/// declared count before the length agrees with it. Returns the header
/// and the table (the payload of a digest file).
fn check<S: ReadAt + ?Sized>(src: &S) -> vecycle_types::Result<(Header, Vec<PageDigest>)> {
    let len = src.len()?;
    if len < (HEADER + TRAILER) as u64 {
        return Err(Error::Corrupt {
            detail: format!("checkpoint file too short: {len} bytes"),
        });
    }
    let mut head = [0u8; HEADER];
    read_exact_at(src, &mut head, 0)?;
    let header = Header::parse(&head)?;
    header.check_payload(len - (HEADER + TRAILER) as u64)?;
    let mut covered = Fnv1a64::new();
    covered.update(&head);
    let mut table = Vec::with_capacity(header.pages as usize);
    let mut chunk = [0u8; TABLE_CHUNK];
    let (mut at, table_end) = (HEADER as u64, HEADER as u64 + header.table_len());
    while at < table_end {
        let chunk = &mut chunk[..TABLE_CHUNK.min((table_end - at) as usize)];
        read_exact_at(src, chunk, at)?;
        covered.update(chunk);
        let digests = chunk.chunks_exact(DIGEST);
        table.extend(digests.map(|d| PageDigest::new(d.try_into().expect("16-byte chunks"))));
        at += chunk.len() as u64;
    }
    let mut trailer = [0u8; TRAILER];
    read_exact_at(src, &mut trailer, len - TRAILER as u64)?;
    if covered.finalize() != trailer {
        return Err(Error::Corrupt {
            detail: "checkpoint trailer checksum mismatch".into(),
        });
    }
    Ok((header, table))
}

/// The pages of a version-2 page file, read on use: the file (the open
/// file, or its bytes) and where its pages start. A reader that keeps an
/// open file across two later saves of the VM reads the second save's
/// bytes (the store overwrites its spare in place), which fail their
/// table entries.
#[derive(Debug, Clone)]
pub(crate) struct PageFile<F = Arc<File>> {
    file: F,
    pages_at: u64,
}

impl<F: Deref<Target: ReadAt>> PageFile<F> {
    /// Reads pages `page(0..count)` into fresh buffers, in that order, and
    /// checks them against their entries in the file's checked `table` in
    /// one multi-lane batch; the error names the first that differs.
    ///
    /// # Panics
    ///
    /// Panics if a page is out of bounds.
    pub(crate) fn read_verified(
        &self,
        count: usize,
        page: impl Fn(usize) -> PageIndex + Sync,
        table: &[PageDigest],
    ) -> vecycle_types::Result<Vec<PageBuf>> {
        let mut bufs = Vec::with_capacity(count);
        for idx in (0..count).map(&page) {
            assert!(idx.as_usize() < table.len(), "{idx} is out of bounds");
            let mut buf = PageBuf::new_page();
            let bytes = buf.get_mut().expect("fresh buffers are unshared");
            read_exact_at(&*self.file, bytes, self.pages_at + idx.as_u64() * PAGE_SIZE)?;
            bufs.push(buf);
        }
        let stored = |k: usize| table[page(k).as_usize()];
        match ChecksumAlgorithm::Md5.first_mismatch(&bufs, stored) {
            Some(k) => Err(Error::Corrupt {
                detail: format!(
                    "checkpoint page {} does not match its stored digest",
                    page(k).as_u64()
                ),
            }),
            None => Ok(bufs),
        }
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
        let Some(CheckpointData::Pages(pages)) = cp.data() else {
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

    /// The bytes `write_to` writes, pinned by length and FNV-1a 64 of the
    /// whole file as the encoder that staged header and table in one
    /// buffer wrote them: small files of both kinds, and files whose
    /// header and table fill more than one chunk.
    #[test]
    fn write_to_writes_the_pinned_bytes() {
        let digests = |pages| {
            let mem = DigestMemory::with_distinct_content(PageCount::new(pages), 3);
            let at = SimTime::EPOCH + SimDuration::from_hours(5);
            let mut file = Vec::new();
            Checkpoint::capture(VmId::new(7), at, &mem)
                .write_to(&mut file)
                .unwrap();
            file
        };
        for (file, len, fnv) in [
            (page_sample(3).1, 12_376, 0x26df_f4ad_f33a_9495),
            (page_sample(513).1, 2_109_496, 0x0e7d_9b70_ff89_7a46),
            (digests(32), 552, 0x7cdb_9482_8fb9_795c),
            (digests(1100), 17_640, 0x444f_2468_76cb_c10a),
        ] {
            let got = u64::from_be_bytes(Fnv1a64::digest(&file));
            assert_eq!((file.len(), got), (len, fnv), "{len}-byte file");
        }
    }

    #[test]
    fn lazily_and_eagerly_tabled_checkpoints_write_the_same_file() {
        let (cp, file) = page_sample(3);
        let data = cp.data().unwrap().clone();
        let lazy = Checkpoint::from_parts(cp.vm(), cp.taken_at(), data).unwrap();
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
                vecycle_hash::page_digest(&back.read_page(idx).unwrap())
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

    /// The file source and the byte source agree. Over every truncation
    /// and every single-bit flip of a one-page file, and every flip of
    /// header, table and trailer with the trailer re-sealed, `read_from`
    /// over the bytes succeeds exactly when `open_file` over the file and
    /// a read of every page do, and then the three checkpoints are equal;
    /// an opened file equals the checkpoint written exactly when the
    /// decoded bytes do.
    #[test]
    fn the_file_source_and_the_byte_source_agree() {
        let (cp, file) = page_sample(1);
        let path = std::env::temp_dir().join(format!("vecycle-lazy-{}", std::process::id()));
        let disk = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        disk.write_all_at(&file, 0).unwrap();
        // `bytes` is what `disk` holds.
        let agree = |bytes: &[u8], case: &str| {
            let eager = Checkpoint::read_from(bytes).ok();
            let lazy = Checkpoint::open_file(disk.try_clone().unwrap()).ok();
            let verified = lazy.clone().and_then(|cp| cp.into_resident().ok());
            assert_eq!(eager.is_some(), verified.is_some(), "{case}");
            let same = |other: &Option<Checkpoint>| other.as_ref() == Some(&cp);
            assert_eq!(same(&lazy), same(&eager), "{case}");
            if let (Some(eager), Some(lazy), Some(verified)) = (eager, lazy, verified) {
                assert!(eager == verified && lazy == eager, "{case}");
            }
        };
        agree(&file, "intact");
        for cut in 0..file.len() {
            disk.set_len(cut as u64).unwrap();
            agree(&file[..cut], &format!("cut at {cut}"));
            disk.write_all_at(&file[cut..], cut as u64).unwrap();
        }
        let (covered, trailer) = (Checkpoint::trailer_coverage(&file), file.len() - TRAILER);
        for at in 0..file.len() {
            for bit in 0..8 {
                let mut bytes = file.clone();
                bytes[at] ^= 1 << bit;
                disk.write_all_at(&bytes[at..=at], at as u64).unwrap();
                agree(&bytes, &format!("bit {bit} of byte {at}"));
                if at < covered || at >= trailer {
                    refix_trailer(&mut bytes);
                    disk.write_all_at(&bytes[trailer..], trailer as u64)
                        .unwrap();
                    agree(&bytes, &format!("bit {bit} of byte {at}, re-sealed"));
                    disk.write_all_at(&file[trailer..], trailer as u64).unwrap();
                }
                disk.write_all_at(&file[at..=at], at as u64).unwrap();
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn every_truncation_of_a_page_file_is_corrupt() {
        let (_, file) = page_sample(2);
        for cut in 0..file.len() {
            corrupt_detail(&file[..cut]);
        }
    }

    /// Accepts at most `step` bytes a call: a writer that splits every
    /// vectored batch mid-slice.
    struct Trickle {
        inner: Vec<u8>,
        step: usize,
    }

    impl io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len());
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_write_the_same_file() {
        let (cp, file) = page_sample(19);
        for step in [1, 4095, 4097, 3 * 4096 + 5] {
            let mut sink = Trickle {
                inner: Vec::new(),
                step,
            };
            cp.write_to(&mut sink).unwrap();
            assert_eq!(sink.inner, file, "step {step}");
        }
    }

    /// A header that claims 2⁴⁰ pages in front of 68 bytes: the length
    /// is checked before anything is read, so the decoder reports the
    /// length that disagrees and allocates no page buffer
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
            assert_eq!(PageBuf::allocated() - before, 0, "layout {layout}");
        }
        // An honest count on an input cut inside page 5: same error, and
        // no page buffer either.
        let (_, mut cut) = page_sample(8);
        cut.truncate(HEADER + 8 * DIGEST + 5 * PAGE_SIZE as usize + 77);
        let before = PageBuf::allocated();
        assert!(corrupt_detail(&cut).contains("payload length"));
        assert_eq!(PageBuf::allocated() - before, 0);
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
