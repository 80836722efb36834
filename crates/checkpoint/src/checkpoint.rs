//! The [`Checkpoint`] capture type.

use std::ops::Range;
use std::sync::OnceLock;

use vecycle_hash::ChecksumAlgorithm;
use vecycle_mem::{ByteMemory, MemoryImage, PageBuf};
use vecycle_types::{Bytes, Error, PageCount, PageDigest, PageIndex, SimTime, VmId, PAGE_SIZE};

use crate::wire::PageFile;
use crate::ChecksumIndex;

/// The payload of a checkpoint held in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointData {
    /// One digest per page — sufficient for every traffic computation.
    Digests(Vec<PageDigest>),
    /// Full page bytes, one buffer per page — needed for byte-exact
    /// restores. The buffers are shared with the memory the checkpoint
    /// was captured from and with every memory restored from it.
    Pages(Vec<PageBuf>),
}

/// Where a checkpoint's payload is.
#[derive(Debug, Clone)]
enum Payload {
    Resident(CheckpointData),
    /// Page bytes still in the file [`crate::DiskStore::load`] opened,
    /// behind the digest table it checked.
    File(PageFile),
}

/// Pages one equality check reads and compares at a time.
const COMPARE_BATCH: u64 = 256;

/// An immutable capture of a VM's memory, stored at a host.
///
/// A full-byte checkpoint also knows the digest of each of its pages.
/// One held in memory adopts the table from whoever already derived it
/// (the captured memory, the verifying [`Checkpoint::read_from`]) or
/// computes it once, in a multi-lane batch, the first time a digest is
/// asked for: a cache of the bytes, which equality and
/// [`Checkpoint::storage_size`] ignore. One that
/// [`crate::DiskStore::load`] returned keeps its pages in the file and
/// its checked table in memory; a page is read and verified against its
/// table entry when it is used ([`Checkpoint::read_pages`]), so a page
/// that rotted on disk is an error there, never a wrong byte.
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::Checkpoint;
/// use vecycle_mem::DigestMemory;
/// use vecycle_types::{PageCount, SimTime, VmId};
///
/// let mem = DigestMemory::with_distinct_content(PageCount::new(64), 1);
/// let cp = Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem);
/// assert_eq!(cp.page_count(), PageCount::new(64));
/// let index = cp.build_index();
/// assert!(index.contains(cp.digest(vecycle_types::PageIndex::new(3))));
/// ```
#[derive(Debug, Clone)]
pub struct Checkpoint {
    vm: VmId,
    taken_at: SimTime,
    payload: Payload,
    /// Per-page digests of a page payload: computed on first use for
    /// one in memory, the checked table for one in its file; never set
    /// for a digest payload.
    page_digests: OnceLock<Vec<PageDigest>>,
}

/// Equal when the VM, the time and every page's content agree, wherever
/// the pages are: a checkpoint whose pages are in its file reads (and
/// verifies) them to compare, and a page that fails to read or verify
/// makes the two unequal.
impl PartialEq for Checkpoint {
    fn eq(&self, other: &Self) -> bool {
        if self.vm != other.vm || self.taken_at != other.taken_at {
            return false;
        }
        match (&self.payload, &other.payload) {
            (Payload::Resident(a), Payload::Resident(b)) => a == b,
            _ if !(self.holds_pages() && other.holds_pages()) => false,
            _ if self.page_count() != other.page_count() => false,
            _ => {
                let pages = self.page_count().as_u64();
                (0..pages.div_ceil(COMPARE_BATCH)).all(|batch| {
                    let batch = batch * COMPARE_BATCH..pages.min((batch + 1) * COMPARE_BATCH);
                    matches!(
                        (self.read_range(batch.clone()), other.read_range(batch)),
                        (Ok(a), Ok(b)) if a == b
                    )
                })
            }
        }
    }
}

impl Eq for Checkpoint {}

impl Checkpoint {
    /// Captures a digest-level checkpoint of any memory image.
    pub fn capture<M: MemoryImage>(vm: VmId, taken_at: SimTime, memory: &M) -> Self {
        Self::resident(vm, taken_at, CheckpointData::Digests(memory.digests()))
    }

    /// Captures a full-byte checkpoint of a [`ByteMemory`], sharing the
    /// memory's page buffers and adopting its page digests.
    pub fn capture_bytes(vm: VmId, taken_at: SimTime, memory: &ByteMemory) -> Self {
        Self::from_pages_with_digests(vm, taken_at, memory.pages().to_vec(), memory.digests())
    }

    fn resident(vm: VmId, taken_at: SimTime, data: CheckpointData) -> Self {
        Checkpoint {
            vm,
            taken_at,
            payload: Payload::Resident(data),
            page_digests: OnceLock::new(),
        }
    }

    /// A full-byte checkpoint whose digest table the caller has already
    /// derived from exactly these bytes (the verifying load pass).
    pub(crate) fn from_pages_with_digests(
        vm: VmId,
        taken_at: SimTime,
        pages: Vec<PageBuf>,
        digests: Vec<PageDigest>,
    ) -> Self {
        debug_assert_eq!(pages.len(), digests.len());
        let cp = Self::resident(vm, taken_at, CheckpointData::Pages(pages));
        cp.page_digests.get_or_init(|| digests);
        cp
    }

    /// A checkpoint whose pages stay in `file`, behind their checked
    /// digest `table`.
    pub(crate) fn in_file(
        vm: VmId,
        taken_at: SimTime,
        file: PageFile,
        table: Vec<PageDigest>,
    ) -> Self {
        Checkpoint {
            vm,
            taken_at,
            payload: Payload::File(file),
            page_digests: OnceLock::from(table),
        }
    }

    /// Creates a checkpoint from raw parts (used by the wire decoder).
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::Corrupt`] if a buffer of a `Pages`
    /// payload is not one whole page.
    pub fn from_parts(
        vm: VmId,
        taken_at: SimTime,
        data: CheckpointData,
    ) -> vecycle_types::Result<Self> {
        if let CheckpointData::Pages(pages) = &data {
            if let Some(ragged) = pages.iter().find(|p| p.len() as u64 != PAGE_SIZE) {
                return Err(Error::Corrupt {
                    detail: format!("page buffer of {} bytes is not page-aligned", ragged.len()),
                });
            }
        }
        Ok(Self::resident(vm, taken_at, data))
    }

    /// The VM this checkpoint belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// When the checkpoint was taken.
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    /// The payload, or `None` while the pages are in the checkpoint's
    /// file ([`Checkpoint::into_resident`] reads them in).
    pub fn data(&self) -> Option<&CheckpointData> {
        match &self.payload {
            Payload::Resident(data) => Some(data),
            Payload::File(_) => None,
        }
    }

    /// Whether this checkpoint holds page bytes, not just digests.
    fn holds_pages(&self) -> bool {
        !matches!(self.payload, Payload::Resident(CheckpointData::Digests(_)))
    }

    /// Number of pages captured.
    pub fn page_count(&self) -> PageCount {
        let pages = match &self.payload {
            Payload::Resident(CheckpointData::Digests(d)) => d.len(),
            Payload::Resident(CheckpointData::Pages(pages)) => pages.len(),
            Payload::File(_) => self.digest_table().len(),
        };
        PageCount::new(pages as u64)
    }

    /// RAM size captured.
    pub fn ram_size(&self) -> Bytes {
        self.page_count().bytes()
    }

    /// On-disk footprint of the payload — what storing this checkpoint
    /// costs the host (§1 argues local storage is cheap; the store still
    /// accounts for it). The digest table a page-checkpoint file also
    /// carries (16 bytes per 4 KiB page) is not counted.
    pub fn storage_size(&self) -> Bytes {
        match self.holds_pages() {
            true => Bytes::from_pages(self.page_count().as_u64()),
            false => Bytes::new(self.page_count().as_u64() * 16),
        }
    }

    /// The per-page digests, borrowed: the payload itself for a digest
    /// checkpoint, the checked table for one whose pages are in its
    /// file, the (lazily filled) table for a full-byte one in memory.
    pub fn digest_table(&self) -> &[PageDigest] {
        match &self.payload {
            Payload::Resident(CheckpointData::Digests(d)) => d,
            Payload::Resident(CheckpointData::Pages(pages)) => self
                .page_digests
                .get_or_init(|| ChecksumAlgorithm::Md5.digest_pages(pages)),
            Payload::File(_) => self.page_digests.get().expect("opened with its table"),
        }
    }

    /// The digest of one page.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn digest(&self, idx: PageIndex) -> PageDigest {
        self.digest_table()[idx.as_usize()]
    }

    /// All page digests in page order.
    pub fn digests(&self) -> Vec<PageDigest> {
        self.digest_table().to_vec()
    }

    /// The buffers of `pages`, in the order given: shared handles for a
    /// checkpoint in memory; for one whose pages are in its file, each
    /// read into a fresh buffer at its fixed offset and — all in one
    /// multi-lane batch — checked against its table entry.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a digest checkpoint, which holds no
    /// page bytes; [`Error::Corrupt`] naming the first page whose bytes
    /// do not match its table entry, or that the file no longer holds;
    /// [`Error::Io`] if a read fails.
    ///
    /// # Panics
    ///
    /// Panics if a page is out of bounds.
    pub fn read_pages(&self, pages: &[PageIndex]) -> vecycle_types::Result<Vec<PageBuf>> {
        self.read_each(pages.len(), |k| pages[k])
    }

    /// The buffers of the pages in `range`, in page order: what
    /// [`Checkpoint::read_pages`] returns for them, with no index list.
    pub(crate) fn read_range(&self, range: Range<u64>) -> vecycle_types::Result<Vec<PageBuf>> {
        let count = (range.end - range.start) as usize;
        self.read_each(count, |k| PageIndex::new(range.start + k as u64))
    }

    /// [`Checkpoint::read_pages`] of the `count` pages `page(0..count)`.
    fn read_each(
        &self,
        count: usize,
        page: impl Fn(usize) -> PageIndex + Sync,
    ) -> vecycle_types::Result<Vec<PageBuf>> {
        match &self.payload {
            Payload::Resident(CheckpointData::Digests(_)) => Err(Error::InvalidConfig {
                reason: "a digest checkpoint holds no page bytes".into(),
            }),
            Payload::Resident(CheckpointData::Pages(held)) => Ok((0..count)
                .map(|k| held[page(k).as_usize()].clone())
                .collect()),
            Payload::File(file) => file.read_verified(count, page, self.digest_table()),
        }
    }

    /// One page's buffer ([`Checkpoint::read_pages`] of one page).
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::read_pages`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn read_page(&self, idx: PageIndex) -> vecycle_types::Result<PageBuf> {
        Ok(self.read_pages(&[idx])?.remove(0))
    }

    /// Builds the §3.3 checksum index over this checkpoint's table.
    pub fn build_index(&self) -> ChecksumIndex {
        ChecksumIndex::from_pages(self.digest_table())
    }

    /// Every page read and verified ([`Checkpoint::read_pages`]), as a
    /// checkpoint held in memory; one already in memory comes back as
    /// it is.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::read_pages`].
    pub fn into_resident(self) -> vecycle_types::Result<Checkpoint> {
        if !matches!(self.payload, Payload::File(_)) {
            return Ok(self);
        }
        let pages = self.read_range(0..self.page_count().as_u64())?;
        let table = self
            .page_digests
            .into_inner()
            .expect("opened with its table");
        Ok(Self::from_pages_with_digests(
            self.vm,
            self.taken_at,
            pages,
            table,
        ))
    }

    /// Restores a full-byte checkpoint into a [`ByteMemory`] that shares
    /// every page buffer with it — a guest write replaces only the page
    /// it touches — handing over the digest table so no page is hashed
    /// again. Pages still in the checkpoint's file are read and verified
    /// first.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::read_pages`]: a digest checkpoint cannot supply
    /// page bytes.
    pub fn restore_byte_memory(&self) -> vecycle_types::Result<ByteMemory> {
        let pages = match &self.payload {
            Payload::Resident(CheckpointData::Pages(pages)) => pages.clone(),
            _ => self.read_range(0..self.page_count().as_u64())?,
        };
        Ok(ByteMemory::from_pages_with_digests(
            pages,
            self.digest_table().iter().copied(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::DigestMemory;

    fn digest_cp() -> Checkpoint {
        let mem = DigestMemory::with_distinct_content(PageCount::new(16), 5);
        Checkpoint::capture(VmId::new(1), SimTime::EPOCH, &mem)
    }

    #[test]
    fn capture_preserves_digests() {
        let mem = DigestMemory::with_distinct_content(PageCount::new(16), 5);
        let cp = Checkpoint::capture(VmId::new(1), SimTime::EPOCH, &mem);
        assert_eq!(cp.digests(), mem.digests());
        assert_eq!(cp.page_count(), PageCount::new(16));
    }

    #[test]
    fn capture_bytes_round_trips() {
        let mem = ByteMemory::with_distinct_content(PageCount::new(8), 9);
        let cp = Checkpoint::capture_bytes(VmId::new(2), SimTime::EPOCH, &mem);
        let before = PageBuf::allocated();
        let restored = cp.restore_byte_memory().unwrap();
        assert!(mem.content_equals(&restored));
        // Capture and restore share the guest's buffers.
        assert_eq!(PageBuf::allocated(), before);
        let first = PageIndex::new(0);
        assert!(restored.read_page(first).shares_with(mem.read_page(first)));
        // Digests agree with the live memory's.
        for i in 0..8 {
            let idx = PageIndex::new(i);
            assert_eq!(cp.digest(idx), mem.page_digest(idx));
        }
    }

    /// The digest table is a cache of the bytes: a checkpoint that was
    /// handed its table and one that has yet to compute it are equal,
    /// cost the same to store, and report the same digests.
    #[test]
    fn equality_and_storage_size_ignore_the_digest_table() {
        let mem = ByteMemory::with_distinct_content(PageCount::new(6), 2);
        let tabled = Checkpoint::capture_bytes(VmId::new(3), SimTime::EPOCH, &mem);
        let lazy = Checkpoint::from_parts(
            tabled.vm(),
            tabled.taken_at(),
            tabled.data().unwrap().clone(),
        )
        .unwrap();
        assert!(tabled.page_digests.get().is_some() && lazy.page_digests.get().is_none());
        assert_eq!(tabled, lazy);
        assert_eq!(tabled.storage_size(), lazy.storage_size());
        assert_eq!(lazy.digests(), tabled.digests());
        assert_eq!(lazy.clone(), tabled);
    }

    #[test]
    fn digest_checkpoint_has_no_bytes() {
        let cp = digest_cp();
        assert!(cp.read_page(PageIndex::new(0)).is_err());
        assert!(cp.restore_byte_memory().is_err());
    }

    #[test]
    fn storage_size_reflects_representation() {
        let cp = digest_cp();
        assert_eq!(cp.storage_size(), Bytes::new(16 * 16));
        let bm = ByteMemory::zeroed(PageCount::new(4));
        let full = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &bm);
        assert_eq!(full.storage_size(), Bytes::from_pages(4));
    }

    #[test]
    fn from_parts_rejects_ragged_pages() {
        let res = Checkpoint::from_parts(
            VmId::new(0),
            SimTime::EPOCH,
            CheckpointData::Pages(vec![PageBuf::new_page(), PageBuf::copy_from(&[0u8; 100])]),
        );
        assert!(res.is_err());
    }
}
