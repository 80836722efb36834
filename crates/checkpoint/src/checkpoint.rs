//! The [`Checkpoint`] capture type.

use std::sync::OnceLock;

use vecycle_mem::{ByteMemory, DigestMemory, MemoryImage, PageBuf};
use vecycle_types::{Bytes, PageCount, PageDigest, PageIndex, SimTime, VmId, PAGE_SIZE};

use crate::ChecksumIndex;

/// The payload of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointData {
    /// One digest per page — sufficient for every traffic computation.
    Digests(Vec<PageDigest>),
    /// Full page bytes, one buffer per page — needed for byte-exact
    /// restores. The buffers are shared with the memory the checkpoint
    /// was captured from and with every memory restored from it.
    Pages(Vec<PageBuf>),
}

/// An immutable capture of a VM's memory, stored at a host.
///
/// A full-byte checkpoint also knows the digest of each of its pages:
/// the table is adopted from whoever already derived it (the captured
/// memory, the verifying load pass) or computed once, in a multi-lane
/// batch, the first time a digest is asked for. It is a cache of the
/// bytes — equality and [`Checkpoint::storage_size`] ignore it.
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
    data: CheckpointData,
    /// Per-page digests of a `Pages` payload; never set for `Digests`.
    page_digests: OnceLock<Vec<PageDigest>>,
}

impl PartialEq for Checkpoint {
    fn eq(&self, other: &Self) -> bool {
        self.vm == other.vm && self.taken_at == other.taken_at && self.data == other.data
    }
}

impl Eq for Checkpoint {}

impl Checkpoint {
    /// Captures a digest-level checkpoint of any memory image.
    pub fn capture<M: MemoryImage>(vm: VmId, taken_at: SimTime, memory: &M) -> Self {
        Checkpoint {
            vm,
            taken_at,
            data: CheckpointData::Digests(memory.digests()),
            page_digests: OnceLock::new(),
        }
    }

    /// Captures a full-byte checkpoint of a [`ByteMemory`], sharing the
    /// memory's page buffers and adopting its page digests.
    pub fn capture_bytes(vm: VmId, taken_at: SimTime, memory: &ByteMemory) -> Self {
        Self::from_pages_with_digests(vm, taken_at, memory.pages().to_vec(), memory.digests())
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
        Checkpoint {
            vm,
            taken_at,
            data: CheckpointData::Pages(pages),
            page_digests: OnceLock::from(digests),
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
                return Err(vecycle_types::Error::Corrupt {
                    detail: format!("page buffer of {} bytes is not page-aligned", ragged.len()),
                });
            }
        }
        Ok(Checkpoint {
            vm,
            taken_at,
            data,
            page_digests: OnceLock::new(),
        })
    }

    /// The VM this checkpoint belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// When the checkpoint was taken.
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    /// The payload.
    pub fn data(&self) -> &CheckpointData {
        &self.data
    }

    /// Number of pages captured.
    pub fn page_count(&self) -> PageCount {
        match &self.data {
            CheckpointData::Digests(d) => PageCount::new(d.len() as u64),
            CheckpointData::Pages(pages) => PageCount::new(pages.len() as u64),
        }
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
        match &self.data {
            CheckpointData::Digests(d) => Bytes::new(d.len() as u64 * 16),
            CheckpointData::Pages(pages) => Bytes::from_pages(pages.len() as u64),
        }
    }

    /// The per-page digests, borrowed: the payload itself for a digest
    /// checkpoint, the (lazily filled) table for a full-byte one.
    pub fn digest_table(&self) -> &[PageDigest] {
        match &self.data {
            CheckpointData::Digests(d) => d,
            CheckpointData::Pages(pages) => self.page_digests.get_or_init(|| {
                let views: Vec<&[u8]> = pages.iter().map(|p| &p[..]).collect();
                vecycle_hash::digest_pages(&views)
            }),
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

    /// One page's buffer, if this is a full-byte checkpoint.
    pub fn read_page(&self, idx: PageIndex) -> Option<&PageBuf> {
        match &self.data {
            CheckpointData::Digests(_) => None,
            CheckpointData::Pages(pages) => pages.get(idx.as_usize()),
        }
    }

    /// Builds the §3.3 checksum index over this checkpoint.
    pub fn build_index(&self) -> ChecksumIndex {
        // Over a copy of the table: borrowing it moved the warm daemon
        // pair benchmark's peak RSS from 16 to 20 MiB (2-vCPU x86-64,
        // glibc). That is allocation layout under glibc's sliding mmap
        // threshold, not live memory: with the threshold fixed, both
        // read 13 MiB.
        ChecksumIndex::from_pages(&self.digests())
    }

    /// Restores the checkpoint into a fresh [`DigestMemory`] — the
    /// destination's "initialize main memory from the checkpoint file"
    /// step (§3.3).
    pub fn restore_digest_memory(&self) -> DigestMemory {
        DigestMemory::from_digests(self.digests())
    }

    /// Restores a full-byte checkpoint into a [`ByteMemory`] that shares
    /// every page buffer with it — a guest write replaces only the page
    /// it touches — handing over the digest table so no page is hashed
    /// again.
    ///
    /// Returns `None` for digest-only checkpoints, which cannot supply
    /// page bytes.
    pub fn restore_byte_memory(&self) -> Option<ByteMemory> {
        match &self.data {
            CheckpointData::Digests(_) => None,
            CheckpointData::Pages(pages) => Some(ByteMemory::from_pages_with_digests(
                pages.clone(),
                self.digests(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let lazy =
            Checkpoint::from_parts(tabled.vm(), tabled.taken_at(), tabled.data().clone()).unwrap();
        assert!(tabled.page_digests.get().is_some() && lazy.page_digests.get().is_none());
        assert_eq!(tabled, lazy);
        assert_eq!(tabled.storage_size(), lazy.storage_size());
        assert_eq!(lazy.digests(), tabled.digests());
        assert_eq!(lazy.clone(), tabled);
    }

    #[test]
    fn digest_checkpoint_has_no_bytes() {
        let cp = digest_cp();
        assert!(cp.read_page(PageIndex::new(0)).is_none());
        assert!(cp.restore_byte_memory().is_none());
    }

    #[test]
    fn restore_digest_memory_matches() {
        let cp = digest_cp();
        let mem = cp.restore_digest_memory();
        assert_eq!(mem.digests(), cp.digests());
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
