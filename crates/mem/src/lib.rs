//! Guest memory models: page images, dirty tracking and workloads.
//!
//! The migration engine needs three things from a guest: the *content
//! digest* of every page (for content-based redundancy elimination), a
//! *dirty tracker* (for pre-copy rounds and Miyakodori-style reuse), and a
//! way for a *workload* to keep mutating memory while a migration runs.
//!
//! Two interchangeable memory representations are provided:
//!
//! * [`DigestMemory`] stores one 16-byte digest per page. It scales to the
//!   paper's 1–8 GiB guests (a 6 GiB guest needs ~24 MiB of digests) and
//!   is what the figure-level benchmarks use.
//! * [`ByteMemory`] stores real 4 KiB page bytes, one shared [`PageBuf`]
//!   per page, and hashes them with the real MD5, once per content, in a
//!   batch on the first digest read after a burst of writes. It is used
//!   by the end-to-end tests that check the destination reconstructs
//!   memory *byte-for-byte*.
//!
//! [`Guest`] composes a memory with a [`DirtyTracker`] and a
//! [`GenerationTable`] so every write is observed by both trackers, the
//! way KVM's dirty logging and Miyakodori's generation counters observe
//! writes in the real system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod byte_memory;
mod content;
mod digest_memory;
mod dirty;
mod generation;
mod guest;
mod page_buf;
pub mod workload;

pub use byte_memory::ByteMemory;
pub use content::PageContent;
pub use digest_memory::DigestMemory;
pub use dirty::DirtyTracker;
pub use generation::{Generation, GenerationSnapshot, GenerationTable};
pub use guest::Guest;
pub use page_buf::PageBuf;

use vecycle_types::{Bytes, PageCount, PageDigest, PageIndex};

/// Read access to a guest memory image.
///
/// Implementations must be *dense*: pages `0..page_count()` all exist.
pub trait MemoryImage {
    /// Number of pages in the image.
    fn page_count(&self) -> PageCount;

    /// The content digest of one page.
    ///
    /// # Panics
    ///
    /// Implementations panic if `idx` is out of bounds.
    fn page_digest(&self, idx: PageIndex) -> PageDigest;

    /// Total RAM represented by this image.
    fn ram_size(&self) -> Bytes {
        self.page_count().bytes()
    }

    /// Collects all page digests in index order.
    ///
    /// The default implementation calls [`MemoryImage::page_digest`] per
    /// page; implementations with contiguous storage override it.
    fn digests(&self) -> Vec<PageDigest> {
        (0..self.page_count().as_u64())
            .map(|i| self.page_digest(PageIndex::new(i)))
            .collect()
    }

    /// The buffer holding one page's bytes, for byte-backed images; a
    /// transcript message clones the handle, not the bytes.
    ///
    /// Digest-level images return `None`; the migration transcript then
    /// carries digests only.
    fn page_bytes(&self, idx: PageIndex) -> Option<&PageBuf> {
        let _ = idx;
        None
    }
}

/// Write access to a guest memory image.
pub trait MutableMemory: MemoryImage {
    /// Overwrites one page with new content.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    fn write_page(&mut self, idx: PageIndex, content: PageContent<'_>);

    /// Copies the content of page `src` to page `dst`.
    ///
    /// This models the guest OS *relocating* data in physical memory —
    /// the case where dirty-page tracking overestimates the transfer set
    /// (Figure 3 / §4.3) because the destination frame looks dirty even
    /// though its content already exists in the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn relocate_page(&mut self, src: PageIndex, dst: PageIndex);
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn default_digests_collects_in_order() {
        let mem = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        let via_trait: Vec<PageDigest> = MemoryImage::digests(&mem);
        let direct: Vec<PageDigest> = (0..4).map(|i| mem.page_digest(PageIndex::new(i))).collect();
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn ram_size_is_pages_times_page_size() {
        let mem = DigestMemory::with_distinct_content(PageCount::new(256), 1);
        assert_eq!(mem.ram_size(), Bytes::from_mib(1));
    }
}
