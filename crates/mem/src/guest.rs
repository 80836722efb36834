//! [`Guest`]: a memory image observed by dirty and generation trackers.

use vecycle_types::{Bytes, PageCount, PageDigest, PageIndex};

use crate::{DirtyTracker, GenerationTable, MemoryImage, MutableMemory, PageBuf, PageContent};

/// A running guest: memory plus the trackers a hypervisor maintains.
///
/// Every write through [`Guest::write_page`] is seen by the dirty bitmap
/// (KVM dirty logging) *and* any generation table (Miyakodori), exactly as
/// both mechanisms would observe the same write in a real hypervisor. The
/// memory representation `M` is either [`crate::DigestMemory`] or
/// [`crate::ByteMemory`].
///
/// # Examples
///
/// ```
/// use vecycle_mem::{DigestMemory, Guest, MemoryImage, PageContent};
/// use vecycle_types::{PageCount, PageIndex};
///
/// let mem = DigestMemory::with_distinct_content(PageCount::new(8), 1);
/// let mut guest = Guest::with_generations(mem);
/// guest.write_page(PageIndex::new(3), PageContent::ContentId(77));
/// assert_eq!(guest.dirty().dirty_count(), PageCount::new(1));
/// let generations = guest.generations().expect("tracked");
/// assert_eq!(generations.generation(PageIndex::new(3)).as_u64(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Guest<M> {
    memory: M,
    dirty: DirtyTracker,
    generations: Option<GenerationTable>,
}

impl<M: MutableMemory> Guest<M> {
    /// Wraps a memory image with a fresh (clean) dirty bitmap.
    pub fn new(memory: M) -> Self {
        let pages = memory.page_count();
        Guest {
            memory,
            dirty: DirtyTracker::new(pages),
            generations: None,
        }
    }

    /// [`Guest::new`] plus a generation table, which only Miyakodori reads.
    pub fn with_generations(memory: M) -> Self {
        let generations = Some(GenerationTable::new(memory.page_count()));
        Guest {
            generations,
            ..Guest::new(memory)
        }
    }

    /// The guest's memory image.
    pub fn memory(&self) -> &M {
        &self.memory
    }

    /// Consumes the guest, returning its memory image.
    pub fn into_memory(self) -> M {
        self.memory
    }

    /// The dirty bitmap.
    pub fn dirty(&self) -> &DirtyTracker {
        &self.dirty
    }

    /// Mutable access to the dirty bitmap (the migration engine drains it
    /// once per pre-copy round).
    pub fn dirty_mut(&mut self) -> &mut DirtyTracker {
        &mut self.dirty
    }

    /// The generation table, if made [`Guest::with_generations`].
    pub fn generations(&self) -> Option<&GenerationTable> {
        self.generations.as_ref()
    }

    /// Total RAM of the guest.
    pub fn ram_size(&self) -> Bytes {
        self.memory.ram_size()
    }

    /// Number of pages.
    pub fn page_count(&self) -> PageCount {
        self.memory.page_count()
    }

    /// Writes one page, updating both trackers.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn write_page(&mut self, idx: PageIndex, content: PageContent<'_>) {
        self.memory.write_page(idx, content);
        self.dirty.mark(idx);
        self.generations.iter_mut().for_each(|t| t.bump(idx));
    }

    /// Copies page `src` onto page `dst`, updating trackers for `dst`.
    ///
    /// Relocation makes `dst` *look* dirty to both trackers even though
    /// its new content already exists elsewhere — the overestimation case
    /// content-based redundancy elimination catches and dirty tracking
    /// does not (Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn relocate_page(&mut self, src: PageIndex, dst: PageIndex) {
        self.memory.relocate_page(src, dst);
        self.dirty.mark(dst);
        self.generations.iter_mut().for_each(|t| t.bump(dst));
    }
}

impl<M: MemoryImage> MemoryImage for Guest<M> {
    fn page_count(&self) -> PageCount {
        self.memory.page_count()
    }

    fn page_digest(&self, idx: PageIndex) -> PageDigest {
        self.memory.page_digest(idx)
    }

    fn digests(&self) -> Vec<PageDigest> {
        self.memory.digests()
    }

    fn page_bytes(&self, idx: PageIndex) -> Option<&PageBuf> {
        self.memory.page_bytes(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DigestMemory;

    fn guest(pages: u64) -> Guest<DigestMemory> {
        Guest::with_generations(DigestMemory::with_distinct_content(
            PageCount::new(pages),
            1,
        ))
    }

    #[test]
    fn writes_update_both_trackers() {
        let mut g = guest(8);
        g.write_page(PageIndex::new(5), PageContent::Zero);
        assert!(g.dirty().is_dirty(PageIndex::new(5)));
        let table = g.generations().expect("tracked");
        assert_eq!(table.generation(PageIndex::new(5)).as_u64(), 1);
        assert!(!g.dirty().is_dirty(PageIndex::new(4)));
    }

    #[test]
    fn relocation_marks_destination_only() {
        let mut g = guest(8);
        g.relocate_page(PageIndex::new(1), PageIndex::new(6));
        assert!(g.dirty().is_dirty(PageIndex::new(6)));
        assert!(!g.dirty().is_dirty(PageIndex::new(1)));
        assert_eq!(
            g.page_digest(PageIndex::new(1)),
            g.page_digest(PageIndex::new(6))
        );
    }

    #[test]
    fn draining_dirty_does_not_touch_generations() {
        let mut g = guest(4);
        g.write_page(PageIndex::new(2), PageContent::ContentId(50));
        let drained = g.dirty_mut().drain();
        assert_eq!(drained, vec![PageIndex::new(2)]);
        let table = g.generations().expect("tracked");
        assert_eq!(table.generation(PageIndex::new(2)).as_u64(), 1);
    }

    #[test]
    fn guest_exposes_memory_image() {
        let g = guest(4);
        assert_eq!(g.page_count(), PageCount::new(4));
        assert_eq!(g.digests().len(), 4);
    }
}
