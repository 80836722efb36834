//! [`ByteMemory`]: a guest memory image backed by real page bytes.

use std::sync::{Mutex, OnceLock};

use vecycle_hash::ChecksumAlgorithm;
use vecycle_types::{PageCount, PageDigest, PageIndex, PAGE_SIZE};

use crate::{MemoryImage, MutableMemory, PageBuf, PageContent};

/// A guest memory image holding actual 4 KiB page contents.
///
/// Each page is its own [`PageBuf`], shared by reference count with
/// whoever else holds that page: a [`ByteMemory::snapshot`], a
/// checkpoint captured from or restored into this memory, a transcript
/// message, another page it was relocated to. All-zero pages share one
/// static buffer. A write never shows through another handle: it goes in
/// place when the page is unshared and otherwise puts a fresh buffer in
/// the page's slot — one page allocated, nothing copied, because every
/// [`PageContent`] covers the whole page.
///
/// Digests are real MD5, computed once per content and *settled on
/// read*: [`MutableMemory::write_page`] only writes bytes and queues the
/// page; the first [`MemoryImage::page_digest`] or
/// [`MemoryImage::digests`] after a burst of writes hashes every queued
/// page in one multi-lane batch
/// ([`vecycle_hash::ChecksumAlgorithm::for_each_digest`]) into its
/// cache, so a page overwritten before anyone asks for its digest is
/// never hashed. Strictly interleaved write/read degenerates
/// to one MD5 per write — the eager cost, never more. Concurrent readers
/// settle behind one mutex, so an unsettled guest is hashed once, not
/// once per reader.
///
/// Callers that already hold a page's digest — a checkpoint restoring
/// itself, the destination merge after verifying a payload — hand it
/// over with [`ByteMemory::from_pages_with_digests`] /
/// [`ByteMemory::write_page_with_digest`] and the page is not hashed
/// again.
///
/// # Examples
///
/// ```
/// use vecycle_mem::{ByteMemory, MemoryImage, MutableMemory, PageContent};
/// use vecycle_types::{PageCount, PageIndex};
///
/// let mut vm = ByteMemory::zeroed(PageCount::new(16));
/// vm.write_page(PageIndex::new(3), PageContent::Bytes(b"guest data"));
/// assert_eq!(&vm.read_page(PageIndex::new(3))[..10], b"guest data");
/// assert!(!vm.page_digest(PageIndex::new(3)).is_zero_page());
/// ```
#[derive(Debug)]
pub struct ByteMemory {
    pages: Vec<PageBuf>,
    /// One set-once cell per page; an empty cell means the page is
    /// queued in `pending`.
    digests: Vec<OnceLock<PageDigest>>,
    pending: Mutex<Pending>,
}

/// Pages written since the last settle. `queued[i]` ⇔ `i` is in `list`,
/// which keeps the list duplicate-free and no longer than the memory.
#[derive(Debug, Clone)]
struct Pending {
    list: Vec<usize>,
    queued: Vec<bool>,
}

impl Clone for ByteMemory {
    fn clone(&self) -> Self {
        ByteMemory {
            pages: self.pages.clone(),
            digests: self.digests.clone(),
            pending: Mutex::new(self.lock_pending().clone()),
        }
    }
}

impl ByteMemory {
    /// Creates an all-zero memory of `pages` pages.
    pub fn zeroed(pages: PageCount) -> Self {
        let n = pages.as_usize();
        Self::from_pages_with_digests(
            vec![PageBuf::zero_page(); n],
            std::iter::repeat_n(PageDigest::ZERO_PAGE, n),
        )
    }

    /// Creates a memory where every page holds distinct deterministic
    /// content derived from `seed`.
    pub fn with_distinct_content(pages: PageCount, seed: u64) -> Self {
        let mut mem = ByteMemory::zeroed(pages);
        for i in 0..pages.as_u64() {
            mem.write_page(
                PageIndex::new(i),
                PageContent::ContentId((seed << 40) ^ (i + 1)),
            );
        }
        mem
    }

    /// Creates a memory sharing `pages`, with the digests the caller
    /// has already derived from exactly those bytes (one per page, in
    /// page order); nothing is hashed or copied. The digests go straight
    /// into the memory's own table, which an iterator that knows its
    /// length sizes once.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or a buffer is not one whole page.
    pub fn from_pages_with_digests(
        pages: Vec<PageBuf>,
        digests: impl IntoIterator<Item = PageDigest>,
    ) -> Self {
        let digests: Vec<OnceLock<PageDigest>> = digests.into_iter().map(OnceLock::from).collect();
        let n = digests.len();
        assert_eq!(pages.len(), n, "{n} digests need {n} pages");
        assert!(
            pages.iter().all(|p| p.len() as u64 == PAGE_SIZE),
            "every buffer is one whole page"
        );
        ByteMemory {
            pages,
            digests,
            pending: Mutex::new(Pending {
                list: Vec::new(),
                queued: vec![false; n],
            }),
        }
    }

    /// Reads one page.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn read_page(&self, idx: PageIndex) -> &PageBuf {
        &self.pages[idx.as_usize()]
    }

    /// Every page's buffer, in page order.
    pub fn pages(&self) -> &[PageBuf] {
        &self.pages
    }

    /// The current state as a memory of its own: it shares every page
    /// with `self` until either side writes it.
    pub fn snapshot(&self) -> ByteMemory {
        self.clone()
    }

    /// True if every page of `self` and `other` is byte-identical.
    pub fn content_equals(&self, other: &ByteMemory) -> bool {
        self.pages == other.pages
    }

    /// Puts `page` in slot `idx`, sharing the buffer, and adopts
    /// `digest` as its digest without hashing: the caller vouches that
    /// it derived or verified `digest` from exactly these bytes.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds or `page` is not one whole page.
    pub fn write_page_with_digest(&mut self, idx: PageIndex, page: PageBuf, digest: PageDigest) {
        assert_eq!(page.len() as u64, PAGE_SIZE, "one whole page");
        self.pages[idx.as_usize()] = page;
        self.digests[idx.as_usize()] = OnceLock::from(digest);
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.pending
            .lock()
            .expect("no reader panics while settling")
    }

    /// Forgets page `i`'s digest and queues it for the next settle.
    fn mark_pending(&mut self, i: usize) {
        self.digests[i] = OnceLock::new();
        let pending = self
            .pending
            .get_mut()
            .expect("no reader panics while settling");
        if !std::mem::replace(&mut pending.queued[i], true) {
            pending.list.push(i);
        }
    }

    /// Hashes every queued page that still lacks a digest, in one batch,
    /// each digest going straight into its page's cell. Readers racing
    /// here serialize on the mutex; the losers find the list empty and
    /// their cells set.
    fn settle(&self) {
        let mut guard = self.lock_pending();
        let Pending { list, queued } = &mut *guard;
        for &i in list.iter() {
            queued[i] = false;
        }
        // A queued page may have been given a digest since (a zero or
        // digest-carrying write): its cell is set, leave it out.
        list.retain(|&i| self.digests[i].get().is_none());
        let views: Vec<&PageBuf> = list.iter().map(|&i| &self.pages[i]).collect();
        ChecksumAlgorithm::Md5.for_each_digest(&views, |k, digest| {
            self.digests[list[k]]
                .set(digest)
                .expect("only settle fills an empty cell, and it holds the lock");
        });
        list.clear();
    }
}

impl MemoryImage for ByteMemory {
    fn page_count(&self) -> PageCount {
        PageCount::new(self.digests.len() as u64)
    }

    fn page_digest(&self, idx: PageIndex) -> PageDigest {
        let cell = &self.digests[idx.as_usize()];
        if let Some(d) = cell.get() {
            return *d;
        }
        self.settle();
        *cell.get().expect("settle fills every empty cell")
    }

    fn page_bytes(&self, idx: PageIndex) -> Option<&PageBuf> {
        Some(self.read_page(idx))
    }

    fn digests(&self) -> Vec<PageDigest> {
        self.settle();
        self.digests
            .iter()
            .map(|cell| *cell.get().expect("settle fills every empty cell"))
            .collect()
    }
}

impl MutableMemory for ByteMemory {
    fn write_page(&mut self, idx: PageIndex, content: PageContent<'_>) {
        let i = idx.as_usize();
        match content {
            PageContent::Zero => {
                self.pages[i] = PageBuf::zero_page();
                self.digests[i] = OnceLock::from(PageDigest::ZERO_PAGE);
            }
            other => {
                let page = &mut self.pages[i];
                if page.get_mut().is_none() {
                    // Shared: leave the other holders their bytes.
                    *page = PageBuf::new_page();
                }
                other.write_into(page.get_mut().expect("unshared or just allocated"));
                self.mark_pending(i);
            }
        }
    }

    fn relocate_page(&mut self, src: PageIndex, dst: PageIndex) {
        self.pages[dst.as_usize()] = self.pages[src.as_usize()].clone();
        match self.digests[src.as_usize()].get().copied() {
            Some(d) => self.digests[dst.as_usize()] = OnceLock::from(d),
            None => self.mark_pending(dst.as_usize()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_pages_have_zero_digest() {
        let m = ByteMemory::zeroed(PageCount::new(4));
        for i in 0..4 {
            assert!(m.page_digest(PageIndex::new(i)).is_zero_page());
        }
    }

    #[test]
    fn digest_matches_real_md5() {
        let mut m = ByteMemory::zeroed(PageCount::new(2));
        m.write_page(PageIndex::new(1), PageContent::Bytes(b"abc"));
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[..3].copy_from_slice(b"abc");
        assert_eq!(
            m.page_digest(PageIndex::new(1)),
            vecycle_hash::page_digest(&page)
        );
    }

    #[test]
    fn digest_agrees_with_digest_memory_for_content_ids() {
        use crate::DigestMemory;
        let mut bytes = ByteMemory::zeroed(PageCount::new(3));
        let mut digests = DigestMemory::zeroed(PageCount::new(3));
        for i in 0..3u64 {
            bytes.write_page(PageIndex::new(i), PageContent::ContentId(100 + i));
            digests.write_page(PageIndex::new(i), PageContent::ContentId(100 + i));
        }
        // The two representations *classify* pages identically: same
        // content ID -> same digest within each representation. They use
        // different digest functions internally (MD5 vs ID expansion), so
        // what must agree is equality structure, not raw digest values.
        for i in 0..3u64 {
            for j in 0..3u64 {
                let idx_i = PageIndex::new(i);
                let idx_j = PageIndex::new(j);
                assert_eq!(
                    bytes.page_digest(idx_i) == bytes.page_digest(idx_j),
                    digests.page_digest(idx_i) == digests.page_digest(idx_j),
                );
            }
        }
    }

    /// `digests()` agrees with the per-page walk when some pages are
    /// settled, some pending, and some were given a digest while queued.
    #[test]
    fn digests_match_per_page_walk_with_pending_pages() {
        let mut m = ByteMemory::with_distinct_content(PageCount::new(12), 3);
        assert!(!m.page_digest(PageIndex::new(0)).is_zero_page()); // settles all 12
        for i in [1u64, 4, 7] {
            m.write_page(PageIndex::new(i), PageContent::ContentId(900 + i));
        }
        m.write_page(PageIndex::new(4), PageContent::Zero);
        let batched = MemoryImage::digests(&m);
        let per_page: Vec<_> = (0..12).map(|i| m.page_digest(PageIndex::new(i))).collect();
        assert_eq!(batched, per_page);
        for (i, d) in batched.iter().enumerate() {
            let page = m.read_page(PageIndex::new(i as u64));
            assert_eq!(*d, vecycle_hash::page_digest(page), "page {i}");
        }
    }

    /// The pending list never outgrows the memory, however writes that
    /// queue a page and writes that hand it a digest alternate.
    #[test]
    fn pending_list_is_bounded_by_the_page_count() {
        let mut m = ByteMemory::zeroed(PageCount::new(2));
        for round in 0..100u64 {
            m.write_page(PageIndex::new(0), PageContent::ContentId(round + 1));
            m.write_page(PageIndex::new(0), PageContent::Zero);
        }
        assert_eq!(m.lock_pending().list, [0]);
        assert!(MemoryImage::digests(&m)[0].is_zero_page());
        assert!(m.lock_pending().list.is_empty());
    }

    #[test]
    fn handed_over_digests_are_adopted_and_survive_a_clone() {
        let src = ByteMemory::with_distinct_content(PageCount::new(4), 8);
        let mut m =
            ByteMemory::from_pages_with_digests(src.pages().to_vec(), MemoryImage::digests(&src));
        assert_eq!(MemoryImage::digests(&m), MemoryImage::digests(&src));
        let idx = PageIndex::new(2);
        m.write_page(idx, PageContent::ContentId(77)); // pending
        m.write_page_with_digest(
            idx,
            src.read_page(PageIndex::new(0)).clone(),
            src.page_digest(PageIndex::new(0)),
        );
        m.write_page(PageIndex::new(3), PageContent::ContentId(78)); // still pending when cloned
        let copy = m.clone();
        assert_eq!(copy.page_digest(idx), src.page_digest(PageIndex::new(0)));
        assert_eq!(
            copy.page_digest(PageIndex::new(3)),
            vecycle_hash::page_digest(m.read_page(PageIndex::new(3)))
        );
        assert_eq!(MemoryImage::digests(&copy), MemoryImage::digests(&m));
    }

    /// Readers racing to settle the same unsettled memory all see the
    /// digests of the bytes.
    #[test]
    fn concurrent_readers_settle_consistently() {
        let m = ByteMemory::with_distinct_content(PageCount::new(64), 4);
        let barrier = std::sync::Barrier::new(4);
        let walks: Vec<Vec<PageDigest>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (0..64).map(|i| m.page_digest(PageIndex::new(i))).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect: Vec<_> = (0..64)
            .map(|i| vecycle_hash::page_digest(m.read_page(PageIndex::new(i))))
            .collect();
        for walk in walks {
            assert_eq!(walk, expect);
        }
    }

    #[test]
    fn relocate_copies_bytes_and_digest() {
        let mut m = ByteMemory::with_distinct_content(PageCount::new(4), 5);
        let src = PageIndex::new(1);
        let dst = PageIndex::new(3);
        m.relocate_page(src, dst);
        assert_eq!(m.read_page(src), m.read_page(dst));
        assert_eq!(m.page_digest(src), m.page_digest(dst));
        // A source that is still pending makes the copy pending too.
        m.write_page(src, PageContent::ContentId(41));
        m.relocate_page(src, PageIndex::new(0));
        assert_eq!(m.page_digest(PageIndex::new(0)), m.page_digest(src));
        assert_eq!(
            m.page_digest(src),
            vecycle_hash::page_digest(m.read_page(src))
        );
    }

    /// Copies share buffers; a write lands in place only where nobody
    /// else is looking, and never allocates more than the page it hits.
    #[test]
    fn pages_are_shared_until_written_and_written_in_place_when_unshared() {
        let p = PageIndex::new;
        let mut m = ByteMemory::with_distinct_content(PageCount::new(4), 6);
        let before = PageBuf::allocated();
        let snap = m.snapshot();
        m.relocate_page(p(0), p(1));
        assert!((0..4).all(|i| i == 1 || m.read_page(p(i)).shares_with(snap.read_page(p(i)))));
        assert!(m.read_page(p(1)).shares_with(m.read_page(p(0))));
        assert_eq!(PageBuf::allocated(), before);

        let old = snap.read_page(p(2)).to_vec();
        m.write_page(p(2), PageContent::ContentId(50));
        assert_eq!(PageBuf::allocated(), before + 1);
        assert_eq!(snap.read_page(p(2))[..], old[..]);
        m.write_page(p(2), PageContent::ContentId(51)); // unshared now
        m.write_page(p(3), PageContent::Zero);
        assert_eq!(PageBuf::allocated(), before + 1);
        assert!(m.read_page(p(3)).shares_with(&PageBuf::zero_page()));
        assert_eq!(
            m.page_digest(p(2)),
            vecycle_hash::page_digest(&PageContent::ContentId(51).materialize())
        );
        assert_eq!(
            snap.page_digest(p(3)),
            vecycle_hash::page_digest(snap.read_page(p(3)))
        );
    }

    #[test]
    fn content_equals_detects_divergence() {
        let a = ByteMemory::with_distinct_content(PageCount::new(4), 5);
        let mut b = a.snapshot();
        assert!(a.content_equals(&b));
        b.write_page(PageIndex::new(0), PageContent::Zero);
        assert!(!a.content_equals(&b));
    }
}
