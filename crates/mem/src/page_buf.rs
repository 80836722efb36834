//! [`PageBuf`]: the one buffer a page's bytes live in.
//!
//! A whole-page buffer is recycled rather than freed: when its last
//! handle drops, it goes onto the dropping thread's free list, and
//! [`PageBuf::new_page`] takes from that list (zeroing the buffer) before
//! it asks the allocator. A byte-path leg drops the checkpoint it merged
//! and verified just before the next leg loads one of the same size, so
//! in the steady state the load and the copy-on-write guest pages reuse
//! those buffers and allocate none. The list holds at most
//! `FREE_LIST_PAGES` buffers; a buffer another handle still shares
//! never enters it, and one dropped while its thread exits is freed.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use vecycle_types::PAGE_SIZE;

/// Most buffers a thread's free list keeps: 16 MiB, the pages of two
/// loads of an 8 MiB guest.
const FREE_LIST_PAGES: usize = 4096;

thread_local! {
    /// Buffers this thread has handed out; see [`PageBuf::allocated`].
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Those of them the allocator supplied; see [`PageBuf::allocated_fresh`].
    static FRESH: Cell<u64> = const { Cell::new(0) };
    /// Whole-page buffers whose last handle this thread dropped.
    static FREE: RefCell<Vec<Arc<[u8]>>> = const { RefCell::new(Vec::new()) };
}

/// Owned page bytes, shared by reference count.
///
/// This is the unit of ownership wherever a real page lives: a
/// [`crate::ByteMemory`] holds one per page, a full-byte checkpoint holds
/// one per page, a transcript's full-page message holds one. Cloning
/// bumps a count, so capturing, restoring, relocating and sending a page
/// all share the buffer the page was first written or read into; a
/// holder that wants to *change* a shared page replaces its handle
/// ([`PageBuf::get_mut`] says whether it has to). Readers see a
/// `Box<[u8]>`: `Deref<Target = [u8]>` and content equality.
///
/// # Examples
///
/// ```
/// use vecycle_mem::PageBuf;
///
/// let buf = PageBuf::copy_from(b"page bytes");
/// assert_eq!(&*buf, b"page bytes");
/// assert_eq!(buf, PageBuf::copy_from(b"page bytes")); // content equality
/// let mut held = buf.clone();
/// assert!(held.shares_with(&buf) && held.get_mut().is_none());
/// ```
#[derive(Clone)]
pub struct PageBuf(Arc<[u8]>);

impl PageBuf {
    /// A buffer holding a copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> Self {
        Self::fresh(Arc::from(bytes))
    }

    /// An unshared, zero-filled page for the caller to fill through
    /// [`PageBuf::get_mut`]: a recycled buffer off this thread's free
    /// list if it has one, else a fresh one.
    pub fn new_page() -> Self {
        match FREE.try_with(|free| free.borrow_mut().pop()) {
            Ok(Some(mut bytes)) => {
                Arc::get_mut(&mut bytes)
                    .expect("a listed buffer has no other handle")
                    .fill(0);
                Self::count(bytes)
            }
            _ => Self::fresh(std::iter::repeat_n(0u8, PAGE_SIZE as usize).collect()),
        }
    }

    /// The all-zero page: every call returns a handle to one static
    /// buffer, so zero pages cost no memory however many a guest has.
    pub fn zero_page() -> Self {
        static ZERO: OnceLock<PageBuf> = OnceLock::new();
        ZERO.get_or_init(PageBuf::new_page).clone()
    }

    /// Every buffer the allocator supplies is born here.
    fn fresh(bytes: Arc<[u8]>) -> Self {
        FRESH.with(|n| n.set(n.get() + 1));
        Self::count(bytes)
    }

    /// Every buffer handed out passes here, so the count is exact.
    fn count(bytes: Arc<[u8]>) -> Self {
        ALLOCATED.with(|n| n.set(n.get() + 1));
        PageBuf(bytes)
    }

    /// How many buffers the calling thread has handed out so far, fresh
    /// or recycled (clones hand out none). Tests difference two readings
    /// to show that a code path shares pages instead of copying them.
    pub fn allocated() -> u64 {
        ALLOCATED.with(Cell::get)
    }

    /// How many of [`PageBuf::allocated`]'s buffers the allocator
    /// supplied rather than the thread's free list.
    pub fn allocated_fresh() -> u64 {
        FRESH.with(Cell::get)
    }

    /// The bytes for writing in place, if no other handle shares them.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(&mut self.0)
    }

    /// True if both handles point at the same buffer.
    pub fn shares_with(&self, other: &PageBuf) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The last handle to a whole-page buffer lists it for reuse.
impl Drop for PageBuf {
    fn drop(&mut self) {
        if self.0.len() != PAGE_SIZE as usize || Arc::get_mut(&mut self.0).is_none() {
            return;
        }
        // Take the buffer out; the placeholder left behind allocates
        // nothing.
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        let empty = Arc::clone(EMPTY.get_or_init(|| Arc::from([])));
        let bytes = std::mem::replace(&mut self.0, empty);
        // While the thread exits its list may be gone: then the buffer
        // is freed here.
        let _ = FREE.try_with(|free| {
            let mut free = free.borrow_mut();
            if free.len() < FREE_LIST_PAGES {
                free.push(bytes);
            }
        });
    }
}

/// Content equality; handles to one buffer are equal without a compare.
impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.shares_with(other) || self.0 == other.0
    }
}

impl Eq for PageBuf {}

impl Deref for PageBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for PageBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as the byte slice, like Box<[u8]> would.
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<u8>> for PageBuf {
    fn from(bytes: Vec<u8>) -> Self {
        Self::fresh(Arc::from(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_content_and_clones_share_the_bytes() {
        let buf = PageBuf::copy_from(b"same");
        assert_eq!(buf, PageBuf::copy_from(b"same"));
        assert_ne!(buf, PageBuf::copy_from(b"diff"));
        assert!(buf.shares_with(&buf.clone()));
        assert!(!buf.shares_with(&PageBuf::copy_from(b"same")));
    }

    #[test]
    fn conversions_preserve_bytes() {
        let v: PageBuf = vec![1u8, 2, 3].into();
        assert_eq!(v, PageBuf::copy_from(&[1, 2, 3]));
        assert_eq!(v.as_ref(), &[1, 2, 3]);
        assert_eq!(format!("{v:?}"), "[1, 2, 3]");
    }

    #[test]
    fn only_an_unshared_buffer_is_writable_and_only_constructors_count() {
        let before = PageBuf::allocated();
        let mut page = PageBuf::new_page();
        assert_eq!(page.len() as u64, PAGE_SIZE);
        page.get_mut().expect("fresh buffer is unshared")[7] = 9;
        let held = page.clone();
        assert!(page.get_mut().is_none());
        drop(held);
        assert_eq!(page.get_mut().expect("sole handle again")[7], 9);
        assert_eq!(PageBuf::allocated() - before, 1);
        // The zero page is one buffer however often it is asked for.
        let zero = PageBuf::zero_page();
        let after_first = PageBuf::allocated();
        assert!(zero.shares_with(&PageBuf::zero_page()));
        assert!(zero.iter().all(|&b| b == 0) && zero.len() as u64 == PAGE_SIZE);
        assert_eq!(PageBuf::allocated(), after_first);
    }

    fn listed() -> usize {
        FREE.with(|free| free.borrow().len())
    }

    #[test]
    fn a_recycled_buffer_comes_back_all_zero() {
        let mut page = PageBuf::new_page();
        page.get_mut().unwrap().fill(0xa5);
        let at = page.as_ptr();
        drop(page);
        let fresh = PageBuf::allocated_fresh();
        let mut again = PageBuf::new_page();
        assert_eq!((again.as_ptr(), PageBuf::allocated_fresh()), (at, fresh));
        assert!(again.iter().all(|&b| b == 0));
        assert!(again.get_mut().is_some(), "a recycled buffer is unshared");
        // Buffers that are not one whole page are freed, not listed.
        let before = listed();
        drop(PageBuf::copy_from(b"short"));
        assert_eq!(listed(), before);
    }

    #[test]
    fn a_buffer_a_checkpoint_still_holds_is_not_listed() {
        let mem = crate::ByteMemory::with_distinct_content(vecycle_types::PageCount::new(8), 3);
        // What a full-byte checkpoint captures: a handle to every page.
        let held: Vec<PageBuf> = mem.pages().to_vec();
        let bytes: Vec<Vec<u8>> = held.iter().map(|p| p.to_vec()).collect();
        let before = listed();
        drop(mem);
        assert_eq!(listed(), before, "every page is still shared");
        let taken: Vec<PageBuf> = (0..before + 8).map(|_| PageBuf::new_page()).collect();
        for page in &taken {
            assert!(held.iter().all(|h| !h.shares_with(page)));
        }
        assert!(held.iter().map(|p| p.to_vec()).eq(bytes));
        // Once the checkpoint lets go too, its pages are listed.
        drop(held);
        assert_eq!(listed(), 8);
    }

    #[test]
    fn the_list_never_grows_past_its_cap() {
        let pages: Vec<PageBuf> = (0..FREE_LIST_PAGES + 5)
            .map(|_| PageBuf::new_page())
            .collect();
        drop(pages);
        assert_eq!(listed(), FREE_LIST_PAGES);
        let fresh = PageBuf::allocated_fresh();
        let pages: Vec<PageBuf> = (0..FREE_LIST_PAGES + 1)
            .map(|_| PageBuf::new_page())
            .collect();
        assert_eq!((listed(), PageBuf::allocated_fresh()), (0, fresh + 1));
        drop(pages);
        assert_eq!(listed(), FREE_LIST_PAGES);
    }

    #[test]
    fn dropping_buffers_while_a_thread_exits_does_not_panic() {
        thread_local! {
            static HELD: RefCell<Vec<PageBuf>> = const { RefCell::new(Vec::new()) };
        }
        // Thread-local destructors run in an unspecified order: register
        // the list before the holder on one thread and after it on the
        // other, so one of them drops pages after the list is gone.
        for list_first in [true, false] {
            std::thread::spawn(move || {
                if list_first {
                    drop(PageBuf::new_page());
                }
                HELD.with(|held| {
                    held.borrow_mut()
                        .extend((0..3).map(|_| PageBuf::new_page()))
                });
                drop(PageBuf::new_page());
            })
            .join()
            .expect("thread teardown drops pages without a panic");
        }
    }
}
