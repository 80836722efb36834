//! [`PageBuf`]: the one buffer a page's bytes live in.

use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use vecycle_types::PAGE_SIZE;

thread_local! {
    /// Buffers this thread has allocated; see [`PageBuf::allocated`].
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
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
        Self::count(Arc::from(bytes))
    }

    /// A fresh, unshared, zero-filled page for the caller to fill
    /// through [`PageBuf::get_mut`].
    pub fn new_page() -> Self {
        Self::count(std::iter::repeat_n(0u8, PAGE_SIZE as usize).collect())
    }

    /// The all-zero page: every call returns a handle to one static
    /// buffer, so zero pages cost no memory however many a guest has.
    pub fn zero_page() -> Self {
        static ZERO: OnceLock<PageBuf> = OnceLock::new();
        ZERO.get_or_init(PageBuf::new_page).clone()
    }

    /// Every buffer is born here, so the count is exact.
    fn count(bytes: Arc<[u8]>) -> Self {
        ALLOCATED.with(|n| n.set(n.get() + 1));
        PageBuf(bytes)
    }

    /// How many buffers the calling thread has allocated so far (clones
    /// allocate nothing). Tests difference two readings to show that a
    /// code path shares pages instead of copying them.
    pub fn allocated() -> u64 {
        ALLOCATED.with(Cell::get)
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
        Self::count(Arc::from(bytes))
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
}
