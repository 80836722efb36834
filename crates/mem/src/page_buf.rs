//! [`PageBuf`]: the owned page payload a transcript message carries.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An owned, cheaply clonable copy of page bytes.
///
/// Behaves like `Box<[u8]>` for readers (`Deref<Target = [u8]>`,
/// content-based equality) but clones by bumping a reference count, so
/// cloning a transcript never copies page bytes.
///
/// # Examples
///
/// ```
/// use vecycle_mem::PageBuf;
///
/// let buf = PageBuf::copy_from(b"page bytes");
/// assert_eq!(&*buf, b"page bytes");
/// assert_eq!(buf, PageBuf::copy_from(b"page bytes")); // content equality
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PageBuf(Arc<[u8]>);

impl PageBuf {
    /// A buffer holding a copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> Self {
        PageBuf(Arc::from(bytes))
    }
}

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
        PageBuf(Arc::from(bytes))
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
        assert!(Arc::ptr_eq(&buf.0, &buf.clone().0));
    }

    #[test]
    fn conversions_preserve_bytes() {
        let v: PageBuf = vec![1u8, 2, 3].into();
        assert_eq!(v, PageBuf::copy_from(&[1, 2, 3]));
        assert_eq!(v.as_ref(), &[1, 2, 3]);
        assert_eq!(format!("{v:?}"), "[1, 2, 3]");
    }
}
