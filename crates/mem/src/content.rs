//! The [`PageContent`] write payload.

use vecycle_types::{PageDigest, PAGE_SIZE};

/// The content written into a page, in whichever representation the
/// memory image stores.
///
/// Workloads describe writes abstractly — "fresh content with ID 17",
/// "these literal bytes", "zeros" — and each memory representation
/// materializes them: [`crate::DigestMemory`] maps content IDs straight to
/// digests, while [`crate::ByteMemory`] expands them to deterministic
/// 4 KiB byte patterns and hashes those with real MD5. Crucially, the two
/// representations *agree*: writing the same `PageContent` to either
/// yields pages that compare equal by digest, so digest-level experiments
/// and byte-level tests exercise the same logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageContent<'a> {
    /// Literal page bytes; must be at most one page (shorter slices are
    /// zero-padded to the right).
    Bytes(&'a [u8]),
    /// Synthetic content identified by a 64-bit ID; the same ID always
    /// produces the same page content. ID 0 is the zero page.
    ContentId(u64),
    /// The all-zero page.
    Zero,
}

impl PageContent<'_> {
    /// Expands this content to a full 4 KiB page of bytes.
    ///
    /// # Panics
    ///
    /// Panics if a `Bytes` payload is longer than one page.
    pub fn materialize(&self) -> Vec<u8> {
        let mut out = vec![0u8; PAGE_SIZE as usize];
        self.write_into(&mut out);
        out
    }

    /// Expands this content in place into a page-sized buffer, avoiding
    /// the temporary allocation of [`PageContent::materialize`] — the
    /// destination merge writes tens of thousands of pages per restore.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not exactly one page, or if a `Bytes` payload
    /// is longer than one page.
    pub(crate) fn write_into(&self, dst: &mut [u8]) {
        let page = PAGE_SIZE as usize;
        assert_eq!(dst.len(), page, "write_into needs a page-sized buffer");
        match *self {
            PageContent::Bytes(b) => {
                assert!(b.len() <= page, "page payload too large: {}", b.len());
                dst[..b.len()].copy_from_slice(b);
                dst[b.len()..].fill(0);
            }
            PageContent::ContentId(0) | PageContent::Zero => dst.fill(0),
            PageContent::ContentId(id) => {
                // A xorshift-style stream keyed by the ID: cheap,
                // deterministic and collision-free across IDs because the
                // first 8 bytes are the ID itself.
                dst[..8].copy_from_slice(&id.to_le_bytes());
                let mut s = id | 1;
                for chunk in dst[8..].chunks_mut(8) {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let b = s.to_le_bytes();
                    chunk.copy_from_slice(&b[..chunk.len()]);
                }
            }
        }
    }

    /// The digest this content will have in a [`crate::DigestMemory`].
    ///
    /// For `Bytes` payloads this hashes the materialized page with real
    /// MD5; for content IDs it uses the injective ID-to-digest expansion.
    pub fn digest(&self) -> PageDigest {
        match *self {
            PageContent::Bytes(b) => vecycle_hash::page_digest(&{
                // Hash the padded page so short and padded writes agree.
                PageContent::Bytes(b).materialize()
            }),
            PageContent::ContentId(id) => PageDigest::from_content_id(id),
            PageContent::Zero => PageDigest::ZERO_PAGE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_id_zero_agree() {
        assert_eq!(PageContent::Zero.digest(), PageDigest::ZERO_PAGE);
        assert_eq!(PageContent::ContentId(0).digest(), PageDigest::ZERO_PAGE);
        assert_eq!(PageContent::Zero.materialize(), vec![0u8; 4096]);
    }

    #[test]
    fn materialize_is_deterministic_and_id_prefixed() {
        let a = PageContent::ContentId(42).materialize();
        let b = PageContent::ContentId(42).materialize();
        assert_eq!(a, b);
        assert_eq!(&a[..8], &42u64.to_le_bytes());
        assert_ne!(a, PageContent::ContentId(43).materialize());
    }

    #[test]
    fn bytes_are_padded() {
        let m = PageContent::Bytes(b"hello").materialize();
        assert_eq!(m.len(), 4096);
        assert_eq!(&m[..5], b"hello");
        assert!(m[5..].iter().all(|&b| b == 0));
    }

    /// `write_into` overwrites whatever the buffer held — including the
    /// zero-padding tail of a short write — matching `materialize`.
    #[test]
    fn write_into_matches_materialize_over_dirty_buffer() {
        for content in [
            PageContent::Bytes(b"short"),
            PageContent::ContentId(0),
            PageContent::ContentId(99),
            PageContent::Zero,
        ] {
            let mut buf = vec![0xffu8; 4096];
            content.write_into(&mut buf);
            assert_eq!(buf, content.materialize(), "{content:?}");
        }
    }

    #[test]
    #[should_panic(expected = "page-sized buffer")]
    fn write_into_rejects_wrong_size() {
        PageContent::Zero.write_into(&mut [0u8; 100]);
    }

    #[test]
    fn short_write_digest_matches_padded_write() {
        let short = PageContent::Bytes(b"hi").digest();
        let mut full = vec![0u8; 4096];
        full[..2].copy_from_slice(b"hi");
        assert_eq!(short, PageContent::Bytes(&full).digest());
    }

    #[test]
    #[should_panic(expected = "page payload too large")]
    fn oversized_bytes_panic() {
        let big = vec![1u8; 4097];
        let _ = PageContent::Bytes(&big).materialize();
    }

    #[test]
    fn empty_bytes_is_zero_page() {
        assert_eq!(PageContent::Bytes(&[]).digest(), PageDigest::ZERO_PAGE);
    }
}
