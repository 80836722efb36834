//! [`GenerationTable`]: Miyakodori-style per-page generation counters.

use vecycle_types::{PageCount, PageIndex};

/// A page's write-generation number.
///
/// Incremented every time the page is written after a migration. Two
/// observations of the same page with equal generations mean the page was
/// not written in between — the reuse criterion of Miyakodori (Akiyama et
/// al., IEEE CLOUD 2012), the dirty-tracking alternative the paper
/// compares against in §4.3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Generation(u64);

impl Generation {
    /// The initial generation of an untouched page.
    pub(crate) const INITIAL: Generation = Generation(0);

    /// The raw counter value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next generation.
    #[must_use]
    pub const fn next(self) -> Generation {
        Generation(self.0 + 1)
    }
}

/// Per-page generation counters for a whole guest.
///
/// # Examples
///
/// ```
/// use vecycle_mem::GenerationTable;
/// use vecycle_types::{PageCount, PageIndex};
///
/// let mut t = GenerationTable::new(PageCount::new(4));
/// let snap = t.snapshot();
/// t.bump(PageIndex::new(2));
/// // Pages 0,1,3 kept their generation: Miyakodori would reuse them.
/// assert_eq!(t.unchanged_since(&snap).len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationTable {
    generations: Vec<Generation>,
}

impl GenerationTable {
    /// Creates a table with all pages at the initial generation.
    pub fn new(pages: PageCount) -> Self {
        GenerationTable {
            generations: vec![Generation::INITIAL; pages.as_usize()],
        }
    }

    /// Number of pages covered.
    pub fn page_count(&self) -> PageCount {
        PageCount::new(self.generations.len() as u64)
    }

    /// The generation of one page.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn generation(&self, idx: PageIndex) -> Generation {
        self.generations[idx.as_usize()]
    }

    /// Increments a page's generation (called on every guest write).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn bump(&mut self, idx: PageIndex) {
        let g = &mut self.generations[idx.as_usize()];
        *g = g.next();
    }

    /// Captures the generation vector, as Miyakodori stores alongside a
    /// checkpoint on an outgoing migration.
    pub fn snapshot(&self) -> GenerationSnapshot {
        GenerationSnapshot {
            generations: self.generations.clone(),
        }
    }

    /// Pages whose generation is unchanged since `snap` — the pages
    /// Miyakodori skips on the next incoming migration.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot covers a different number of pages.
    pub fn unchanged_since(&self, snap: &GenerationSnapshot) -> Vec<PageIndex> {
        assert_eq!(
            self.generations.len(),
            snap.generations.len(),
            "snapshot size mismatch"
        );
        self.generations
            .iter()
            .zip(&snap.generations)
            .enumerate()
            .filter(|(_, (now, then))| now == then)
            .map(|(i, _)| PageIndex::new(i as u64))
            .collect()
    }
}

/// An immutable capture of a [`GenerationTable`] at checkpoint time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationSnapshot {
    generations: Vec<Generation>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_all_initial() {
        let t = GenerationTable::new(PageCount::new(3));
        for i in 0..3 {
            assert_eq!(t.generation(PageIndex::new(i)), Generation::INITIAL);
        }
    }

    #[test]
    fn bump_increments_only_target() {
        let mut t = GenerationTable::new(PageCount::new(3));
        t.bump(PageIndex::new(1));
        t.bump(PageIndex::new(1));
        assert_eq!(t.generation(PageIndex::new(1)).as_u64(), 2);
        assert_eq!(t.generation(PageIndex::new(0)).as_u64(), 0);
    }

    #[test]
    fn unchanged_since_detects_writes() {
        let mut t = GenerationTable::new(PageCount::new(5));
        let snap = t.snapshot();
        t.bump(PageIndex::new(0));
        t.bump(PageIndex::new(4));
        let unchanged = t.unchanged_since(&snap);
        assert_eq!(
            unchanged,
            vec![PageIndex::new(1), PageIndex::new(2), PageIndex::new(3)]
        );
    }

    #[test]
    fn rewrite_of_same_content_still_counts_as_changed() {
        // The core Miyakodori weakness: generation counters cannot tell
        // that a write restored identical content.
        let mut t = GenerationTable::new(PageCount::new(1));
        let snap = t.snapshot();
        t.bump(PageIndex::new(0));
        assert!(t.unchanged_since(&snap).is_empty());
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn mismatched_snapshot_panics() {
        let t = GenerationTable::new(PageCount::new(2));
        let snap = GenerationTable::new(PageCount::new(3)).snapshot();
        let _ = t.unchanged_since(&snap);
    }
}
