//! [`TrafficLedger`]: byte-accurate accounting of migration traffic.

use serde::{Deserialize, Serialize};

use vecycle_types::Bytes;

/// What a chunk of migration traffic paid for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficCategory {
    /// Full page payloads.
    FullPages,
    /// Checksum-only page messages.
    Checksums,
    /// The bulk checksum pre-exchange (destination → source).
    BulkExchange,
    /// Dedup back-references.
    DedupRefs,
    /// Zero-page markers (QEMU's zero-page suppression).
    ZeroMarkers,
    /// Control messages (round markers, completion handshake).
    Control,
}

impl TrafficCategory {
    /// All categories, in display order — which is declaration order,
    /// so `category as usize` is its slot.
    pub const ALL: [TrafficCategory; 6] = [
        TrafficCategory::FullPages,
        TrafficCategory::Checksums,
        TrafficCategory::BulkExchange,
        TrafficCategory::DedupRefs,
        TrafficCategory::ZeroMarkers,
        TrafficCategory::Control,
    ];
}

/// Per-category byte and message counters for one migration.
///
/// # Examples
///
/// ```
/// use vecycle_net::{TrafficCategory, TrafficLedger};
/// use vecycle_types::Bytes;
///
/// let mut ledger = TrafficLedger::new();
/// ledger.record(TrafficCategory::FullPages, Bytes::from_kib(4));
/// ledger.record(TrafficCategory::Checksums, Bytes::new(28));
/// assert_eq!(ledger.total(), Bytes::new(4096 + 28));
/// assert_eq!(ledger.messages(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficLedger {
    bytes: [u64; 6],
    messages: [u64; 6],
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// Records one message of `size` in `category`.
    pub fn record(&mut self, category: TrafficCategory, size: Bytes) {
        let i = Self::slot(category);
        self.bytes[i] += size.as_u64();
        self.messages[i] += 1;
    }

    /// Records `count` identical messages of `size` each.
    pub fn record_many(&mut self, category: TrafficCategory, count: u64, size: Bytes) {
        let i = Self::slot(category);
        self.bytes[i] += size.as_u64() * count;
        self.messages[i] += count;
    }

    /// Bytes recorded in one category.
    pub fn bytes_in(&self, category: TrafficCategory) -> Bytes {
        Bytes::new(self.bytes[Self::slot(category)])
    }

    /// Messages recorded in one category.
    pub(crate) fn messages_in(&self, category: TrafficCategory) -> u64 {
        self.messages[Self::slot(category)]
    }

    /// Total bytes across all categories.
    pub fn total(&self) -> Bytes {
        Bytes::new(self.bytes.iter().sum())
    }

    /// Total messages across all categories.
    pub fn messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &TrafficLedger) {
        for i in 0..self.bytes.len() {
            self.bytes[i] += other.bytes[i];
            self.messages[i] += other.messages[i];
        }
    }

    fn slot(category: TrafficCategory) -> usize {
        category as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_declaration_order() {
        for (i, c) in TrafficCategory::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
    }

    #[test]
    fn empty_ledger_is_zero() {
        let l = TrafficLedger::new();
        assert_eq!(l.total(), Bytes::ZERO);
        assert_eq!(l.messages(), 0);
    }

    #[test]
    fn record_many_multiplies() {
        let mut l = TrafficLedger::new();
        l.record_many(TrafficCategory::Checksums, 10, Bytes::new(28));
        assert_eq!(l.bytes_in(TrafficCategory::Checksums), Bytes::new(280));
        assert_eq!(l.messages_in(TrafficCategory::Checksums), 10);
        assert_eq!(l.bytes_in(TrafficCategory::FullPages), Bytes::ZERO);
    }

    #[test]
    fn merge_adds_per_category() {
        let mut a = TrafficLedger::new();
        a.record(TrafficCategory::FullPages, Bytes::new(100));
        let mut b = TrafficLedger::new();
        b.record(TrafficCategory::FullPages, Bytes::new(50));
        b.record(TrafficCategory::Control, Bytes::new(5));
        a.merge(&b);
        assert_eq!(a.bytes_in(TrafficCategory::FullPages), Bytes::new(150));
        assert_eq!(a.total(), Bytes::new(155));
        assert_eq!(a.messages(), 3);
    }

    #[test]
    fn categories_are_isolated() {
        let mut l = TrafficLedger::new();
        for (i, c) in TrafficCategory::ALL.into_iter().enumerate() {
            l.record(c, Bytes::new((i as u64 + 1) * 10));
        }
        for (i, c) in TrafficCategory::ALL.into_iter().enumerate() {
            assert_eq!(l.bytes_in(c), Bytes::new((i as u64 + 1) * 10));
        }
        assert_eq!(l.total(), Bytes::new(10 + 20 + 30 + 40 + 50 + 60));
    }
}
