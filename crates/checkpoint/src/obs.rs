//! Metrics export for the checkpoint layer.
//!
//! The checkpoint store itself is passive — indexes are built and
//! partial checkpoints assembled on behalf of a session — so the
//! observability hooks here are invoked by a caller at the moment the
//! corresponding artifact exists: [`IndexSeries`] per migration,
//! [`observe_partial`] after an aborted attempt. Keeping them here
//! (rather than in the session) pins the metric names and label schema
//! next to the data structures they describe.

use std::sync::OnceLock;

use vecycle_obs::{Counter, Gauge, MetricsRegistry};

use crate::{ChecksumIndex, PartialCheckpoint};

/// The index series of one `source` — where the digests came from:
/// `"checkpoint"` for a stored image, `"partial"` for a resumed
/// transfer, `"merged"` for both — each resolved on its first record.
#[derive(Debug)]
pub struct IndexSeries {
    metrics: MetricsRegistry,
    source: &'static str,
    builds: OnceLock<Counter>,
    entries: OnceLock<Gauge>,
}

impl IndexSeries {
    /// The series of `source`; resolves nothing yet.
    pub fn new(metrics: &MetricsRegistry, source: &'static str) -> Self {
        IndexSeries {
            metrics: metrics.clone(),
            source,
            builds: OnceLock::new(),
            entries: OnceLock::new(),
        }
    }

    /// Records a freshly built [`ChecksumIndex`]: bumps
    /// `checkpoint_index_builds_total{source}` and sets
    /// `checkpoint_index_entries{source}` to the number of indexed pages.
    pub fn record(&self, index: &ChecksumIndex) {
        let labels = [("source", self.source)];
        let m = &self.metrics;
        let builds = (self.builds)
            .get_or_init(|| m.resolve_counter("checkpoint_index_builds_total", &labels));
        builds.inc(1);
        let entries =
            (self.entries).get_or_init(|| m.resolve_gauge("checkpoint_index_entries", &labels));
        entries.set(index.total_pages() as f64);
    }
}

/// Records a [`PartialCheckpoint`] left behind by an interrupted
/// migration: the landed-page count feeds
/// `checkpoint_partial_landed_pages_total` and the coverage ratio the
/// `checkpoint_partial_coverage` gauge, so a failure sweep can show how
/// much of an aborted leg's work the resume path gets to keep.
pub fn observe_partial(metrics: &MetricsRegistry, partial: &PartialCheckpoint) {
    metrics.inc(
        "checkpoint_partial_landed_pages_total",
        &[],
        partial.landed_pages().as_u64(),
    );
    metrics.set_gauge(
        "checkpoint_partial_coverage",
        &[],
        partial.coverage().as_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_types::{PageDigest, VmId};

    fn digest(id: u64) -> PageDigest {
        PageDigest::from_content_id(id)
    }

    #[test]
    fn index_export_sets_entries_gauge() {
        let index = ChecksumIndex::from_pages(&[digest(1), digest(2), digest(3)]);
        let m = MetricsRegistry::new();
        let series = IndexSeries::new(&m, "checkpoint");
        series.record(&index);
        series.record(&index);
        assert_eq!(
            m.counter("checkpoint_index_builds_total", &[("source", "checkpoint")]),
            2
        );
        let snap = m.snapshot();
        let entries = snap
            .gauges
            .iter()
            .find(|g| g.name == "checkpoint_index_entries")
            .unwrap();
        assert!((entries.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_export_tracks_coverage() {
        let landed = vec![Some(digest(7)), None, Some(digest(9)), None];
        let partial = PartialCheckpoint::new(VmId::new(1), landed);
        let m = MetricsRegistry::new();
        observe_partial(&m, &partial);
        assert_eq!(m.counter("checkpoint_partial_landed_pages_total", &[]), 2);
        let snap = m.snapshot();
        let coverage = snap
            .gauges
            .iter()
            .find(|g| g.name == "checkpoint_partial_coverage")
            .unwrap();
        assert!((coverage.value - 0.5).abs() < 1e-12);
    }
}
