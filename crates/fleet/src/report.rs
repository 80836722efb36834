//! The fleet run report: journal plus aggregate accounting.

use std::collections::BTreeMap;
use std::fmt;

use vecycle_types::{Bytes, SimDuration};

use crate::journal::{self, PlacementDecision};

/// Everything a fleet run produced. All fields are deterministic:
/// byte-for-byte identical across repeat runs of the same
/// [`FleetSpec`](crate::FleetSpec).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One record per executed migration, in execution order.
    pub decisions: Vec<PlacementDecision>,
    /// Executed migrations (same as `decisions.len()`).
    pub migrations: u64,
    /// Requests dropped because the VM was already migrating.
    pub skipped: u64,
    /// Requests the timing policy deferred past their arrival.
    pub deferred: u64,
    /// Requests that waited in the admission queue at least once.
    pub queued: u64,
    /// Aware placements that found a warm checkpoint.
    pub placement_hits: u64,
    /// Aware placements that fell back cold (plus blind/random picks).
    pub placement_misses: u64,
    /// Migrations finishing past their request deadline.
    pub deadline_misses: u64,
    /// High-water mark of the admission queue.
    pub peak_queue_depth: u64,
    /// High-water mark of concurrent migrations.
    pub peak_inflight: u64,
    /// Sum of source-send traffic over all migrations.
    pub total_traffic: Bytes,
    /// Sum of traffic burnt by failed attempts.
    pub total_wasted: Bytes,
    /// Sum of stop-and-copy downtime.
    pub total_downtime: SimDuration,
    /// Sum of per-migration durations (includes retries).
    pub total_duration: SimDuration,
    /// Last completion instant, as a duration since epoch.
    pub makespan: SimDuration,
    /// Executed-migration count per outcome label.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Session incident transcript (aborts, fallbacks, ...), rendered.
    pub incidents: Vec<String>,
}

impl FleetReport {
    /// The journal as JSON Lines (the CI artifact format).
    pub fn journal_jsonl(&self) -> String {
        journal::to_jsonl(&self.decisions)
    }

    /// Warm-placement rate over executed migrations.
    pub fn hit_rate(&self) -> f64 {
        if self.migrations == 0 {
            0.0
        } else {
            self.placement_hits as f64 / self.migrations as f64
        }
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} migrations ({} skipped, {} deferred, {} queued)",
            self.migrations, self.skipped, self.deferred, self.queued
        )?;
        writeln!(
            f,
            "placement: {} warm / {} cold-or-blind ({:.1}% hit rate)",
            self.placement_hits,
            self.placement_misses,
            self.hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "traffic: {} total ({} wasted), downtime {}, makespan {}",
            self.total_traffic, self.total_wasted, self.total_downtime, self.makespan
        )?;
        writeln!(
            f,
            "concurrency: peak {} inflight, peak queue {}, {} deadline misses",
            self.peak_inflight, self.peak_queue_depth, self.deadline_misses
        )?;
        for (outcome, n) in &self.outcomes {
            writeln!(f, "  outcome {outcome}: {n}")?;
        }
        Ok(())
    }
}
