//! The placement-decision journal: one record per executed migration.
//!
//! The journal is the fleet's determinism witness — CI uploads it as
//! an artifact on failure and the parallel-props suite compares it
//! byte-for-byte across repeat runs. Every field is integral or a
//! stable label; nothing wall-clock-dependent may enter.

use serde::{Deserialize, Serialize};

/// One executed migration, as the placement engine saw it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// Execution sequence number (also the fault-plan leg index).
    pub seq: u64,
    /// Simulated nanoseconds since epoch when the migration started.
    pub at_nanos: u64,
    /// The migrating VM.
    pub vm: u32,
    /// Source host.
    pub from: u32,
    /// Chosen destination host.
    pub to: u32,
    /// Why this destination: `warm` / `cold` / `blind` / `random` /
    /// `pinned`.
    pub reason: String,
    /// Nanoseconds the timing policy deferred the start past arrival.
    pub deferred_nanos: u64,
    /// Nanoseconds spent queued behind admission control.
    pub queued_nanos: u64,
    /// Source-send traffic of the executed migration, bytes.
    pub traffic_bytes: u64,
    /// Traffic burnt by failed attempts, bytes.
    pub wasted_bytes: u64,
    /// Stop-and-copy downtime, nanoseconds.
    pub downtime_nanos: u64,
    /// Total migration duration including retries, nanoseconds.
    pub duration_nanos: u64,
    /// Outcome label (`completed`, `failed`, ...).
    pub outcome: String,
    /// True if the migration finished past the request's deadline.
    pub deadline_missed: bool,
}

/// Renders decisions as JSON Lines (one canonical object per line) —
/// the CI artifact format.
pub fn to_jsonl(decisions: &[PlacementDecision]) -> String {
    let mut out = String::new();
    for d in decisions {
        out.push_str(&serde_json::to_string(d).expect("decision serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(seq: u64) -> PlacementDecision {
        PlacementDecision {
            seq,
            at_nanos: 1_000,
            vm: 3,
            from: 0,
            to: 2,
            reason: "warm".into(),
            deferred_nanos: 0,
            queued_nanos: 500,
            traffic_bytes: 131_072,
            wasted_bytes: 0,
            downtime_nanos: 2_000,
            duration_nanos: 9_000,
            outcome: "completed".into(),
            deadline_missed: false,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let ds = vec![decision(0), decision(1)];
        let text = to_jsonl(&ds);
        assert_eq!(text.lines().count(), 2);
        let back: Vec<PlacementDecision> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, ds);
    }
}
