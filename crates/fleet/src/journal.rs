//! The placement-decision journal: one record per executed migration.
//!
//! The journal is the fleet's determinism witness — CI uploads it as
//! an artifact on failure and the parallel-props suite compares it
//! byte-for-byte across repeat runs. Every field is integral or a
//! stable label; nothing wall-clock-dependent may enter.

use serde::{Deserialize, Error, Serialize, Value};
use vecycle_core::MigrationOutcome;

use crate::placement::ChoiceKind;

/// One executed migration, as the placement engine saw it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
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
    /// `pinned` (the placement kinds' labels).
    pub reason: &'static str,
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
    /// Outcome label (`completed`, `failed`, ...: one of
    /// [`MigrationOutcome::LABELS`]).
    pub outcome: &'static str,
    /// True if the migration finished past the request's deadline.
    pub deadline_missed: bool,
}

/// Field by field, as the derive would, except that `reason` and
/// `outcome` must be one of their fixed labels: a journal line with any
/// other text is refused.
impl Deserialize for PlacementDecision {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(PlacementDecision {
            seq: field(value, "seq")?,
            at_nanos: field(value, "at_nanos")?,
            vm: field(value, "vm")?,
            from: field(value, "from")?,
            to: field(value, "to")?,
            reason: label(field(value, "reason")?, &ChoiceKind::LABELS)?,
            deferred_nanos: field(value, "deferred_nanos")?,
            queued_nanos: field(value, "queued_nanos")?,
            traffic_bytes: field(value, "traffic_bytes")?,
            wasted_bytes: field(value, "wasted_bytes")?,
            downtime_nanos: field(value, "downtime_nanos")?,
            duration_nanos: field(value, "duration_nanos")?,
            outcome: label(field(value, "outcome")?, &MigrationOutcome::LABELS)?,
            deadline_missed: field(value, "deadline_missed")?,
        })
    }
}

fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
    let missing = || Error::custom(format!("missing field `{name}` in PlacementDecision"));
    T::deserialize(value.get(name).ok_or_else(missing)?)
}

/// The entry of `labels` equal to `text`.
fn label(text: String, labels: &[&'static str]) -> Result<&'static str, Error> {
    (labels.iter().find(|l| **l == text).copied()).ok_or_else(|| {
        Error::custom(format!(
            "unknown label `{text}`, expected one of {labels:?}"
        ))
    })
}

/// Renders decisions as JSON Lines (one canonical object per line) —
/// the CI artifact format.
pub(crate) fn to_jsonl(decisions: &[PlacementDecision]) -> String {
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
            reason: "warm",
            deferred_nanos: 0,
            queued_nanos: 500,
            traffic_bytes: 131_072,
            wasted_bytes: 0,
            downtime_nanos: 2_000,
            duration_nanos: 9_000,
            outcome: "completed",
            deadline_missed: false,
        }
    }

    /// Every reason and every outcome label comes back as itself.
    #[test]
    fn jsonl_round_trips() {
        let reasons = ChoiceKind::LABELS.iter().map(|&r| (r, "completed"));
        let outcomes = MigrationOutcome::LABELS.iter().map(|&o| ("warm", o));
        let ds: Vec<_> = (reasons.chain(outcomes).enumerate())
            .map(|(i, (reason, outcome))| PlacementDecision {
                reason,
                outcome,
                ..decision(i as u64)
            })
            .collect();
        let text = to_jsonl(&ds);
        assert_eq!(text.lines().count(), 9);
        let back: Vec<PlacementDecision> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, ds);
    }

    /// A line whose reason or outcome is no label is refused.
    #[test]
    fn an_unknown_label_is_refused() {
        let text = to_jsonl(&[decision(0)]);
        let line = text.trim_end();
        for bad in [
            line.replace("\"reason\":\"warm\"", "\"reason\":\"tepid\""),
            line.replace("\"outcome\":\"completed\"", "\"outcome\":\"done\""),
            line.replace("\"outcome\":\"completed\"", "\"outcome\":7"),
        ] {
            assert_ne!(bad, line);
            assert!(
                serde_json::from_str::<PlacementDecision>(&bad).is_err(),
                "{bad}"
            );
        }
    }
}
