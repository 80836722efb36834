//! Golden-transcript suite: every metrics snapshot a fixed-seed
//! scenario produces is locked down byte-for-byte against the JSON
//! files under `tests/golden/`.
//!
//! A failure here means an instrumentation site moved, a metric was
//! renamed, or determinism broke. If the change is intentional, run
//! `cargo run --bin regen_golden` and commit the updated files; if not,
//! the diff artifact under `target/golden-actual/` shows exactly which
//! series drifted.

use std::collections::BTreeMap;

use vecycle::golden;
use vecycle::obs::MetricsSnapshot;

/// Compares a scenario's snapshot against its committed golden file;
/// on drift, writes the actual bytes where CI can pick them up.
fn assert_golden(name: &str, expected: &str, snap: &MetricsSnapshot) {
    let actual = snap.to_canonical_json();
    if actual != expected {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("golden-actual");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.json"));
        let _ = std::fs::write(&path, &actual);
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| format!("first diff at line {}:\n  -{e}\n  +{a}", i + 1))
            .unwrap_or_else(|| "files differ in length only".to_string());
        panic!(
            "{name} metrics transcript drifted from tests/golden/{name}.json.\n\
             {first_diff}\nactual written to {}.\n\
             If the change is intentional: cargo run --bin regen_golden",
            path.display(),
        );
    }
}

#[test]
fn idle_vm_matches_golden() {
    let snap = golden::idle_vm();
    assert_golden("idle_vm", include_str!("golden/idle_vm.json"), &snap);
}

#[test]
fn update_rate_sweep_matches_golden() {
    let snap = golden::update_rate_sweep();
    assert_golden(
        "update_rate_sweep",
        include_str!("golden/update_rate_sweep.json"),
        &snap,
    );
}

#[test]
fn failure_sweep_matches_golden() {
    let snap = golden::failure_sweep();
    assert_golden(
        "failure_sweep",
        include_str!("golden/failure_sweep.json"),
        &snap,
    );
}

#[test]
fn lifecycle_matches_golden() {
    let snap = golden::lifecycle();
    assert_golden("lifecycle", include_str!("golden/lifecycle.json"), &snap);
}

/// The prose incident transcript and the typed counters are two views
/// of the same history: per event kind, the number of `SessionEvent`s
/// returned to the caller equals the `session_events_total` series —
/// in both directions, so neither view can drop or invent incidents.
#[test]
fn session_events_reconcile_with_counters() {
    let (snap, events) = golden::failure_sweep_with_events();
    assert!(!events.is_empty(), "failure sweep produced no incidents");

    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &events {
        *by_kind.entry(e.kind()).or_insert(0) += 1;
    }
    for (kind, &count) in &by_kind {
        assert_eq!(
            snap.counter("session_events_total", &[("event", kind)]),
            count,
            "counter for {kind} disagrees with the event transcript"
        );
    }
    for c in snap.counters_named("session_events_total") {
        let kind = &c.labels[0].1;
        assert_eq!(
            by_kind.get(kind.as_str()).copied().unwrap_or(0),
            c.value,
            "counter series {kind} has no matching transcript events"
        );
    }

    // Retry bookkeeping is *derived from* the metrics layer, so the
    // dedicated retry counter must agree with the event stream too.
    assert_eq!(
        snap.counter_total("session_retries_total"),
        by_kind.get("retry_scheduled").copied().unwrap_or(0),
    );
}

/// `CompletedAfterRetries { attempts }` is computed from the
/// `session_attempts_total` counter delta; summed over the schedule it
/// must reconcile with total attempts recorded by the metrics layer.
#[test]
fn retry_attempt_counts_derive_from_metrics() {
    let (snap, _) = golden::failure_sweep_with_events();
    let attempts = snap.counter_total("session_attempts_total");
    let retries = snap.counter_total("session_retries_total");
    let outcomes = snap.counter_total("session_outcomes_total");
    assert!(attempts > outcomes, "the sweep must retry at least once");
    // Every attempt is either a migration's first try (one per outcome)
    // or was scheduled by the retry path.
    assert_eq!(attempts, outcomes + retries);
}
