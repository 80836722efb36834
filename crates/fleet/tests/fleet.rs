//! Fleet orchestration behavior: accounting, placement quality,
//! determinism, faults, timing and pinned requests — all through a
//! real `VeCycleSession`.

use vecycle_faults::{FaultKind, FaultPlan};
use vecycle_fleet::{Fleet, FleetSpec, PlacementMode, TimingPolicy};
use vecycle_host::MigrationRequest;
use vecycle_types::{HostId, SimDuration, SimTime, VmId};

fn small_spec() -> FleetSpec {
    FleetSpec::new(16, 48).with_seed(7)
}

#[test]
fn every_request_is_accounted_for() {
    let mut fleet = Fleet::new(small_spec()).unwrap();
    let total = fleet.requests().len() as u64;
    let report = fleet.run().unwrap();
    assert_eq!(report.migrations + report.skipped, total);
    assert_eq!(report.migrations, report.decisions.len() as u64);
    assert_eq!(
        report.placement_hits + report.placement_misses,
        report.migrations
    );
    assert_eq!(
        report.outcomes.values().sum::<u64>(),
        report.migrations,
        "every migration lands in exactly one outcome bucket"
    );
    // Journal seq numbers are dense and ordered.
    for (i, d) in report.decisions.iter().enumerate() {
        assert_eq!(d.seq, i as u64);
        assert_ne!(d.from, d.to, "no self-migration may be journalled");
    }
}

#[test]
fn clean_run_equals_faulted_run_with_empty_plan() {
    let a = Fleet::new(small_spec()).unwrap().run().unwrap();
    let b = Fleet::new(small_spec())
        .unwrap()
        .run_with_faults(&FaultPlan::none())
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn repeat_runs_are_bit_identical() {
    let run = || {
        let mut fleet = Fleet::new(small_spec()).unwrap();
        let report = fleet.run().unwrap();
        (report, fleet.metrics().snapshot().to_canonical_json())
    };
    let (a, a_metrics) = run();
    let (b, b_metrics) = run();
    assert_eq!(a, b);
    assert_eq!(a.journal_jsonl(), b.journal_jsonl());
    assert_eq!(a_metrics, b_metrics);
}

#[test]
fn aware_beats_blind_on_traffic() {
    let run = |mode: PlacementMode| {
        Fleet::new(small_spec().with_placement(mode))
            .unwrap()
            .run()
            .unwrap()
    };
    let aware = run(PlacementMode::CheckpointAware);
    let blind = run(PlacementMode::CheckpointBlind);
    assert_eq!(
        aware.migrations, blind.migrations,
        "placement must not change how many migrations run"
    );
    assert!(
        aware.placement_hits > blind.placement_hits,
        "aware placement must find warm checkpoints ({} vs {})",
        aware.placement_hits,
        blind.placement_hits
    );
    assert!(
        aware.total_traffic < blind.total_traffic,
        "aware placement must save traffic ({} vs {})",
        aware.total_traffic,
        blind.total_traffic
    );
}

#[test]
fn preseeded_fleet_hits_warm_checkpoints_from_the_first_leg() {
    let mut spec = small_spec();
    spec.preseed_checkpoints = true;
    spec.requests_per_vm = 1;
    let report = Fleet::new(spec).unwrap().run().unwrap();
    assert!(
        report.placement_hits > report.placement_misses,
        "preseeded stores should make most first legs warm ({} vs {})",
        report.placement_hits,
        report.placement_misses
    );
    assert!(report.decisions.iter().any(|d| d.reason == "warm"));
}

#[test]
fn admission_caps_bind_and_queue_drains() {
    let mut spec = small_spec();
    // One migration in flight fleet-wide: everything else must queue.
    spec.max_inflight = 1;
    // Arrivals pile up: all VMs ask within a tight window.
    spec.mean_interval = SimDuration::from_secs(1);
    let mut fleet = Fleet::new(spec).unwrap();
    let total = fleet.requests().len() as u64;
    let report = fleet.run().unwrap();
    assert_eq!(report.peak_inflight, 1);
    assert!(report.queued > 0, "a 1-slot fleet must queue");
    assert!(report.peak_queue_depth > 0);
    // Everything still completed: the queue drained.
    assert_eq!(report.migrations + report.skipped, total);
}

#[test]
fn low_dirty_window_defers_but_respects_deadlines() {
    let spec = small_spec().with_timing(TimingPolicy::LowDirtyWindow {
        max_wait: SimDuration::from_mins(30),
    });
    let deadline_slack = spec.deadline_slack;
    let report = Fleet::new(spec).unwrap().run().unwrap();
    assert!(report.deferred > 0, "staggered cycles must defer someone");
    for d in &report.decisions {
        assert!(
            d.deferred_nanos <= SimDuration::from_mins(30).as_nanos(),
            "deferral {} exceeds max_wait",
            d.deferred_nanos
        );
        assert!(
            d.deferred_nanos <= deadline_slack.as_nanos(),
            "deferral past the request deadline"
        );
    }
    // Timing policy changes when, not whether: same request accounting.
    let immediate = Fleet::new(small_spec()).unwrap().run().unwrap();
    assert_eq!(
        report.migrations + report.skipped,
        immediate.migrations + immediate.skipped
    );
}

#[test]
fn faults_surface_as_outcomes_not_errors() {
    let plan = FaultPlan::none()
        .inject(0, FaultKind::CheckpointCorrupt)
        .inject(1, FaultKind::CheckpointCorrupt)
        .inject(2, FaultKind::CheckpointCorrupt);
    let clean = Fleet::new(small_spec()).unwrap().run().unwrap();
    let faulted = Fleet::new(small_spec())
        .unwrap()
        .run_with_faults(&plan)
        .unwrap();
    assert_eq!(clean.migrations, faulted.migrations);
    // Corrupt checkpoints on warm legs degrade to full migrations and
    // are recorded in the journal/outcome map, never returned as Err.
    assert!(faulted.decisions.len() == clean.decisions.len());
}

#[test]
fn pinned_requests_are_honored_and_noop_pins_are_skipped() {
    let spec = small_spec();
    let fleet = Fleet::new(spec).unwrap();
    // Pin VM 0 to a concrete destination, then pin it again to the same
    // place: the second request must be a no-op skip.
    let t0 = SimTime::EPOCH + SimDuration::from_mins(1);
    let t1 = SimTime::EPOCH + SimDuration::from_mins(20);
    let to = HostId::new(1);
    let stream = vec![
        MigrationRequest::open(t0, VmId::new(0)).pinned(to),
        MigrationRequest::open(t1, VmId::new(0)).pinned(to),
    ];
    let mut fleet = fleet.with_request_stream(stream);
    let report = fleet.run().unwrap();
    assert_eq!(report.migrations, 1);
    assert_eq!(report.skipped, 1);
    assert_eq!(report.decisions[0].to, to.as_u32());
    assert_eq!(report.decisions[0].reason, "pinned");

    // The paper's ping-pong schedule is the same vocabulary: VM 0
    // commutes between its home and `to`, recycling what it left behind.
    let home = HostId::new(report.decisions[0].from);
    let schedule =
        MigrationRequest::ping_pong(VmId::new(0), home, to, t0, SimDuration::from_mins(20), 6);
    let mut fleet = Fleet::new(small_spec())
        .unwrap()
        .with_request_stream(schedule);
    let legs = fleet.run().unwrap().decisions;
    assert_eq!(legs.len(), 6);
    for (i, leg) in legs.iter().enumerate() {
        let (from, to) = if i % 2 == 0 { (home, to) } else { (to, home) };
        assert_eq!((leg.from, leg.to), (from.as_u32(), to.as_u32()));
        assert_eq!(leg.reason, "pinned");
    }
    for later in &legs[2..] {
        assert!(later.traffic_bytes < legs[0].traffic_bytes);
    }
}

#[test]
fn journal_jsonl_parses_back() {
    let report = Fleet::new(small_spec()).unwrap().run().unwrap();
    let text = report.journal_jsonl();
    assert_eq!(text.lines().count(), report.decisions.len());
    for line in text.lines() {
        let d: vecycle_fleet::PlacementDecision = serde_json::from_str(line).unwrap();
        assert!(d.vm < 48);
    }
}

#[test]
fn requests_merge_in_at_then_vm_order() {
    let fleet = Fleet::new(small_spec()).unwrap();
    let rs = fleet.requests();
    assert!(rs
        .windows(2)
        .all(|w| (w[0].at, w[0].vm) <= (w[1].at, w[1].vm)));
}
