//! Behavioral tests of the session layer: checkpoint recycling across a
//! cluster, schedules, and fault-injected retry/resume/degradation.

use vecycle_core::session::{
    RecyclePolicy, ScheduleSummary, SessionEvent, VeCycleSession, VmInstance,
};
use vecycle_core::{MigrationEngine, MigrationOutcome};
use vecycle_faults::{DropPoint, FaultKind, FaultPlan, FaultRates, RetryPolicy};
use vecycle_hash::ChecksumAlgorithm;
use vecycle_host::{Cluster, MigrationRequest};
use vecycle_mem::{workload::SilentWorkload, DigestMemory, Guest};
use vecycle_net::LinkSpec;
use vecycle_types::{Bytes, BytesPerSec, Error, HostId, PageCount, SimDuration, SimTime, VmId};

fn session() -> VeCycleSession {
    VeCycleSession::new(Cluster::homogeneous(2, LinkSpec::lan_gigabit()))
}

fn instance() -> VmInstance<DigestMemory> {
    let mem = DigestMemory::with_uniform_content(Bytes::from_mib(4), 1).unwrap();
    VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0))
}

#[test]
fn first_migration_is_dedup_second_recycles() {
    let s = session();
    let mut vm = instance();
    let r1 = s
        .migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    assert_eq!(r1.strategy().to_string(), "dedup");
    assert_eq!(vm.location(), HostId::new(1));
    // Host 0 now holds a checkpoint; migrating back recycles it.
    let r2 = s
        .migrate(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            &mut SilentWorkload,
        )
        .unwrap();
    assert_eq!(r2.strategy().to_string(), "vecycle+dedup");
    assert!(r2.source_traffic().as_f64() < r1.source_traffic().as_f64() / 10.0);
}

#[test]
fn baseline_policy_never_recycles() {
    let s = session().with_policy(RecyclePolicy::Baseline);
    let mut vm = instance();
    for hop in [1u32, 0, 1] {
        let r = s
            .migrate(
                &mut vm,
                HostId::new(hop),
                SimTime::EPOCH,
                &mut SilentWorkload,
            )
            .unwrap();
        assert_eq!(r.strategy().to_string(), "full");
    }
}

#[test]
fn checkpoints_accumulate_at_vacated_hosts() {
    let s = session();
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    assert_eq!(s.cluster().hosts()[0].store().vm_count(), 1);
    assert_eq!(s.cluster().hosts()[1].store().vm_count(), 0);
}

#[test]
fn unknown_destination_is_an_error() {
    let s = session();
    let mut vm = instance();
    let err = s
        .migrate(&mut vm, HostId::new(9), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap_err();
    assert!(matches!(err, Error::NotFound { .. }));
    assert_eq!(vm.location(), HostId::new(0));
}

#[test]
fn ping_pong_schedule_runs_end_to_end() {
    let s = session();
    let mut vm = instance();
    let schedule = MigrationRequest::ping_pong(
        vm.id(),
        HostId::new(0),
        HostId::new(1),
        SimTime::EPOCH + SimDuration::from_hours(1),
        SimDuration::from_hours(2),
        4,
    );
    let reports = s
        .run_schedule(&mut vm, &schedule, &mut SilentWorkload)
        .unwrap();
    assert_eq!(reports.len(), 4);
    // Leg 1 finds no checkpoint; every later leg returns to a host
    // that stored one when the VM left it.
    assert_eq!(reports[0].strategy().to_string(), "dedup");
    assert_eq!(reports[1].strategy().to_string(), "vecycle+dedup");
    assert_eq!(reports[2].strategy().to_string(), "vecycle+dedup");
    assert_eq!(reports[3].strategy().to_string(), "vecycle+dedup");
    assert_eq!(vm.location(), HostId::new(0));
}

#[test]
fn inconsistent_schedule_is_rejected() {
    let s = session();
    let mut vm = instance();
    let hour = |h| SimTime::EPOCH + SimDuration::from_hours(h);
    let to = |h, host| MigrationRequest::open(hour(h), vm.id()).pinned(HostId::new(host));
    let malformed = [
        ("unsorted", vec![to(2, 1), to(1, 0)]),
        (
            "unpinned",
            vec![to(1, 1), MigrationRequest::open(hour(2), vm.id())],
        ),
        (
            "another VM's",
            vec![
                to(1, 1),
                MigrationRequest::open(hour(2), VmId::new(9)).pinned(HostId::new(0)),
            ],
        ),
    ];
    for (what, schedule) in malformed {
        let err = s
            .run_schedule(&mut vm, &schedule, &mut SilentWorkload)
            .expect_err(what);
        assert!(matches!(err, Error::InvalidConfig { .. }), "{what}: {err}");
        assert_eq!(vm.location(), HostId::new(0), "{what}: nothing moved");
    }
}

#[test]
fn resized_vm_does_not_recycle_stale_checkpoint() {
    let s = session();
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    // Replace with a larger VM under the same ID.
    let bigger = DigestMemory::with_uniform_content(Bytes::from_mib(8), 2).unwrap();
    let mut vm2 = VmInstance::new(VmId::new(0), Guest::new(bigger), HostId::new(1));
    let r = s
        .migrate(
            &mut vm2,
            HostId::new(0),
            SimTime::EPOCH,
            &mut SilentWorkload,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "dedup");
}

#[test]
fn schedule_summary_aggregates() {
    let s = session();
    let mut vm = instance();
    let schedule = MigrationRequest::ping_pong(
        vm.id(),
        HostId::new(0),
        HostId::new(1),
        SimTime::EPOCH + SimDuration::from_hours(1),
        SimDuration::from_hours(1),
        5,
    );
    let reports = s
        .run_schedule(&mut vm, &schedule, &mut SilentWorkload)
        .unwrap();
    let summary = ScheduleSummary::of(&reports);
    assert_eq!(summary.migrations, 5);
    assert_eq!(summary.recycled, 4); // first leg has no checkpoint
    let by_hand: vecycle_types::Bytes = reports.iter().map(|r| r.source_traffic()).sum();
    assert_eq!(summary.total_traffic, by_hand);
    assert!(summary.mean_time > SimDuration::ZERO);
    assert!(summary.to_string().contains("5 migrations (4 recycled)"));
}

#[test]
fn adaptive_policy_recycles_only_similar_guests() {
    use vecycle_mem::PageContent;
    use vecycle_types::PageIndex;

    let s = session().with_policy(RecyclePolicy::Adaptive);
    // Warm up: leave a checkpoint at host 0.
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();

    // Barely diverged guest: estimate high, recycles.
    let r = s
        .migrate(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            &mut SilentWorkload,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "vecycle+dedup");

    // Rewrite nearly everything: estimate collapses, falls back.
    s.migrate(
        &mut vm,
        HostId::new(1),
        SimTime::EPOCH + SimDuration::from_hours(2),
        &mut SilentWorkload,
    )
    .unwrap();
    let n = vm.guest().page_count().as_u64();
    for i in 0..n {
        vm.guest_mut()
            .write_page(PageIndex::new(i), PageContent::ContentId((1 << 58) | i));
    }
    let r = s
        .migrate(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(3),
            &mut SilentWorkload,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "dedup");

    // Hash-bound engine: SHA-256 on a 4 800 MiB/s link is slower than
    // sending, so even an unchanged guest does not recycle.
    let fat = LinkSpec::lan_gigabit().with_bandwidth(BytesPerSec::from_mib_per_sec(4800));
    let s = session()
        .with_policy(RecyclePolicy::Adaptive)
        .with_engine(MigrationEngine::new(fat).with_algorithm(ChecksumAlgorithm::Sha256));
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    let r = s
        .migrate(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            &mut SilentWorkload,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "dedup");
    assert_eq!(
        r.outcome(),
        MigrationOutcome::FellBackToFull {
            cause: vecycle_faults::FaultCause::LowSimilarity
        }
    );
}

#[test]
fn sizes_match_checkpoint_pages() {
    let s = session();
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    let cp = s.cluster().hosts()[0].store().latest(VmId::new(0)).unwrap();
    assert_eq!(cp.page_count(), PageCount::new(1024));
}

// --- fault-injection and recovery ---

/// Warms host 0 with a checkpoint by hopping the VM 0 → 1.
fn warmed() -> (VeCycleSession, VmInstance<DigestMemory>) {
    let s = session();
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    (s, vm)
}

#[test]
fn clean_faulted_migrate_matches_migrate() {
    let (s, mut vm_a) = warmed();
    let (s2, mut vm_b) = warmed();
    let clean = s
        .migrate(
            &mut vm_a,
            HostId::new(0),
            SimTime::EPOCH,
            &mut SilentWorkload,
        )
        .unwrap();
    let mut events = Vec::new();
    let faulted = s2
        .migrate_with_faults(
            &mut vm_b,
            HostId::new(0),
            SimTime::EPOCH,
            &mut SilentWorkload,
            &FaultPlan::none(),
            0,
            &mut events,
        )
        .unwrap();
    assert_eq!(clean, faulted);
    assert!(events.is_empty());
    assert_eq!(clean.outcome(), MigrationOutcome::Completed);
}

#[test]
fn corrupt_checkpoint_falls_back_to_dedup() {
    let (s, mut vm) = warmed();
    let plan = FaultPlan::none().inject(0, FaultKind::CheckpointCorrupt);
    let mut events = Vec::new();
    let r = s
        .migrate_with_faults(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH,
            &mut SilentWorkload,
            &plan,
            0,
            &mut events,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "dedup");
    assert_eq!(
        r.outcome(),
        MigrationOutcome::FellBackToFull {
            cause: vecycle_faults::FaultCause::CorruptCheckpoint
        }
    );
    assert!(matches!(
        events[0],
        SessionEvent::CorruptCheckpointDiscarded { .. }
    ));
    // The bad checkpoint is gone; the VM still arrived.
    assert_eq!(s.cluster().hosts()[0].store().vm_count(), 0);
    assert_eq!(vm.location(), HostId::new(0));
}

#[test]
fn corrupt_fault_without_checkpoint_is_a_plain_first_visit() {
    let s = session();
    let mut vm = instance();
    let plan = FaultPlan::none().inject(0, FaultKind::CheckpointCorrupt);
    let mut events = Vec::new();
    let r = s
        .migrate_with_faults(
            &mut vm,
            HostId::new(1),
            SimTime::EPOCH,
            &mut SilentWorkload,
            &plan,
            0,
            &mut events,
        )
        .unwrap();
    // Nothing existed to corrupt: no fallback, no event.
    assert_eq!(r.outcome(), MigrationOutcome::Completed);
    assert!(events.is_empty());
}

#[test]
fn link_drop_retries_and_resumes_from_landed_pages() {
    let (s, mut vm) = warmed();
    // The return leg recycles a checkpoint, so its forward traffic is
    // mostly 28-byte checksums — the cut must be far below RAM size
    // to strike mid-transfer.
    let plan = FaultPlan::none().inject(
        0,
        FaultKind::LinkDrop {
            after: DropPoint::Bytes(Bytes::from_kib(8)),
            attempts: 1,
        },
    );
    let mut events = Vec::new();
    let r = s
        .migrate_with_faults(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH,
            &mut SilentWorkload,
            &plan,
            0,
            &mut events,
        )
        .unwrap();
    assert_eq!(
        r.outcome(),
        MigrationOutcome::CompletedAfterRetries { attempts: 2 }
    );
    assert_eq!(vm.location(), HostId::new(0));
    assert!(r.wasted_traffic() > Bytes::ZERO);
    assert!(r.wasted_time() > SimDuration::ZERO);
    assert_eq!(events.len(), 3, "{events:?}");
    assert!(matches!(events[0], SessionEvent::AttemptAborted { .. }));
    assert!(matches!(events[1], SessionEvent::RetryScheduled { .. }));
    assert!(matches!(events[2], SessionEvent::ResumedFromPartial { .. }));
}

#[test]
fn resumed_retry_resends_less_than_from_scratch() {
    // Two identical worlds, differing only in whether the retry
    // recycles the aborted attempt's landed pages.
    let drop_fault = FaultKind::LinkDrop {
        after: DropPoint::RamFraction(0.5),
        attempts: 1,
    };
    let run = |retry: RetryPolicy| {
        let s = session().with_retry_policy(retry);
        let mut vm = instance();
        let plan = FaultPlan::none().inject(0, drop_fault);
        let mut events = Vec::new();
        s.migrate_with_faults(
            &mut vm,
            HostId::new(1),
            SimTime::EPOCH,
            &mut SilentWorkload,
            &plan,
            0,
            &mut events,
        )
        .unwrap()
    };
    let resumed = run(RetryPolicy::default());
    let scratch = run(RetryPolicy::from_scratch());
    assert_eq!(
        resumed.outcome(),
        MigrationOutcome::CompletedAfterRetries { attempts: 2 }
    );
    // The cut lands ~half the pages; the resumed attempt replaces
    // those with checksum messages, so it re-sends well under what a
    // from-scratch retry sends.
    assert!(
        resumed.source_traffic().as_f64() < scratch.source_traffic().as_f64() * 0.75,
        "resumed {} vs scratch {}",
        resumed.source_traffic(),
        scratch.source_traffic()
    );
}

#[test]
fn exhausted_retries_leave_the_vm_at_the_source() {
    let s = session().with_retry_policy(RetryPolicy::default().with_max_attempts(2));
    let mut vm = instance();
    let plan = FaultPlan::none().inject(
        0,
        FaultKind::LinkDrop {
            after: DropPoint::RamFraction(0.25),
            attempts: u32::MAX,
        },
    );
    let mut events = Vec::new();
    let r = s
        .migrate_with_faults(
            &mut vm,
            HostId::new(1),
            SimTime::EPOCH,
            &mut SilentWorkload,
            &plan,
            0,
            &mut events,
        )
        .unwrap();
    assert!(matches!(r.outcome(), MigrationOutcome::Failed { .. }));
    assert_eq!(vm.location(), HostId::new(0), "VM must stay at the source");
    assert_eq!(r.source_traffic(), Bytes::ZERO);
    assert!(r.wasted_traffic() > Bytes::ZERO);
    // No checkpoint is written for a migration that never happened.
    assert_eq!(s.cluster().hosts()[0].store().vm_count(), 0);
    assert!(matches!(
        events.last().unwrap(),
        SessionEvent::MigrationFailed { .. }
    ));
}

#[test]
fn crash_during_save_loses_only_the_new_checkpoint() {
    let (s, mut vm) = warmed();
    // Host 0 holds the checkpoint from the warm-up hop. Migrating
    // back with a crash-on-save fault means host 1 (the vacated
    // source) never stores the new one.
    let plan = FaultPlan::none().inject(0, FaultKind::CrashDuringSave);
    let mut events = Vec::new();
    let r = s
        .migrate_with_faults(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH,
            &mut SilentWorkload,
            &plan,
            0,
            &mut events,
        )
        .unwrap();
    assert_eq!(r.outcome(), MigrationOutcome::Completed);
    assert_eq!(vm.location(), HostId::new(0));
    assert_eq!(s.cluster().hosts()[1].store().vm_count(), 0);
    // The old checkpoint at host 0 was consumed-but-kept: still there.
    assert_eq!(s.cluster().hosts()[0].store().vm_count(), 1);
    assert!(matches!(events[0], SessionEvent::CheckpointSaveLost { .. }));
}

#[test]
fn disk_store_write_through_survives_memory_store_loss() {
    let dir = std::env::temp_dir().join("vecycle-session-diskstore-test");
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit())
        .attach_disk_stores(&dir)
        .unwrap();
    let s = VeCycleSession::new(cluster);
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    // Simulate a host restart: the in-memory store evaporates, the
    // durable one does not.
    assert!(s.cluster().hosts()[0].store().remove(vm.id()));
    let r = s
        .migrate(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            &mut SilentWorkload,
        )
        .unwrap();
    assert_eq!(
        r.strategy().to_string(),
        "vecycle+dedup",
        "checkpoint must be recovered from the durable store"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn faulted_schedule_survives_a_permanent_failure() {
    let s = session().with_retry_policy(RetryPolicy::default().with_max_attempts(2));
    let mut vm = instance();
    let schedule = MigrationRequest::ping_pong(
        vm.id(),
        HostId::new(0),
        HostId::new(1),
        SimTime::EPOCH + SimDuration::from_hours(1),
        SimDuration::from_hours(1),
        2,
    );
    // Leg 0 fails on every attempt; leg 1 (1 → 0) then finds the VM
    // already at host 0 and is skipped.
    let plan = FaultPlan::none().inject(
        0,
        FaultKind::LinkDrop {
            after: DropPoint::RamFraction(0.1),
            attempts: u32::MAX,
        },
    );
    let run = s
        .run_schedule_with_faults(&mut vm, &schedule, &mut SilentWorkload, &plan)
        .unwrap();
    assert_eq!(run.reports.len(), 1, "the return leg is skipped");
    assert!(matches!(
        run.reports[0].outcome(),
        MigrationOutcome::Failed { .. }
    ));
    assert_eq!(vm.location(), HostId::new(0));
    let summary = ScheduleSummary::of(&run.reports);
    assert_eq!(summary.failed, 1);
    assert!(summary.to_string().contains("1 failed"));
}

#[test]
fn seeded_fault_schedule_completes_without_errors() {
    let s = session();
    let mut vm = instance();
    let schedule = MigrationRequest::ping_pong(
        vm.id(),
        HostId::new(0),
        HostId::new(1),
        SimTime::EPOCH + SimDuration::from_hours(1),
        SimDuration::from_hours(1),
        8,
    );
    let plan = FaultPlan::seeded(7, &FaultRates::uniform(0.5), schedule.len());
    assert!(!plan.is_empty(), "seed 7 at 50% must fault something");
    let run = s
        .run_schedule_with_faults(&mut vm, &schedule, &mut SilentWorkload, &plan)
        .unwrap();
    assert!(!run.reports.is_empty());
    // Every report carries a definite outcome and no panic occurred.
    for r in &run.reports {
        let _ = r.outcome().to_string();
    }
    for e in &run.events {
        let _ = e.to_string();
    }
}

#[test]
fn clean_faulted_schedule_matches_plain_schedule() {
    let make_schedule = |vm: VmId| {
        MigrationRequest::ping_pong(
            vm,
            HostId::new(0),
            HostId::new(1),
            SimTime::EPOCH + SimDuration::from_hours(1),
            SimDuration::from_hours(1),
            4,
        )
    };
    let s1 = session();
    let mut vm1 = instance();
    let schedule1 = make_schedule(vm1.id());
    let plain = s1
        .run_schedule(&mut vm1, &schedule1, &mut SilentWorkload)
        .unwrap();
    let s2 = session();
    let mut vm2 = instance();
    let schedule2 = make_schedule(vm2.id());
    let faulted = s2
        .run_schedule_with_faults(
            &mut vm2,
            &schedule2,
            &mut SilentWorkload,
            &FaultPlan::none(),
        )
        .unwrap();
    assert_eq!(plain, faulted.reports);
    assert!(faulted.events.is_empty());
}

#[test]
fn session_events_display_as_prose() {
    let e = SessionEvent::AttemptAborted {
        vm: VmId::new(3),
        attempt: 1,
        cause: vecycle_faults::FaultCause::LinkFailure,
        landed: PageCount::new(100),
    };
    let text = e.to_string();
    assert!(text.contains("attempt 1"), "{text}");
    assert!(text.contains("link failure"), "{text}");
}

/// A session refills one recycling index and one dedup table leg after
/// leg, and the reuse is invisible: the same legs give the same reports
/// on one session as on a fresh session per leg over the same cluster.
/// Two guests of different sizes take turns, aging between legs, and two
/// link drops make retries recycle their landed pages — alone on a first
/// visit, merged with a checkpoint later — under every recycling policy.
#[test]
fn one_session_reports_what_a_fresh_session_per_leg_does() {
    use vecycle_mem::workload::{GuestWorkload, IdleWorkload};

    let drop_at = |after| FaultKind::LinkDrop { after, attempts: 1 };
    let plan = FaultPlan::none()
        .inject(1, drop_at(DropPoint::RamFraction(0.5)))
        .inject(6, drop_at(DropPoint::Bytes(Bytes::from_kib(8))));
    let policies = [
        RecyclePolicy::VeCycle,
        RecyclePolicy::DedupOnly,
        RecyclePolicy::Adaptive,
    ];
    for policy in policies {
        let run = |fresh_per_leg: bool| {
            let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
            let one = VeCycleSession::new(cluster.clone()).with_policy(policy);
            let mut vms = [(0, 4), (1, 1)].map(|(id, mib)| {
                let mem = DigestMemory::with_uniform_content(Bytes::from_mib(mib), id + 1).unwrap();
                VmInstance::new(VmId::new(id as u32), Guest::new(mem), HostId::new(0))
            });
            let mut workload = IdleWorkload::new(3, 0.05);
            let mut reports = Vec::new();
            for leg in 0..10 {
                let fresh;
                let session = if fresh_per_leg {
                    fresh = VeCycleSession::new(cluster.clone()).with_policy(policy);
                    &fresh
                } else {
                    &one
                };
                let vm = &mut vms[leg % 2];
                let at = SimTime::EPOCH + SimDuration::from_hours(leg as u64 + 1);
                workload.advance(vm.guest_mut(), SimDuration::from_hours(1));
                let to = HostId::new(1 - vm.location().as_u32());
                reports.push(
                    session
                        .migrate_with_faults(vm, to, at, &mut workload, &plan, leg, &mut Vec::new())
                        .unwrap(),
                );
            }
            reports
        };
        let reports = run(false);
        assert!(
            reports
                .iter()
                .any(|r| matches!(r.outcome(), MigrationOutcome::CompletedAfterRetries { .. })),
            "{policy:?}: a retry must resume"
        );
        assert_eq!(reports, run(true), "{policy:?}");
    }
}
