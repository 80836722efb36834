//! End-to-end fault injection and recovery: corrupt on-disk checkpoints
//! degrade to dedup-only migrations, aborted transfers resume from their
//! landed pages, and a fully faulted schedule finishes with an outcome
//! per migration instead of an error.

use vecycle::core::session::{
    FaultedScheduleRun, RecyclePolicy, ScheduleSummary, SessionEvent, VeCycleSession, VmInstance,
};
use vecycle::core::MigrationOutcome;
use vecycle::faults::{DropPoint, FaultKind, FaultPlan, FaultRates, RetryPolicy};
use vecycle::host::{Cluster, MigrationRequest};
use vecycle::mem::workload::{IdleWorkload, SilentWorkload};
use vecycle::mem::{DigestMemory, Guest};
use vecycle::net::LinkSpec;
use vecycle::types::{Bytes, HostId, SimDuration, SimTime, VmId};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vecycle-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn instance() -> VmInstance<DigestMemory> {
    let mem = DigestMemory::with_uniform_content(Bytes::from_mib(4), 1).unwrap();
    VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0))
}

/// Builds a two-host cluster with durable checkpoint stores, hops the VM
/// 0 → 1 so host 0 holds a checkpoint both in memory and on disk, then
/// evicts the in-memory copy so the next fetch must go through the file.
fn warmed_disk_session(
    tag: &str,
) -> (VeCycleSession, VmInstance<DigestMemory>, std::path::PathBuf) {
    let dir = tmpdir(tag);
    let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit())
        .attach_disk_stores(&dir)
        .unwrap();
    let s = VeCycleSession::new(cluster);
    let mut vm = instance();
    s.migrate(&mut vm, HostId::new(1), SimTime::EPOCH, &mut SilentWorkload)
        .unwrap();
    assert!(s.cluster().hosts()[0].store().remove(vm.id()));
    (s, vm, dir)
}

fn checkpoint_file(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join("host-0").join("vm-0.ckpt")
}

#[test]
fn bit_flipped_disk_checkpoint_degrades_to_dedup() {
    let (s, mut vm, dir) = warmed_disk_session("bitflip");
    let path = checkpoint_file(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let mut events = Vec::new();
    let r = s
        .migrate_with_faults(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            &mut SilentWorkload,
            &FaultPlan::none(),
            0,
            &mut events,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "dedup");
    assert!(matches!(
        r.outcome(),
        MigrationOutcome::FellBackToFull { .. }
    ));
    assert!(matches!(
        events[0],
        SessionEvent::CorruptCheckpointDiscarded { .. }
    ));
    assert_eq!(vm.location(), HostId::new(0), "the migration still lands");
    assert!(!path.exists(), "the corrupt file is cleared");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_disk_checkpoint_degrades_to_dedup() {
    let (s, mut vm, dir) = warmed_disk_session("truncate");
    let path = checkpoint_file(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

    let mut events = Vec::new();
    let r = s
        .migrate_with_faults(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            &mut SilentWorkload,
            &FaultPlan::none(),
            0,
            &mut events,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "dedup");
    assert!(matches!(
        r.outcome(),
        MigrationOutcome::FellBackToFull { .. }
    ));
    assert_eq!(vm.location(), HostId::new(0));
    assert!(!path.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn intact_disk_checkpoint_still_recycles_after_memory_loss() {
    // Control for the corruption tests: same eviction, no tampering.
    let (s, mut vm, dir) = warmed_disk_session("intact");
    let r = s
        .migrate(
            &mut vm,
            HostId::new(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            &mut SilentWorkload,
        )
        .unwrap();
    assert_eq!(r.strategy().to_string(), "vecycle+dedup");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resumed_retry_resends_less_than_from_scratch() {
    let drop_fault = FaultKind::LinkDrop {
        after: DropPoint::RamFraction(0.5),
        attempts: 1,
    };
    let run = |retry: RetryPolicy| {
        let s = VeCycleSession::new(Cluster::homogeneous(2, LinkSpec::lan_gigabit()))
            .with_retry_policy(retry);
        let mut vm = instance();
        let plan = FaultPlan::none().inject(0, drop_fault);
        let mut events = Vec::new();
        let report = s
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
        (report, events)
    };
    let (resumed, resumed_events) = run(RetryPolicy::default());
    let (scratch, scratch_events) = run(RetryPolicy::from_scratch());
    assert_eq!(
        resumed.outcome(),
        MigrationOutcome::CompletedAfterRetries { attempts: 2 }
    );
    assert_eq!(
        scratch.outcome(),
        MigrationOutcome::CompletedAfterRetries { attempts: 2 }
    );
    assert!(
        resumed_events
            .iter()
            .any(|e| matches!(e, SessionEvent::ResumedFromPartial { .. })),
        "{resumed_events:?}"
    );
    assert!(
        !scratch_events
            .iter()
            .any(|e| matches!(e, SessionEvent::ResumedFromPartial { .. })),
        "{scratch_events:?}"
    );
    assert!(
        resumed.source_traffic() < scratch.source_traffic(),
        "resumed {} vs scratch {}",
        resumed.source_traffic(),
        scratch.source_traffic()
    );
    // Waste (the aborted attempt) is identical; only the retry differs.
    assert_eq!(resumed.wasted_traffic(), scratch.wasted_traffic());
}

#[test]
fn heavily_faulted_schedule_finishes_with_outcomes_not_errors() {
    for policy in [
        RecyclePolicy::VeCycle,
        RecyclePolicy::DedupOnly,
        RecyclePolicy::Baseline,
        RecyclePolicy::Adaptive,
    ] {
        let s = VeCycleSession::new(Cluster::homogeneous(2, LinkSpec::lan_gigabit()))
            .with_policy(policy)
            .with_retry_policy(RetryPolicy::default().with_max_attempts(2));
        let mut vm = instance();
        let schedule = MigrationRequest::ping_pong(
            vm.id(),
            HostId::new(0),
            HostId::new(1),
            SimTime::EPOCH + SimDuration::from_hours(1),
            SimDuration::from_hours(1),
            10,
        );
        let rate = 1024.0 * 0.05 / 3600.0;
        let mut workload = IdleWorkload::new(11, rate);
        let plan = FaultPlan::seeded(42, &FaultRates::uniform(0.6), schedule.len());
        assert!(!plan.is_empty());
        let FaultedScheduleRun { reports, events } = s
            .run_schedule_with_faults(&mut vm, &schedule, &mut workload, &plan)
            .unwrap();
        assert!(!reports.is_empty());
        let summary = ScheduleSummary::of(&reports);
        assert_eq!(summary.migrations, reports.len());
        // Every incident and outcome renders; nothing panicked to get here.
        for e in &events {
            assert!(!e.to_string().is_empty());
        }
        for r in &reports {
            assert!(!r.outcome().to_string().is_empty());
        }
    }
}

#[test]
fn faulted_runs_are_deterministic_across_repeats() {
    for (workload_seed, plan_seed) in [(5, 9), (13, 21)] {
        let run = || {
            let s = VeCycleSession::new(Cluster::homogeneous(2, LinkSpec::lan_gigabit()))
                .with_retry_policy(RetryPolicy::default().with_max_attempts(3));
            let mut vm = instance();
            let schedule = MigrationRequest::ping_pong(
                vm.id(),
                HostId::new(0),
                HostId::new(1),
                SimTime::EPOCH + SimDuration::from_hours(1),
                SimDuration::from_hours(1),
                8,
            );
            let mut workload = IdleWorkload::new(workload_seed, 1024.0 * 0.1 / 3600.0);
            let plan = FaultPlan::seeded(plan_seed, &FaultRates::uniform(0.5), schedule.len());
            s.run_schedule_with_faults(&mut vm, &schedule, &mut workload, &plan)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.reports, b.reports, "plan seed {plan_seed}");
        assert_eq!(a.events, b.events, "plan seed {plan_seed}");
    }
}
