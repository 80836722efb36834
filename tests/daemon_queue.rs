//! Work-queue concurrency tests: deterministic admission under
//! overlapping per-host locks, at 1 and 4 workers.
//!
//! The scheduler admits jobs in strict id order — it blocks on the
//! host claim and a worker slot *before* marking a job running — so
//! the drain order is the submit order at any worker count, and two
//! identical runs produce identical reports job-for-job. Jobs with
//! disjoint host pairs still overlap in time when workers allow it;
//! jobs sharing a host serialize without deadlock (claims are
//! all-or-nothing under one table mutex).

mod common;

use std::time::Duration;

use common::{tcp_endpoint, Watchdog};
use vecycle_daemon::frame::MAX_PAYLOAD;
use vecycle_daemon::{client, scenario, Daemon, DaemonConfig, DaemonError, DaemonHandle, JobState};
use vecycle_sim::ScenarioSpec;

const SUITE_LIMIT: Duration = Duration::from_secs(120);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

fn spawn_pair(workers: usize) -> (DaemonHandle, DaemonHandle) {
    let src = Daemon::spawn(DaemonConfig::new(tcp_endpoint()).with_workers(workers))
        .expect("source daemon binds");
    let dst = Daemon::spawn(DaemonConfig::new(tcp_endpoint()).with_workers(workers))
        .expect("dest daemon binds");
    (src, dst)
}

/// Eight jobs whose host pairs overlap pairwise: (0,1), (1,2), …
/// Adjacent jobs contend on a host; jobs two apart are disjoint.
fn overlapping_specs() -> Vec<ScenarioSpec> {
    let strategies = ["vecycle", "full", "dedup"];
    (0..8u64)
        .map(|i| {
            let mut spec = ScenarioSpec::golden(0x9000 + i);
            spec.ram_mib = 2;
            spec.source_host = i as u32;
            spec.dest_host = i as u32 + 1;
            spec.strategy = strategies[i as usize % strategies.len()].to_string();
            spec
        })
        .collect()
}

/// Submits all specs and waits for every job; returns (drain order,
/// per-job reports in submit order).
fn run_batch(
    workers: usize,
    specs: &[ScenarioSpec],
) -> (Vec<u64>, Vec<vecycle_core::MigrationReport>) {
    let (src, dst) = spawn_pair(workers);
    let peer = dst.endpoint().clone();
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| src.submit(spec.clone(), peer.clone()).expect("submit"))
        .collect();
    let mut reports = Vec::new();
    for &id in &ids {
        let rec = src.wait_job(id, JOB_TIMEOUT).expect("job terminates");
        assert_eq!(rec.state, JobState::Done, "job {id} failed: {}", rec.detail);
        reports.push(rec.report.expect("done job has a report"));
    }
    let drained = src.drained();
    src.shutdown();
    dst.shutdown();
    (drained, reports)
}

#[test]
fn drain_order_is_submit_order_at_one_worker() {
    let _wd = Watchdog::arm("drain_order_is_submit_order_at_one_worker", SUITE_LIMIT);
    let specs = overlapping_specs();
    let (drained, _) = run_batch(1, &specs);
    assert_eq!(drained, (1..=specs.len() as u64).collect::<Vec<_>>());
}

#[test]
fn drain_order_is_submit_order_at_four_workers() {
    let _wd = Watchdog::arm("drain_order_is_submit_order_at_four_workers", SUITE_LIMIT);
    let specs = overlapping_specs();
    let (drained, _) = run_batch(4, &specs);
    assert_eq!(drained, (1..=specs.len() as u64).collect::<Vec<_>>());
}

#[test]
fn outcomes_are_deterministic_across_runs_and_worker_counts() {
    let _wd = Watchdog::arm(
        "outcomes_are_deterministic_across_runs_and_worker_counts",
        SUITE_LIMIT,
    );
    let specs = overlapping_specs();
    let (_, run_a) = run_batch(4, &specs);
    let (_, run_b) = run_batch(4, &specs);
    assert_eq!(
        run_a, run_b,
        "same batch twice must yield identical reports"
    );
    let (_, run_serial) = run_batch(1, &specs);
    assert_eq!(run_a, run_serial, "worker count must not change any report");
    // And every report is the in-process engine's, bit for bit.
    for (spec, report) in specs.iter().zip(&run_a) {
        let reference = scenario::reference_run(spec).expect("reference run");
        assert_eq!(report, &reference.report);
    }
}

#[test]
fn same_host_pair_jobs_serialize_without_deadlock() {
    let _wd = Watchdog::arm(
        "same_host_pair_jobs_serialize_without_deadlock",
        SUITE_LIMIT,
    );
    // Six jobs all over hosts (0, 1), four workers: every admission
    // contends on both hosts. They must drain in order, one at a time,
    // with no deadlock.
    let specs: Vec<ScenarioSpec> = (0..6u64)
        .map(|i| {
            let mut spec = ScenarioSpec::golden(0xA000 + i);
            spec.ram_mib = 2;
            spec.strategy = "full".to_string();
            spec
        })
        .collect();
    let (drained, reports) = run_batch(4, &specs);
    assert_eq!(drained, (1..=6).collect::<Vec<_>>());
    assert_eq!(reports.len(), 6);
}

#[test]
fn pause_holds_admission_and_resume_releases_it() {
    let _wd = Watchdog::arm("pause_holds_admission_and_resume_releases_it", SUITE_LIMIT);
    let (src, dst) = spawn_pair(2);
    src.set_paused(true);
    let mut spec = ScenarioSpec::golden(0xB001);
    spec.ram_mib = 2;
    let id = src.submit(spec, dst.endpoint().clone()).expect("submit");
    // Paused: the job must still be queued after a grace period.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        src.job_record(id).expect("record").state,
        JobState::Queued,
        "paused queue must not admit"
    );
    assert!(src.drained().is_empty());
    src.set_paused(false);
    let rec = src.wait_job(id, JOB_TIMEOUT).expect("job terminates");
    assert_eq!(rec.state, JobState::Done, "after resume: {}", rec.detail);
    src.shutdown();
    dst.shutdown();
}

#[test]
fn cancel_removes_a_queued_job_from_the_drain_order() {
    let _wd = Watchdog::arm(
        "cancel_removes_a_queued_job_from_the_drain_order",
        SUITE_LIMIT,
    );
    let (src, dst) = spawn_pair(1);
    src.set_paused(true);
    let peer = dst.endpoint().clone();
    let ids: Vec<u64> = (0..3u64)
        .map(|i| {
            let mut spec = ScenarioSpec::golden(0xC000 + i);
            spec.ram_mib = 2;
            spec.strategy = "dedup".to_string();
            src.submit(spec, peer.clone()).expect("submit")
        })
        .collect();
    src.cancel(ids[1]).expect("cancel the middle job");
    // Cancelling twice (or a running/unknown job) is a typed error.
    assert!(src.cancel(ids[1]).is_err());
    assert!(src.cancel(999).is_err());
    src.set_paused(false);
    for &id in &[ids[0], ids[2]] {
        let rec = src.wait_job(id, JOB_TIMEOUT).expect("job terminates");
        assert_eq!(rec.state, JobState::Done, "job {id}: {}", rec.detail);
    }
    let cancelled = src.job_record(ids[1]).expect("record");
    assert_eq!(cancelled.state, JobState::Cancelled);
    assert_eq!(
        src.drained(),
        vec![ids[0], ids[2]],
        "a cancelled job never drains"
    );
    src.shutdown();
    dst.shutdown();
}

#[test]
fn a_status_past_the_frame_limit_is_refused_by_name() {
    let _wd = Watchdog::arm("status_past_the_frame_limit", SUITE_LIMIT);
    let cfg = DaemonConfig::new(tcp_endpoint()).with_workers(1);
    let daemon = Daemon::spawn(cfg).expect("daemon binds");
    daemon.set_paused(true);
    let ep = daemon.endpoint().clone();
    let spec = ScenarioSpec::golden(1);
    let submit = || daemon.submit(spec.clone(), ep.clone()).expect("submit");
    submit();
    let view = serde_json::to_string(&client::status(&ep).expect("status").jobs[0]).unwrap();
    // Later views are no shorter (longer ids): these alone pass 1 MiB.
    let more = MAX_PAYLOAD / view.len() as u64;
    for _ in 0..more {
        submit();
    }
    match client::status(&ep) {
        Err(DaemonError::Remote(msg)) => assert!(msg.contains(&MAX_PAYLOAD.to_string()), "{msg}"),
        other => panic!("status past the limit: {:?}", other.map(|r| r.jobs.len())),
    }
    assert!(client::ping(&ep), "the daemon answers after the refusal");
    let id = client::submit(&ep, &spec.to_kv(), &ep.to_string()).expect("a CTRL submit");
    assert_eq!(id, more + 2);
    daemon.shutdown();
}

#[test]
fn worker_count_defaults_follow_vecycle_threads() {
    // DaemonConfig::new reads VECYCLE_THREADS; explicit overrides win.
    // (Other tests in this binary always call with_workers, so this
    // short-lived env mutation cannot change their behavior.)
    std::env::set_var("VECYCLE_THREADS", "4");
    let cfg = DaemonConfig::new(tcp_endpoint());
    assert_eq!(cfg.workers, 4);
    std::env::set_var("VECYCLE_THREADS", "not-a-number");
    let cfg = DaemonConfig::new(tcp_endpoint());
    assert_eq!(cfg.workers, 1);
    std::env::remove_var("VECYCLE_THREADS");
    let cfg = DaemonConfig::new(tcp_endpoint());
    assert_eq!(cfg.workers, 1);
    assert_eq!(cfg.with_workers(0).workers, 1, "workers clamp to >= 1");
}
