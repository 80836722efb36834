//! Loopback end-to-end tests for `vecycled`: two daemons in-process,
//! real sockets, golden-scenario migrations.
//!
//! The two headline acceptance properties live here:
//!
//! 1. **Bit-identity** — a migration submitted between two daemons
//!    over loopback TCP (or a Unix socket) produces a
//!    `MigrationReport` equal to the in-process engine run of the same
//!    scenario and seed.
//! 2. **Ledger reconciliation** — the bytes measured on the migration
//!    socket equal the analytic `TrafficLedger` totals plus the pinned
//!    framing/handshake overhead, per strategy and in both directions.
//!
//! Each test writes its daemons' metrics text and job views to
//! `target/daemon-artifacts/` so CI can attach them on failure.

mod common;

use std::time::Duration;

use common::{tcp_endpoint, unix_endpoint, Watchdog};
use vecycle_daemon::control::CtrlRequest;
use vecycle_daemon::proto::{forward_overhead, reverse_overhead};
use vecycle_daemon::{client, scenario, Daemon, DaemonConfig, DaemonHandle, Endpoint, JobState};
use vecycle_sim::ScenarioSpec;

const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Aborts the process if a test wedges — a hung socket must fail CI,
/// not stall it.
fn spawn_pair(src: Endpoint, dst: Endpoint) -> (DaemonHandle, DaemonHandle) {
    let src = Daemon::spawn(DaemonConfig::new(src)).expect("source daemon binds");
    let dst = Daemon::spawn(DaemonConfig::new(dst)).expect("dest daemon binds");
    (src, dst)
}

fn dump_artifacts(name: &str, src: &DaemonHandle, dst: &DaemonHandle) {
    let dir = std::path::Path::new("target/daemon-artifacts");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut text = String::new();
    for (side, daemon) in [("source", src), ("dest", dst)] {
        text.push_str(&format!("== {side} daemon: metrics ==\n"));
        text.push_str(&daemon.metrics().snapshot().to_prometheus());
        text.push_str(&format!("== {side} daemon: jobs ==\n"));
        if let Ok(status) = client::status(daemon.endpoint()) {
            for job in status.jobs {
                text.push_str(&format!("{job:?}\n"));
            }
        }
    }
    let _ = std::fs::write(dir.join(format!("{name}.log")), text);
}

/// Runs one scenario between a daemon pair and returns the terminal
/// job record.
fn run_one(
    name: &str,
    src_ep: Endpoint,
    dst_ep: Endpoint,
    spec: &ScenarioSpec,
) -> vecycle_daemon::queue::JobRecord {
    let (src, dst) = spawn_pair(src_ep, dst_ep);
    let peer = dst.endpoint().clone();
    let id = src.submit(spec.clone(), peer).expect("submit");
    let rec = src
        .wait_job(id, JOB_TIMEOUT)
        .expect("job reaches a terminal state");
    dump_artifacts(name, &src, &dst);
    src.shutdown();
    dst.shutdown();
    rec
}

fn assert_reconciled(rec: &vecycle_daemon::queue::JobRecord) {
    assert_eq!(rec.state, JobState::Done, "job failed: {}", rec.detail);
    let report = rec.report.as_ref().expect("done job has a report");
    let m = rec.measured.as_ref().expect("done job has byte accounting");
    // The daemon enforced tx == expected_tx already (a mismatch fails
    // the job); re-derive both sides here so the pinned overhead
    // formula itself is under test, not just the daemon's bookkeeping.
    assert_eq!(
        m.tx,
        report.source_traffic().as_u64() + forward_overhead(m.job_json_len),
        "forward bytes: measured vs ledger + framing overhead"
    );
    assert_eq!(
        m.rx,
        report.reverse_traffic().as_u64() + reverse_overhead(),
        "reverse bytes: measured vs ledger + framing overhead"
    );
    assert_eq!(m.tx, m.expected_tx);
    assert_eq!(m.rx, m.expected_rx);
}

/// Pins a fresh job's socket totals against what protocol version 2
/// measured for the same job. Version 3 drops the WANT frame (6 B)
/// forward, and the OFFER frame (22 B) and DONE's status byte reverse:
/// only the framing moved, not one data-plane byte.
fn assert_socket_bytes(rec: &vecycle_daemon::queue::JobRecord, v2_tx: u64, v2_rx: u64) {
    let m = rec.measured.as_ref().expect("done job has byte accounting");
    assert_eq!((m.tx, m.rx), (v2_tx - 6, v2_rx - 23));
}

#[test]
fn golden_tcp_migration_matches_the_in_process_engine() {
    let _wd = Watchdog::arm(
        "golden_tcp_migration_matches_the_in_process_engine",
        JOB_TIMEOUT,
    );
    let spec = ScenarioSpec::golden(0x7ec);
    let reference = scenario::reference_run(&spec).expect("reference run");
    let rec = run_one("golden_tcp", tcp_endpoint(), tcp_endpoint(), &spec);
    assert_eq!(rec.state, JobState::Done, "job failed: {}", rec.detail);
    assert_socket_bytes(&rec, 110_843, 16_448);
    assert_eq!(
        rec.report.as_ref(),
        Some(&reference.report),
        "daemon-pair report must be bit-identical to the in-process engine"
    );
    assert_reconciled(&rec);
}

#[test]
fn golden_unix_migration_matches_the_in_process_engine() {
    let _wd = Watchdog::arm(
        "golden_unix_migration_matches_the_in_process_engine",
        JOB_TIMEOUT,
    );
    let spec = ScenarioSpec::golden(0x7ec);
    let reference = scenario::reference_run(&spec).expect("reference run");
    let rec = run_one(
        "golden_unix",
        unix_endpoint("src"),
        unix_endpoint("dst"),
        &spec,
    );
    assert_eq!(rec.state, JobState::Done, "job failed: {}", rec.detail);
    assert_eq!(rec.report.as_ref(), Some(&reference.report));
    assert_reconciled(&rec);
}

#[test]
fn ledger_reconciles_for_every_strategy() {
    let _wd = Watchdog::arm("ledger_reconciles_for_every_strategy", 4 * JOB_TIMEOUT);
    let specs = ["vecycle", "full", "dedup"].map(|strategy| {
        let mut spec = ScenarioSpec::golden(0x7ec ^ strategy.len() as u64);
        spec.strategy = strategy.to_string();
        spec
    });
    // A busy warm guest over the WAN link: its resend rounds rewrite
    // pages that already landed, so the destination keeps their first
    // digests beside the live ones.
    let mut busy = ScenarioSpec::golden(0xb057);
    busy.ram_mib = 32;
    busy.link = "wan".to_string();
    busy.dirty_frac_per_hour = 50.0;
    for spec in specs.iter().chain([&busy]) {
        let name = format!("ledger_{}_{}", spec.strategy, spec.link);
        let rec = run_one(&name, tcp_endpoint(), tcp_endpoint(), spec);
        // Done also means the destination's content hash of its final
        // digests equalled the one the source sent in COMPLETE.
        assert_reconciled(&rec);
        let reference = scenario::reference_run(spec).expect("reference run");
        assert_eq!(
            rec.report.as_ref(),
            Some(&reference.report),
            "{name}: report must match the in-process engine"
        );
        if spec.link == "wan" {
            assert!(reference.report.rounds().len() > 1, "want resend rounds");
        }
    }
}

#[test]
fn control_socket_drives_a_migration_end_to_end() {
    let _wd = Watchdog::arm("control_socket_drives_a_migration_end_to_end", JOB_TIMEOUT);
    let (src, dst) = spawn_pair(tcp_endpoint(), tcp_endpoint());
    let ctrl = src.endpoint().clone();
    assert!(client::ping(&ctrl), "daemon answers ping");

    let spec = ScenarioSpec::golden(0x7ec);
    let id = client::submit(&ctrl, &spec.to_kv(), &dst.endpoint().to_string()).expect("submit");
    let view = client::wait_job(&ctrl, id, JOB_TIMEOUT).expect("job finishes");
    assert_eq!(view.state, "done", "job failed: {}", view.detail);
    assert!(view.converged);
    assert_eq!(view.measured_tx, view.expected_tx);
    assert_eq!(view.measured_rx, view.expected_rx);

    let reference = scenario::reference_run(&spec).expect("reference run");
    assert_eq!(view.rounds, reference.report.rounds().len() as u64);
    assert_eq!(view.downtime_ns, reference.report.downtime().as_nanos());
    assert_eq!(
        view.forward_bytes,
        reference.report.source_traffic().as_u64()
    );

    let status = client::status(&ctrl).expect("status");
    assert_eq!(status.drained, vec![id]);
    assert!(!status.paused);

    // Destination-side evidence that the session really crossed a
    // socket: it counted one good inbound session.
    let sessions = dst
        .metrics()
        .counter("daemon_sessions_total", &[("result", "ok")]);
    assert_eq!(sessions, 1, "dest sessions");
    dump_artifacts("control_socket", &src, &dst);
    src.shutdown();
    dst.shutdown();
}

/// The `metrics` control command scrapes each daemon's registry: after
/// one warm job, the destination counts one good session and the source
/// one done job, as `status` lists.
#[test]
fn metrics_scrapes_agree_with_status() {
    let _wd = Watchdog::arm("metrics_scrapes_agree_with_status", JOB_TIMEOUT);
    let (src, dst) = spawn_pair(tcp_endpoint(), tcp_endpoint());
    let spec = ScenarioSpec::golden(0x7ec);
    let id =
        client::submit(src.endpoint(), &spec.to_kv(), &dst.endpoint().to_string()).expect("submit");
    let view = client::wait_job(src.endpoint(), id, JOB_TIMEOUT).expect("job finishes");
    assert_eq!(view.state, "done", "job failed: {}", view.detail);
    let status = client::status(src.endpoint()).expect("status");
    let done = status.jobs.iter().filter(|j| j.state == "done").count();
    assert_eq!(done, 1, "{:?}", status.jobs);

    let scrape = |ep: &Endpoint| {
        let resp = client::request(ep, &CtrlRequest::bare("metrics")).expect("metrics");
        assert!(resp.ok, "{}", resp.error);
        resp.metrics
    };
    let jobs_done = format!("daemon_jobs_total{{state=\"done\"}} {done}\n");
    let source = scrape(src.endpoint());
    assert!(source.contains(&jobs_done), "source:\n{source}");
    // The destination counts its session once DONE is out, so it may
    // trail the source's job by a moment.
    let sessions_ok = format!("daemon_sessions_total{{result=\"ok\"}} {done}\n");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut dest = scrape(dst.endpoint());
    while !dest.contains(&sessions_ok) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        dest = scrape(dst.endpoint());
    }
    assert!(dest.contains(&sessions_ok), "destination:\n{dest}");
    src.shutdown();
    dst.shutdown();
}

/// Sessions borrow their I/O buffers from their daemon's pool: after
/// two sequential jobs, `vecycled metrics` shows each end reusing a set
/// it allocated for the first.
#[test]
fn sequential_jobs_reuse_session_buffers() {
    let _wd = Watchdog::arm("sequential_jobs_reuse_session_buffers", JOB_TIMEOUT);
    let (src, dst) = spawn_pair(tcp_endpoint(), tcp_endpoint());
    for seed in [0x7ec, 0x7ed] {
        let id = src
            .submit(ScenarioSpec::golden(seed), dst.endpoint().clone())
            .expect("submit");
        let rec = src.wait_job(id, JOB_TIMEOUT).expect("job finishes");
        assert_reconciled(&rec);
    }
    for (end, daemon) in [("source", &src), ("destination", &dst)] {
        let resp =
            client::request(daemon.endpoint(), &CtrlRequest::bare("metrics")).expect("metrics");
        let reused = resp
            .metrics
            .lines()
            .find_map(|l| l.strip_prefix("daemon_session_buffers_total{op=\"reused\"} "))
            .and_then(|n| n.parse::<u64>().ok());
        assert!(reused >= Some(1), "{end}:\n{}", resp.metrics);
    }
    src.shutdown();
    dst.shutdown();
}

#[test]
fn cold_full_migration_over_unix_socket_reconciles() {
    let _wd = Watchdog::arm(
        "cold_full_migration_over_unix_socket_reconciles",
        JOB_TIMEOUT,
    );
    let mut spec = ScenarioSpec::golden(11);
    spec.strategy = "full".to_string();
    spec.warm = false;
    let rec = run_one(
        "cold_full_unix",
        unix_endpoint("cold-src"),
        unix_endpoint("cold-dst"),
        &spec,
    );
    assert_reconciled(&rec);
    assert_socket_bytes(&rec, 4_223_223, 52);
    let reference = scenario::reference_run(&spec).expect("reference run");
    assert_eq!(rec.report.as_ref(), Some(&reference.report));
}
