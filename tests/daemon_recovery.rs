//! Crash-durability tests for `vecycled`: WAL replay on boot, terminal
//! exactly-once across reboots, resume-from-partial-state, and the
//! client/lock robustness satellites.
//!
//! The kill/resume chaos harness (real processes, `VECYCLE_KILL_AT`)
//! lives in `crates/cli/tests/daemon_chaos.rs`; this suite exercises
//! the same machinery in-process, where it can hand-craft WAL files
//! and partial-state files to pin each recovery path individually.

mod common;

use std::time::Duration;

use common::{journal_dir, unix_endpoint, Watchdog};
use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_daemon::frame::{kind, read_frame, write_frame, MAX_PAYLOAD};
use vecycle_daemon::journal::{rec, Journal, WalRecord};
use vecycle_daemon::partial_log::{self, PartialLog};
use vecycle_daemon::proto::{
    self, forward_overhead, forward_resume_overhead, reverse_overhead, reverse_resume_overhead,
    JobMsg, ResumeState,
};
use vecycle_daemon::queue::JobRecord;
use vecycle_daemon::session_state::{partial_path, save_partial, spec_fingerprint, SessionState};
use vecycle_daemon::{
    client, scenario, Daemon, DaemonConfig, DaemonError, DaemonHandle, Endpoint, JobState,
};
use vecycle_host::HostLocks;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{HostId, SimTime, VmId};

const JOB_TIMEOUT: Duration = Duration::from_secs(60);

fn spawn_with_journal(ep: Endpoint, dir: &std::path::Path) -> DaemonHandle {
    Daemon::spawn(DaemonConfig::new(ep).with_journal_dir(dir.to_path_buf()))
        .expect("journal-backed daemon binds")
}

/// Decodes the current WAL of a journal-backed daemon directory.
fn wal_records(dir: &std::path::Path) -> Vec<WalRecord> {
    let bytes = std::fs::read(dir.join(vecycle_daemon::journal::WAL_FILE)).expect("wal readable");
    let (records, valid) = vecycle_daemon::journal::decode_records(&bytes);
    assert_eq!(valid as usize, bytes.len(), "wal has no torn tail at rest");
    records
}

/// Leaves job 1 of `spec` journaled `submitted` and `claimed` under
/// `dir`, as a daemon killed mid-session would.
fn craft_claimed_wal(dir: &std::path::Path, spec: &ScenarioSpec, peer: &Endpoint) {
    let (journal, _) = Journal::open(dir).expect("craft wal");
    let mut submitted = WalRecord::bare(rec::SUBMITTED, 1);
    (submitted.spec, submitted.peer) = (spec.to_kv(), peer.to_string());
    for record in [submitted, WalRecord::bare(rec::CLAIMED, 1)] {
        journal.append(&record).expect("append");
    }
}

fn assert_done(rec: &JobRecord) {
    assert_eq!(rec.state, JobState::Done, "job failed: {}", rec.detail);
}

/// The WAL of one scripted run, one `seq job kind pages_landed [detail]`
/// line per record, before and after boot compaction: job 1 completes,
/// job 2 is cancelled while admission is paused, and job 3 fails because
/// its peer does not answer (no retries). Which records a transition
/// writes, in what order and with what detail, is the durable contract
/// a restarted daemon reads.
#[test]
fn a_scripted_run_leaves_the_pinned_wal() {
    let _wd = Watchdog::arm("a_scripted_run_leaves_the_pinned_wal", 2 * JOB_TIMEOUT);
    let (dir, src_ep) = (journal_dir("pin"), unix_endpoint("pin-src"));
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("pin-dst"))).expect("dest binds");
    let mut spec = cold_full_spec(0x917);
    spec.ram_mib = 1;
    let src = spawn_with_journal(src_ep.clone(), &dir);
    let submit = |peer: &Endpoint| src.submit(spec.clone(), peer.clone()).expect("submit");
    let one = src.wait_job(submit(dst.endpoint()), JOB_TIMEOUT);
    assert_done(&one.expect("job 1 finishes"));
    src.set_paused(true);
    src.cancel(submit(dst.endpoint())).expect("cancel job 2");
    src.set_paused(false);
    let three = src.wait_job(submit(&unix_endpoint("pin-nobody")), JOB_TIMEOUT);
    assert_eq!(three.expect("job 3 ends").state, JobState::Failed);
    src.shutdown();
    dst.shutdown();

    let projection = || -> String {
        let line = |r: WalRecord| {
            let line = format!(
                "{} {} {} {} {}",
                r.seq, r.job, r.kind, r.pages_landed, r.detail
            );
            line.trim_end().to_string() + "\n"
        };
        wal_records(&dir).into_iter().map(line).collect()
    };
    assert_eq!(
        projection(),
        "\
1 1 submitted 0
2 1 claimed 0
3 1 transferring 0
4 1 transferring 257
5 1 done 0
6 2 submitted 0
7 2 cancelled 0
8 3 submitted 0
9 3 claimed 0
10 3 failed 0 i/o: No such file or directory (os error 2)
"
    );
    let src = spawn_with_journal(src_ep, &dir);
    assert_eq!(
        projection(),
        "\
1 1 submitted 0
2 1 done 0 recovered: completed before restart (report not retained)
3 2 submitted 0
4 2 cancelled 0 cancelled by operator
5 3 submitted 0
6 3 failed 0 i/o: No such file or directory (os error 2)
"
    );
    src.shutdown();
}

/// Jobs journaled as `submitted` but never started must be re-queued on
/// boot and run to completion by the restarted daemon.
#[test]
fn restart_requeues_unstarted_jobs() {
    let _wd = Watchdog::arm("restart_requeues_unstarted_jobs", 2 * JOB_TIMEOUT);
    let dir = journal_dir("requeue");
    let src_ep = unix_endpoint("rq-src");
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("rq-dst"))).expect("dest binds");
    let peer = dst.endpoint().clone();

    // First life: accept two jobs but never admit them.
    let src = spawn_with_journal(src_ep.clone(), &dir);
    src.set_paused(true);
    let a = src
        .submit(ScenarioSpec::golden(0xA), peer.clone())
        .expect("submit a");
    let b = src
        .submit(ScenarioSpec::golden(0xB), peer.clone())
        .expect("submit b");
    src.shutdown();

    // Second life, same journal dir: both jobs must come back queued
    // (not paused — pause is an operator toggle, not journaled state)
    // and run to completion with their original ids.
    let src = spawn_with_journal(src_ep, &dir);
    for id in [a, b] {
        let rec = src
            .wait_job(id, JOB_TIMEOUT)
            .expect("recovered job finishes");
        assert_done(&rec);
        assert!(rec.recovered, "job {id} must be flagged as WAL-recovered");
        assert_eq!(rec.resume_epoch, 0, "never-started jobs restart fresh");
    }
    assert_eq!(
        src.drained(),
        vec![a, b],
        "recovered jobs admitted in id order"
    );
    src.shutdown();
    dst.shutdown();
}

/// A job journaled `done` must stay done across a reboot: not re-run,
/// not re-admitted, and later ids must never collide with it.
#[test]
fn terminal_jobs_stay_terminal_across_reboots() {
    let _wd = Watchdog::arm(
        "terminal_jobs_stay_terminal_across_reboots",
        2 * JOB_TIMEOUT,
    );
    let dir = journal_dir("terminal");
    let src_ep = unix_endpoint("tm-src");
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("tm-dst"))).expect("dest binds");
    let peer = dst.endpoint().clone();
    let spec = ScenarioSpec::golden(0x7ec);

    let src = spawn_with_journal(src_ep.clone(), &dir);
    let id = src.submit(spec.clone(), peer.clone()).expect("submit");
    assert_done(&src.wait_job(id, JOB_TIMEOUT).expect("first life finishes"));
    src.shutdown();

    let src = spawn_with_journal(src_ep, &dir);
    let rec = src.job_record(id).expect("done job survives the reboot");
    assert_eq!(rec.state, JobState::Done);
    assert!(rec.recovered);
    assert!(
        rec.detail.contains("recovered"),
        "terminal recovery is labeled: {}",
        rec.detail
    );
    assert!(
        rec.report.is_none(),
        "reports are not journaled; a recovered done job has none"
    );
    assert!(
        src.drained().is_empty(),
        "a recovered terminal job must never be re-admitted"
    );

    // Exactly-once anchor: ids continue past every journaled id.
    let next = src.submit(spec, peer).expect("submit after reboot");
    assert_eq!(next, id + 1, "journaled ids stay unique across reboots");
    assert_done(&src.wait_job(next, JOB_TIMEOUT).expect("new job finishes"));

    // The WAL agrees: exactly one terminal record per job.
    let records = wal_records(&dir);
    let done_for = |job| {
        records
            .iter()
            .filter(|r| r.job == job && r.kind == rec::DONE)
            .count()
    };
    assert_eq!(done_for(id), 1, "one done record for the recovered job");
    assert_eq!(done_for(next), 1, "one done record for the new job");
    src.shutdown();
    dst.shutdown();
}

/// A WAL whose job history starts mid-lifecycle (claimed with no
/// submitted record, so no spec to re-run) must surface as a failed job
/// with a cause — never be dropped silently, never wedge the boot.
#[test]
fn claimed_without_submitted_fails_with_cause() {
    let _wd = Watchdog::arm("claimed_without_submitted_fails_with_cause", JOB_TIMEOUT);
    let dir = journal_dir("unrecoverable");
    {
        let (journal, _) = Journal::open(&dir).expect("craft wal");
        journal
            .append(&WalRecord::bare(rec::CLAIMED, 7))
            .expect("append");
    }
    let src = spawn_with_journal(unix_endpoint("ur-src"), &dir);
    let rec7 = src.job_record(7).expect("orphan claim surfaces as a job");
    assert_eq!(rec7.state, JobState::Failed);
    assert!(
        rec7.detail.contains("unrecoverable"),
        "failure names the cause: {}",
        rec7.detail
    );
    assert!(rec7.recovered);

    // The orphan still reserves its id.
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("ur-dst"))).expect("dest binds");
    let id = src
        .submit(ScenarioSpec::golden(3), dst.endpoint().clone())
        .expect("submit");
    assert_eq!(id, 8, "next id continues past the unrecoverable job");
    src.shutdown();
    dst.shutdown();
}

/// `wait_job_with` must time out with the last observed job view, so an
/// operator staring at a stuck queue sees *where* the job sat.
#[test]
fn wait_timeout_carries_the_last_observed_view() {
    let _wd = Watchdog::arm("wait_timeout_carries_the_last_observed_view", JOB_TIMEOUT);
    let src = Daemon::spawn(DaemonConfig::new(unix_endpoint("wt-src"))).expect("src binds");
    src.set_paused(true);
    let id = src
        .submit(ScenarioSpec::golden(1), unix_endpoint("wt-peer"))
        .expect("submit");
    let err = client::wait_job_with(
        src.endpoint(),
        id,
        Duration::from_millis(300),
        Duration::from_secs(5),
    )
    .expect_err("paused queue cannot finish the job");
    match err {
        DaemonError::WaitTimeout {
            job,
            waited_ms,
            last,
        } => {
            assert_eq!(job, id);
            assert!(waited_ms >= 300, "reported wait {waited_ms}ms");
            let view = last.expect("timeout carries the last view");
            assert_eq!(view.id, id);
            assert_eq!(view.state, "queued", "job was stuck in admission");
        }
        other => panic!("expected WaitTimeout, got {other}"),
    }
    src.shutdown();
}

/// Satellite: a worker that panics mid-leg must release its host claim
/// during unwind — the next claimant proceeds instead of deadlocking,
/// and the poisoned-free lock table keeps answering.
#[test]
fn host_claim_is_released_when_the_holder_panics() {
    let _wd = Watchdog::arm("host_claim_is_released_when_the_holder_panics", JOB_TIMEOUT);
    let locks = HostLocks::new();
    let host = HostId::new(42);
    let worker_locks = locks.clone();
    let worker = std::thread::spawn(move || {
        let _claim = worker_locks.claim(&[host]);
        panic!("worker dies mid-leg while holding host 42");
    });
    assert!(worker.join().is_err(), "worker panicked as arranged");
    // If the unwind leaked the claim (or poisoned the table into a
    // double panic), this would hang until the watchdog aborts.
    let reclaim = locks.claim(&[host]);
    drop(reclaim);
}

/// A job journaled `claimed` (in flight when the daemon died) restarts
/// at resume epoch 1: the session runs the RESUME_STATE/RESUME_OK
/// handshake, the ledger reconciles with the resume-frame overheads,
/// and the report is still bit-identical to the in-process engine.
#[test]
fn recovered_inflight_job_resumes_at_epoch_one() {
    let _wd = Watchdog::arm("recovered_inflight_job_resumes_at_epoch_one", JOB_TIMEOUT);
    let dir = journal_dir("epoch1");
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("e1-dst"))).expect("dest binds");
    let spec = ScenarioSpec::golden(0x7ec);

    // Craft the pre-crash WAL: the job was accepted and claimed, then
    // the daemon died before any progress landed.
    craft_claimed_wal(&dir, &spec, dst.endpoint());

    let src = spawn_with_journal(unix_endpoint("e1-src"), &dir);
    let rec1 = src
        .wait_job(1, JOB_TIMEOUT)
        .expect("recovered job finishes");
    assert_done(&rec1);
    assert!(rec1.recovered);
    let report = rec1.report.as_ref().expect("done job has a report");
    let m = rec1
        .measured
        .as_ref()
        .expect("done job has byte accounting");
    assert_eq!(
        m.resume_epoch, 1,
        "in-flight recovery resumes, not restarts"
    );
    assert_eq!(
        m.skipped_msgs, 0,
        "nothing landed pre-crash, nothing skipped"
    );
    assert_eq!(m.skipped_bytes, 0);

    // Resumed-path ledger oracle: epoch-0 totals plus exactly one
    // RESUME_OK frame forward and one RESUME_STATE frame reverse.
    assert_eq!(
        m.tx,
        report.source_traffic().as_u64()
            + forward_overhead(m.job_json_len)
            + forward_resume_overhead()
    );
    assert_eq!(
        m.rx,
        report.reverse_traffic().as_u64() + reverse_overhead() + reverse_resume_overhead()
    );
    assert_eq!(
        report,
        &scenario::reference_run(&spec).expect("reference").report,
        "resume must not perturb the report"
    );
    src.shutdown();
    dst.shutdown();
}

/// The index a destination builds for `spec`: its warm checkpoint's,
/// or none for a cold start.
fn dest_index(spec: &ScenarioSpec) -> Option<ChecksumIndex> {
    let initial = scenario::initial_memory(spec).expect("initial memory");
    spec.warm
        .then(|| Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial).build_index())
}

/// Flattens a live transcript into the daemon's wire-message sequence,
/// rebuilt here from public APIs so the test pins the protocol, not the
/// implementation.
fn wire_sequence(spec: &ScenarioSpec) -> Vec<WireMsg> {
    use vecycle_core::PageMsg;
    let strategy = scenario::wire_strategy(spec, dest_index(spec)).expect("strategy");
    let initial = scenario::initial_memory(spec).expect("initial memory");
    let (mut guest, mut workload) = scenario::live_guest(spec, &initial).expect("guest");
    let (_, transcript) = scenario::engine_for(spec)
        .migrate_live_with_transcript(&mut guest, &mut workload, strategy)
        .expect("engine run");
    let mut msgs = Vec::new();
    for (i, round) in transcript.rounds.iter().enumerate() {
        msgs.extend(round.iter().map(PageMsg::to_wire));
        msgs.push(WireMsg::RoundEnd {
            round: i as u64 + 1,
        });
    }
    msgs.extend(transcript.stop_copy.iter().map(PageMsg::to_wire));
    msgs.push(WireMsg::StopEnd);
    msgs
}

/// The stream positions after which the destination persists: every
/// 64 messages since the last boundary, and each delimiter.
fn boundaries(msgs: &[WireMsg]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut since = 0;
    for (i, msg) in msgs.iter().enumerate() {
        since += 1;
        if since == 64 || matches!(msg, WireMsg::RoundEnd { .. } | WireMsg::StopEnd) {
            ends.push(i + 1);
            since = 0;
        }
    }
    ends
}

/// Logs `msgs` behind whatever `log` already holds as the destination
/// would: one chunk record per boundary, and the unfinished chunk a
/// peer's death leaves.
fn log_on_cadence(log: &mut PartialLog, msgs: &[WireMsg]) {
    let mut start = 0;
    for end in boundaries(msgs) {
        msgs[start..end].iter().for_each(|m| log.push(m));
        assert!(log.commit().expect("chunk appends"));
        start = end;
    }
    msgs[start..].iter().for_each(|m| log.push(m));
    log.commit().expect("tail appends");
}

/// The headline resume property: a destination restarting with a
/// persisted partial state makes the source skip exactly that prefix —
/// strictly fewer bytes cross the wire than a from-scratch run, and the
/// extended ledger (tx = source_traffic − skipped + overheads) holds.
/// The same prefix resumes alike from each form the partial file can
/// have: the previous release's snapshot, the log a session writes
/// today, and a log continued behind a snapshot.
#[test]
fn resume_skips_the_persisted_partial_prefix() {
    let _wd = Watchdog::arm("resume_skips_the_persisted_partial_prefix", 2 * JOB_TIMEOUT);
    let spec = cold_full_spec(0x515);

    let msgs = wire_sequence(&spec);
    let prefix = msgs.len() / 2;
    assert!(prefix > 0, "scenario must stream enough to crash mid-way");

    // What the destination would have durably applied before dying.
    let fp = spec_fingerprint(&spec);
    let fresh = cold_state(&spec);
    let state_after = |n: usize| {
        let mut st = fresh.clone();
        for msg in &msgs[..n] {
            st.apply(msg, None).expect("prefix applies");
        }
        st
    };
    type Layout<'a> = Box<dyn Fn(&std::path::Path) + 'a>;
    let layouts: [(&str, Layout); 3] = [
        (
            "skip-snap",
            Box::new(|dir| save_partial(dir, 1, fp, &state_after(prefix)).expect("snapshot")),
        ),
        (
            "skip-log",
            Box::new(|dir| {
                std::fs::create_dir_all(dir).expect("journal dir");
                let mut log = PartialLog::create(dir, 1, fp).expect("fresh log");
                log_on_cadence(&mut log, &msgs[..prefix]);
            }),
        ),
        (
            "skip-both",
            Box::new(|dir| {
                save_partial(dir, 1, fp, &state_after(prefix / 3)).expect("snapshot");
                let (_, mut log) = PartialLog::load(dir, 1, fp, &fresh, None).expect("base loads");
                log_on_cadence(&mut log, &msgs[prefix / 3..prefix]);
            }),
        ),
    ];
    for (tag, persist) in layouts {
        let resumed = resume_over_partial(tag, &spec, persist);
        let (rec1, dst_dir) = (&resumed.record, &resumed.dst_dir);
        let report = rec1.report.as_ref().expect("report");
        let m = rec1.measured.as_ref().expect("measured");
        assert_eq!(m.resume_epoch, 1, "{tag}");
        assert_eq!(
            m.skipped_msgs as usize, prefix,
            "{tag}: source skipped the landed prefix"
        );
        let expected_skip: u64 = msgs[..prefix]
            .iter()
            .map(|m| m.encoded_len().as_u64())
            .sum();
        assert_eq!(m.skipped_bytes, expected_skip, "{tag}");
        assert!(m.skipped_bytes > 0, "{tag}");

        // Strictly less traffic than from scratch (the resume frames cost
        // far less than the skipped prefix), and the extended ledger holds.
        let from_scratch_tx = report.source_traffic().as_u64() + forward_overhead(m.job_json_len);
        assert!(
            m.tx < from_scratch_tx,
            "{tag}: resumed tx {} must undercut from-scratch tx {}",
            m.tx,
            from_scratch_tx
        );
        assert_eq!(
            m.tx,
            from_scratch_tx - m.skipped_bytes + forward_resume_overhead(),
            "{tag}"
        );
        assert_eq!(
            report,
            &scenario::reference_run(&spec).expect("reference").report,
            "{tag}: a resumed transfer still reproduces the reference report"
        );

        // The partial is consumed: finishing the job dropped it.
        assert!(
            !partial_path(dst_dir, 1, fp).exists(),
            "{tag}: partial file must be dropped after DONE"
        );
    }
}

/// The cold, full-copy scenario the resume tests share: no checksum
/// index, so the stream can be regenerated here without rebuilding the
/// destination checkpoint.
fn cold_full_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::golden(seed);
    spec.strategy = "full".to_string();
    spec.warm = false;
    spec
}

fn cold_state(spec: &ScenarioSpec) -> SessionState {
    let initial = scenario::initial_memory(spec).expect("initial memory");
    SessionState::fresh(spec, &initial)
}

/// What a job resumed over a hand-persisted destination partial left
/// behind.
struct Resumed {
    record: JobRecord,
    src_metrics: vecycle_obs::MetricsRegistry,
    dst_dir: std::path::PathBuf,
}

/// Has `persist` leave job 1's partial file in a journal directory,
/// restarts a journal-backed destination over it and a source with the
/// job journaled in flight, and waits for the resumed job to finish
/// `Done`.
fn resume_over_partial(
    tag: &str,
    spec: &ScenarioSpec,
    persist: impl FnOnce(&std::path::Path),
) -> Resumed {
    let dst_dir = journal_dir(&format!("{tag}-dst"));
    persist(&dst_dir);
    let dst = spawn_with_journal(unix_endpoint(&format!("{tag}-dst")), &dst_dir);
    let src_dir = journal_dir(&format!("{tag}-src"));
    craft_claimed_wal(&src_dir, spec, dst.endpoint());
    let src = spawn_with_journal(unix_endpoint(&format!("{tag}-src")), &src_dir);
    let record = src.wait_job(1, JOB_TIMEOUT).expect("resumed job finishes");
    assert_done(&record);
    let src_metrics = src.metrics();
    src.shutdown();
    dst.shutdown();
    Resumed {
        record,
        src_metrics,
        dst_dir,
    }
}

/// A resume the source must *reject* self-heals into a full transfer:
/// the destination drops the bad partial, the whole stream crosses, and
/// the only trace on the wire is the resume handshake itself. Two
/// well-formed (trailer-valid) partials the regenerated stream cannot
/// reproduce: one built from another seed's prefix, one claiming more
/// applied messages than the stream has.
#[test]
fn rejected_resume_self_heals_into_a_full_transfer() {
    let _wd = Watchdog::arm(
        "rejected_resume_self_heals_into_a_full_transfer",
        2 * JOB_TIMEOUT,
    );
    let spec = cold_full_spec(0x515);
    let msgs = wire_sequence(&spec);

    let mut foreign = cold_state(&spec);
    let other = wire_sequence(&cold_full_spec(0x516));
    for msg in &other[..other.len() / 2] {
        foreign.apply(msg, None).expect("foreign prefix applies");
    }

    let mut overlong = cold_state(&spec);
    let body = &msgs[..msgs.len() - 1];
    for msg in body.iter().chain(&body[..8]) {
        overlong.apply(msg, None).expect("page messages re-apply");
    }
    assert!(overlong.applied() > msgs.len() as u64);

    for (tag, partial) in [("rj-foreign", &foreign), ("rj-long", &overlong)] {
        let resumed = resume_over_partial(tag, &spec, |dir| {
            save_partial(dir, 1, spec_fingerprint(&spec), partial).expect("persist partial");
        });
        let report = resumed.record.report.as_ref().expect("report");
        let m = resumed.record.measured.as_ref().expect("measured");
        assert_eq!(m.resume_epoch, 1, "{tag}");
        assert_eq!(m.skipped_msgs, 0, "{tag}: a rejected resume skips nothing");
        assert_eq!(m.skipped_bytes, 0, "{tag}");
        assert_eq!(
            m.tx,
            report.source_traffic().as_u64()
                + forward_overhead(m.job_json_len)
                + forward_resume_overhead(),
            "{tag}: the whole stream plus one RESUME_OK frame"
        );
        assert_eq!(
            report,
            &scenario::reference_run(&spec).expect("reference").report,
            "{tag}: a rejected resume must not perturb the report"
        );
        let resume_total = |result| {
            resumed
                .src_metrics
                .counter("daemon_resume_total", &[("result", result)])
        };
        assert_eq!(resume_total("rejected"), 1, "{tag}");
        assert_eq!(resume_total("accepted"), 0, "{tag}");
        assert!(
            !partial_path(&resumed.dst_dir, 1, spec_fingerprint(&spec)).exists(),
            "{tag}: the rejected partial must be gone"
        );
    }
}

/// Acceptance pin: a journal-backed daemon pair with no crash produces
/// the exact same report and byte accounting as the in-memory daemons —
/// durability must cost nothing on the clean path.
#[test]
fn clean_journal_backed_run_matches_the_in_memory_daemon() {
    let _wd = Watchdog::arm(
        "clean_journal_backed_run_matches_the_in_memory_daemon",
        2 * JOB_TIMEOUT,
    );
    let spec = ScenarioSpec::golden(0x7ec);

    let run = |src: DaemonHandle, dst: DaemonHandle| {
        let id = src
            .submit(spec.clone(), dst.endpoint().clone())
            .expect("submit");
        let rec = src.wait_job(id, JOB_TIMEOUT).expect("job finishes");
        let dst_metrics = dst.metrics();
        src.shutdown();
        dst.shutdown();
        (rec, dst_metrics)
    };
    let src_dir = journal_dir("clean-src");
    let dst_dir = journal_dir("clean-dst");
    let (durable, dst_metrics) = run(
        spawn_with_journal(unix_endpoint("cl-src"), &src_dir),
        spawn_with_journal(unix_endpoint("cl-dst"), &dst_dir),
    );
    let (in_memory, _) = run(
        Daemon::spawn(DaemonConfig::new(unix_endpoint("cl-src2"))).expect("src binds"),
        Daemon::spawn(DaemonConfig::new(unix_endpoint("cl-dst2"))).expect("dst binds"),
    );

    assert_done(&durable);
    assert_done(&in_memory);
    assert_eq!(
        durable.report, in_memory.report,
        "WAL must not perturb the report"
    );
    let dm = durable.measured.expect("measured");
    let im = in_memory.measured.expect("measured");
    assert_eq!(
        (dm.tx, dm.rx),
        (im.tx, im.rx),
        "WAL must not perturb the wire"
    );
    assert_eq!(dm.resume_epoch, 0);
    assert_eq!(dm.skipped_bytes, 0);
    assert_eq!(
        durable.report.as_ref(),
        Some(&scenario::reference_run(&spec).expect("reference").report)
    );

    // The WAL tells the same story: one submitted, one done, no resume.
    let records = wal_records(&src_dir);
    let kinds: Vec<&str> = records
        .iter()
        .filter(|r| r.job == 1 && r.kind != rec::TRANSFERRING)
        .map(|r| r.kind.as_str())
        .collect();
    assert_eq!(kinds, [rec::SUBMITTED, rec::CLAIMED, rec::DONE]);
    assert_eq!(
        records.iter().filter(|r| r.kind == rec::DONE).count(),
        1,
        "exactly one done record"
    );
    // The progress hints are written in order between the synced
    // records, unsynced or not: stream start, then one per round.
    let hints: Vec<&WalRecord> = records
        .iter()
        .filter(|r| r.kind == rec::TRANSFERRING)
        .collect();
    let rounds = durable.report.as_ref().expect("report").rounds().len();
    assert_eq!(hints.len(), 1 + rounds);
    assert_eq!(hints[0].pages_landed, 0);
    assert!(hints
        .windows(2)
        .all(|w| w[0].pages_landed < w[1].pages_landed));
    assert!(
        records.iter().map(|r| r.seq).eq(1..=records.len() as u64),
        "no record was lost or reordered around a hint"
    );

    // One chunk record per persistence boundary went to the log, and
    // finishing the job removed it.
    let saves = dst_metrics.counter("daemon_resume_partials_total", &[("op", "save")]);
    assert_eq!(saves, boundaries(&wire_sequence(&spec)).len() as u64);
    assert!(!partial_path(&dst_dir, 1, spec_fingerprint(&spec)).exists());
}

/// The partial-file format outlives the in-memory anchor layout: a file
/// written by the previous release's daemon (a committed fixture — its
/// anchors were a hash map, sorted on encode) decodes, re-encodes byte
/// for byte and announces the hash that release computed, so a
/// destination upgraded between two epochs of one job still resumes.
/// The traffic behind it is the anchor corner: page 3 is rewritten in
/// round 2 and references to it, before and after, resolve through its
/// *first* content.
#[test]
fn previous_release_partial_file_round_trips_bit_for_bit() {
    const FIXTURE: &[u8] = include_bytes!("fixtures/partial-job7-pr13.bin");
    const PR13_STATE_HASH: [u8; 8] = [0xcf, 0x8c, 0x8a, 0xbe, 0x35, 0x8a, 0x51, 0x75];

    let mut spec = ScenarioSpec::golden(0x14);
    spec.ram_mib = 1;
    spec.strategy = "dedup".into();
    spec.warm = false;
    let fp = spec_fingerprint(&spec);

    let (job, fingerprint, decoded) = SessionState::decode(FIXTURE).expect("fixture decodes");
    assert_eq!((job, fingerprint), (7, fp));
    assert_eq!(decoded.encode(7, fp), FIXTURE, "re-encode differs");
    assert_eq!(decoded.state_hash(), PR13_STATE_HASH);

    // The same traffic applied today lands in the same bytes.
    let d = vecycle_types::PageDigest::from_content_id;
    let mut st = cold_state(&spec);
    let mut apply = |msg: WireMsg| st.apply(&msg, None).expect("fixture traffic applies");
    for i in (0..48u64).rev() {
        apply(WireMsg::full_filler(i, d(100 + i)));
    }
    apply(WireMsg::Zero { idx: 200 });
    apply(WireMsg::DedupRef { idx: 60, source: 3 });
    apply(WireMsg::RoundEnd { round: 1 });
    apply(WireMsg::full_filler(3, d(9_003)));
    apply(WireMsg::full_filler(255, d(9_255)));
    apply(WireMsg::DedupRef { idx: 61, source: 3 });
    apply(WireMsg::DedupRef {
        idx: 62,
        source: 60,
    });
    apply(WireMsg::RoundEnd { round: 2 });
    apply(WireMsg::full_filler(7, d(9_007)));
    assert_eq!(st, decoded);
    assert_eq!(st.encode(7, fp), FIXTURE);
    assert_eq!(
        st.mem()[61],
        d(103),
        "a reference resolves to the first content"
    );
    assert_eq!(st.mem()[3], d(9_003));

    // And the decoded state keeps applying as the live one does.
    let mut resumed = decoded;
    for state in [&mut st, &mut resumed] {
        state
            .apply(&WireMsg::DedupRef { idx: 63, source: 3 }, None)
            .expect("anchor survives the file");
    }
    assert_eq!(resumed.state_hash(), st.state_hash());
    assert_eq!(resumed.mem()[63], d(103));
}

/// The partial log under every possible crash: a recorded stream logged
/// on the destination's cadence, then the file cut at each byte offset.
/// Every cut loads — to exactly the state after the last whole chunk
/// record, which is a prefix of the stream and therefore a state the
/// source's held-prefix simulation reproduces and accepts (it compares
/// the applied count and the state hash, both of which `SessionState`
/// equality covers). Only a cut inside the header record leaves nothing
/// to load, which the daemon treats as no file.
fn every_truncation_loads_the_whole_record_prefix(spec: &ScenarioSpec) {
    let fp = spec_fingerprint(spec);
    let index = dest_index(spec);
    let initial = scenario::initial_memory(spec).expect("initial memory");
    let fresh = SessionState::fresh(spec, &initial);
    let msgs = wire_sequence(spec);

    let dir = journal_dir("cuts");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let path = partial_path(&dir, 1, fp);
    let mut log = PartialLog::create(&dir, 1, fp).expect("fresh log");
    let header_len = std::fs::metadata(&path).expect("log exists").len() as usize;
    // (file length, state) after the header and after each chunk record.
    let mut whole = vec![(header_len, fresh.clone())];
    let mut state = fresh.clone();
    let mut start = 0;
    for end in boundaries(&msgs) {
        for msg in &msgs[start..end] {
            log.push(msg);
            state.apply(msg, index.as_ref()).expect("stream applies");
        }
        assert!(log.commit().expect("chunk appends"));
        let len = std::fs::metadata(&path).expect("log exists").len() as usize;
        whole.push((len, state.clone()));
        start = end;
    }
    assert!(state.finished(), "the recorded stream is complete");
    assert!(whole.len() > 4, "several records to cut between");

    let bytes = std::fs::read(&path).expect("log readable");
    assert_eq!(bytes.len(), whole.last().expect("records").0);
    assert!(
        bytes.len() < 40 * msgs.len(),
        "{} messages logged in {} bytes: no payload, no state rewrite",
        msgs.len(),
        bytes.len()
    );
    let mut k = 0;
    for cut in 0..=bytes.len() {
        let loaded = partial_log::replay(&bytes[..cut], 1, fp, &fresh, index.as_ref());
        if cut < header_len {
            assert!(loaded.is_none(), "cut {cut}: no base yet");
            continue;
        }
        if whole.get(k + 1).is_some_and(|(len, _)| *len <= cut) {
            k += 1;
        }
        let (state, valid) = loaded.unwrap_or_else(|| panic!("cut {cut} must load"));
        assert_eq!(valid, whole[k].0, "cut {cut}: the intact prefix");
        assert!(state == whole[k].1, "cut {cut}: state after record {k}");
    }
    assert_eq!(k, whole.len() - 1, "the uncut file loads the whole stream");
}

#[test]
fn a_cold_partial_log_cut_at_every_byte_loads_its_whole_records() {
    let mut spec = cold_full_spec(0x10c);
    spec.ram_mib = 1;
    every_truncation_loads_the_whole_record_prefix(&spec);
}

#[test]
fn a_warm_partial_log_cut_at_every_byte_loads_its_whole_records() {
    let mut spec = ScenarioSpec::golden(0x10d);
    spec.ram_mib = 1;
    every_truncation_loads_the_whole_record_prefix(&spec);
}

/// A hand-driven source: opens a session for job 9 of a cold `spec` at
/// `epoch` against `dest` — HELLO‖JOB out, HELLO_ACK back — up to where
/// the data plane (epoch 0) or the RESUME_STATE frame (later epochs)
/// comes next.
fn open_session(
    dest: &Endpoint,
    spec: &ScenarioSpec,
    epoch: u64,
) -> vecycle_daemon::endpoint::Stream {
    let mut s = dest.connect().expect("connect");
    s.set_io_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = proto::hello_payload(proto::VERSION, proto::ROLE_SOURCE);
    write_frame(&mut s, kind::HELLO, &hello).expect("hello");
    let job = JobMsg {
        job: 9,
        resume: epoch,
        spec: spec.clone(),
    };
    write_frame(&mut s, kind::JOB, job.encode().as_bytes()).expect("job");
    let ack = read_frame(&mut s, MAX_PAYLOAD).expect("hello ack");
    assert_eq!(ack.kind, kind::HELLO_ACK);
    s
}

/// Satellite: a resume handshake that dies between RESUME_STATE and
/// RESUME_OK must not cost the landed state. The destination is
/// in-memory, so the partials map is all it has: the source dies
/// mid-stream (state remembered), reconnects and dies again right after
/// reading RESUME_STATE, then answers one in the version-1 shape (an
/// accept flag plus a skip count), which the destination fails as
/// corrupt — and the next session must still be offered the same
/// prefix, not a fresh transfer.
#[test]
fn a_resume_handshake_that_dies_keeps_the_remembered_state() {
    use std::io::Write;
    let _wd = Watchdog::arm(
        "a_resume_handshake_that_dies_keeps_the_remembered_state",
        JOB_TIMEOUT,
    );
    let spec = cold_full_spec(0x9e5);
    let msgs = wire_sequence(&spec);
    let landed = 100;
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("hs-dst"))).expect("dest binds");

    // Epoch 0: a prefix lands, then the source dies mid-message.
    let mut s = open_session(dst.endpoint(), &spec, 0);
    let mut stream = Vec::new();
    for msg in &msgs[..=landed] {
        msg.encode(&mut stream);
    }
    s.write_all(&stream[..stream.len() - 5])
        .expect("prefix sends");
    drop(s);

    // Epochs 1 to 3: each reads the announcement; the first then dies.
    // A session holds its host claim until it has put the state back,
    // so the next one cannot overtake it.
    let announced = |epoch| {
        let mut s = open_session(dst.endpoint(), &spec, epoch);
        let frame = read_frame(&mut s, MAX_PAYLOAD).expect("resume state");
        assert_eq!(frame.kind, kind::RESUME_STATE);
        (s, ResumeState::decode(&frame.payload).expect("decodes"))
    };
    let (_, first) = announced(1);
    assert_eq!(first.applied, landed as u64, "whole messages landed");
    let mut expect = cold_state(&spec);
    for msg in &msgs[..landed] {
        expect.apply(msg, None).expect("prefix applies");
    }
    assert_eq!(first.hash, expect.state_hash());
    let (mut s, second) = announced(2);
    assert_eq!(second, first, "offered the same prefix");
    let v1_ok = [&[1][..], &(landed as u64).to_be_bytes()].concat();
    write_frame(&mut s, kind::RESUME_OK, &v1_ok).expect("resume ok");
    let refusal = read_frame(&mut s, MAX_PAYLOAD).expect("the session fails");
    let text = String::from_utf8_lossy(&refusal.payload);
    let corrupt = "corrupt payload: resume-ok payload length 9";
    assert_eq!((refusal.kind, &*text), (kind::ERR, corrupt));
    drop(s);
    assert_eq!(announced(3).1, first, "and after a corrupt verdict");
    dst.shutdown();
}

/// Satellite: a partial log that cannot be written is reported once per
/// session, not once per chunk, and costs the transfer nothing but its
/// crash durability. A non-empty directory squatting on the partial
/// path makes every way of writing the file fail.
#[test]
fn an_unwritable_partial_is_reported_once_and_the_job_completes() {
    let _wd = Watchdog::arm(
        "an_unwritable_partial_is_reported_once_and_the_job_completes",
        JOB_TIMEOUT,
    );
    let spec = cold_full_spec(0xf011);
    let dst_dir = journal_dir("full-dst");
    let squatter = partial_path(&dst_dir, 1, spec_fingerprint(&spec));
    std::fs::create_dir_all(squatter.join("occupied")).expect("squatter");
    let dst = spawn_with_journal(unix_endpoint("full-dst"), &dst_dir);
    let src = Daemon::spawn(DaemonConfig::new(unix_endpoint("full-src"))).expect("src binds");
    let id = src
        .submit(spec.clone(), dst.endpoint().clone())
        .expect("submit");
    assert_eq!(id, 1);
    let rec1 = src.wait_job(id, JOB_TIMEOUT).expect("job finishes");
    assert_done(&rec1);
    assert!(boundaries(&wire_sequence(&spec)).len() > 10, "many chunks");
    let lines = dst.journal();
    let failures: Vec<&String> = lines.iter().filter(|l| l.contains("partial")).collect();
    assert_eq!(failures.len(), 1, "one line per session: {failures:?}");
    assert!(failures[0].contains("job 1"), "{failures:?}");
    src.shutdown();
    dst.shutdown();
}
