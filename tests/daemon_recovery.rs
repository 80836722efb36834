//! Crash-durability tests for `vecycled`: WAL replay on boot, terminal
//! exactly-once across reboots, retries that recycle the destination's
//! landed pages, and the client/lock robustness satellites.
//!
//! The kill/resume chaos harness (real processes, `VECYCLE_KILL_AT`)
//! lives in `crates/cli/tests/daemon_chaos.rs`; this suite exercises
//! the same machinery in-process, where it can hand-craft WAL files
//! and partial-state files to pin each recovery path individually.

mod common;

use std::time::Duration;

use common::{journal_dir, unix_endpoint, Watchdog};
use vecycle_checkpoint::{ChecksumIndex, PartialCheckpoint};
use vecycle_daemon::control::CtrlRequest;
use vecycle_daemon::endpoint::SESSION_BUF;
use vecycle_daemon::frame::{kind, read_frame, write_frame, MAX_PAYLOAD};
use vecycle_daemon::journal::{rec, Journal, WalRecord};
use vecycle_daemon::partial_log::{self, PartialLog};
use vecycle_daemon::proto::{self, forward_overhead, reverse_overhead, JobMsg};
use vecycle_daemon::queue::JobRecord;
use vecycle_daemon::session_state::{partial_path, spec_fingerprint, SessionState};
use vecycle_daemon::{
    client, receive_stream, scenario, Daemon, DaemonConfig, DaemonError, DaemonHandle, Endpoint,
    JobState, Persist,
};
use vecycle_faults::KillSwitch;
use vecycle_host::HostLocks;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{HostId, PageDigest, VmId};

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
/// at retry epoch 1: the destination offers an empty partial, whose
/// index beside the checkpoint's is the fresh epoch's, so the ledger
/// reconciles with the plain overheads and the report is still the
/// in-process engine's.
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
    assert_ledger_exact(report, m, "epoch 1");
    assert_eq!(
        report,
        &scenario::reference_run(&spec).expect("reference").report,
        "a retry over nothing landed is the clean run"
    );
    src.shutdown();
    dst.shutdown();
}

/// The one ledger formula every epoch reconciles with: the analytic
/// ledgers plus the fixed framing, both directions.
fn assert_ledger_exact(
    report: &vecycle_core::MigrationReport,
    m: &vecycle_daemon::Measured,
    tag: &str,
) {
    let tx = report.source_traffic().as_u64() + forward_overhead(m.job_json_len);
    let rx = report.reverse_traffic().as_u64() + reverse_overhead();
    assert_eq!((m.tx, m.rx), (tx, rx), "{tag}: ledger");
}

/// The index a destination offers for `spec` at a fresh epoch.
fn dest_index(spec: &ScenarioSpec) -> Option<ChecksumIndex> {
    let initial = scenario::initial_memory(spec).expect("initial memory");
    let mut room = ChecksumIndex::default();
    scenario::offer(spec, initial.as_slice(), None, &mut room).cloned()
}

/// Flattens a live transcript against the offered `index` into the
/// daemon's wire-message sequence, rebuilt here from public APIs so the
/// test pins the protocol, not the implementation.
fn wire_sequence_over(spec: &ScenarioSpec, index: Option<ChecksumIndex>) -> Vec<WireMsg> {
    use vecycle_core::PageMsg;
    let strategy = scenario::wire_strategy(spec, index).expect("strategy");
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

/// The fresh epoch's sequence.
fn wire_sequence(spec: &ScenarioSpec) -> Vec<WireMsg> {
    wire_sequence_over(spec, dest_index(spec))
}

fn encode(msgs: &[WireMsg]) -> Vec<u8> {
    let mut bytes = Vec::new();
    msgs.iter().for_each(|m| m.encode(&mut bytes));
    bytes
}

/// The pages `msgs` land over `st` when `receive_stream` applies them
/// as a destination does, one `Vec` per persistence boundary — the
/// chunk records a destination logs — the last one the unfinished chunk
/// a cut stream leaves.
fn landed_chunks(
    st: &mut SessionState,
    index: Option<&ChecksumIndex>,
    msgs: &[WireMsg],
) -> Vec<Vec<(u64, PageDigest)>> {
    struct Chunks(Vec<Vec<(u64, PageDigest)>>);
    impl Persist for Chunks {
        fn landed(&mut self, idx: u64, digest: PageDigest) {
            self.0
                .last_mut()
                .expect("an open chunk")
                .push((idx, digest));
        }
        fn boundary(&mut self) {
            self.0.push(Vec::new());
        }
    }
    let mut chunks = Chunks(vec![Vec::new()]);
    let bytes = encode(msgs);
    let kill = KillSwitch::inert();
    match receive_stream(&mut bytes.as_slice(), index, st, &kill, &mut chunks) {
        Ok(()) | Err(DaemonError::Io(_)) => chunks.0,
        Err(e) => panic!("the stream applies: {e}"),
    }
}

/// Logs `chunks` behind whatever `log` already holds: one record each.
fn log_chunks(log: &mut PartialLog, chunks: &[Vec<(u64, PageDigest)>]) {
    for chunk in chunks {
        chunk
            .iter()
            .for_each(|&(idx, digest)| log.push(idx, digest));
        log.commit().expect("chunk appends");
    }
}

/// `spec`'s fresh destination state.
fn fresh_state(spec: &ScenarioSpec) -> SessionState {
    let initial = scenario::initial_memory(spec).expect("initial memory");
    SessionState::fresh(spec, &initial)
}

/// The state after `msgs` applied over `st` against `index`.
fn applied(mut st: SessionState, index: Option<&ChecksumIndex>, msgs: &[WireMsg]) -> SessionState {
    for msg in msgs {
        st.apply(msg, index).expect("stream applies");
    }
    st
}

/// Nothing landed yet.
fn nothing(spec: &ScenarioSpec) -> PartialCheckpoint {
    PartialCheckpoint::empty(VmId::new(spec.vm), spec.pages())
}

/// The pages `st`'s stream landed, over nothing.
fn landed_by(spec: &ScenarioSpec, st: &SessionState) -> PartialCheckpoint {
    nothing(spec).overlaid(st.landed())
}

/// The headline retry property: a destination restarting with persisted
/// landed pages offers them, and the retry recycles them — its report is
/// the in-process run over that partial, strictly fewer bytes cross the
/// wire than from scratch, and the one ledger formula holds. The same
/// pages recycle alike from a log one session wrote and from a log a
/// second session continued behind the first.
#[test]
fn resume_skips_the_persisted_partial_prefix() {
    let _wd = Watchdog::arm("resume_skips_the_persisted_partial_prefix", 2 * JOB_TIMEOUT);
    let spec = cold_full_spec(0x515);

    let msgs = wire_sequence(&spec);
    let prefix = msgs.len() / 2;
    assert!(prefix > 0, "scenario must stream enough to crash mid-way");

    // What the destination would have durably landed before dying.
    let fp = spec_fingerprint(&spec);
    let state_after = |n: usize| applied(fresh_state(&spec), None, &msgs[..n]);
    let expected = landed_by(&spec, &state_after(prefix));
    type Layout<'a> = Box<dyn Fn(&std::path::Path) + 'a>;
    let layouts: [(&str, Layout); 2] = [
        (
            "skip-log",
            Box::new(|dir| {
                std::fs::create_dir_all(dir).expect("journal dir");
                let mut log = PartialLog::create(dir, 1, fp).expect("fresh log");
                let chunks = landed_chunks(&mut fresh_state(&spec), None, &msgs[..prefix]);
                log_chunks(&mut log, &chunks);
            }),
        ),
        (
            "skip-twice",
            Box::new(|dir| {
                std::fs::create_dir_all(dir).expect("journal dir");
                let mut st = fresh_state(&spec);
                let mut log = PartialLog::create(dir, 1, fp).expect("fresh log");
                log_chunks(&mut log, &landed_chunks(&mut st, None, &msgs[..prefix / 3]));
                drop(log);
                let (_, mut log) = PartialLog::load(dir, 1, fp, spec.pages()).expect("log loads");
                let chunks = landed_chunks(&mut st, None, &msgs[prefix / 3..prefix]);
                log_chunks(&mut log, &chunks);
            }),
        ),
    ];
    let from_scratch = scenario::reference_run(&spec).expect("reference").report;
    for (tag, persist) in layouts {
        let m = resume_over_partial(tag, &spec, &expected, persist);
        let from_scratch_tx =
            from_scratch.source_traffic().as_u64() + forward_overhead(m.job_json_len);
        assert!(
            m.tx < from_scratch_tx,
            "{tag}: resumed tx {} must undercut from-scratch tx {from_scratch_tx}",
            m.tx,
        );
    }
}

/// Writes the pages `state`'s stream landed as job 1's partial log, one
/// chunk record.
fn save_log(dir: &std::path::Path, fingerprint: u64, state: &SessionState) {
    std::fs::create_dir_all(dir).expect("journal dir");
    let mut log = PartialLog::create(dir, 1, fingerprint).expect("fresh log");
    log_chunks(&mut log, &[state.landed().collect()]);
}

/// The cold, full-copy scenario the retry tests share: no checkpoint
/// index at the fresh epoch.
fn cold_full_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::golden(seed);
    spec.strategy = "full".to_string();
    spec.warm = false;
    spec
}

/// Has `persist` leave job 1's partial file in a journal directory —
/// `partial` is what it holds — restarts a journal-backed destination
/// over it, finishes the job in flight against it, and checks that the
/// file is dropped after DONE.
fn resume_over_partial(
    tag: &str,
    spec: &ScenarioSpec,
    partial: &PartialCheckpoint,
    persist: impl FnOnce(&std::path::Path),
) -> vecycle_daemon::Measured {
    let dst_dir = journal_dir(&format!("{tag}-dst"));
    persist(&dst_dir);
    let dst = spawn_with_journal(unix_endpoint(&format!("{tag}-dst")), &dst_dir);
    let measured = finish_in_flight_job(tag, spec, dst.endpoint(), partial);
    dst.shutdown();
    let path = partial_path(&dst_dir, 1, spec_fingerprint(spec));
    assert!(!path.exists(), "{tag}: the partial is dropped after DONE");
    measured
}

/// Starts a source with job 1 of `spec` journaled in flight against
/// `peer`, so it runs at epoch 1, and checks the job: done, the one
/// ledger formula, and the report of the in-process run over `partial`,
/// what the destination had landed.
fn finish_in_flight_job(
    tag: &str,
    spec: &ScenarioSpec,
    peer: &Endpoint,
    partial: &PartialCheckpoint,
) -> vecycle_daemon::Measured {
    let src_dir = journal_dir(&format!("{tag}-src"));
    craft_claimed_wal(&src_dir, spec, peer);
    let src = spawn_with_journal(unix_endpoint(&format!("{tag}-src")), &src_dir);
    let record = src.wait_job(1, JOB_TIMEOUT).expect("resumed job finishes");
    src.shutdown();
    assert_done(&record);
    let (report, m) = (
        record.report.expect("report"),
        record.measured.expect("measured"),
    );
    assert_eq!(m.resume_epoch, 1, "{tag}");
    assert_ledger_exact(&report, &m, tag);
    let reference = scenario::reference_run_over(spec, partial).expect("reference");
    assert_eq!(
        report, reference.report,
        "{tag}: the recycle over the landed pages"
    );
    m
}

/// A partial that is not the stream's own prefix just recycles less (or
/// differently): the destination offers it, the job completes with equal
/// content hashes, and the report is the in-process run over that
/// partial. Two well-formed logs: one of another seed's prefix, one of
/// a stream that re-applied messages past its end.
#[test]
fn rejected_resume_self_heals_into_a_full_transfer() {
    let _wd = Watchdog::arm(
        "rejected_resume_self_heals_into_a_full_transfer",
        2 * JOB_TIMEOUT,
    );
    let spec = cold_full_spec(0x515);
    let msgs = wire_sequence(&spec);

    let other = wire_sequence(&cold_full_spec(0x516));
    let foreign = applied(fresh_state(&spec), None, &other[..other.len() / 2]);
    let body = &msgs[..msgs.len() - 1];
    let overlong = applied(fresh_state(&spec), None, body);
    let overlong = applied(overlong, None, &body[..8]);
    assert!(overlong.applied() > msgs.len() as u64);

    for (tag, partial) in [("rj-foreign", &foreign), ("rj-long", &overlong)] {
        resume_over_partial(tag, &spec, &landed_by(&spec, partial), |dir| {
            save_log(dir, spec_fingerprint(&spec), partial);
        });
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

    // One chunk record per persistence boundary that landed a page went
    // to the log, and finishing the job removed it.
    let index = dest_index(&spec);
    let chunks = landed_chunks(
        &mut fresh_state(&spec),
        index.as_ref(),
        &wire_sequence(&spec),
    );
    let saves = dst_metrics.counter("daemon_resume_partials_total", &[("op", "save")]);
    assert_eq!(
        saves,
        chunks.iter().filter(|c| !c.is_empty()).count() as u64
    );
    assert!(!partial_path(&dst_dir, 1, spec_fingerprint(&spec)).exists());
}

/// A partial file an older release left — a state snapshot, here a
/// committed fixture — is no file: the destination starts its log over
/// and the job runs unrecycled. The snapshot writer the benchmark still
/// calls is pinned to that fixture's bytes. The traffic behind it is the
/// anchor corner: page 3 is rewritten in round 2 and references to it,
/// before and after, resolve through its *first* content.
#[test]
#[allow(deprecated)]
fn previous_release_partial_file_is_no_file_and_the_job_runs_unrecycled() {
    let _wd = Watchdog::arm(
        "previous_release_partial_file_is_no_file_and_the_job_runs_unrecycled",
        2 * JOB_TIMEOUT,
    );
    const FIXTURE: &[u8] = include_bytes!("fixtures/partial-job7-pr13.bin");

    let mut spec = ScenarioSpec::golden(0x14);
    spec.ram_mib = 1;
    spec.strategy = "dedup".into();
    spec.warm = false;
    let fp = spec_fingerprint(&spec);

    // The fixture's traffic applied today encodes to its bytes.
    let d = PageDigest::from_content_id;
    let full = |idx, digest| WireMsg::Full { idx, digest };
    let mut st = fresh_state(&spec);
    let mut apply = |msg: WireMsg| st.apply(&msg, None).expect("fixture traffic applies");
    for i in (0..48u64).rev() {
        apply(full(i, d(100 + i)));
    }
    apply(WireMsg::Zero { idx: 200 });
    apply(WireMsg::DedupRef { idx: 60, source: 3 });
    apply(WireMsg::RoundEnd { round: 1 });
    apply(full(3, d(9_003)));
    apply(full(255, d(9_255)));
    apply(WireMsg::DedupRef { idx: 61, source: 3 });
    apply(WireMsg::DedupRef {
        idx: 62,
        source: 60,
    });
    apply(WireMsg::RoundEnd { round: 2 });
    apply(full(7, d(9_007)));
    assert_eq!(st.encode(7, fp), FIXTURE);
    assert_eq!(
        st.mem()[61],
        d(103),
        "a reference resolves to the first content"
    );
    assert_eq!(st.mem()[3], d(9_003));

    // At its own job's path it loads as nothing.
    let dir = journal_dir("pr13");
    std::fs::create_dir_all(&dir).expect("journal dir");
    std::fs::write(partial_path(&dir, 7, fp), FIXTURE).expect("fixture copies");
    assert!(PartialLog::load(&dir, 7, fp, spec.pages()).is_none());

    // A snapshot of a cold prefix at a job in flight: the job completes
    // as the run over nothing, with the from-scratch ledger.
    let spec = cold_full_spec(0x515);
    let msgs = wire_sequence(&spec);
    let prefix = applied(fresh_state(&spec), None, &msgs[..msgs.len() / 2]);
    let m = resume_over_partial("snap", &spec, &nothing(&spec), |dir| {
        vecycle_daemon::session_state::save_partial(dir, 1, spec_fingerprint(&spec), &prefix)
            .expect("snapshot");
    });
    let from_scratch = scenario::reference_run(&spec).expect("reference").report;
    let from_scratch_tx = from_scratch.source_traffic().as_u64() + forward_overhead(m.job_json_len);
    assert_eq!(m.tx, from_scratch_tx);
}

/// The partial log under every possible crash: a recorded stream logged
/// on the destination's cadence, then the file cut at each byte offset.
/// Every cut loads — to exactly the pages landed by the last whole chunk
/// record, a prefix of the stream and so a recycle base. Only a cut
/// inside the header record leaves nothing to load, which the daemon
/// treats as no file.
fn every_truncation_loads_the_whole_record_prefix(spec: &ScenarioSpec) {
    let fp = spec_fingerprint(spec);
    let index = dest_index(spec);
    let msgs = wire_sequence(spec);
    let mut st = fresh_state(spec);
    let chunks = landed_chunks(&mut st, index.as_ref(), &msgs);
    assert!(st.finished(), "the recorded stream is complete");

    let dir = journal_dir("cuts");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let path = partial_path(&dir, 1, fp);
    let mut log = PartialLog::create(&dir, 1, fp).expect("fresh log");
    let header_len = std::fs::metadata(&path).expect("log exists").len() as usize;
    // (file length, landed pages) after the header and each chunk record.
    let mut landed = vec![None; spec.pages() as usize];
    let mut whole = vec![(header_len, landed.clone())];
    for chunk in &chunks {
        for &(idx, digest) in chunk {
            log.push(idx, digest);
            landed[idx as usize] = Some(digest);
        }
        if log.commit().expect("chunk appends") {
            let len = std::fs::metadata(&path).expect("log exists").len() as usize;
            whole.push((len, landed.clone()));
        }
    }
    assert!(whole.len() > 4, "several records to cut between");
    assert_eq!(
        landed,
        landed_by(spec, &st).landed(),
        "the log's pages are the state's landed pages"
    );

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
        let loaded = partial_log::replay(&bytes[..cut], 1, fp, spec.pages());
        if cut < header_len {
            assert!(loaded.is_none(), "cut {cut}: no base yet");
            continue;
        }
        if whole.get(k + 1).is_some_and(|(len, _)| *len <= cut) {
            k += 1;
        }
        let (pages, valid) = loaded.unwrap_or_else(|| panic!("cut {cut} must load"));
        assert_eq!(valid, whole[k].0, "cut {cut}: the intact prefix");
        assert!(pages == whole[k].1, "cut {cut}: pages after record {k}");
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

/// A hand-driven source: opens a session for `job` of `spec` at `epoch`
/// against `dest` — HELLO‖JOB out, HELLO_ACK back — and reads the bulk
/// exchange when one comes (a retry epoch; every spec here is cold).
fn open_session(
    dest: &Endpoint,
    spec: &ScenarioSpec,
    epoch: u64,
    job: u64,
) -> (vecycle_daemon::endpoint::Stream, Option<Vec<PageDigest>>) {
    let mut s = dest.connect().expect("connect");
    s.set_io_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = proto::hello_payload(proto::VERSION, proto::ROLE_SOURCE);
    write_frame(&mut s, kind::HELLO, &hello).expect("hello");
    let job = JobMsg {
        job,
        resume: epoch,
        spec: spec.clone(),
    };
    write_frame(&mut s, kind::JOB, job.encode().as_bytes()).expect("job");
    let ack = read_frame(&mut s, MAX_PAYLOAD).expect("hello ack");
    assert_eq!(ack.kind, kind::HELLO_ACK);
    let exchange = (epoch > 0).then(|| {
        let msg = WireMsg::read_from(&mut s).expect("the exchange decodes");
        let WireMsg::BulkExchange { digests } = msg else {
            panic!("a retry offers its landed pages, got {msg:?}")
        };
        digests
    });
    (s, exchange)
}

/// Sends the first `n` of `msgs` and a few bytes of the next, then dies.
fn die_after(mut s: vecycle_daemon::endpoint::Stream, msgs: &[WireMsg], n: usize) {
    use std::io::Write;
    let bytes = encode(&msgs[..=n]);
    let cut = bytes.len() - msgs[n].encoded_len().as_u64() as usize + 5;
    s.write_all(&bytes[..cut]).expect("prefix sends");
}

/// What a destination holding `partial` offers a cold spec's retry.
fn landed_index(partial: &PartialCheckpoint) -> ChecksumIndex {
    let mut index = ChecksumIndex::default();
    partial.refill_index(&mut index, &[]);
    index
}

fn offered(partial: &PartialCheckpoint) -> Vec<PageDigest> {
    landed_index(partial).distinct_digests().collect()
}

/// Satellite: a retry that dies right after reading the exchange must
/// not cost the landed pages. The destination is in-memory, so the
/// partials map is all it has: the source dies mid-stream (pages
/// remembered), reconnects and dies again right after reading the
/// exchange, then dies mid-message — and every later epoch is offered
/// the same pages, not a fresh transfer's nothing.
#[test]
fn a_resume_handshake_that_dies_keeps_the_remembered_state() {
    let _wd = Watchdog::arm(
        "a_resume_handshake_that_dies_keeps_the_remembered_state",
        JOB_TIMEOUT,
    );
    let spec = cold_full_spec(0x9e5);
    let msgs = wire_sequence(&spec);
    let landed = 100;
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("hs-dst"))).expect("dest binds");

    // Epoch 0: a prefix lands, then the source dies mid-message.
    let (s, _) = open_session(dst.endpoint(), &spec, 0, 9);
    die_after(s, &msgs, landed);

    // Epochs 1 to 3 each read the exchange; the first then dies, the
    // second dies mid-message before anything lands. A session holds its
    // host claim until it has put the pages back, so the next one cannot
    // overtake it.
    let expect = landed_by(&spec, &applied(fresh_state(&spec), None, &msgs[..landed]));
    assert_eq!(
        expect.landed_pages().as_u64(),
        landed as u64,
        "whole messages landed"
    );
    let (_, first) = open_session(dst.endpoint(), &spec, 1, 9);
    assert_eq!(first.as_deref(), Some(&offered(&expect)[..]));
    let (s, second) = open_session(dst.endpoint(), &spec, 2, 9);
    assert_eq!(second, first, "offered the same pages");
    let retry = wire_sequence_over(&spec, Some(landed_index(&expect)));
    die_after(s, &retry, 0);
    let (_, third) = open_session(dst.endpoint(), &spec, 3, 9);
    assert_eq!(third, first, "and after a retry that landed nothing");
    dst.shutdown();
}

/// A retry that dies is recycled in turn: epoch 1 lands half its stream
/// and dies, epoch 2 — a recycle over that — lands part of its own and
/// dies, and epoch 3 completes. The journal-backed destination appends
/// each epoch's pages behind the last, a later epoch winning per page,
/// and the completed job's report is the in-process run over that merge.
#[test]
fn a_retry_that_dies_again_is_recycled_in_turn() {
    let _wd = Watchdog::arm(
        "a_retry_that_dies_again_is_recycled_in_turn",
        2 * JOB_TIMEOUT,
    );
    let spec = cold_full_spec(0x3e3);
    let fp = spec_fingerprint(&spec);
    let dst_dir = journal_dir("twice-dst");
    let dst = spawn_with_journal(unix_endpoint("twice-dst"), &dst_dir);

    let mut partial = nothing(&spec);
    for (epoch, share) in [(1, 2), (2, 3)] {
        let (s, exchange) = open_session(dst.endpoint(), &spec, epoch, 1);
        assert_eq!(
            exchange.as_deref(),
            Some(&offered(&partial)[..]),
            "epoch {epoch}"
        );
        let index = landed_index(&partial);
        let msgs = wire_sequence_over(&spec, Some(index.clone()));
        let n = msgs.len() / share;
        die_after(s, &msgs, n);
        let st = applied(fresh_state(&spec), Some(&index), &msgs[..n]);
        partial = partial.overlaid(st.landed());
    }
    let landed = partial.landed_pages().as_u64();
    assert!(
        landed > spec.pages() / 2 && landed < spec.pages(),
        "{landed} pages landed"
    );

    // The log holds both epochs, behind one another: a probe that dies
    // right after the exchange finds exactly the merge on disk and offered.
    let (_, probe) = open_session(dst.endpoint(), &spec, 3, 1);
    assert_eq!(probe.as_deref(), Some(&offered(&partial)[..]));
    let bytes = std::fs::read(partial_path(&dst_dir, 1, fp)).expect("the log");
    let (on_disk, _) = partial_log::replay(&bytes, 1, fp, spec.pages()).expect("it loads");
    assert_eq!(on_disk, partial.landed());

    finish_in_flight_job("twice", &spec, dst.endpoint(), &partial);
    assert!(!partial_path(&dst_dir, 1, fp).exists());
    dst.shutdown();
}

/// Satellite: the in-memory partials map is bounded. Seventeen jobs each
/// die after a few pages; only the same job reconnecting would take its
/// entry back, so the oldest is dropped (and counted), the newest kept.
#[test]
fn the_partials_map_keeps_only_the_newest_sixteen_jobs() {
    let _wd = Watchdog::arm(
        "the_partials_map_keeps_only_the_newest_sixteen_jobs",
        JOB_TIMEOUT,
    );
    let mut spec = cold_full_spec(0xca9);
    spec.ram_mib = 1;
    let msgs = wire_sequence(&spec);
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("cap-dst"))).expect("dest binds");
    for job in 1..=17 {
        let (s, _) = open_session(dst.endpoint(), &spec, 0, job);
        die_after(s, &msgs, 3);
    }
    // Job 17's pages are there, and taking them waited for its session.
    let (_, newest) = open_session(dst.endpoint(), &spec, 1, 17);
    assert_eq!(newest.map(|d| d.len()), Some(3));
    let drops = dst
        .metrics()
        .counter("daemon_resume_partials_total", &[("op", "drop")]);
    assert_eq!(drops, 1, "one job past the cap");
    let (_, oldest) = open_session(dst.endpoint(), &spec, 1, 1);
    assert_eq!(oldest, Some(Vec::new()), "job 1's pages were dropped");
    dst.shutdown();
}

/// Satellite: a partial log that cannot be written is counted once per
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
    let chunks = landed_chunks(&mut fresh_state(&spec), None, &wire_sequence(&spec));
    assert!(chunks.len() > 10, "many chunks");
    let failures = dst
        .metrics()
        .counter("daemon_log_failures_total", &[("log", "partial")]);
    assert_eq!(failures, 1, "one failure per session");
    src.shutdown();
    dst.shutdown();
}

/// A session that fails mid-stream gives its buffer set back with bytes
/// still in it, and none of them reach the next session. The in-memory
/// destination serves a hand-driven retry that dies mid-message: its
/// chunk held HELLO_ACK and the exchange, its read buffer holds the cut
/// message. The source daemon's first job goes to a peer that answers
/// HELLO_ACK with bytes the source never reads, takes the start of the
/// stream and hangs up. Then one job between the two daemons, each on
/// its returned set: done (the content hashes agreed), the ledger exact
/// both ways and the in-process report, and each daemon counts one set
/// allocated and one reused.
#[test]
fn a_failed_session_returns_its_buffers_and_they_carry_no_bytes() {
    let _wd = Watchdog::arm(
        "a_failed_session_returns_its_buffers_and_they_carry_no_bytes",
        JOB_TIMEOUT,
    );
    let spec = cold_full_spec(0x5e7);
    let dst = Daemon::spawn(DaemonConfig::new(unix_endpoint("stale-dst"))).expect("dest binds");
    let (s, exchange) = open_session(dst.endpoint(), &spec, 1, 77);
    assert_eq!(exchange, Some(Vec::new()), "nothing landed yet");
    let msgs = wire_sequence_over(&spec, Some(ChecksumIndex::default()));
    die_after(s, &msgs, 100);
    // The set is back before the session is counted.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let failed = || {
        dst.metrics()
            .counter("daemon_sessions_total", &[("result", "err")])
    };
    while failed() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the cut is never seen"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let listener = unix_endpoint("stale-peer").bind().expect("peer binds");
    let peer = listener.local_endpoint().expect("peer endpoint");
    let hangs_up = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let mut s = listener.accept().expect("the source connects");
        s.set_io_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        for want in [kind::HELLO, kind::JOB] {
            let f = read_frame(&mut s, MAX_PAYLOAD).expect("the opening flight");
            assert_eq!(f.kind, want);
        }
        let mut reply = Vec::new();
        let ack = proto::hello_payload(proto::VERSION, proto::ROLE_DEST);
        write_frame(&mut reply, kind::HELLO_ACK, &ack).expect("ack");
        reply.extend_from_slice(&[0xee; 100]);
        s.write_all(&reply).expect("reply");
        s.read_exact(&mut [0; 16 * 1024])
            .expect("the stream starts");
    });
    let src = Daemon::spawn(DaemonConfig::new(unix_endpoint("stale-src"))).expect("src binds");
    let cut = src.submit(spec.clone(), peer).expect("submit");
    let cut = src.wait_job(cut, JOB_TIMEOUT).expect("the cut job ends");
    assert_eq!(cut.state, JobState::Failed, "{}", cut.detail);
    hangs_up.join().expect("the peer hung up");

    let id = src
        .submit(spec.clone(), dst.endpoint().clone())
        .expect("submit");
    let record = src.wait_job(id, JOB_TIMEOUT).expect("the job ends");
    assert_done(&record);
    let (report, m) = (
        record.report.expect("report"),
        record.measured.expect("measured"),
    );
    assert_ledger_exact(&report, &m, "after a cut");
    let reference = scenario::reference_run(&spec).expect("reference run");
    assert_eq!(report, reference.report);
    for (end, daemon) in [("source", &src), ("destination", &dst)] {
        let taken = |op| {
            daemon
                .metrics()
                .counter("daemon_session_buffers_total", &[("op", op)])
        };
        assert_eq!((taken("allocated"), taken("reused")), (1, 1), "{end}");
    }
    src.shutdown();
    dst.shutdown();
}

/// A loopback forwarder to the TCP endpoint `to` for two connections:
/// the first carries its first `cut` bytes toward `to`, then both its
/// sockets close — a source that dies mid-stream — and the second
/// passes whole. Returns the forwarder's endpoint and, once both have
/// ended, the bytes the cut connection carried.
fn cut_once(to: &Endpoint, cut: usize) -> (Endpoint, std::thread::JoinHandle<Vec<u8>>) {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    let Endpoint::Tcp(addr) = to.clone() else {
        panic!("a TCP destination")
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("forwarder binds");
    let at = Endpoint::Tcp(listener.local_addr().expect("bound").to_string());
    let forwarder = std::thread::spawn(move || {
        // Each connection's replies flow back whole, in a thread of their own.
        let open = || {
            let (from, _) = listener.accept().expect("a source connects");
            let onward = TcpStream::connect(&addr).expect("the destination answers");
            let (mut back, mut reply) = (onward.try_clone().unwrap(), from.try_clone().unwrap());
            let replies = std::thread::spawn(move || {
                let _ = std::io::copy(&mut back, &mut reply);
                let _ = reply.shutdown(Shutdown::Write);
            });
            (from, onward, replies)
        };
        let (from, mut onward, replies) = open();
        let mut carried = Vec::with_capacity(cut);
        let mut prefix = from.take(cut as u64);
        let mut step = [0; 4096];
        while carried.len() < cut {
            let n = prefix.read(&mut step).expect("the source sends");
            assert!(n > 0, "the source stopped before the cut");
            onward.write_all(&step[..n]).expect("the prefix forwards");
            carried.extend_from_slice(&step[..n]);
        }
        let from = prefix.into_inner();
        for end in [&onward, &from] {
            let _ = end.shutdown(Shutdown::Both);
        }
        replies.join().unwrap();
        let (mut from, mut onward, replies) = open();
        let _ = std::io::copy(&mut from, &mut onward);
        let _ = onward.shutdown(Shutdown::Write);
        replies.join().unwrap();
        carried
    });
    (at, forwarder)
}

/// What a destination lands from the forward bytes of a source that died
/// `carried` into a fresh epoch of `spec`: every message that arrived whole.
fn landed_from(spec: &ScenarioSpec, carried: &[u8]) -> PartialCheckpoint {
    let mut r = carried;
    for want in [kind::HELLO, kind::JOB] {
        assert_eq!(read_frame(&mut r, MAX_PAYLOAD).expect("opening").kind, want);
    }
    let initial = scenario::initial_memory(spec).expect("initial memory");
    let mut room = ChecksumIndex::default();
    let index = scenario::offer(spec, initial.as_slice(), None, &mut room);
    let mut st = SessionState::fresh(spec, &initial);
    while let Ok(msg) = WireMsg::read_from(&mut r) {
        st.apply(&msg, index).expect("the prefix applies");
    }
    nothing(spec).overlaid(st.landed())
}

/// A buffer set carries room between sessions, never content. One
/// in-memory pair runs jobs both ways whose guests shrink and grow
/// (8 → 2 → 16 → 4 MiB) — warm vecycle, cold full, dedup, a WAN vecycle
/// job whose rounds rewrite pages, and a vecycle job that dies
/// mid-stream and resumes, its retry offering an index refilled over the
/// landed pages — so each end's table and index are refilled over an
/// earlier job's, larger and smaller. Every job ends done, reconciles
/// its socket bytes and reports what the in-process run does. After the
/// first warm job, `vecycled metrics` shows each end keeping one set's
/// room: its buffers, its 16 B-a-page table and its index.
#[test]
fn kept_room_never_carries_content() {
    let _wd = Watchdog::arm("kept_room_never_carries_content", JOB_TIMEOUT);
    let spawn = || {
        let config = DaemonConfig::new(Endpoint::parse("127.0.0.1:0")).with_workers(1);
        Daemon::spawn(
            config
                .with_retries(1)
                .with_backoff(Duration::from_millis(20)),
        )
        .expect("daemon binds")
    };
    let (a, b) = (spawn(), spawn());
    let spec = |seed, ram_mib, strategy: &str, warm| ScenarioSpec {
        ram_mib,
        strategy: strategy.into(),
        warm,
        ..ScenarioSpec::golden(seed)
    };
    let wan = ScenarioSpec {
        link: "wan".into(),
        dirty_frac_per_hour: 50.0,
        ..spec(0x64d, 4, "vecycle", true)
    };
    let killed = spec(0x64e, 4, "vecycle", true);
    let schedule = [
        (&a, &b, spec(0x64a, 8, "vecycle", true)),
        (&b, &a, spec(0x64b, 2, "full", false)),
        (&a, &b, spec(0x64c, 16, "dedup", false)),
        (&b, &a, wan),
        (&a, &b, killed.clone()),
    ];
    let set = (SESSION_BUF + 64 * 4_124) as u64;
    for (at, (src, dst, spec)) in schedule.iter().enumerate() {
        let tag = format!("job {at}: {}", spec.to_kv());
        let last = at == schedule.len() - 1;
        let reference = scenario::reference_run(spec).expect("reference");
        let (peer, forwarder) = match last {
            true => {
                let cut = reference.report.source_traffic().as_u64() / 2;
                let (peer, forwarder) = cut_once(dst.endpoint(), cut as usize);
                (peer, Some(forwarder))
            }
            false => (dst.endpoint().clone(), None),
        };
        let id = src.submit(spec.clone(), peer).expect("submit");
        let record = src.wait_job(id, JOB_TIMEOUT).expect("terminal");
        assert_done(&record);
        let (report, m) = (record.report.unwrap(), record.measured.unwrap());
        assert_ledger_exact(&report, &m, &tag);
        let reference = match forwarder {
            Some(forwarder) => {
                let partial = landed_from(spec, &forwarder.join().unwrap());
                assert!(partial.landed_pages().as_u64() > 0, "{tag}");
                assert_eq!(m.resume_epoch, 1, "{tag}");
                scenario::reference_run_over(spec, &partial).expect("reference")
            }
            None => reference,
        };
        assert_eq!(report, reference.report, "{tag}");

        if at == 0 {
            let table = 16 * spec.pages();
            for end in [src, dst] {
                let resp = client::request(end.endpoint(), &CtrlRequest::bare("metrics"))
                    .expect("metrics");
                let kept = resp
                    .metrics
                    .lines()
                    .find_map(|l| l.strip_prefix("daemon_session_buffer_bytes "))
                    .and_then(|n| n.parse::<u64>().ok())
                    .expect("the gauge");
                let most = set + table + 18 * spec.pages() + 4;
                assert!((set + table..=most).contains(&kept), "{kept} B kept");
            }
        }
    }
    a.shutdown();
    b.shutdown();
}
