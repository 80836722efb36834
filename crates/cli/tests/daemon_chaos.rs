//! Kill/resume chaos harness: real `vecycled` processes, seeded kill
//! injection, restart, and the crash-durability acceptance properties.
//!
//! Each case spawns a journal-backed source and destination daemon as
//! separate OS processes, arms one of them with `VECYCLE_KILL_AT`
//! (`<role>:<point>[:<after>]` — the process `abort()`s, SIGKILL-style,
//! when execution reaches the point), waits for the death, restarts
//! the dead daemon over the same journal directory, and asserts:
//!
//! - **No job lost** — the submitted job reaches `done`.
//! - **No double completion** — the WAL holds exactly one `done`
//!   record and the admission (drain) order lists the job once.
//! - **Resumed traffic < from-scratch** (mid-bulk kills) — the retry
//!   recycles the landed pages, at least one of which crossed in full
//!   before the kill, so strictly fewer bytes cross the wire than a
//!   clean run of the same scenario ships.
//! - **Bit-identity** — the recovered job's report equals the
//!   in-process engine run over what the destination had landed
//!   (`scenario::reference_run_over`), at `VECYCLE_THREADS` 1 and 4 and
//!   across repeat runs.
//!
//! Per-process stdout/stderr and both journal directories land under
//! `target/daemon-artifacts/` for CI upload on failure.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use vecycle_checkpoint::{Checkpoint, PartialCheckpoint};
use vecycle_daemon::control::JobView;
use vecycle_daemon::journal::{decode_records, rec, WAL_FILE};
use vecycle_daemon::session_state::{partial_path, spec_fingerprint, SessionState};
use vecycle_daemon::{client, partial_log, scenario, Endpoint, SocketSink};
use vecycle_faults::KillSwitch;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{SimTime, VmId};

const READY_TIMEOUT: Duration = Duration::from_secs(20);
const DEATH_TIMEOUT: Duration = Duration::from_secs(30);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const CTRL_TIMEOUT: Duration = Duration::from_secs(5);
const POLL: Duration = Duration::from_millis(25);

static SEQ: AtomicU32 = AtomicU32::new(0);

/// Workspace-level artifact directory (tests run with the crate as
/// cwd, the CI upload path is relative to the workspace root).
fn artifacts_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/daemon-artifacts")
}

/// Socket paths must stay short (`sun_path` is ~100 bytes), so they
/// live in the system temp dir, not under `target/`.
fn unix_ep(tag: &str) -> Endpoint {
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    Endpoint::Unix(std::env::temp_dir().join(format!(
        "vecycled-chaos-{}-{tag}-{seq}.sock",
        std::process::id()
    )))
}

/// One daemon process plus everything needed to restart or autopsy it.
struct DaemonProc {
    child: Child,
    role: &'static str,
    ep: Endpoint,
    journal_dir: PathBuf,
    case_dir: PathBuf,
    threads: u32,
    lives: u32,
}

impl DaemonProc {
    /// Spawns `vecycled serve` with a journal dir under the case's
    /// artifact directory, optionally armed with a kill spec.
    fn spawn(
        case_dir: &Path,
        role: &'static str,
        ep: Endpoint,
        kill: Option<&str>,
        threads: u32,
    ) -> DaemonProc {
        let journal_dir = case_dir.join(format!("{role}-journal"));
        let mut p = DaemonProc {
            child: Command::new("false").spawn().expect("placeholder"),
            role,
            ep,
            journal_dir,
            case_dir: case_dir.to_path_buf(),
            threads,
            lives: 0,
        };
        let _ = p.child.wait();
        p.start(kill);
        p
    }

    fn start(&mut self, kill: Option<&str>) {
        self.lives += 1;
        let log = |stream: &str| {
            std::fs::File::create(
                self.case_dir
                    .join(format!("{}-life{}.{stream}", self.role, self.lives)),
            )
            .expect("log file")
        };
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vecycled"));
        cmd.args([
            "serve",
            "--listen",
            &self.ep.to_string(),
            "--journal-dir",
            self.journal_dir.to_str().expect("utf-8 journal dir"),
            "--retries",
            "60",
            "--backoff-ms",
            "200",
            "--timeout-secs",
            "10",
        ])
        .env("VECYCLE_THREADS", self.threads.to_string())
        .env_remove("VECYCLE_KILL_AT")
        .stdin(Stdio::null())
        .stdout(Stdio::from(log("out")))
        .stderr(Stdio::from(log("err")));
        if let Some(spec) = kill {
            cmd.env("VECYCLE_KILL_AT", spec);
        }
        self.child = cmd.spawn().expect("vecycled spawns");
        let deadline = Instant::now() + READY_TIMEOUT;
        while !client::ping(&self.ep) {
            assert!(
                Instant::now() < deadline,
                "{} daemon did not answer ping within {READY_TIMEOUT:?}",
                self.role
            );
            std::thread::sleep(POLL);
        }
    }

    /// Blocks until the armed kill switch fired and the process died.
    fn await_death(&mut self) {
        let deadline = Instant::now() + DEATH_TIMEOUT;
        loop {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{} daemon survived its kill point for {DEATH_TIMEOUT:?}",
                self.role
            );
            std::thread::sleep(POLL);
        }
    }

    fn wal_records(&self) -> Vec<vecycle_daemon::journal::WalRecord> {
        let bytes = std::fs::read(self.journal_dir.join(WAL_FILE)).expect("wal readable");
        decode_records(&bytes).0
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The one scenario every chaos case migrates (warm vecycle over the
/// golden guest — the strategy with the richest message mix).
fn chaos_spec() -> ScenarioSpec {
    ScenarioSpec::golden(0xC4A05)
}

/// Keeps the bytes of each `write` a sink makes.
#[derive(Default)]
struct Writes(Vec<Vec<u8>>);

impl std::io::Write for Writes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Nothing landed: what a retry over a destination that holds nothing
/// of the job recycles.
fn nothing() -> PartialCheckpoint {
    let spec = chaos_spec();
    PartialCheckpoint::empty(VmId::new(spec.vm), spec.pages())
}

/// The source's mid-bulk kill spec — one message past its first socket
/// write of `chaos_spec`'s stream (586 messages, ≈ 64 KiB) — and the
/// pages that write lands. The source writes ≥ 64 KiB at a time, so a
/// fixed count could die before anything left, and the destination
/// would have nothing to recycle.
fn source_mid_bulk_kill() -> (String, PartialCheckpoint) {
    let spec = chaos_spec();
    let initial = scenario::initial_memory(&spec).expect("initial memory");
    let checkpoint = Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial);
    let index = checkpoint.build_index();
    let strategy = scenario::local_strategy(&spec, &checkpoint).expect("strategy");
    let (mut guest, mut workload) = scenario::live_guest(&spec, &initial).expect("guest");
    let kill = KillSwitch::inert();
    let mut writes = Writes::default();
    let mut sink = SocketSink::new(&mut writes, &kill, |_| {});
    scenario::engine_for(&spec)
        .migrate_live_into(&mut guest, &mut workload, strategy, &mut sink)
        .expect("streamed run");
    sink.finish().expect("the recorder never fails a write");
    drop(sink);
    let [first, _, ..] = writes.0.as_slice() else {
        panic!("the kill needs a stream of more than one write");
    };
    let mut rest = first.as_slice();
    let mut st = SessionState::fresh(&spec, &initial);
    while !rest.is_empty() {
        let msg = WireMsg::read_from(&mut rest).expect("a write holds whole messages");
        st.apply(&msg, Some(&index)).expect("the stream applies");
    }
    let kill = format!("source:mid-bulk:{}", st.applied() + 1);
    (kill, nothing().overlaid(st.landed()))
}

/// What the destination holds of the job when its completing epoch
/// starts.
enum Landed {
    /// Pages the harness knows in advance.
    Pages(PartialCheckpoint),
    /// Whatever the killed destination's partial log holds, read before
    /// it restarts (nothing, if it died before writing one).
    DeadDestLog,
}

/// Asserts that `partial` holds at least one page that crossed in full —
/// content the checkpoint lacks — so its recycle must undercut a clean
/// run.
fn assert_holds_a_full_page(partial: &PartialCheckpoint) {
    let spec = chaos_spec();
    let initial = scenario::initial_memory(&spec).expect("initial memory");
    let held: std::collections::HashSet<_> = initial.as_slice().iter().collect();
    let full = partial
        .digests()
        .iter()
        .filter(|d| !held.contains(d))
        .count();
    assert!(full > 0, "the landed prefix holds no full page");
}

/// Runs one chaos case: submit, kill the doomed role at its point,
/// restart it, and wait the job out. `kill: None` is the clean control
/// run. Returns the terminal job view, the source's WAL and what the
/// destination had landed.
fn run_case(
    name: &str,
    doomed: Option<(&'static str, &str)>,
    threads: u32,
    landed: Landed,
) -> (
    JobView,
    Vec<vecycle_daemon::journal::WalRecord>,
    PartialCheckpoint,
) {
    let case_dir = artifacts_root().join(format!("chaos-{name}"));
    let _ = std::fs::remove_dir_all(&case_dir);
    std::fs::create_dir_all(&case_dir).expect("case dir");
    let spec = chaos_spec();

    let (src_kill, dst_kill) = match doomed {
        Some(("source", k)) => (Some(k), None),
        Some(("dest", k)) => (None, Some(k)),
        Some((role, _)) => panic!("unknown doomed role {role}"),
        None => (None, None),
    };
    let mut dst = DaemonProc::spawn(&case_dir, "dest", unix_ep(name), dst_kill, threads);
    let mut src = DaemonProc::spawn(&case_dir, "source", unix_ep(name), src_kill, threads);

    // The control response can race a source-side kill (the scheduler
    // may hit its point before the reply flushes); the WAL, not the
    // reply, is the authority on whether the submission was accepted.
    let submitted = client::submit(&src.ep, &spec.to_kv(), &dst.ep.to_string());
    match (&submitted, src_kill) {
        (Ok(id), _) => assert_eq!(*id, 1, "fresh journal: first id is 1"),
        (Err(e), None) => panic!("submit failed with no source kill armed: {e}"),
        (Err(_), Some(_)) => {}
    }
    let job = 1u64;

    if let Some((role, _)) = doomed {
        let victim = if role == "source" { &mut src } else { &mut dst };
        victim.await_death();
    }
    let partial = match landed {
        Landed::Pages(partial) => partial,
        Landed::DeadDestLog => {
            let fp = spec_fingerprint(&spec);
            let bytes = std::fs::read(partial_path(&dst.journal_dir, job, fp)).unwrap_or_default();
            let landed = partial_log::replay(&bytes, job, fp, spec.pages());
            landed.map_or_else(nothing, |(l, _)| {
                PartialCheckpoint::new(VmId::new(spec.vm), l)
            })
        }
    };
    if let Some((role, _)) = doomed {
        let victim = if role == "source" { &mut src } else { &mut dst };
        victim.start(None);
    }

    let view = client::wait_job_with(&src.ep, job, JOB_TIMEOUT, CTRL_TIMEOUT)
        .expect("job reaches a terminal state");
    assert_eq!(
        view.state, "done",
        "case {name}: job must survive the kill, got {} ({})",
        view.state, view.detail
    );

    // Exactly-once: one submitted, one done, no failure terminal, and
    // the scheduler admitted the job once per daemon life at most —
    // the WAL is the cross-reboot record the drain order can't give us.
    let records = src.wal_records();
    let count = |kind: &str| {
        records
            .iter()
            .filter(|r| r.job == job && r.kind == kind)
            .count()
    };
    assert_eq!(
        count(rec::SUBMITTED),
        1,
        "case {name}: one submitted record"
    );
    assert_eq!(count(rec::DONE), 1, "case {name}: exactly one done record");
    assert_eq!(count(rec::FAILED), 0, "case {name}: no failure terminal");
    assert_eq!(count(rec::CANCELLED), 0);
    let status = client::status(&src.ep).expect("status");
    assert_eq!(
        status.drained.iter().filter(|&&id| id == job).count(),
        1,
        "case {name}: the post-restart daemon admitted the job exactly once"
    );

    // Bit-identity: the recovered run's report equals the in-process
    // engine run over what the destination had landed — every case,
    // every thread count, every repeat.
    let reference = scenario::reference_run_over(&spec, &partial)
        .expect("reference")
        .report;
    assert_eq!(view.rounds, reference.rounds().len() as u64, "case {name}");
    assert_eq!(
        view.downtime_ns,
        reference.downtime().as_nanos(),
        "case {name}"
    );
    assert_eq!(
        view.forward_bytes,
        reference.source_traffic().as_u64(),
        "case {name}"
    );
    assert_eq!(
        view.reverse_bytes,
        reference.reverse_traffic().as_u64(),
        "case {name}"
    );
    assert!(view.converged, "case {name}");
    assert_eq!(view.measured_tx, view.expected_tx, "case {name}: ledger");
    assert_eq!(view.measured_rx, view.expected_rx, "case {name}: ledger");

    (view, records, partial)
}

/// The clean run's measured forward bytes — the from-scratch baseline
/// the mid-bulk cases must strictly undercut. Computed once.
fn clean_baseline_tx() -> u64 {
    static BASELINE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *BASELINE.get_or_init(|| {
        let (view, ..) = run_case("clean-control", None, 1, Landed::Pages(nothing()));
        assert_eq!(view.resumed, 0, "clean run never resumes");
        view.measured_tx
    })
}

#[test]
fn clean_wal_backed_pair_matches_the_reference() {
    // Also primes the baseline for the mid-bulk assertions.
    let tx = clean_baseline_tx();
    assert!(tx > 0);
}

#[test]
fn source_killed_pre_claim_requeues_and_completes() {
    let doomed = Some(("source", "source:pre-claim"));
    let (view, ..) = run_case("src-pre-claim", doomed, 1, Landed::Pages(nothing()));
    // Death before the claim record: recovery re-queues fresh.
    assert_eq!(view.resumed, 0, "pre-claim kill restarts from scratch");
    assert!(view.recovered);
}

#[test]
fn source_killed_mid_bulk_resumes_with_strictly_less_traffic() {
    let baseline = clean_baseline_tx();
    let (kill, first_write) = source_mid_bulk_kill();
    assert_holds_a_full_page(&first_write);
    let doomed = Some(("source", kill.as_str()));
    let (view, records, _) = run_case("src-mid-bulk", doomed, 1, Landed::Pages(first_write));
    assert!(view.resumed >= 1, "mid-bulk kill must resume, not restart");
    assert!(
        view.measured_tx < baseline,
        "resumed tx {} must undercut the from-scratch tx {}",
        view.measured_tx,
        baseline
    );
    // The pre-crash life journaled data-plane progress.
    assert!(
        records
            .iter()
            .any(|r| r.kind == rec::TRANSFERRING && r.pages_landed > 0),
        "transferring records carry landed progress"
    );
}

#[test]
fn source_killed_pre_commit_completes_exactly_once() {
    // The transfer finished on the wire but died before the done record
    // — the retried transfer is idempotent, and `done` still lands
    // exactly once (asserted inside run_case).
    // The destination finished the job and dropped its pages: the
    // retry recycles nothing but the checkpoint.
    let doomed = Some(("source", "source:pre-commit"));
    let (view, ..) = run_case("src-pre-commit", doomed, 1, Landed::Pages(nothing()));
    assert!(view.resumed >= 1, "post-transfer kill recovers via resume");
    assert!(view.recovered);
}

#[test]
fn dest_killed_pre_claim_is_ridden_out_by_source_retries() {
    let doomed = Some(("dest", "dest:pre-claim"));
    let (view, _, partial) = run_case("dst-pre-claim", doomed, 1, Landed::DeadDestLog);
    assert_eq!(partial, nothing(), "death before the claim leaves no log");
    // The source survived; the job record is its own, not recovered.
    assert!(!view.recovered);
    assert!(view.resumed >= 1, "the source reconnected at a later epoch");
}

#[test]
fn dest_killed_mid_bulk_resumes_from_its_partial_file() {
    let baseline = clean_baseline_tx();
    let doomed = Some(("dest", "dest:mid-bulk:300"));
    let (view, _, partial) = run_case("dst-mid-bulk", doomed, 1, Landed::DeadDestLog);
    assert!(view.resumed >= 1);
    assert_holds_a_full_page(&partial);
    assert!(
        view.measured_tx < baseline,
        "resumed tx {} must undercut the from-scratch tx {}",
        view.measured_tx,
        baseline
    );
}

#[test]
fn dest_killed_pre_commit_completes_exactly_once() {
    // The log holds the whole stream: the retry recycles every page.
    let doomed = Some(("dest", "dest:pre-commit"));
    let (view, _, partial) = run_case("dst-pre-commit", doomed, 1, Landed::DeadDestLog);
    assert_eq!(partial.landed_pages(), partial.page_count());
    assert!(view.resumed >= 1);
    assert!(!view.recovered);
}

/// The determinism matrix: the same mid-bulk kill at worker counts 1
/// and 4 and across a repeat run must produce byte-identical reports
/// and identical byte accounting (`run_case` already pins each report
/// to the engine reference; this pins the runs to each other).
#[test]
fn mid_bulk_recovery_is_deterministic_across_threads_and_repeats() {
    let fingerprint = |view: &JobView| {
        (
            view.rounds,
            view.downtime_ns,
            view.forward_bytes,
            view.reverse_bytes,
            view.converged,
            view.measured_tx,
            view.measured_rx,
        )
    };
    let (kill, first_write) = source_mid_bulk_kill();
    let doomed = Some(("source", kill.as_str()));
    let run = |name, threads| run_case(name, doomed, threads, Landed::Pages(first_write.clone())).0;
    let (t1, t4, t1b) = (
        run("matrix-t1", 1),
        run("matrix-t4", 4),
        run("matrix-t1-repeat", 1),
    );
    assert_eq!(
        fingerprint(&t1),
        fingerprint(&t4),
        "VECYCLE_THREADS must not perturb the recovered run"
    );
    assert_eq!(
        fingerprint(&t1),
        fingerprint(&t1b),
        "repeat runs must be bit-identical"
    );
}
