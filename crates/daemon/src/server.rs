//! The daemon itself: listener, per-connection dispatch, and the
//! deterministic job scheduler.
//!
//! One accept thread blocks in `accept` (shutdown wakes it with a
//! throw-away connection to its own endpoint); each connection gets a
//! handler thread, reaped once it has finished, that reads the first
//! frame and routes it — HELLO opens an inbound migration
//! session (`dest`), CTRL opens an operator RPC loop.
//! A single scheduler thread admits queued jobs in strict id order:
//! for each job it first takes the per-host claim (source and
//! destination host, atomically), then a worker slot, then hands the
//! session to a worker thread. Blocking admission on the *scheduler*
//! is what makes the drain order deterministic at any worker count —
//! jobs with disjoint hosts still run in parallel because their claims
//! don't contend.
//!
//! With a journal directory configured, every job transition is also
//! appended to the write-ahead [`Journal`]
//! before it takes effect, and boot replays the WAL through
//! [`crate::recovery`]: never-started jobs re-queue, interrupted
//! transfers resume from the destination's partial state, terminal
//! jobs stay terminal. Kill a `vecycled` at any instant and restart it
//! on the same journal — no job is lost and none completes twice.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vecycle_faults::{KillPoint, KillRole, KillSpec, KillSwitch};
use vecycle_host::HostLocks;
use vecycle_obs::MetricsRegistry;
use vecycle_sim::ScenarioSpec;
use vecycle_types::HostId;

use crate::control::{self, CtrlRequest};
use crate::endpoint::{SessionStream, Stream};
use crate::frame::{kind, read_frame, send_err, write_frame, MAX_PAYLOAD};
use crate::journal::{rec, Journal, WalRecord};
use crate::queue::{JobRecord, JobState, Queue, Semaphore};
use crate::session_state::SessionState;
use crate::{dest, recovery, source, sync, DaemonError, Endpoint};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where to listen (TCP address or `unix:<path>`).
    pub listen: Endpoint,
    /// Concurrent migration workers (the `VECYCLE_THREADS` default).
    pub workers: usize,
    /// Per-connection socket timeout, applied to both reads and writes
    /// — a hung or wedged peer surfaces as a typed I/O error instead
    /// of a stuck session.
    pub io_timeout: Duration,
    /// Directory for the write-ahead job journal and partial-state
    /// files. `None` (the default) keeps everything in memory: nothing
    /// survives the process.
    pub journal_dir: Option<PathBuf>,
    /// Source-side session retries on I/O failure (peer death). 0 (the
    /// default) fails the job on the first broken session; the chaos
    /// harness runs with a generous budget.
    pub retries: u32,
    /// Sleep between session retries — long enough for a killed peer
    /// to be restarted.
    pub backoff: Duration,
}

impl DaemonConfig {
    /// A config listening on `listen` with workers taken from
    /// `VECYCLE_THREADS` (default 1), a 30-second I/O timeout, no
    /// journal and no retries.
    pub fn new(listen: Endpoint) -> DaemonConfig {
        let workers = std::env::var("VECYCLE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1);
        DaemonConfig {
            listen,
            workers,
            io_timeout: Duration::from_secs(30),
            journal_dir: None,
            retries: 0,
            backoff: Duration::from_millis(200),
        }
    }

    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> DaemonConfig {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the socket I/O timeout.
    #[must_use]
    pub fn with_io_timeout(mut self, t: Duration) -> DaemonConfig {
        self.io_timeout = t;
        self
    }

    /// Enables the write-ahead journal (and partial-state files) under
    /// `dir`.
    #[must_use]
    pub fn with_journal_dir(mut self, dir: PathBuf) -> DaemonConfig {
        self.journal_dir = Some(dir);
        self
    }

    /// Overrides the per-job session retry budget.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> DaemonConfig {
        self.retries = retries;
        self
    }

    /// Overrides the sleep between session retries.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> DaemonConfig {
        self.backoff = backoff;
        self
    }
}

/// Lines the in-memory prose journal keeps; older ones fall off, so a
/// long-lived daemon's log does not grow with its session count.
const JOURNAL_LINES: usize = 1024;

/// Shared daemon state: the queue, the per-host lock table, metrics,
/// the in-memory log, the WAL and the partial-state map.
pub(crate) struct DaemonState {
    pub queue: Arc<Queue>,
    pub locks: HostLocks,
    pub metrics: MetricsRegistry,
    /// Human-readable session/job log (the `journal()` API); distinct
    /// from the durable WAL. A ring: the newest `JOURNAL_LINES` stay.
    pub log: Mutex<VecDeque<String>>,
    /// The write-ahead job journal, when `journal_dir` is configured.
    pub wal: Option<Journal>,
    /// Destination-side partial states by `(job, spec fingerprint)` —
    /// what survives a *peer* death (the file under `journal_dir` is
    /// what survives our own).
    pub partials: Mutex<HashMap<(u64, u64), SessionState>>,
    /// Deterministic crash injection, armed from `VECYCLE_KILL_AT`
    /// (inert in normal operation).
    pub kill: KillSwitch,
    pub config: DaemonConfig,
}

impl DaemonState {
    pub(crate) fn journal_push(&self, line: String) {
        let mut log = sync::lock(&self.log);
        if log.len() == JOURNAL_LINES {
            log.pop_front();
        }
        log.push_back(line);
    }

    /// Appends a WAL record durably, if the daemon is journal-backed.
    /// Append failures are logged, not fatal: a full disk should not
    /// take down in-flight migrations, it just degrades crash recovery.
    pub(crate) fn wal_append(&self, record: WalRecord) {
        self.wal_write(&record, Journal::append);
    }

    /// Appends a WAL record no recovery decision reads: written, not
    /// synced (`Journal::append_hint`).
    pub(crate) fn wal_hint(&self, record: WalRecord) {
        self.wal_write(&record, Journal::append_hint);
    }

    fn wal_write(
        &self,
        record: &WalRecord,
        write: fn(&Journal, &WalRecord) -> std::io::Result<u64>,
    ) {
        if let Some(wal) = &self.wal {
            if let Err(e) = write(wal, record) {
                self.journal_push(format!(
                    "wal append failed ({} job {}): {e}",
                    record.kind, record.job
                ));
            }
        }
    }

    pub(crate) fn partial_put(&self, job: u64, fingerprint: u64, st: SessionState) {
        sync::lock(&self.partials).insert((job, fingerprint), st);
    }

    pub(crate) fn partial_take(&self, job: u64, fingerprint: u64) -> Option<SessionState> {
        sync::lock(&self.partials).remove(&(job, fingerprint))
    }
}

/// The daemon entry point.
pub struct Daemon;

impl Daemon {
    /// Binds the listener, replays the WAL (when journal-backed) and
    /// spawns the accept and scheduler threads.
    ///
    /// # Errors
    ///
    /// Propagates bind errors and journal open/replay errors.
    pub fn spawn(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let listener = config.listen.bind()?;
        let endpoint = listener.local_endpoint()?;

        let metrics = MetricsRegistry::new();
        let mut log = VecDeque::new();
        let (wal, queue) = match &config.journal_dir {
            Some(dir) => {
                let (journal, replay) = Journal::open(dir)?;
                let recovered = recovery::recover(&replay);
                let stats = recovered.stats;
                metrics.inc("daemon_recovery_replayed_total", &[], stats.replayed);
                metrics.inc("daemon_recovery_requeued_total", &[], stats.requeued);
                metrics.inc("daemon_recovery_resumed_total", &[], stats.resumed);
                metrics.inc("daemon_recovery_terminal_total", &[], stats.terminal);
                metrics.inc(
                    "daemon_recovery_unrecoverable_total",
                    &[],
                    stats.unrecoverable,
                );
                metrics.inc("daemon_recovery_torn_bytes_total", &[], stats.torn_bytes);
                if stats.replayed > 0 || stats.torn_bytes > 0 {
                    log.push_back(format!(
                        "recovery: replayed {} records ({} requeued, {} resumed, \
                         {} terminal, {} unrecoverable, {} torn bytes)",
                        stats.replayed,
                        stats.requeued,
                        stats.resumed,
                        stats.terminal,
                        stats.unrecoverable,
                        stats.torn_bytes
                    ));
                }
                // Compact: the recovered truth becomes the new WAL, so
                // journal growth is bounded by live history, not
                // uptime.
                journal.compact(&recovered.compacted)?;
                (
                    Some(journal),
                    Queue::with_recovered(recovered.jobs, recovered.next_id),
                )
            }
            None => (None, Queue::new()),
        };

        let state = Arc::new(DaemonState {
            queue,
            locks: HostLocks::default(),
            metrics,
            log: Mutex::new(log),
            wal,
            partials: Mutex::new(HashMap::new()),
            kill: KillSwitch::new(KillSpec::from_env()),
            config,
        });
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_state = Arc::clone(&state);
        let accept_workers = Arc::clone(&workers);
        let accept =
            std::thread::spawn(move || accept_loop(&accept_state, listener, &accept_workers));

        let sched_state = Arc::clone(&state);
        let sched_workers = Arc::clone(&workers);
        let scheduler = std::thread::spawn(move || scheduler_loop(&sched_state, &sched_workers));

        Ok(DaemonHandle {
            state,
            endpoint,
            workers,
            accept,
            scheduler,
        })
    }
}

/// A running daemon: the operator-facing handle the tests and the CLI
/// `serve` loop hold.
pub struct DaemonHandle {
    state: Arc<DaemonState>,
    endpoint: Endpoint,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept: JoinHandle<()>,
    scheduler: JoinHandle<()>,
}

impl DaemonHandle {
    /// The endpoint the daemon actually bound (TCP port 0 resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Submits a job directly (same path the control socket uses).
    ///
    /// # Errors
    ///
    /// [`DaemonError::BadSpec`] on an invalid scenario.
    pub fn submit(&self, spec: ScenarioSpec, peer: Endpoint) -> Result<u64, DaemonError> {
        control::submit_job(&self.state, spec, peer)
    }

    /// Pauses or resumes admission.
    pub fn set_paused(&self, paused: bool) {
        self.state.queue.set_paused(paused);
    }

    /// Cancels a queued job.
    ///
    /// # Errors
    ///
    /// [`DaemonError::BadJob`] if the job is unknown or already
    /// started.
    pub fn cancel(&self, id: u64) -> Result<(), DaemonError> {
        control::cancel_job(&self.state, id)
    }

    /// A snapshot of one job's record.
    pub fn job_record(&self, id: u64) -> Option<JobRecord> {
        self.state.queue.lock().jobs.get(&id).cloned()
    }

    /// Job ids in the order the scheduler admitted them.
    pub fn drained(&self) -> Vec<u64> {
        self.state.queue.lock().drained.clone()
    }

    /// Blocks until job `id` reaches a terminal state, returning its
    /// record, or `None` on timeout.
    pub fn wait_job(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.state.queue.lock();
        loop {
            match inner.jobs.get(&id) {
                Some(rec) if rec.state.terminal() => return Some(rec.clone()),
                _ => {}
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, res) = sync::wait_timeout(&self.state.queue.changed, inner, left);
            inner = guard;
            if res.timed_out() {
                let done = inner.jobs.get(&id).is_some_and(|rec| rec.state.terminal());
                return done.then(|| inner.jobs.get(&id).cloned()).flatten();
            }
        }
    }

    /// The daemon's in-memory log: one line per session and job
    /// transition, the newest `JOURNAL_LINES` of them, oldest first
    /// (distinct from the durable WAL).
    pub fn journal(&self) -> Vec<String> {
        sync::lock(&self.state.log).iter().cloned().collect()
    }

    /// The on-disk WAL path, when the daemon is journal-backed.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.state.wal.as_ref().map(|w| w.path().to_path_buf())
    }

    /// The daemon's metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.state.metrics.clone()
    }

    /// Stops accepting, lets running jobs finish, joins all threads.
    pub fn shutdown(self) {
        {
            let mut inner = self.state.queue.lock();
            inner.shutdown = true;
        }
        self.state.queue.changed.notify_all();
        let _ = self.scheduler.join();
        // The accept thread is blocked in `accept`: one throw-away
        // connection makes it look at the flag. If our own endpoint is
        // unreachable (the socket file was unlinked under us) nothing
        // can wake it, so it is left behind rather than joined forever.
        if self.endpoint.connect().is_ok() {
            let _ = self.accept.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *sync::lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Blocks in `accept`, spawning one handler thread per connection and
/// dropping the handles of threads that have finished, so the handle
/// vector tracks live connections and not uptime.
fn accept_loop(
    state: &Arc<DaemonState>,
    listener: crate::endpoint::Listener,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut journaled_error = false;
    loop {
        let accepted = listener.accept();
        if state.queue.lock().shutdown {
            return;
        }
        match accepted {
            Ok(stream) => {
                let conn_state = Arc::clone(state);
                let handle = std::thread::spawn(move || handle_connection(&conn_state, stream));
                let mut live = sync::lock(workers);
                live.retain(|h| !h.is_finished());
                live.push(handle);
            }
            Err(e) => {
                state.metrics.inc("daemon_accept_errors_total", &[], 1);
                if !journaled_error {
                    journaled_error = true;
                    state.journal_push(format!("accept failed: {e}"));
                }
                // A persistent failure (fd exhaustion) returns at once:
                // back off instead of spinning on it.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Routes one connection by its first frame: HELLO → migration
/// session, CTRL → operator RPC loop, anything else → ERR.
fn handle_connection(state: &Arc<DaemonState>, stream: Stream) {
    state.metrics.inc(
        "daemon_connections_total",
        &[("transport", state.config.listen.transport())],
        1,
    );
    if stream
        .set_io_timeout(Some(state.config.io_timeout))
        .is_err()
    {
        return;
    }
    // The connection's one reader, from this first frame to the last.
    let mut s = SessionStream::new(stream);
    let first = match read_frame(&mut s, MAX_PAYLOAD) {
        Ok(f) => f,
        Err(e) => {
            state.metrics.inc("daemon_protocol_errors_total", &[], 1);
            send_err(&mut s, &e.to_string());
            return;
        }
    };
    match first.kind {
        kind::HELLO => match dest::handle_migration(state, &mut s, first) {
            Ok(job) => {
                state
                    .metrics
                    .inc("daemon_sessions_total", &[("result", "ok")], 1);
                state.journal_push(format!("session job={job} ok rx={} tx={}", s.rx(), s.tx()));
            }
            Err(e) => {
                state
                    .metrics
                    .inc("daemon_sessions_total", &[("result", "err")], 1);
                state.metrics.inc("daemon_protocol_errors_total", &[], 1);
                state.journal_push(format!("session err: {e}"));
            }
        },
        kind::CTRL => {
            let mut frame = first;
            loop {
                let resp = match serde_json::from_str::<CtrlRequest>(&String::from_utf8_lossy(
                    &frame.payload,
                )) {
                    Ok(req) => control::handle_ctrl(state, &req),
                    Err(e) => {
                        send_err(&mut s, &format!("control request JSON: {e}"));
                        return;
                    }
                };
                let json = serde_json::to_string(&resp).expect("control response serializes");
                if write_frame(&mut s, kind::CTRL_OK, json.as_bytes()).is_err() {
                    return;
                }
                let _ = s.flush();
                frame = match read_frame(&mut s, MAX_PAYLOAD) {
                    Ok(f) if f.kind == kind::CTRL => f,
                    _ => return,
                };
            }
        }
        other => {
            state.metrics.inc("daemon_protocol_errors_total", &[], 1);
            send_err(
                &mut s,
                &format!("unexpected opening frame kind {other:#04x}"),
            );
        }
    }
}

/// Admits queued jobs in strict id order; each admission blocks on the
/// host claim and a worker slot before the job is marked running.
fn scheduler_loop(state: &Arc<DaemonState>, workers: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let sem = Semaphore::new(state.config.workers);
    loop {
        // Wait for the lowest-id queued job under an unpaused queue.
        let (id, spec, peer, epoch) = {
            let mut inner = state.queue.lock();
            loop {
                if inner.shutdown {
                    return;
                }
                if !inner.paused {
                    if let Some((id, rec)) =
                        inner.jobs.iter().find(|(_, r)| r.state == JobState::Queued)
                    {
                        break (*id, rec.spec.clone(), rec.peer.clone(), rec.resume_epoch);
                    }
                }
                inner = sync::wait(&state.queue.changed, inner);
            }
        };

        // The pre-claim kill point sits between picking the job and
        // journaling `claimed`: a crash here leaves only `submitted`
        // in the WAL, so the restart takes the clean re-queue path.
        state.kill.hit(KillRole::Source, KillPoint::PreClaim);
        state.wal_append(WalRecord::bare(rec::CLAIMED, id));

        // Blocking admission: hosts first (atomic, all-or-nothing),
        // then a worker slot. Held claims belong to running workers,
        // so these waits always resolve.
        let claim = state
            .locks
            .claim(&[HostId::new(spec.source_host), HostId::new(spec.dest_host)]);
        let permit = sem.acquire();

        // Re-check: the job may have been cancelled (or the daemon shut
        // down) while admission blocked.
        {
            let mut inner = state.queue.lock();
            if inner.shutdown {
                return;
            }
            match inner.jobs.get_mut(&id) {
                Some(rec) if rec.state == JobState::Queued => {
                    rec.state = JobState::Running;
                    inner.drained.push(id);
                }
                _ => continue,
            }
        }
        state.queue.changed.notify_all();
        state.journal_push(format!(
            "job {id} admitted ({} -> {})",
            spec.source_host, spec.dest_host
        ));

        let job_state = Arc::clone(state);
        let handle = std::thread::spawn(move || {
            let _claim = claim;
            let _permit = permit;
            run_admitted_job(&job_state, id, &spec, &peer, epoch);
        });
        sync::lock(workers).push(handle);
    }
}

/// Runs one admitted job end to end and records the outcome.
fn run_admitted_job(
    state: &Arc<DaemonState>,
    id: u64,
    spec: &ScenarioSpec,
    peer: &Endpoint,
    epoch: u64,
) {
    match source::run_job_with_recovery(state, id, spec, peer, epoch) {
        Ok(outcome) => {
            state
                .metrics
                .inc("daemon_bytes_total", &[("dir", "tx")], outcome.measured.tx);
            state
                .metrics
                .inc("daemon_bytes_total", &[("dir", "rx")], outcome.measured.rx);
            {
                let mut inner = state.queue.lock();
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.report = Some(outcome.report);
                    rec.measured = Some(outcome.measured);
                }
            }
            // The pre-commit kill point sits between the session
            // succeeding and the durable `done` record: a crash here
            // re-runs the transfer (safe — idempotent) rather than
            // ever double-marking completion.
            state.kill.hit(KillRole::Source, KillPoint::PreCommit);
            state.wal_append(WalRecord::bare(rec::DONE, id));
            state.queue.finish(id, JobState::Done, String::new());
            state
                .metrics
                .inc("daemon_jobs_total", &[("state", "done")], 1);
            state.journal_push(format!(
                "job {id} done tx={} rx={}",
                outcome.measured.tx, outcome.measured.rx
            ));
        }
        Err(e) => {
            let mut failed = WalRecord::bare(rec::FAILED, id);
            failed.detail = e.to_string();
            state.wal_append(failed);
            state.queue.finish(id, JobState::Failed, e.to_string());
            state
                .metrics
                .inc("daemon_jobs_total", &[("state", "failed")], 1);
            state.journal_push(format!("job {id} failed: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn both_transports(tag: &str) -> [Endpoint; 2] {
        let path =
            std::env::temp_dir().join(format!("vecycled-server-{}-{tag}.sock", std::process::id()));
        [Endpoint::Tcp("127.0.0.1:0".into()), Endpoint::Unix(path)]
    }

    #[test]
    fn idle_daemon_shuts_down_promptly_on_both_transports() {
        for listen in both_transports("idle") {
            let transport = listen.transport();
            let daemon = Daemon::spawn(DaemonConfig::new(listen)).expect("binds");
            let started = Instant::now();
            daemon.shutdown();
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(100),
                "{transport}: shutdown of an idle daemon took {took:?}"
            );
        }
    }

    #[test]
    fn the_journal_keeps_only_its_newest_lines_in_order() {
        let daemon =
            Daemon::spawn(DaemonConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).expect("binds");
        for i in 0..2 * JOURNAL_LINES {
            daemon.state.journal_push(format!("line {i}"));
        }
        let newest: Vec<String> = (JOURNAL_LINES..2 * JOURNAL_LINES)
            .map(|i| format!("line {i}"))
            .collect();
        assert_eq!(daemon.journal(), newest);
        daemon.shutdown();
    }

    #[test]
    fn finished_handler_threads_are_reaped_as_connections_arrive() {
        for listen in both_transports("reap") {
            let transport = listen.transport();
            let daemon = Daemon::spawn(DaemonConfig::new(listen)).expect("binds");
            for _ in 0..200 {
                client::status(daemon.endpoint()).expect("status round trip");
            }
            let live = sync::lock(&daemon.workers).len();
            assert!(
                live <= 8,
                "{transport}: {live} handler handles after 200 sequential connections"
            );
            assert_eq!(
                daemon.metrics().counter_total("daemon_accept_errors_total"),
                0
            );
            daemon.shutdown();
        }
    }
}
