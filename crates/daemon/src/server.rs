//! The daemon itself: listener, per-connection dispatch, and the
//! deterministic job scheduler.
//!
//! One accept thread blocks in `accept` (shutdown wakes it with a
//! throw-away connection to its own endpoint); each connection gets a
//! handler thread, reaped once it has finished, that reads the first
//! frame and routes it — HELLO opens an inbound migration
//! session (`dest`), CTRL opens an operator RPC loop.
//! A single scheduler thread admits queued jobs in strict id order —
//! the per-host claim (source and destination host, atomically), then a
//! worker slot — and hands each session to a worker thread. Blocking
//! admission on the *scheduler* makes the drain order deterministic at
//! any worker count; jobs with disjoint hosts still run in parallel.
//! Every job transition goes through the [`Queue`].

use std::collections::VecDeque;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vecycle_checkpoint::PartialCheckpoint;
use vecycle_faults::{KillSpec, KillSwitch};
use vecycle_host::HostLocks;
use vecycle_obs::{Counter, CounterFamily, MetricsRegistry};
use vecycle_sim::ScenarioSpec;
use vecycle_types::{sync, HostId};

use crate::control::{self, CtrlRequest, CtrlResponse};
use crate::endpoint::{BufferPool, BufferSet, Listener, Room, SessionStream, Stream};
use crate::frame::{kind, read_frame, send_err, write_frame, MAX_PAYLOAD};
use crate::queue::{JobRecord, Queue};
use crate::{dest, source, DaemonError, Endpoint};

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

/// Shared daemon state: the job lifecycle, the per-host lock table,
/// metrics and the partial-state map.
pub(crate) struct DaemonState {
    pub queue: Queue,
    pub locks: HostLocks,
    pub metrics: MetricsRegistry,
    /// Destination-side landed pages by `(job, spec fingerprint)`,
    /// oldest first and at most `dest::PARTIALS_CAP` jobs — what
    /// survives a *peer* death (the file under `journal_dir` is what
    /// survives our own).
    pub partials: Mutex<VecDeque<((u64, u64), PartialCheckpoint)>>,
    /// Deterministic crash injection, armed from `VECYCLE_KILL_AT`
    /// (inert in normal operation).
    pub kill: KillSwitch,
    pub config: DaemonConfig,
    /// The session buffer sets connections borrow; it keeps at most
    /// two a worker.
    pub buffers: BufferPool,
    /// `daemon_connections_total{transport}`, one per connection.
    connections: Counter,
    /// `daemon_sessions_total{result}` over `ok` / `err`.
    sessions: CounterFamily,
    /// `daemon_dest_bytes_total{dir}` over `rx` / `tx`: the socket bytes
    /// of each inbound session that ended ok.
    dest_bytes: CounterFamily,
    /// `daemon_log_failures_total{log="partial"}`, one per session whose
    /// partial log could not be created or appended to.
    pub partial_failures: Counter,
}

impl DaemonState {
    /// The state serving `config` over `queue`, with its per-connection,
    /// per-session and buffer-pool counters resolved against the queue's
    /// registry.
    pub(crate) fn new(queue: Queue, kill: KillSwitch, config: DaemonConfig) -> Self {
        let metrics = queue.metrics.clone();
        let transport = [("transport", config.listen.transport())];
        DaemonState {
            connections: metrics.resolve_counter("daemon_connections_total", &transport),
            sessions: CounterFamily::new(
                &metrics,
                "daemon_sessions_total",
                "result",
                &["ok", "err"],
            ),
            dest_bytes: CounterFamily::new(
                &metrics,
                "daemon_dest_bytes_total",
                "dir",
                &["rx", "tx"],
            ),
            partial_failures: metrics
                .resolve_counter("daemon_log_failures_total", &[("log", "partial")]),
            buffers: BufferPool::new(2 * config.workers, &metrics),
            metrics,
            queue,
            locks: HostLocks::default(),
            partials: Mutex::default(),
            kill,
            config,
        }
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
        let queue = Queue::open(config.journal_dir.as_deref(), MetricsRegistry::new())?;
        Daemon::start(config, queue)
    }

    /// Serves `config.listen` over `queue`, whatever its journal.
    pub(crate) fn start(config: DaemonConfig, queue: Queue) -> std::io::Result<DaemonHandle> {
        let listener = config.listen.bind()?;
        let endpoint = listener.local_endpoint()?;
        let state = Arc::new(DaemonState::new(
            queue,
            KillSwitch::new(KillSpec::from_env()),
            config,
        ));
        // Room for every thread kept live: a spawn never grows it.
        let live: Vec<JoinHandle<()>> = Vec::with_capacity(MAX_LIVE_THREADS + state.config.workers);
        let workers = Arc::new(Mutex::new(live));

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
        self.state.queue.submit(spec, peer)
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
        self.state.queue.cancel(id)
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
            inner = sync::wait_timeout(&self.state.queue.changed, inner, left);
        }
    }

    /// The on-disk WAL path, when the daemon is journal-backed.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.state
            .queue
            .wal
            .as_ref()
            .map(|w| w.path().to_path_buf())
    }

    /// The daemon's metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.state.metrics.clone()
    }

    /// Stops accepting, lets running jobs finish, joins all threads.
    pub fn shutdown(self) {
        self.state.queue.lock().shutdown = true;
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

/// Most threads the daemon keeps live: connection handlers and job
/// workers, which share one handle vector. A connection past it is
/// refused with an ERR frame rather than handed a thread.
pub(crate) const MAX_LIVE_THREADS: usize = 64;

/// Blocks in `accept`, spawning one handler thread per connection and
/// dropping the handles of threads that have finished, so the handle
/// vector tracks live connections and not uptime. At
/// [`MAX_LIVE_THREADS`], or when the OS refuses a thread, the connection
/// gets an ERR frame and is counted under
/// `daemon_connections_refused_total`; the accept thread lives on.
fn accept_loop(
    state: &Arc<DaemonState>,
    listener: Listener,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let timeout = Some(state.config.io_timeout);
    loop {
        let accepted = listener.accept();
        if state.queue.lock().shutdown {
            return;
        }
        match accepted {
            Ok(stream) => {
                let spawned = {
                    let mut live = sync::lock(workers);
                    live.retain(|h| !h.is_finished());
                    spawn_handler(state, stream, &mut live)
                };
                if let Err((stream, why)) = spawned {
                    state
                        .metrics
                        .inc("daemon_connections_refused_total", &[], 1);
                    if let Some(mut s) = stream.filter(|s| s.set_io_timeout(timeout).is_ok()) {
                        send_err(&mut s, &why);
                    }
                }
            }
            Err(_) => {
                state.metrics.inc("daemon_accept_errors_total", &[], 1);
                // A persistent failure (fd exhaustion) returns at once:
                // back off instead of spinning on it.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Hands `stream` a handler thread, pushed onto `live`; or gives the
/// connection back (when it still has it) with the reason it was
/// refused.
fn spawn_handler(
    state: &Arc<DaemonState>,
    stream: Stream,
    live: &mut Vec<JoinHandle<()>>,
) -> Result<(), (Option<Stream>, String)> {
    if live.len() >= MAX_LIVE_THREADS {
        let why = format!("daemon busy: {MAX_LIVE_THREADS} live threads");
        return Err((Some(stream), why));
    }
    // Spawning consumes the stream even when it fails.
    let kept = stream.try_clone().ok();
    let conn_state = Arc::clone(state);
    let handle = std::thread::Builder::new()
        .spawn(move || handle_connection(&conn_state, stream))
        .map_err(|e| (kept, format!("daemon busy: no handler thread: {e}")))?;
    live.push(handle);
    Ok(())
}

/// Routes one connection by its first frame: HELLO → migration
/// session, CTRL → operator RPC loop, anything else → ERR.
///
/// The connection borrows a buffer set for its whole life and returns
/// it before the socket closes and before the session is counted, so a
/// peer that has seen the close, or a reader of the counters, finds the
/// set back on the list.
fn handle_connection(state: &Arc<DaemonState>, mut stream: Stream) {
    state.connections.inc(1);
    if stream
        .set_io_timeout(Some(state.config.io_timeout))
        .is_err()
    {
        return;
    }
    let session = {
        let mut lent = state.buffers.lend();
        let BufferSet { read, chunk, room } = &mut lent.set;
        // The connection's one reader, from this first frame to the last.
        serve(
            state,
            &mut SessionStream::new(&mut stream, read),
            chunk,
            room,
        )
    };
    if let Some(result) = session {
        state.sessions.of(result).inc(1);
    }
}

/// Serves one connection through `s`, `chunk` and `room`, returning a
/// migration session's result label; an ok session's socket bytes are
/// counted first.
fn serve(
    state: &DaemonState,
    s: &mut SessionStream<&mut Stream>,
    chunk: &mut Vec<u8>,
    room: &mut Room,
) -> Option<&'static str> {
    let first = match read_frame(s, MAX_PAYLOAD) {
        Ok(f) => f,
        Err(e) => {
            state.metrics.inc("daemon_protocol_errors_total", &[], 1);
            send_err(s, &e.to_string());
            return None;
        }
    };
    match first.kind {
        kind::HELLO => Some(match dest::session(state, s, chunk, room, first) {
            Ok(()) => {
                state.dest_bytes.of("rx").inc(s.rx());
                state.dest_bytes.of("tx").inc(s.tx());
                "ok"
            }
            Err(e) => {
                send_err(s, &e.to_string());
                state.metrics.inc("daemon_protocol_errors_total", &[], 1);
                "err"
            }
        }),
        kind::CTRL => {
            let mut frame = first;
            loop {
                let resp = match CtrlRequest::decode(&frame.payload) {
                    Ok(req) => {
                        control::dispatch(state, &req).unwrap_or_else(|e| CtrlResponse::err(&e))
                    }
                    Err(e) => {
                        send_err(s, &format!("control request JSON: {e}"));
                        return None;
                    }
                };
                let json = serde_json::to_string(&resp).expect("control response serializes");
                // An unpruned job table can outgrow a frame: refuse it.
                let len = json.len();
                if len as u64 > MAX_PAYLOAD {
                    let msg = format!("{len}-byte response exceeds limit {MAX_PAYLOAD}");
                    send_err(s, &msg);
                    return None;
                }
                if write_frame(s, kind::CTRL_OK, json.as_bytes()).is_err() {
                    return None;
                }
                let _ = s.flush();
                frame = match read_frame(s, MAX_PAYLOAD) {
                    Ok(f) if f.kind == kind::CTRL => f,
                    _ => return None,
                };
            }
        }
        other => {
            state.metrics.inc("daemon_protocol_errors_total", &[], 1);
            send_err(s, &format!("unexpected opening frame kind {other:#04x}"));
            None
        }
    }
}

/// Admits queued jobs in strict id order; each admission blocks on the
/// host claim and a worker slot before the job is marked running.
fn scheduler_loop(state: &Arc<DaemonState>, workers: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    while let Some((id, job)) = state.queue.claim(&state.kill) {
        // Blocking admission: hosts first (atomic, all-or-nothing),
        // then a worker slot. Held claims belong to running workers,
        // so these waits always resolve.
        let spec = &job.spec;
        let hosts = state
            .locks
            .claim(&[HostId::new(spec.source_host), HostId::new(spec.dest_host)]);
        // The job may have been cancelled (or the daemon shut down)
        // while admission blocked.
        if !state.queue.admit(id, state.config.workers) {
            continue;
        }
        let job_state = Arc::clone(state);
        let spawned = std::thread::Builder::new().spawn(move || {
            let _hosts = hosts;
            let state = &job_state;
            // A panicking session fails its job, which frees its slot.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                source::run_job_with_recovery(state, id, &job.spec, &job.peer, job.resume_epoch)
            }))
            .unwrap_or_else(|_| Err(DaemonError::Protocol("the session panicked".into())));
            state.queue.finish(id, outcome, &state.kill);
        });
        match spawned {
            Ok(handle) => {
                let mut live = sync::lock(workers);
                live.retain(|h| !h.is_finished());
                live.push(handle);
            }
            // A refused thread fails its job, which frees its slot; the
            // dropped closure has already released its host claim.
            Err(e) => state.queue.finish(id, Err(DaemonError::Io(e)), &state.kill),
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

    /// A WAL on a full disk (`/dev/full` behind the append handle): the
    /// submission and the cancellation it cannot record are refused,
    /// never acknowledged and then lost, and the daemon keeps answering.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_wal_that_cannot_append_refuses_submit_and_cancel() {
        let spec = ScenarioSpec::golden(1);
        let mut queue = Queue::open(None, MetricsRegistry::new()).unwrap();
        queue
            .submit(spec.clone(), Endpoint::parse("127.0.0.1:9"))
            .unwrap();
        let full = std::fs::File::create("/dev/full").unwrap();
        let dir = std::env::temp_dir();
        queue.wal = Some(crate::journal::Journal::at(full, &dir, 1, 0));
        queue.set_paused(true);
        let config = DaemonConfig::new(Endpoint::parse("127.0.0.1:0"));
        let daemon = Daemon::start(config, queue).unwrap();
        let ep = daemon.endpoint().clone();

        let refused = client::submit(&ep, &spec.to_kv(), "127.0.0.1:9").unwrap_err();
        assert!(refused.to_string().contains("i/o"), "{refused}");
        assert!(client::cancel(&ep, 1).is_err());
        assert!(client::ping(&ep));
        let jobs = client::status(&ep).unwrap().jobs;
        let listed: Vec<(u64, &str)> = jobs.iter().map(|j| (j.id, &*j.state)).collect();
        assert_eq!(listed, [(1, "queued")], "no refused job is listed");
        daemon.shutdown();
    }

    /// Past [`MAX_LIVE_THREADS`] live handlers a connection reads ERR
    /// and is counted, the accept thread survives, and once the held
    /// connections close a `ping` is served again.
    #[test]
    fn connections_past_the_thread_cap_are_refused_with_err() {
        for listen in both_transports("cap") {
            let transport = listen.transport();
            let daemon = Daemon::spawn(DaemonConfig::new(listen)).expect("binds");
            let ep = daemon.endpoint().clone();
            let held: Vec<Stream> = (0..MAX_LIVE_THREADS)
                .map(|_| ep.connect().expect("connect"))
                .collect();
            let mut buf = [0; 64];
            let mut extra = SessionStream::new(ep.connect().expect("connect"), &mut buf);
            let refused = read_frame(&mut extra, MAX_PAYLOAD).expect("an ERR frame");
            assert_eq!(refused.kind, kind::ERR, "{transport}");
            let refusals = daemon
                .metrics()
                .counter_total("daemon_connections_refused_total");
            assert_eq!(refusals, 1, "{transport}");

            drop(held);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !client::ping(&ep) {
                assert!(Instant::now() < deadline, "{transport}: never served again");
                std::thread::sleep(Duration::from_millis(10));
            }
            daemon.shutdown();
        }
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
