//! The job lifecycle (DESIGN §15.3, §17): one type owns the job table
//! and the write-ahead journal.
//!
//! Each transition — `submit`, `cancel`, `claim`, `admit`, `progress`,
//! `retry`, `finish` — writes its WAL record when the daemon is
//! journal-backed and applies it to the table. A failed append refuses a
//! submission or a cancellation; any other transition counts it under
//! `daemon_log_failures_total{log="wal"}` and carries on, since a crash
//! then only re-runs the job. Boot replay ([`Queue::replay`]) shares the
//! transitions' mapping from record kind to [`JobState`].

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};

use vecycle_core::MigrationReport;
use vecycle_faults::{KillPoint, KillRole, KillSwitch};
use vecycle_obs::{Counter, MetricsRegistry};
use vecycle_sim::ScenarioSpec;
use vecycle_types::sync;

use crate::journal::{rec, Journal, Replay, WalRecord};
use crate::source::SessionOutcome;
use crate::{DaemonError, Endpoint};

/// Lifecycle of one queued migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for admission.
    Queued,
    /// Admitted; the migration session is in flight.
    Running,
    /// Completed, reconciled, destination verified.
    Done,
    /// The session ended in an error (recorded in the detail).
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// Stable lowercase label (metrics and operator output); a terminal
    /// state's label is its record kind.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => rec::DONE,
            JobState::Failed => rec::FAILED,
            JobState::Cancelled => rec::CANCELLED,
        }
    }

    /// Whether the job can no longer change state.
    pub fn terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The state a record of `kind` leaves its job in, live and on
    /// replay alike; `None` for a record that is not a transition.
    fn after(kind: &str) -> Option<JobState> {
        Some(match kind {
            rec::SUBMITTED | rec::CLAIMED => JobState::Queued,
            rec::TRANSFERRING => JobState::Running,
            rec::DONE => JobState::Done,
            rec::FAILED => JobState::Failed,
            rec::CANCELLED => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// Byte accounting of one completed migration: what crossed the socket
/// versus what the analytic ledger (plus pinned framing overhead)
/// predicted. Equal on every successful job — the daemon enforces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// Bytes the source wrote to the socket.
    pub tx: u64,
    /// Bytes the source read from the socket.
    pub rx: u64,
    /// Forward ledger total + [`crate::proto::forward_overhead`].
    pub expected_tx: u64,
    /// Reverse ledger total + [`crate::proto::reverse_overhead`].
    pub expected_rx: u64,
    /// Length of the JOB frame's JSON payload (spec-dependent part of
    /// the forward overhead).
    pub job_json_len: u64,
    /// Epoch of the session that completed the job (0 = fresh
    /// transfer, N ≥ 1 = Nth reconnect/restart attempt, a recycle of
    /// what earlier epochs landed).
    pub resume_epoch: u64,
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Peer daemon the migration runs against.
    pub peer: Endpoint,
    /// Current lifecycle state.
    pub state: JobState,
    /// Human-readable detail (error message on failure).
    pub detail: String,
    /// The migration report, once done.
    pub report: Option<MigrationReport>,
    /// Byte accounting, once done.
    pub measured: Option<Measured>,
    /// Whether this record was rebuilt from the WAL on boot.
    pub recovered: bool,
    /// The resume epoch the next session attempt will announce: 0 for
    /// a fresh job, ≥ 1 once a transfer was interrupted (by a crash
    /// before boot, or a peer death mid-session).
    pub resume_epoch: u64,
}

impl JobRecord {
    fn new(spec: ScenarioSpec, peer: Endpoint) -> JobRecord {
        JobRecord {
            spec,
            peer,
            state: JobState::Queued,
            detail: String::new(),
            report: None,
            measured: None,
            recovered: false,
            resume_epoch: 0,
        }
    }

    /// Applies one transition. A terminal job never changes again; the
    /// detail follows terminal records and records that carry one.
    fn apply(&mut self, record: &WalRecord) {
        let Some(state) = JobState::after(&record.kind).filter(|_| !self.state.terminal()) else {
            return;
        };
        self.state = state;
        if state == JobState::Cancelled {
            self.detail = "cancelled by operator".into();
        } else if state.terminal() || !record.detail.is_empty() {
            self.detail.clone_from(&record.detail);
        }
    }

    /// The `submitted` record this job's spec and peer journal as.
    fn submitted(&self, id: u64) -> WalRecord {
        let mut record = WalRecord::bare(rec::SUBMITTED, id);
        record.spec = self.spec.to_kv();
        record.peer = self.peer.to_string();
        record
    }
}

#[derive(Default)]
pub(crate) struct QueueInner {
    pub jobs: BTreeMap<u64, JobRecord>,
    pub next_id: u64,
    pub paused: bool,
    pub drained: Vec<u64>,
    pub shutdown: bool,
    /// Jobs in the table that are `Running`: the worker slots in use.
    running: usize,
}

impl QueueInner {
    /// Applies a transition to its job.
    fn apply(&mut self, record: &WalRecord) {
        self.update(record.job, |job| job.apply(record));
    }

    /// Changes job `id` through `change`, keeping the running count.
    fn update(&mut self, id: u64, change: impl FnOnce(&mut JobRecord)) {
        if let Some(job) = self.jobs.get_mut(&id) {
            let was = job.state;
            change(job);
            let running = |s: JobState| usize::from(s == JobState::Running);
            self.running = self.running + running(job.state) - running(was);
        }
    }
}

/// The job lifecycle of one daemon: table, condvar, optional WAL.
pub struct Queue {
    inner: Mutex<QueueInner>,
    pub(crate) changed: Condvar,
    pub(crate) wal: Option<Journal>,
    pub(crate) metrics: MetricsRegistry,
    /// `daemon_log_failures_total{log="wal"}`, one per failed append a
    /// transition carried on past.
    wal_failures: Counter,
}

impl Queue {
    /// A daemon's lifecycle, counting into `metrics`: empty, or with a
    /// journal directory, the WAL there replayed and compacted to what
    /// the replay kept.
    ///
    /// # Errors
    ///
    /// Propagates the journal's open, replay and compaction errors.
    pub fn open(dir: Option<&Path>, metrics: MetricsRegistry) -> std::io::Result<Queue> {
        let mut queue = Queue {
            inner: Mutex::new(QueueInner {
                next_id: 1,
                ..QueueInner::default()
            }),
            changed: Condvar::new(),
            wal: None,
            wal_failures: metrics.resolve_counter("daemon_log_failures_total", &[("log", "wal")]),
            metrics,
        };
        if let Some(dir) = dir {
            let (wal, replay) = Journal::open(dir)?;
            // Compaction drops superseded history, not jobs: every
            // terminal job keeps its two records, so the WAL grows with
            // the jobs a daemon has finished until something prunes them.
            wal.compact(&queue.replay(&replay))?;
            queue.wal = Some(wal);
        }
        Ok(queue)
    }

    /// Boot replay: rebuilds the table from a WAL's transitions, counts
    /// the outcome into `daemon_recovery_*` and returns the compacted
    /// records — per job its `submitted` record when the spec is intact
    /// (an interrupted transfer's landed count and resume detail folded
    /// in) and its terminal record. Replaying them rebuilds the same
    /// table.
    pub fn replay(&self, replay: &Replay) -> Vec<WalRecord> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        // Jobs whose spec cannot be rebuilt, and why; messages landed by
        // jobs a session was claimed for.
        let (mut causes, mut landed) = (BTreeMap::new(), BTreeMap::new());
        let mut replayed = 0;
        let transitions = replay
            .records
            .iter()
            .filter(|r| JobState::after(&r.kind).is_some());
        for record in transitions {
            replayed += 1;
            inner.next_id = inner.next_id.max(record.job.saturating_add(1));
            let job = inner.jobs.entry(record.job).or_insert_with(|| {
                let spec = match record.kind.as_str() {
                    rec::SUBMITTED => ScenarioSpec::parse(&record.spec)
                        .map_err(|e| format!("spec unparsable: {e}")),
                    _ => Err("no intact submitted record".to_string()),
                };
                let spec = spec.unwrap_or_else(|cause| {
                    causes.insert(record.job, cause);
                    ScenarioSpec::golden(0) // never admitted
                });
                JobRecord::new(spec, Endpoint::parse(&record.peer))
            });
            job.recovered = true;
            // Past `submitted` a session may have started; a `submitted`
            // with a detail is how compaction keeps an interrupted one.
            let started = record.kind != rec::SUBMITTED || !record.detail.is_empty();
            if started && !job.state.terminal() {
                let n = landed.entry(record.job).or_insert(0);
                *n = record.pages_landed.max(*n);
            }
            job.apply(record);
        }

        let (mut requeued, mut resumed, mut terminal) = (0, 0, 0);
        let mut compacted = Vec::new();
        for (&id, job) in &mut inner.jobs {
            let cause = causes.get(&id);
            let mut submitted = cause.is_none().then(|| job.submitted(id));
            if job.state.terminal() {
                terminal += 1;
                if job.state == JobState::Done {
                    job.detail = "recovered: completed before restart (report not retained)".into();
                }
            } else if let Some(cause) = cause {
                job.state = JobState::Failed;
                job.detail = format!("unrecoverable after restart: {cause}");
            } else if let Some((&n, sub)) = landed.get(&id).zip(submitted.as_mut()) {
                // Epoch 1 makes the next session resume from the
                // destination's partial state.
                resumed += 1;
                job.state = JobState::Queued;
                job.resume_epoch = 1;
                job.detail =
                    format!("recovered: resuming interrupted transfer ({n} messages landed)");
                sub.pages_landed = n;
                sub.detail.clone_from(&job.detail);
            } else {
                requeued += 1;
                job.state = JobState::Queued;
                job.detail = "recovered: re-queued after restart".into();
            }
            compacted.extend(submitted);
            if job.state.terminal() {
                let mut last = WalRecord::bare(job.state.label(), id);
                last.detail.clone_from(&job.detail);
                compacted.push(last);
            }
        }

        let unrecoverable = inner.jobs.len() as u64 - requeued - resumed - terminal;
        let torn = replay.torn_bytes;
        for (name, n) in [
            ("daemon_recovery_replayed_total", replayed),
            ("daemon_recovery_requeued_total", requeued),
            ("daemon_recovery_resumed_total", resumed),
            ("daemon_recovery_terminal_total", terminal),
            ("daemon_recovery_unrecoverable_total", unrecoverable),
            ("daemon_recovery_torn_bytes_total", torn),
        ] {
            self.metrics.inc(name, &[], n);
        }
        compacted
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, QueueInner> {
        sync::lock(&self.inner)
    }

    /// Every job, by id.
    pub fn jobs(&self) -> BTreeMap<u64, JobRecord> {
        self.lock().jobs.clone()
    }

    fn append(&self, record: &WalRecord, sync: bool) -> std::io::Result<()> {
        match &self.wal {
            Some(wal) if sync => wal.append(record).map(drop),
            Some(wal) => wal.append_hint(record).map(drop),
            None => Ok(()),
        }
    }

    /// A transition a failed append does not refuse: the failure is
    /// counted and the job carries on.
    fn transition(&self, record: &WalRecord, sync: bool) {
        if self.append(record, sync).is_err() {
            self.wal_failures.inc(1);
        }
        self.lock().apply(record);
        self.changed.notify_all();
    }

    /// Enqueues a validated job and returns its id. `submitted` is synced
    /// under the lock, before the scheduler can see the job: a crash in
    /// between loses an unacknowledged submission, never an admitted one.
    pub(crate) fn submit(&self, spec: ScenarioSpec, peer: Endpoint) -> Result<u64, DaemonError> {
        spec.validate().map_err(DaemonError::from)?;
        let job = JobRecord::new(spec, peer);
        let mut record = job.submitted(0);
        let mut inner = self.lock();
        record.job = inner.next_id;
        let exhausted = || DaemonError::BadJob("job ids are exhausted".into());
        let next_id = record.job.checked_add(1).ok_or_else(exhausted)?;
        self.append(&record, true)?;
        inner.next_id = next_id;
        inner.jobs.insert(record.job, job);
        inner.apply(&record);
        drop(inner);
        self.changed.notify_all();
        Ok(record.job)
    }

    /// Cancels a job that has not started yet, write-ahead under the
    /// lock as [`Queue::submit`].
    pub(crate) fn cancel(&self, id: u64) -> Result<(), DaemonError> {
        let mut inner = self.lock();
        let job = inner.jobs.get(&id);
        let state = job
            .ok_or_else(|| DaemonError::BadJob(format!("job {id} not found")))?
            .state;
        if state != JobState::Queued {
            let state = state.label();
            return Err(DaemonError::BadJob(format!(
                "job {id} is {state}, only queued jobs cancel"
            )));
        }
        let record = WalRecord::bare(rec::CANCELLED, id);
        self.append(&record, true)?;
        inner.apply(&record);
        drop(inner);
        self.changed.notify_all();
        Ok(())
    }

    pub(crate) fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.changed.notify_all();
    }

    /// Waits for the lowest-id queued job under an unpaused queue and
    /// journals `claimed` for it; `None` once the daemon shuts down. A
    /// crash at the pre-claim kill point, between the two, leaves only
    /// `submitted`, so the restart re-queues the job fresh.
    pub(crate) fn claim(&self, kill: &KillSwitch) -> Option<(u64, JobRecord)> {
        let mut inner = self.lock();
        let (id, job) = loop {
            if inner.shutdown {
                return None;
            }
            let queued = inner.jobs.iter().find(|(_, j)| j.state == JobState::Queued);
            match queued.filter(|_| !inner.paused) {
                Some((&id, job)) => break (id, job.clone()),
                None => inner = sync::wait(&self.changed, inner),
            }
        };
        drop(inner);
        kill.hit(KillRole::Source, KillPoint::PreClaim);
        self.transition(&WalRecord::bare(rec::CLAIMED, id), true);
        Some((id, job))
    }

    /// Marks claimed job `id` running once fewer than `workers` jobs
    /// are; `false` if it was cancelled meanwhile or the daemon is
    /// shutting down.
    pub(crate) fn admit(&self, id: u64, workers: usize) -> bool {
        let mut inner = self.lock();
        while inner.running >= workers.max(1) && !inner.shutdown {
            inner = sync::wait(&self.changed, inner);
        }
        if inner.shutdown || inner.jobs.get(&id).map(|j| j.state) != Some(JobState::Queued) {
            return false;
        }
        inner.drained.push(id);
        inner.update(id, |job| job.state = JobState::Running);
        drop(inner);
        self.changed.notify_all();
        true
    }

    /// Data-plane progress, `landed` messages sent to the destination:
    /// a hint, written but not synced.
    pub(crate) fn progress(&self, id: u64, landed: u64) {
        let mut record = WalRecord::bare(rec::TRANSFERRING, id);
        record.pages_landed = landed;
        self.transition(&record, false);
    }

    /// The source retries a session that died of `e`, at resume `epoch`.
    pub(crate) fn retry(&self, id: u64, epoch: u64, e: &std::io::Error) {
        self.metrics.inc("daemon_job_retries_total", &[], 1);
        let mut record = WalRecord::bare(rec::TRANSFERRING, id);
        record.detail = format!("retrying at epoch {epoch} after i/o error: {e}");
        self.transition(&record, true);
    }

    /// Records a session's outcome. A success stores the report and byte
    /// accounting first and syncs `done` only past the pre-commit kill
    /// point: a crash in between re-runs the transfer (idempotent)
    /// rather than ever double-marking completion.
    pub(crate) fn finish(
        &self,
        id: u64,
        outcome: Result<SessionOutcome, DaemonError>,
        kill: &KillSwitch,
    ) {
        let m = &self.metrics;
        let record = match outcome {
            Ok((report, measured)) => {
                m.inc("daemon_bytes_total", &[("dir", "tx")], measured.tx);
                m.inc("daemon_bytes_total", &[("dir", "rx")], measured.rx);
                if let Some(job) = self.lock().jobs.get_mut(&id) {
                    (job.report, job.measured) = (Some(report), Some(measured));
                }
                kill.hit(KillRole::Source, KillPoint::PreCommit);
                WalRecord::bare(rec::DONE, id)
            }
            Err(e) => {
                let mut failed = WalRecord::bare(rec::FAILED, id);
                failed.detail = e.to_string();
                failed
            }
        };
        m.inc("daemon_jobs_total", &[("state", &record.kind)], 1);
        self.transition(&record, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_of(jobs: u64) -> Queue {
        let q = Queue::open(None, MetricsRegistry::new()).unwrap();
        for _ in 0..jobs {
            q.submit(ScenarioSpec::golden(1), Endpoint::parse("h:1"))
                .unwrap();
        }
        q
    }

    fn submitted(job: u64, spec: &str) -> WalRecord {
        let mut r = WalRecord::bare(rec::SUBMITTED, job);
        r.spec = spec.to_string();
        r.peer = "127.0.0.1:7311".into();
        r
    }

    /// Boots a fresh queue over `records`: its jobs, compaction, queue.
    fn recover(records: Vec<WalRecord>) -> (BTreeMap<u64, JobRecord>, Vec<WalRecord>, Queue) {
        let q = queue_of(0);
        let compacted = q.replay(&Replay {
            records,
            torn_bytes: 0,
        });
        (q.jobs(), compacted, q)
    }

    fn recovered(q: &Queue, what: &str) -> u64 {
        q.metrics
            .counter(&format!("daemon_recovery_{what}_total"), &[])
    }

    fn boom() -> Result<SessionOutcome, DaemonError> {
        Err(DaemonError::Protocol("boom".into()))
    }

    #[test]
    fn submit_assigns_increasing_ids_and_validates() {
        let q = queue_of(2);
        assert_eq!(q.jobs().keys().copied().collect::<Vec<_>>(), [1, 2]);
        let mut bad = ScenarioSpec::golden(1);
        bad.strategy = "bogus".into();
        let refused = q.submit(bad, Endpoint::parse("h:1"));
        assert!(matches!(refused, Err(DaemonError::BadSpec(_))));
        // A WAL naming the last possible id leaves none to hand out.
        let (_, _, q) = recover(vec![WalRecord::bare(rec::CLAIMED, u64::MAX)]);
        let refused = q.submit(ScenarioSpec::golden(1), Endpoint::parse("h:1"));
        assert!(matches!(refused, Err(DaemonError::BadJob(_))));
    }

    #[test]
    fn cancel_only_hits_queued_jobs() {
        let q = queue_of(1);
        q.cancel(1).unwrap();
        assert!(matches!(q.cancel(1), Err(DaemonError::BadJob(_))));
        assert!(matches!(q.cancel(99), Err(DaemonError::BadJob(_))));
        assert_eq!(q.jobs()[&1].state, JobState::Cancelled);
    }

    /// Admission waits on the table's running count: at one worker, a
    /// second job is admitted only once the first one finishes.
    #[test]
    fn admission_blocks_at_the_worker_count_and_resumes_on_finish() {
        let q = std::sync::Arc::new(queue_of(2));
        let kill = KillSwitch::inert();
        assert_eq!(q.claim(&kill).map(|(id, _)| q.admit(id, 1)), Some(true));
        let (second, _) = q.claim(&kill).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || q2.admit(second, 1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "the second admission must block");
        q.finish(1, boom(), &kill);
        assert!(t.join().unwrap());
        assert_eq!(q.lock().drained, [1, 2]);
    }

    /// A WAL on a full disk (`/dev/full` behind the append handle) past
    /// submission: `claimed`, the progress hint and `done` each fail to
    /// append, each failure is counted, and the job still completes.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_wal_appends_are_counted_and_the_job_carries_on() {
        let mut q = queue_of(1);
        let full = std::fs::File::create("/dev/full").unwrap();
        q.wal = Some(Journal::at(full, &std::env::temp_dir(), 1, 0));
        let kill = KillSwitch::inert();
        let (id, job) = q.claim(&kill).unwrap();
        assert!(q.admit(id, 1));
        q.progress(id, 7);
        let report = crate::scenario::reference_run(&job.spec).unwrap().report;
        let measured = Measured {
            tx: 0,
            rx: 0,
            expected_tx: 0,
            expected_rx: 0,
            job_json_len: 0,
            resume_epoch: 0,
        };
        q.finish(id, Ok((report, measured)), &kill);
        assert_eq!(q.jobs()[&id].state, JobState::Done);
        let failures = q
            .metrics
            .counter("daemon_log_failures_total", &[("log", "wal")]);
        assert_eq!(failures, 3, "claimed, transferring and done");
    }

    #[test]
    fn last_record_wins_across_the_lifecycle() {
        let kv = ScenarioSpec::golden(3).to_kv();
        let mut transferring = WalRecord::bare(rec::TRANSFERRING, 2);
        transferring.pages_landed = 300;
        let mut failed = WalRecord::bare(rec::FAILED, 4);
        failed.detail = "peer error: boom".into();
        let (jobs, _, q) = recover(vec![
            submitted(1, &kv),
            submitted(2, &kv),
            submitted(3, &kv),
            submitted(4, &kv),
            WalRecord::bare(rec::CLAIMED, 2),
            transferring,
            WalRecord::bare(rec::CLAIMED, 3),
            WalRecord::bare(rec::DONE, 3),
            failed,
        ]);
        assert_eq!(q.lock().next_id, 5);
        assert_eq!(jobs[&1].state, JobState::Queued);
        assert_eq!(jobs[&1].resume_epoch, 0);
        assert_eq!(jobs[&2].state, JobState::Queued);
        assert_eq!(jobs[&2].resume_epoch, 1);
        assert!(jobs[&2].detail.contains("300 messages landed"));
        assert_eq!(jobs[&3].state, JobState::Done);
        assert_eq!(jobs[&4].state, JobState::Failed);
        assert_eq!(jobs[&4].detail, "peer error: boom");
        assert!(jobs.values().all(|j| j.recovered));
        let counts = ["requeued", "resumed", "terminal", "unrecoverable"];
        assert_eq!(counts.map(|what| recovered(&q, what)), [1, 1, 2, 0]);
    }

    #[test]
    fn claimed_without_submitted_is_failed_with_cause() {
        let (jobs, _, q) = recover(vec![WalRecord::bare(rec::CLAIMED, 7)]);
        assert_eq!(jobs[&7].state, JobState::Failed);
        assert!(
            jobs[&7].detail.contains("unrecoverable"),
            "{}",
            jobs[&7].detail
        );
        assert_eq!(recovered(&q, "unrecoverable"), 1);
        assert_eq!(q.lock().next_id, 8);
    }

    #[test]
    fn garbage_spec_is_failed_not_dropped() {
        let garbage = submitted(1, "strategy=??,ram=-3");
        let (jobs, ..) = recover(vec![garbage, WalRecord::bare(rec::CLAIMED, 1)]);
        assert_eq!(jobs[&1].state, JobState::Failed);
        assert!(jobs[&1].detail.contains("spec unparsable"));
    }

    #[test]
    fn compaction_keeps_one_submitted_per_job_plus_terminals() {
        let kv = ScenarioSpec::golden(1).to_kv();
        let (_, compacted, _) = recover(vec![
            submitted(1, &kv),
            WalRecord::bare(rec::CLAIMED, 1),
            WalRecord::bare(rec::DONE, 1),
            submitted(2, &kv),
            WalRecord::bare(rec::CLAIMED, 2),
        ]);
        let kinds: Vec<(&str, u64)> = compacted.iter().map(|r| (r.kind.as_str(), r.job)).collect();
        assert_eq!(
            kinds,
            [("submitted", 1), ("done", 1), ("submitted", 2)],
            "claimed history collapses; live job 2 re-journals from scratch"
        );
    }

    #[test]
    fn replay_ignores_a_kind_it_does_not_know() {
        let (jobs, _, q) = recover(vec![WalRecord::bare("rebooted", 0)]);
        assert!(jobs.is_empty());
        assert_eq!(recovered(&q, "replayed"), 0);
        assert_eq!(q.lock().next_id, 1);
    }
}
