//! The destination side of one migration session: accept the stream,
//! rebuild the guest digest-by-digest, verify the content hash.
//!
//! The destination is deliberately dumb: it derives its initial state
//! from the [`ScenarioSpec`](vecycle_sim::ScenarioSpec) alone (same
//! deterministic construction as the source), applies each wire message
//! through [`SessionState`], and proves the result with an end-to-end
//! content hash ([`scenario::content_hash`]). It never runs the engine,
//! so agreement with the source is evidence about the *protocol*, not a
//! shared code path.
//!
//! The session opens in one flight each way. HELLO‖JOB arrive
//! together; a wrong magic, version or role is refused with ERR before
//! the JOB is read. HELLO_ACK means "accepted": it goes out once the job
//! validated, our state is built and the host is claimed, through one
//! 64 KiB chunk with any bulk exchange ([`accept`]: the keys, in map
//! order, of the index the stream probes — [`scenario::offer`]'s: a
//! vecycle job's checkpoint, at a retry epoch the landed pages). DONE
//! is our content hash; a mismatch with COMPLETE's fails our session
//! after DONE is sent, and the source's on receipt.
//!
//! Every byte of the session — HELLO to COMPLETE — is read through the
//! connection's one [`SessionStream`], so [`receive_stream`] costs a
//! `read` per 64 KiB of stream, not two per message, and no message
//! allocates: the decoder checks a full page against its digest's
//! filler and hands over `idx ‖ digest`, before the page lands. Reading
//! ahead is safe: this handler is the connection's only reader, and the
//! source sends nothing past COMPLETE until it has our DONE. The
//! destination hashes its state as soon as StopEnd is applied and only
//! then reads COMPLETE, so its hash and the source's run at the same
//! time.
//!
//! Crash durability (DESIGN §17.3): a retry is a recycle, so what must
//! survive an attempt is only its *landed pages*. Against our own death,
//! a journal-backed daemon logs each applied page as `idx ‖ digest` to
//! the job's `partial-*.bin` ([`PartialLog`]) every
//! [`crate::source::STREAM_CHUNK`] messages and at round boundaries —
//! bytes still in the read buffer die with the process exactly as bytes
//! in the kernel's socket buffer always did. Against the peer's, the
//! session applies what arrived whole, logs the unfinished chunk and
//! keeps the landed pages in the in-memory partials map (at most
//! [`PARTIALS_CAP`] jobs), on that exit only. A later epoch recycles them:
//! it starts a fresh state and offers the landed digests in its bulk
//! exchange, and its own pages land over them.

use std::io::{Read, Write};

use vecycle_checkpoint::{ChecksumIndex, PartialCheckpoint};
use vecycle_faults::{KillPoint, KillRole, KillSwitch};
use vecycle_mem::DigestMemory;
use vecycle_net::{wire, wiremsg, WireMsg};
use vecycle_obs::Counter;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{sync, HostId, PageDigest, VmId};

use crate::endpoint::{SessionStream, Stream, SESSION_BUF};
use crate::frame::{frame_cost, kind, read_frame, write_frame, Frame, MAX_PAYLOAD};
use crate::partial_log::PartialLog;
use crate::proto::{self, expect_kind, JobMsg, ROLE_DEST, ROLE_SOURCE};
use crate::scenario;
use crate::server::DaemonState;
use crate::session_state::{self, spec_fingerprint, SessionState};
use crate::DaemonError;

/// Most jobs whose landed pages the in-memory partials map keeps. Only
/// the same job reconnecting takes its entry back; one cancelled
/// mid-transfer or out of retries never does, so past this many the
/// oldest entry goes.
pub(crate) const PARTIALS_CAP: usize = 16;

/// A job's partial state key: `(job id, spec fingerprint)`.
type Key = (u64, u64);

/// Runs one inbound migration session whose HELLO frame has already
/// been read, returning the source's job id. On an error the caller owes
/// the peer a best-effort ERR frame before the connection drops.
pub(crate) fn session(
    state: &DaemonState,
    s: &mut SessionStream<Stream>,
    hello: Frame,
) -> Result<u64, DaemonError> {
    // A wrong magic, version or role is refused before the JOB is read,
    // so an old peer sees a typed refusal, not a hangup.
    let (_, role) = proto::parse_hello(&hello.payload)?;
    if role != ROLE_SOURCE {
        return Err(DaemonError::Protocol(format!(
            "inbound session opened with role {role}, want source"
        )));
    }

    // The job announcement follows HELLO unasked.
    let job_frame = expect_kind(read_frame(s, MAX_PAYLOAD)?, kind::JOB, "JOB")?;
    let job = JobMsg::decode(&job_frame.payload)?;
    job.spec.validate().map_err(DaemonError::from)?;
    let spec = job.spec;
    let key = (job.job, spec_fingerprint(&spec));

    // Deterministic destination state. The checkpoint is recaptured from
    // the spec — in a deployment it would come from the checkpoint store;
    // the wire protocol is identical either way — and only when something
    // reads it: a warm state starts from it, a vecycle job offers it.
    let initial = (spec.warm || spec.strategy == "vecycle")
        .then(|| scenario::initial_memory(&spec))
        .transpose()?;

    // Admission: this host participates in at most one migration at a
    // time, same invariant the source's queue enforces on its side.
    state.kill.hit(KillRole::Dest, KillPoint::PreClaim);
    let _claim = state.locks.claim(&[HostId::new(spec.dest_host)]);

    // A retry epoch recycles whatever earlier epochs landed; the index
    // over it (and, for a vecycle job, the checkpoint) is the exchange.
    let retry = (job.resume > 0).then(|| recover(state, &spec, key));
    let landed = retry.as_ref().map(|(p, _)| p);
    let checkpoint = initial.as_ref().map_or(&[][..], DigestMemory::as_slice);
    let index = scenario::offer(&spec, checkpoint, landed);
    let sent = accept(s, index.as_ref());

    let (partial, log, sent) = match retry {
        Some((partial, log)) => (Some(partial), log, sent),
        None => {
            sent?;
            // Fresh epoch: any stale partial for this (job, spec) is from
            // a superseded attempt — never let it leak into a later retry.
            drop_partial(state, key);
            (None, fresh_log(state, key), Ok(()))
        }
    };

    // A warm state takes the checkpoint image over as its pages, so the
    // job holds it once. An in-memory daemon takes the unit hook: no
    // per-message work.
    let mut session_state = SessionState::new(&spec, initial);
    let mut logged = log.map(|log| SessionLog::new(state, key, log));
    let received = sent
        .map_err(DaemonError::from)
        .and_then(|()| match &mut logged {
            Some(l) => receive_stream(s, index.as_ref(), &mut session_state, &state.kill, l),
            None => receive_stream(s, index.as_ref(), &mut session_state, &state.kill, &mut ()),
        });
    // End-to-end verification: both sides hash the final digests. Ours
    // runs while the source hashes its guest, before COMPLETE arrives.
    let verified = received.and_then(|()| {
        let local = scenario::content_hash(session_state.mem());
        let complete = expect_kind(read_frame(s, MAX_PAYLOAD)?, kind::COMPLETE, "COMPLETE")?;
        let complete: [u8; proto::COMPLETE_LEN as usize] =
            proto::fixed(&complete.payload, "complete")?;
        Ok((local, complete))
    });
    let (local, complete) = match verified {
        Ok(verified) => verified,
        Err(e @ DaemonError::Io(_)) => {
            // Peer death before COMPLETE: log what landed since the last
            // boundary and keep the landed pages for the next epoch.
            if let Some(l) = &mut logged {
                l.boundary();
            }
            let vm = VmId::new(spec.vm);
            let partial = partial.unwrap_or_else(|| PartialCheckpoint::empty(vm, spec.pages()));
            keep_partial(state, key, partial.overlaid(session_state.landed()));
            return Err(e);
        }
        Err(e) => {
            // Protocol violation or corrupt payload: the state machine
            // itself is suspect, so the partial is poison. Drop it.
            drop_partial(state, key);
            return Err(e);
        }
    };

    state.kill.hit(KillRole::Dest, KillPoint::PreCommit);
    write_frame(s, kind::DONE, &local)?;
    s.flush()?;
    drop_partial(state, key);
    if complete != local {
        return Err(DaemonError::Corrupt(
            "reconstructed content hash differs from the source's".into(),
        ));
    }
    Ok(key.0)
}

/// Accepts the job: writes HELLO_ACK and, if we offer an index, the
/// bulk exchange of its distinct digests through one chunk of at most
/// [`SESSION_BUF`] (64 KiB), and flushes.
///
/// # Errors
///
/// The first error writing to `w`.
pub fn accept<W: Write>(w: &mut W, index: Option<&ChecksumIndex>) -> std::io::Result<()> {
    let bulk = index.map_or(0, |i| wire::bulk_exchange(i.distinct() as u64).as_u64());
    let reply = (frame_cost(proto::HELLO_LEN) + bulk) as usize;
    let mut chunk = Vec::with_capacity(reply.min(SESSION_BUF));
    let ack = proto::hello_payload(proto::VERSION, ROLE_DEST);
    write_frame(&mut chunk, kind::HELLO_ACK, &ack)?;
    if let Some(index) = index {
        wiremsg::write_bulk_exchange(index.distinct_digests(), &mut chunk, w)?;
    }
    w.write_all(&chunk)?;
    w.flush()
}

/// What earlier epochs of job `key` landed here, and the log to keep
/// appending to: the partial log (it outlives both deaths; when the
/// in-memory map also holds the pages, the two are equal), else the map
/// alone (no journal, or a log that failed), else nothing landed and a
/// fresh log.
fn recover(
    state: &DaemonState,
    spec: &ScenarioSpec,
    key: Key,
) -> (PartialCheckpoint, Option<PartialLog>) {
    let remembered = take_partial(state, key);
    let loaded = (state.config.journal_dir.as_deref())
        .and_then(|dir| PartialLog::load(dir, key.0, key.1, spec.pages()));
    let vm = VmId::new(spec.vm);
    match (loaded, remembered) {
        (Some((landed, log)), _) => {
            state
                .metrics
                .inc("daemon_resume_partials_total", &[("op", "load")], 1);
            (PartialCheckpoint::new(vm, landed), Some(log))
        }
        (None, Some(partial)) => (partial, None),
        (None, None) => (
            PartialCheckpoint::empty(vm, spec.pages()),
            fresh_log(state, key),
        ),
    }
}

/// A fresh partial log for `key`, when the daemon is journal-backed and
/// the file can be created.
fn fresh_log(state: &DaemonState, (job_id, fingerprint): Key) -> Option<PartialLog> {
    let dir = state.config.journal_dir.as_deref()?;
    PartialLog::create(dir, job_id, fingerprint)
        .map_err(|e| log_failed(state, job_id, &e))
        .ok()
}

/// Takes job `key`'s landed pages out of the in-memory map.
fn take_partial(state: &DaemonState, key: Key) -> Option<PartialCheckpoint> {
    let mut partials = sync::lock(&state.partials);
    let at = partials.iter().position(|(k, _)| *k == key)?;
    partials.remove(at).map(|(_, partial)| partial)
}

/// Keeps job `key`'s landed pages in the in-memory map, the oldest
/// entry dropped (and counted) past [`PARTIALS_CAP`].
fn keep_partial(state: &DaemonState, key: Key, partial: PartialCheckpoint) {
    let mut partials = sync::lock(&state.partials);
    partials.push_back((key, partial));
    if partials.len() > PARTIALS_CAP {
        partials.pop_front();
        state
            .metrics
            .inc("daemon_resume_partials_total", &[("op", "drop")], 1);
    }
}

/// What [`receive_stream`] tells whoever persists the landed pages.
/// `()` persists nothing.
pub trait Persist {
    /// A validated, applied message wrote page `idx`, which now holds
    /// `digest` (a dedup reference's resolved content, a zero marker's
    /// zero page). Round delimiters write no page.
    fn landed(&mut self, idx: u64, digest: PageDigest);
    /// A persistence boundary: `STREAM_CHUNK` (64) messages, or a round
    /// or stop delimiter, landed since the last one.
    fn boundary(&mut self);
}

impl Persist for () {
    fn landed(&mut self, _idx: u64, _digest: PageDigest) {}
    fn boundary(&mut self) {}
}

/// Applies the data-plane stream through the state machine up to and
/// including the stop-and-copy delimiter. `persist` is told each page
/// an applied message wrote, and of a boundary every `STREAM_CHUNK` (64)
/// applied messages and at each round boundary; the kill switch is
/// hit once per message decoded, before it is applied.
///
/// `r` is the session's reader: decoding costs a `read` per buffer, and
/// whatever follows StopEnd in the same buffer (the COMPLETE frame) is
/// still there for the caller's next frame read. No message allocates.
///
/// # Errors
///
/// [`DaemonError::Io`] when the stream ends or stalls mid-message — the
/// state then holds exactly the messages that arrived whole — the
/// decoder's [`DaemonError::Corrupt`] (a full page that is not its
/// digest's filler among them), and the apply errors of
/// [`SessionState::apply`].
pub fn receive_stream<R: Read, P: Persist>(
    r: &mut R,
    index: Option<&ChecksumIndex>,
    session_state: &mut SessionState,
    kill: &KillSwitch,
    persist: &mut P,
) -> Result<(), DaemonError> {
    let mut since_checkpoint = 0usize;
    while !session_state.finished() {
        let msg = WireMsg::read_from(r)?;
        kill.hit(KillRole::Dest, KillPoint::MidBulk);
        session_state.apply(&msg, index)?;
        if let WireMsg::Full { idx, .. }
        | WireMsg::Checksum { idx, .. }
        | WireMsg::DedupRef { idx, .. }
        | WireMsg::Zero { idx } = msg
        {
            persist.landed(idx, session_state.mem()[idx as usize]);
        }
        since_checkpoint += 1;
        // Checkpoint every STREAM_CHUNK applied messages, whatever the
        // source's write size: any landed prefix is a recycle base, and
        // whole chunks keep the persisted pages close to what landed.
        if since_checkpoint >= crate::source::STREAM_CHUNK
            || matches!(msg, WireMsg::RoundEnd { .. } | WireMsg::StopEnd)
        {
            persist.boundary();
            since_checkpoint = 0;
        }
    }
    Ok(())
}

/// A journal-backed session's [`Persist`]: the partial log, until an
/// append fails.
struct SessionLog<'a> {
    state: &'a DaemonState,
    key: Key,
    log: Option<PartialLog>,
    /// `daemon_resume_partials_total{op="save"}`, one per chunk record.
    saves: Counter,
}

impl<'a> SessionLog<'a> {
    fn new(state: &'a DaemonState, key: Key, log: PartialLog) -> Self {
        let saves =
            (state.metrics).resolve_counter("daemon_resume_partials_total", &[("op", "save")]);
        SessionLog {
            state,
            key,
            log: Some(log),
            saves,
        }
    }
}

impl Persist for SessionLog<'_> {
    fn landed(&mut self, idx: u64, digest: PageDigest) {
        if let Some(log) = &mut self.log {
            log.push(idx, digest);
        }
    }

    fn boundary(&mut self) {
        let Some(log) = &mut self.log else { return };
        match log.commit() {
            Ok(true) => self.saves.inc(1),
            Ok(false) => {}
            Err(e) => {
                // The file now ends mid-record and falls behind the
                // in-memory pages, which a later epoch should recycle
                // instead: it goes, and the session receives on.
                self.log = None;
                if let Some(dir) = self.state.config.journal_dir.as_deref() {
                    session_state::drop_partial(dir, self.key.0, self.key.1);
                }
                log_failed(self.state, self.key.0, &e);
            }
        }
    }
}

/// The one line a session's partial log failing leaves in the daemon
/// log — once per session, however many chunks follow.
fn log_failed(state: &DaemonState, job_id: u64, e: &std::io::Error) {
    state.queue.note(format!(
        "partial log failed for job {job_id}, receiving unlogged: {e}"
    ));
}

/// Removes every trace of a job's landed pages (job finished, or the
/// stream poisoned).
fn drop_partial(state: &DaemonState, key: Key) {
    let had = take_partial(state, key).is_some();
    if let Some(dir) = state.config.journal_dir.as_deref() {
        session_state::drop_partial(dir, key.0, key.1);
    }
    if had {
        state
            .metrics
            .inc("daemon_resume_partials_total", &[("op", "drop")], 1);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::queue::Queue;
    use crate::server::DaemonConfig;

    /// A disk that fills mid-session (`/dev/full` behind the append
    /// handle): the first failed append stops the logging, removes the
    /// file — a later epoch would otherwise recycle its shorter prefix
    /// instead of the in-memory pages — and leaves one line, however
    /// many chunks follow.
    #[test]
    fn a_failed_append_ends_the_log_and_is_reported_once() {
        let dir = std::env::temp_dir().join(format!("vecycle-dest-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = DaemonState {
            queue: Queue::open(None, Default::default()).unwrap(),
            locks: Default::default(),
            metrics: Default::default(),
            partials: Default::default(),
            kill: KillSwitch::inert(),
            config: DaemonConfig::new(crate::Endpoint::parse("127.0.0.1:0"))
                .with_journal_dir(dir.clone()),
        };
        let (job_id, fingerprint) = (3, 0xf00d);
        drop(PartialLog::create(&dir, job_id, fingerprint).unwrap());
        let path = session_state::partial_path(&dir, job_id, fingerprint);
        assert!(path.exists());

        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let mut hook = SessionLog::new(&state, (job_id, fingerprint), PartialLog::at(full));
        for idx in 0..5 * 64 {
            hook.landed(idx, PageDigest::ZERO_PAGE);
            if idx % 64 == 63 {
                hook.boundary();
            }
        }
        assert!(hook.log.is_none());
        assert!(!path.exists(), "the stale prefix is gone");
        let lines = state.queue.journal();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("job 3") && lines[0].contains("unlogged"));
        let saves = state
            .metrics
            .counter("daemon_resume_partials_total", &[("op", "save")]);
        assert_eq!(saves, 0);
    }
}
