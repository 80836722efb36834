//! The destination side of one migration session: accept the stream,
//! rebuild the guest digest-by-digest, verify the content hash.
//!
//! The destination is deliberately dumb: it derives its initial state
//! from the [`ScenarioSpec`](vecycle_sim::ScenarioSpec) alone (same
//! deterministic construction as the source), applies each wire message
//! through [`SessionState`], and proves the result with an end-to-end FNV-1a
//! 64 hash. It never runs the engine, so agreement with the source is
//! evidence about the *protocol*, not a shared code path.
//!
//! Every byte of the session — HELLO to COMPLETE — is read through the
//! connection's one [`SessionStream`], so [`receive_stream`] costs a
//! `read` per 64 KiB of stream, not two per message. Reading ahead is
//! safe: this handler is the connection's only reader, and the source
//! sends nothing past COMPLETE until it has our DONE.
//!
//! Crash durability has two halves. Our own death: a journal-backed
//! daemon appends the messages it validated to the session's
//! `partial-*.bin` log ([`PartialLog`]), one chunk record every
//! [`crate::source::STREAM_CHUNK`] *applied* messages and at round
//! boundaries — bytes still in the read buffer die with the process
//! exactly as bytes in the kernel's socket buffer always did, so the
//! landed prefix is what was applied. The peer's death: every message
//! that arrived whole is applied first; the session is then still
//! alive to see the I/O error, so it logs the unfinished chunk and
//! keeps the exact current state in the in-memory partials map, keyed
//! by `(job, spec fingerprint)`, on that exit only. The log always
//! holds exactly the state's messages or does not exist: a failed
//! append deletes it, is reported once, and the session receives on
//! unlogged.
//! A later session for the same job announces the landed prefix in the
//! RESUME_STATE handshake; if the source rejects it (hash mismatch,
//! corrupt file) the state resets to the fresh base and the transfer
//! self-heals into a full one.

use std::io::{Read, Write};

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, PageLookup};
use vecycle_faults::{KillPoint, KillRole, KillSwitch};
use vecycle_net::WireMsg;
use vecycle_obs::Counter;
use vecycle_types::{HostId, SimTime, VmId};

use crate::endpoint::{SessionStream, Stream};
use crate::frame::{kind, read_frame, send_err, write_frame, Frame, MAX_PAYLOAD};
use crate::partial_log::PartialLog;
use crate::proto::{
    self, expect_kind, JobMsg, Offer, ResumeOk, ResumeState, ROLE_DEST, ROLE_SOURCE,
};
use crate::scenario;
use crate::server::DaemonState;
use crate::session_state::{self, spec_fingerprint, SessionState};
use crate::DaemonError;

/// Runs one inbound migration session whose HELLO frame has already
/// been read. On any error after the handshake the peer gets a
/// best-effort ERR frame before the connection drops. Returns the
/// source's job id (for the journal).
pub(crate) fn handle_migration(
    state: &DaemonState,
    s: &mut SessionStream<Stream>,
    hello: Frame,
) -> Result<u64, DaemonError> {
    match session(state, s, hello) {
        Ok(job) => Ok(job),
        Err(e) => {
            send_err(s, &e.to_string());
            Err(e)
        }
    }
}

fn session(
    state: &DaemonState,
    s: &mut SessionStream<Stream>,
    hello: Frame,
) -> Result<u64, DaemonError> {
    // Handshake: wrong magic or version is answered before dropping the
    // connection, so an old peer sees a typed refusal, not a hangup.
    let (_, role) = proto::parse_hello(&hello.payload)?;
    if role != ROLE_SOURCE {
        return Err(DaemonError::Protocol(format!(
            "inbound session opened with role {role}, want source"
        )));
    }
    write_frame(
        s,
        kind::HELLO_ACK,
        &proto::hello_payload(proto::VERSION, ROLE_DEST),
    )?;
    s.flush()?;

    // Job announcement.
    let job_frame = expect_kind(read_frame(s, MAX_PAYLOAD)?, kind::JOB, "JOB")?;
    let job = JobMsg::decode(&job_frame.payload)?;
    job.spec.validate().map_err(DaemonError::from)?;
    let spec = job.spec;
    let job_id = job.job;
    let fingerprint = spec_fingerprint(&spec);

    // Deterministic destination state. The checkpoint (when warm) is
    // recaptured from the spec — in a deployment it would come from the
    // checkpoint store; the wire protocol is identical either way.
    let pages = spec.pages();
    let initial = scenario::initial_memory(&spec)?;
    let index = spec
        .warm
        .then(|| Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial).build_index());
    let distinct = index.as_ref().map(|ix| ix.distinct() as u64).unwrap_or(0);

    // Admission: this host participates in at most one migration at a
    // time, same invariant the source's queue enforces on its side.
    state.kill.hit(KillRole::Dest, KillPoint::PreClaim);
    let _claim = state.locks.claim(&[HostId::new(spec.dest_host)]);

    write_frame(
        s,
        kind::OFFER,
        &Offer {
            has_checkpoint: index.is_some(),
            page_count: pages,
            distinct,
        }
        .encode(),
    )?;
    s.flush()?;

    let want_frame = expect_kind(read_frame(s, MAX_PAYLOAD)?, kind::WANT, "WANT")?;
    if want_frame.payload.len() as u64 != proto::WANT_LEN || want_frame.payload[0] > 1 {
        return Err(DaemonError::Corrupt("malformed WANT payload".into()));
    }
    if want_frame.payload[0] == 1 {
        let ix = index.as_ref().ok_or_else(|| {
            DaemonError::Protocol("source wants an index this side does not hold".into())
        })?;
        let mut buf = Vec::new();
        WireMsg::BulkExchange {
            digests: ix.digests().collect(),
        }
        .encode(&mut buf);
        s.write_all(&buf)?;
        s.flush()?;
    }

    // Resume handshake (epoch ≥ 1): announce whatever landed state
    // survived — the partial log (it outlives both deaths; when the
    // in-memory map also holds a state, the two are equal), else the
    // map alone (no journal, or a log that failed) — and let the source
    // verify it against its regenerated stream.
    let journal_dir = state.config.journal_dir.as_deref();
    let fresh_log = || {
        let dir = journal_dir?;
        PartialLog::create(dir, job_id, fingerprint)
            .map_err(|e| log_failed(state, job_id, &e))
            .ok()
    };
    let (mut session_state, log) = if job.resume > 0 {
        let fresh = SessionState::fresh(&spec, &initial);
        let remembered = state.partial_take(job_id, fingerprint);
        let loaded = journal_dir
            .and_then(|dir| PartialLog::load(dir, job_id, fingerprint, &fresh, index.as_ref()));
        let (st, log) = match (loaded, remembered) {
            (Some((st, log)), _) => {
                state
                    .metrics
                    .inc("daemon_resume_partials_total", &[("op", "load")], 1);
                (st, Some(log))
            }
            (None, Some(st)) => (st, None),
            (None, None) => (fresh, fresh_log()),
        };
        match resume_verdict(s, &st) {
            Ok(true) => (st, log),
            Ok(false) => {
                // Rejected: drop the bad partial and start from the base.
                drop(log);
                drop_partial(state, job_id, fingerprint);
                (SessionState::fresh(&spec, &initial), fresh_log())
            }
            Err(e) => {
                // The handshake died, the landed state did not: keep it
                // for the next epoch (its log, if any, is untouched).
                state.partial_put(job_id, fingerprint, st);
                return Err(e);
            }
        }
    } else {
        // Fresh epoch: any stale partial for this (job, spec) is from a
        // superseded attempt — never let it leak into a later resume.
        drop_partial(state, job_id, fingerprint);
        (SessionState::fresh(&spec, &initial), fresh_log())
    };

    // An in-memory daemon takes the unit hook: no per-message work.
    let mut logged = log.map(|log| SessionLog::new(state, job_id, fingerprint, log));
    let received = match &mut logged {
        Some(l) => receive_stream(s, index.as_ref(), &mut session_state, &state.kill, l),
        None => receive_stream(s, index.as_ref(), &mut session_state, &state.kill, &mut ()),
    };
    let complete = match received {
        Ok(complete) => complete,
        Err(e @ DaemonError::Io(_)) => {
            // Peer death before COMPLETE: the landed prefix is the whole
            // point — log what landed since the last boundary and keep
            // the state in memory for the resume attempt.
            if let Some(l) = &mut logged {
                l.boundary();
            }
            state.partial_put(job_id, fingerprint, session_state);
            return Err(e);
        }
        Err(e) => {
            // Protocol violation or corrupt payload: the state machine
            // itself is suspect, so the partial is poison. Drop it.
            drop_partial(state, job_id, fingerprint);
            return Err(e);
        }
    };

    // End-to-end verification: both sides hash the final digests.
    if complete.payload.len() as u64 != proto::COMPLETE_LEN {
        drop_partial(state, job_id, fingerprint);
        return Err(DaemonError::Corrupt(format!(
            "complete payload length {}",
            complete.payload.len()
        )));
    }
    let local = scenario::content_hash(session_state.mem());
    let ok = complete.payload[..] == local[..];
    state.kill.hit(KillRole::Dest, KillPoint::PreCommit);
    let mut done = [0u8; proto::DONE_LEN as usize];
    done[0] = u8::from(!ok);
    done[1..9].copy_from_slice(&local);
    write_frame(s, kind::DONE, &done)?;
    s.flush()?;
    drop_partial(state, job_id, fingerprint);
    if !ok {
        return Err(DaemonError::Corrupt(
            "reconstructed content hash differs from the source's".into(),
        ));
    }
    Ok(job_id)
}

/// The RESUME_STATE → RESUME_OK exchange: announces `st` and returns
/// whether the source accepted it (and will skip exactly its messages).
fn resume_verdict(s: &mut SessionStream<Stream>, st: &SessionState) -> Result<bool, DaemonError> {
    let announce = ResumeState {
        applied: st.applied(),
        round: st.expected_round(),
        finished: st.finished(),
        landed: st.landed_pages(),
        hash: st.state_hash(),
    };
    write_frame(s, kind::RESUME_STATE, &announce.encode())?;
    s.flush()?;
    let ok_frame = expect_kind(read_frame(s, MAX_PAYLOAD)?, kind::RESUME_OK, "RESUME_OK")?;
    let verdict = ResumeOk::decode(&ok_frame.payload)?;
    if verdict.accept && verdict.skip != st.applied() {
        return Err(DaemonError::Protocol(format!(
            "source accepted the resume but skips {} messages, we applied {}",
            verdict.skip,
            st.applied()
        )));
    }
    Ok(verdict.accept)
}

/// What [`receive_stream`] tells whoever persists the landed prefix.
/// `()` persists nothing.
pub trait Persist {
    /// `msg` was validated and applied.
    fn landed(&mut self, msg: &WireMsg);
    /// A persistence boundary: `STREAM_CHUNK` (64) messages, or a round
    /// or stop delimiter, landed since the last one.
    fn boundary(&mut self);
}

impl Persist for () {
    fn landed(&mut self, _msg: &WireMsg) {}
    fn boundary(&mut self) {}
}

/// Applies the data-plane stream through the shared state machine
/// until the stop-and-copy delimiter, and returns the COMPLETE frame
/// that follows it. `persist` is told each applied message, and of a
/// boundary every `STREAM_CHUNK` (64) applied messages and at each
/// round boundary; the kill switch is ticked once per message decoded,
/// before it is applied.
///
/// `r` is the session's reader: decoding costs a `read` per buffer, and
/// whatever follows StopEnd in the same buffer (the COMPLETE frame) is
/// still there for the frame read.
///
/// # Errors
///
/// [`DaemonError::Io`] when the stream ends or stalls mid-message — the
/// state then holds exactly the messages that arrived whole — and the
/// apply errors of [`SessionState::apply`].
pub fn receive_stream<R: Read, P: Persist>(
    r: &mut R,
    index: Option<&ChecksumIndex>,
    session_state: &mut SessionState,
    kill: &KillSwitch,
    persist: &mut P,
) -> Result<Frame, DaemonError> {
    let mut since_checkpoint = 0usize;
    while !session_state.finished() {
        let msg = WireMsg::read_from(r).map_err(DaemonError::from)?;
        kill.tick(KillRole::Dest, KillPoint::MidBulk);
        session_state.apply(&msg, index)?;
        persist.landed(&msg);
        since_checkpoint += 1;
        // Checkpoint on the same cadence the source buffers writes, so
        // a crash leaves a prefix the source's simulation can replay
        // exactly (any prefix verifies, but whole chunks keep the
        // persisted state close to what actually landed).
        if since_checkpoint >= crate::source::STREAM_CHUNK
            || matches!(msg, WireMsg::RoundEnd { .. } | WireMsg::StopEnd)
        {
            persist.boundary();
            since_checkpoint = 0;
        }
    }
    expect_kind(read_frame(r, MAX_PAYLOAD)?, kind::COMPLETE, "COMPLETE")
}

/// A journal-backed session's [`Persist`]: the partial log, until an
/// append fails.
struct SessionLog<'a> {
    state: &'a DaemonState,
    job_id: u64,
    fingerprint: u64,
    log: Option<PartialLog>,
    /// `daemon_resume_partials_total{op="save"}`, one per chunk record.
    saves: Counter,
}

impl<'a> SessionLog<'a> {
    fn new(state: &'a DaemonState, job_id: u64, fingerprint: u64, log: PartialLog) -> Self {
        let saves =
            (state.metrics).resolve_counter("daemon_resume_partials_total", &[("op", "save")]);
        SessionLog {
            state,
            job_id,
            fingerprint,
            log: Some(log),
            saves,
        }
    }
}

impl Persist for SessionLog<'_> {
    fn landed(&mut self, msg: &WireMsg) {
        if let Some(log) = &mut self.log {
            log.push(msg);
        }
    }

    fn boundary(&mut self) {
        let Some(log) = &mut self.log else { return };
        match log.commit() {
            Ok(true) => self.saves.inc(1),
            Ok(false) => {}
            Err(e) => {
                // The file now ends mid-record and will fall behind the
                // state: a stale shorter prefix must not be announced
                // later, so it goes, and the session receives on.
                self.log = None;
                if let Some(dir) = self.state.config.journal_dir.as_deref() {
                    session_state::drop_partial(dir, self.job_id, self.fingerprint);
                }
                log_failed(self.state, self.job_id, &e);
            }
        }
    }
}

/// The one line a session's partial log failing leaves in the daemon
/// log — once per session, however many chunks follow.
fn log_failed(state: &DaemonState, job_id: u64, e: &std::io::Error) {
    state.journal_push(format!(
        "partial log failed for job {job_id}, receiving unlogged: {e}"
    ));
}

/// Removes every trace of a partial state (job finished, or the state
/// was rejected/poisoned).
fn drop_partial(state: &DaemonState, job_id: u64, fingerprint: u64) {
    let had = state.partial_take(job_id, fingerprint).is_some();
    if let Some(dir) = state.config.journal_dir.as_deref() {
        session_state::drop_partial(dir, job_id, fingerprint);
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
    /// file — it would otherwise be announced later as a shorter, stale
    /// prefix — and leaves one line, however many chunks follow.
    #[test]
    fn a_failed_append_ends_the_log_and_is_reported_once() {
        let dir = std::env::temp_dir().join(format!("vecycle-dest-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = DaemonState {
            queue: Queue::new(),
            locks: Default::default(),
            metrics: Default::default(),
            log: Default::default(),
            wal: None,
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
        let mut hook = SessionLog::new(&state, job_id, fingerprint, PartialLog::at(full, 0));
        for idx in 0..5 * 64 {
            hook.landed(&WireMsg::Zero { idx });
            if idx % 64 == 63 {
                hook.boundary();
            }
        }
        assert!(hook.log.is_none());
        assert!(!path.exists(), "the stale prefix is gone");
        let lines = state.log.lock().unwrap().clone();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("job 3") && lines[0].contains("unlogged"));
        let saves = state
            .metrics
            .counter("daemon_resume_partials_total", &[("op", "save")]);
        assert_eq!(saves, 0);
    }
}
