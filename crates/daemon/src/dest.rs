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
//! The session opens in one flight each way. HELLO‖JOB arrive
//! together; a wrong magic, version or role is refused with ERR before
//! the JOB is read. HELLO_ACK means "accepted": it goes out once the job
//! validated, our state is built and the host is claimed, in one write
//! with the bulk exchange (vecycle jobs only — no other stream carries
//! checksum messages, so no other job builds an index) and RESUME_STATE
//! (resume epochs). DONE is our content hash; a mismatch with COMPLETE's
//! fails our session after DONE is sent, and the source's on receipt.
//!
//! Every byte of the session — HELLO to COMPLETE — is read through the
//! connection's one [`SessionStream`], so [`receive_stream`] costs a
//! `read` per 64 KiB of stream, not two per message, and no message
//! allocates: a full page's bytes are read into one page buffer the
//! stream reuses, checked against the digest filler there — at decode,
//! before the page lands — and the message applied and logged is
//! `idx ‖ digest`. Reading ahead is
//! safe: this handler is the connection's only reader, and the source
//! sends nothing past COMPLETE until it has our DONE. The destination
//! hashes its state as soon as StopEnd is applied and only then reads
//! COMPLETE, so its hash and the source's run at the same time.
//!
//! Crash durability (DESIGN §17.3): against our own death, a
//! journal-backed daemon logs the *applied* messages to the session's
//! `partial-*.bin` ([`PartialLog`]) every [`crate::source::STREAM_CHUNK`]
//! of them and at round boundaries — bytes still in the read buffer die
//! with the process exactly as bytes in the kernel's socket buffer
//! always did, so the landed prefix is what was applied. Against the
//! peer's, the session applies what arrived whole, logs the unfinished
//! chunk and keeps its exact state in the in-memory partials map, on
//! that exit only. The log holds exactly the state's messages or does
//! not exist: a failed append deletes it and is noted once. A later
//! session announces the landed prefix in RESUME_STATE; a rejected one
//! resets to the fresh base and the transfer self-heals into a full one.

use std::io::{Read, Write};

use vecycle_checkpoint::{ChecksumIndex, PageLookup};
use vecycle_faults::{KillPoint, KillRole, KillSwitch};
use vecycle_net::{wire, wiremsg, WireMsg};
use vecycle_obs::Counter;
use vecycle_types::{HostId, PAGE_SIZE};

use crate::endpoint::{SessionStream, Stream};
use crate::frame::{frame_cost, kind, read_frame, write_frame, Frame, MAX_PAYLOAD};
use crate::partial_log::PartialLog;
use crate::proto::{self, expect_kind, JobMsg, ResumeState, ROLE_DEST, ROLE_SOURCE};
use crate::scenario;
use crate::server::DaemonState;
use crate::session_state::{self, spec_fingerprint, SessionState};
use crate::{sync, DaemonError};

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
    let job_id = job.job;
    let fingerprint = spec_fingerprint(&spec);

    // Deterministic destination state. The checkpoint is recaptured from
    // the spec — in a deployment it would come from the checkpoint store;
    // the wire protocol is identical either way. Only a vecycle stream
    // carries checksum messages, so only a vecycle job needs the index.
    let initial = scenario::initial_memory(&spec)?;
    let index = (spec.strategy == "vecycle").then(|| ChecksumIndex::from_pages(initial.as_slice()));

    // Admission: this host participates in at most one migration at a
    // time, same invariant the source's queue enforces on its side.
    state.kill.hit(KillRole::Dest, KillPoint::PreClaim);
    let _claim = state.locks.claim(&[HostId::new(spec.dest_host)]);

    // A resume epoch announces whatever landed state survived — the
    // partial log (it outlives both deaths; when the in-memory map also
    // holds a state, the two are equal), else the map alone (no journal,
    // or a log that failed) — and lets the source verify it against its
    // regenerated stream.
    let journal_dir = state.config.journal_dir.as_deref();
    let fresh_log = || {
        let dir = journal_dir?;
        PartialLog::create(dir, job_id, fingerprint)
            .map_err(|e| log_failed(state, job_id, &e))
            .ok()
    };
    let resumed = (job.resume > 0).then(|| {
        let fresh = SessionState::fresh(&spec, &initial);
        let remembered = sync::lock(&state.partials).remove(&(job_id, fingerprint));
        let loaded = journal_dir
            .and_then(|dir| PartialLog::load(dir, job_id, fingerprint, &fresh, index.as_ref()));
        match (loaded, remembered) {
            (Some((st, log)), _) => {
                state
                    .metrics
                    .inc("daemon_resume_partials_total", &[("op", "load")], 1);
                (st, Some(log))
            }
            (None, Some(st)) => (st, None),
            (None, None) => (fresh, fresh_log()),
        }
    });

    // One flight back: HELLO_ACK (the job is accepted), the bulk exchange
    // for a vecycle job, encoded straight from the index, RESUME_STATE for
    // a resume epoch — into a buffer sized for exactly that.
    let bulk = index
        .as_ref()
        .map_or(0, |ix| wire::bulk_exchange(ix.distinct() as u64).as_u64());
    let announce = if resumed.is_some() {
        frame_cost(proto::RESUME_STATE_LEN)
    } else {
        0
    };
    let mut reply = Vec::with_capacity((frame_cost(proto::HELLO_LEN) + bulk + announce) as usize);
    let ack = proto::hello_payload(proto::VERSION, ROLE_DEST);
    write_frame(&mut reply, kind::HELLO_ACK, &ack)?;
    if let Some(ix) = &index {
        wiremsg::encode_bulk_exchange(ix.sorted(), &mut reply);
    }
    if let Some((st, _)) = &resumed {
        let announce = ResumeState {
            applied: st.applied(),
            hash: st.state_hash(),
        };
        write_frame(&mut reply, kind::RESUME_STATE, &announce.encode())?;
    }
    let sent = s.write_all(&reply).and_then(|()| s.flush());

    let (mut session_state, log) = match resumed {
        None => {
            sent?;
            // Fresh epoch: any stale partial for this (job, spec) is from
            // a superseded attempt — never let it leak into a later resume.
            drop_partial(state, job_id, fingerprint);
            (SessionState::fresh(&spec, &initial), fresh_log())
        }
        // Accepting means skipping exactly the announced messages; a
        // source that skipped anything else fails the end-to-end content
        // hash at COMPLETE/DONE.
        Some((st, log)) => match sent.map_err(DaemonError::from).and_then(|()| {
            let ok = expect_kind(read_frame(s, MAX_PAYLOAD)?, kind::RESUME_OK, "RESUME_OK")?;
            proto::parse_flag(&ok.payload, "resume-ok")
        }) {
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
                sync::lock(&state.partials).insert((job_id, fingerprint), st);
                return Err(e);
            }
        },
    };

    // An in-memory daemon takes the unit hook: no per-message work.
    let mut logged = log.map(|log| SessionLog::new(state, job_id, fingerprint, log));
    let received = match &mut logged {
        Some(l) => receive_stream(s, index.as_ref(), &mut session_state, &state.kill, l),
        None => receive_stream(s, index.as_ref(), &mut session_state, &state.kill, &mut ()),
    };
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
            // Peer death before COMPLETE: the landed prefix is the whole
            // point — log what landed since the last boundary and keep
            // the state in memory for the resume attempt.
            if let Some(l) = &mut logged {
                l.boundary();
            }
            sync::lock(&state.partials).insert((job_id, fingerprint), session_state);
            return Err(e);
        }
        Err(e) => {
            // Protocol violation or corrupt payload: the state machine
            // itself is suspect, so the partial is poison. Drop it.
            drop_partial(state, job_id, fingerprint);
            return Err(e);
        }
    };

    state.kill.hit(KillRole::Dest, KillPoint::PreCommit);
    write_frame(s, kind::DONE, &local)?;
    s.flush()?;
    drop_partial(state, job_id, fingerprint);
    if complete != local {
        return Err(DaemonError::Corrupt(
            "reconstructed content hash differs from the source's".into(),
        ));
    }
    Ok(job_id)
}

/// What [`receive_stream`] tells whoever persists the landed prefix.
/// `()` persists nothing.
pub trait Persist {
    /// `msg` was validated and applied; a `Full` comes in its landed
    /// `idx ‖ digest` form.
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
/// up to and including the stop-and-copy delimiter. `persist` is told
/// each applied message, and of a boundary every `STREAM_CHUNK` (64)
/// applied messages and at each round boundary; the kill switch is
/// ticked once per message decoded, before it is applied.
///
/// `r` is the session's reader: decoding costs a `read` per buffer, and
/// whatever follows StopEnd in the same buffer (the COMPLETE frame) is
/// still there for the caller's next frame read. A full page's bytes are
/// read into one page buffer that serves the whole stream and checked
/// against the digest filler there; what lands is `idx ‖ digest`. No
/// message allocates.
///
/// # Errors
///
/// [`DaemonError::Io`] when the stream ends or stalls mid-message — the
/// state then holds exactly the messages that arrived whole — a
/// [`DaemonError::Corrupt`] full page that is not its digest's filler,
/// and the apply errors of [`SessionState::apply`].
pub fn receive_stream<R: Read, P: Persist>(
    r: &mut R,
    index: Option<&ChecksumIndex>,
    session_state: &mut SessionState,
    kill: &KillSwitch,
    persist: &mut P,
) -> Result<(), DaemonError> {
    // On the heap: a 4 KiB array in this frame slowed every message's
    // decode and apply, full page or not.
    let mut page = Box::new([0u8; PAGE_SIZE as usize]);
    let mut since_checkpoint = 0usize;
    while !session_state.finished() {
        let msg = WireMsg::read_landed(r, &mut page).map_err(DaemonError::from)?;
        kill.tick(KillRole::Dest, KillPoint::MidBulk);
        if let WireMsg::Full { idx, digest, .. } = &msg {
            session_state::check_filler(*idx, &page[..], digest)?;
        }
        session_state.apply(&msg, index)?;
        persist.landed(&msg);
        since_checkpoint += 1;
        // Checkpoint every STREAM_CHUNK applied messages, whatever the
        // source's write size: any prefix verifies (the source replays
        // it before skipping), and whole chunks keep the persisted state
        // close to what actually landed.
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
    state.queue.note(format!(
        "partial log failed for job {job_id}, receiving unlogged: {e}"
    ));
}

/// Removes every trace of a partial state (job finished, or the state
/// was rejected/poisoned).
fn drop_partial(state: &DaemonState, job_id: u64, fingerprint: u64) {
    let had = sync::lock(&state.partials)
        .remove(&(job_id, fingerprint))
        .is_some();
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
        let mut hook = SessionLog::new(&state, job_id, fingerprint, PartialLog::at(full, 0));
        for idx in 0..5 * 64 {
            hook.landed(&WireMsg::Zero { idx });
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
