//! The source side of one migration session: run the engine into the
//! socket, verify the destination, reconcile bytes.
//!
//! The session hands the engine a [`SocketSink`]: every page message
//! and round delimiter is encoded into the sink's chunk the moment
//! [`migrate_live_into`](vecycle_core::MigrationEngine::migrate_live_into)
//! emits it, and written once the chunk holds at least [`SESSION_BUF`]
//! (64 KiB) and [`STREAM_CHUNK`] messages. All migration
//! timing is simulated (the engine prices every round analytically) and
//! the sink is a pure observer, so real socket latency can never
//! perturb the report — bit-identity with the in-process engine is
//! structural, and the interesting cross-process property is the
//! byte/ledger reconciliation.
//!
//! Buffers: outbound, one chunk per session, allocated at the most a
//! chunk can hold (64 full pages) and reused for every write; a message
//! is encoded straight into it — a full page's filler from its digest —
//! so no page message allocates. (The opening flight and the control
//! frames are small buffers of their own.) Inbound, the session's one
//! [`SessionStream`], through which every reply frame and the bulk
//! checksum exchange are read (the exchange in 16 KiB steps, not one
//! `read` per digest). The validated exchange becomes the index as it
//! is: no copy, no sort.
//!
//! The session opens in one flight each way: HELLO‖JOB out, then the
//! guest is built while the destination builds its own state; back
//! come HELLO_ACK, the bulk exchange for a vecycle job and RESUME_STATE
//! for a resume epoch. The spec in JOB already says what the
//! destination holds, so nothing is negotiated. DONE carries the
//! destination's content hash, which the source compares with its own.
//!
//! Because the stream is a pure function of the spec, an interrupted
//! transfer resumes by *regenerating* it: the sink holds back the
//! prefix the destination announced while replaying it through the same
//! [`SessionState`] machine, and the moment the prefix is complete the
//! state hashes decide — equal, and the held messages are dropped
//! (skipped); different, and they are sent after all. The resumed
//! session's ledger then reconciles as
//! `tx = source_traffic − skipped_bytes + overheads`, which is what the
//! chaos harness pins.

use std::io::Write;

use vecycle_checkpoint::ChecksumIndex;
use vecycle_core::{LiveOutcome, MsgSink, PageMsg};
use vecycle_faults::{KillPoint, KillRole, KillSwitch};
use vecycle_net::{wire, wiremsg, WireMsg};
use vecycle_sim::ScenarioSpec;
use vecycle_types::{Bytes, PageDigest};

use crate::endpoint::{SessionStream, SESSION_BUF};
use crate::frame::{kind, read_frame, write_frame, MAX_PAYLOAD};
use crate::proto::{
    self, expect_kind, forward_overhead, forward_resume_overhead, reverse_overhead,
    reverse_resume_overhead, JobMsg, ResumeState, ROLE_DEST, ROLE_SOURCE,
};
use crate::queue::Measured;
use crate::scenario;
use crate::server::DaemonState;
use crate::session_state::SessionState;
use crate::{DaemonError, Endpoint};

/// Applied messages per destination persistence boundary, and the
/// fewest messages the source puts in one socket write. The two need not
/// agree: any applied prefix resumes, because the source re-simulates
/// it before skipping a byte.
pub(crate) const STREAM_CHUNK: usize = 64;

/// What a completed source-side session hands back to the queue.
pub(crate) type SessionOutcome = (vecycle_core::MigrationReport, Measured);

/// Runs job `job_id` against `peer`, retrying I/O failures (peer died,
/// connection refused while it restarts, socket timeout) up to
/// `config.retries` times with `config.backoff` between attempts. Each
/// retry bumps the resume epoch, so the next session opens with the
/// reconnect/resume handshake instead of a fresh transfer. Non-I/O
/// errors (protocol violations, ledger mismatches, corrupt payloads)
/// are never retried — retrying cannot fix a model bug.
pub(crate) fn run_job_with_recovery(
    state: &DaemonState,
    job_id: u64,
    spec: &ScenarioSpec,
    peer: &Endpoint,
    start_epoch: u64,
) -> Result<SessionOutcome, DaemonError> {
    let mut epoch = start_epoch;
    let mut attempt = 0u32;
    loop {
        match run_job(state, job_id, spec, peer, epoch) {
            Ok(outcome) => return Ok(outcome),
            Err(DaemonError::Io(e)) if attempt < state.config.retries => {
                attempt += 1;
                epoch += 1;
                state.queue.retry(job_id, epoch, &e);
                std::thread::sleep(state.config.backoff);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs one session of job `job_id` against the peer daemon at `peer`.
/// `epoch` 0 is the fresh wire flow; epoch ≥ 1 adds the RESUME_STATE /
/// RESUME_OK exchange after the bulk exchange.
pub(crate) fn run_job(
    state: &DaemonState,
    job_id: u64,
    spec: &ScenarioSpec,
    peer: &Endpoint,
    epoch: u64,
) -> Result<SessionOutcome, DaemonError> {
    let config = &state.config;
    let stream = peer.connect()?;
    stream.set_io_timeout(Some(config.io_timeout))?;
    // The session's one reader: every frame and the bulk exchange come
    // through its buffer; writes go straight to the counted socket.
    let mut s = SessionStream::new(stream);

    // One flight: HELLO‖JOB in one write. The destination answers only
    // once it has validated the job, built its state and claimed its
    // host, so build the guest meanwhile — the two constructions overlap.
    let job_json = JobMsg {
        job: job_id,
        resume: epoch,
        spec: spec.clone(),
    }
    .encode();
    let mut opening = Vec::new();
    let hello = proto::hello_payload(proto::VERSION, ROLE_SOURCE);
    write_frame(&mut opening, kind::HELLO, &hello)?;
    write_frame(&mut opening, kind::JOB, job_json.as_bytes())?;
    s.write_all(&opening)?;
    s.flush()?;
    let initial = scenario::initial_memory(spec)?;
    let (mut guest, mut workload) = scenario::live_guest(spec, &initial)?;

    // HELLO_ACK: the job is accepted.
    let ack = expect_kind(
        read_frame(&mut s, MAX_PAYLOAD)?,
        kind::HELLO_ACK,
        "HELLO_ACK",
    )?;
    let (_, role) = proto::parse_hello(&ack.payload)?;
    if role != ROLE_DEST {
        return Err(DaemonError::Protocol(format!(
            "peer answered the handshake with role {role}"
        )));
    }

    // The bulk exchange follows for a vecycle job, and only for one.
    let index = if spec.strategy == "vecycle" {
        let WireMsg::BulkExchange { digests } = WireMsg::read_from(&mut s)? else {
            return Err(DaemonError::Protocol(
                "expected the bulk checksum exchange".into(),
            ));
        };
        // The wire form is the sorted, distinct digest list: at most one
        // digest per page, and it becomes the index as it is.
        if digests.len() as u64 > spec.pages() {
            return Err(DaemonError::Corrupt(format!(
                "bulk exchange carried {} digests for {} pages",
                digests.len(),
                spec.pages()
            )));
        }
        let index = ChecksumIndex::from_sorted(digests).map_err(|at| {
            DaemonError::Corrupt(format!(
                "bulk exchange digests {at} and {} are not strictly ascending",
                at + 1
            ))
        })?;
        Some(index)
    } else {
        None
    };

    // Resume handshake, first half: the destination reports its landed
    // prefix. The verdict falls out of the stream itself — the sink
    // answers RESUME_OK the moment it has regenerated that prefix.
    let resume = if epoch > 0 {
        let announced = read_frame(&mut s, MAX_PAYLOAD)?;
        let announced = expect_kind(announced, kind::RESUME_STATE, "RESUME_STATE")?;
        state.metrics.inc("daemon_resume_attempts_total", &[], 1);
        Some(HeldPrefix {
            announced: ResumeState::decode(&announced.payload)?,
            sim: SessionState::fresh(spec, &initial),
            index: index.clone(),
            held: Vec::new(),
        })
    } else {
        None
    };
    // The guest and the resume simulator hold their own copies: the
    // stream runs without a spare guest-sized table.
    drop(initial);

    // Run the migration into the socket. Message sizes are the analytic
    // prices, and each round's Control header is the RoundEnd/StopEnd
    // delimiter — the forward ledger total IS the data-plane byte count.
    let strategy = scenario::wire_strategy(spec, index)?;
    let mut sink = SocketSink::start(
        &mut s,
        &state.kill,
        |landed| state.queue.progress(job_id, landed),
        resume,
    );
    let outcome = scenario::engine_for(spec).migrate_live_into(
        &mut guest,
        &mut workload,
        strategy,
        &mut sink,
    )?;
    let LiveOutcome::Completed(report) = outcome else {
        unreachable!("the socket sink parks i/o errors, it never reports the link dead")
    };
    let flushed = sink.finish();
    let (skip, skipped_bytes, total) = (sink.skipped_msgs, sink.skipped_bytes, sink.position);
    if let Some(accept) = sink.verdict {
        let result = if accept { "accepted" } else { "rejected" };
        state
            .metrics
            .inc("daemon_resume_total", &[("result", result)], 1);
        state.queue.note(format!(
            "job {job_id} resume epoch {epoch}: {result} (skip {skip} of {total} messages)"
        ));
        if skipped_bytes > 0 {
            state
                .metrics
                .inc("daemon_resume_skipped_bytes_total", &[], skipped_bytes);
        }
    }
    flushed?;
    if report.rounds().iter().any(|r| r.skipped_pages.as_u64() > 0) {
        // Only generation-table strategies skip pages; none of the
        // daemon strategies do. The skip bitmap is a priced control
        // message this stream does not carry, so refuse loudly rather
        // than mis-reconcile.
        return Err(DaemonError::Protocol(
            "skip bitmaps are not streamable over the daemon protocol".into(),
        ));
    }

    // End-to-end verification.
    let hash = scenario::content_hash(guest.memory().as_slice());
    write_frame(&mut s, kind::COMPLETE, &hash)?;
    s.flush()?;
    let done = expect_kind(read_frame(&mut s, MAX_PAYLOAD)?, kind::DONE, "DONE")?;
    let theirs: [u8; proto::DONE_LEN as usize] = proto::fixed(&done.payload, "done")?;
    if theirs != hash {
        return Err(DaemonError::Corrupt(
            "destination content hash mismatch".into(),
        ));
    }

    // The core oracle: measured socket bytes must equal the analytic
    // ledgers plus the pinned framing overhead, both directions. On a
    // resumed session the forward side subtracts exactly the skipped
    // prefix and adds the one extra RESUME_OK frame; the reverse side
    // adds the RESUME_STATE frame.
    let resumed = u64::from(epoch > 0);
    let measured = Measured {
        tx: s.tx(),
        rx: s.rx(),
        expected_tx: report.source_traffic().as_u64() - skipped_bytes
            + forward_overhead(job_json.len() as u64)
            + resumed * forward_resume_overhead(),
        expected_rx: report.reverse_traffic().as_u64()
            + reverse_overhead()
            + resumed * reverse_resume_overhead(),
        job_json_len: job_json.len() as u64,
        resume_epoch: epoch,
        skipped_msgs: skip,
        skipped_bytes,
    };
    if measured.tx != measured.expected_tx {
        return Err(DaemonError::LedgerMismatch {
            direction: "forward",
            measured: measured.tx,
            expected: measured.expected_tx,
        });
    }
    if measured.rx != measured.expected_rx {
        return Err(DaemonError::LedgerMismatch {
            direction: "reverse",
            measured: measured.rx,
            expected: measured.expected_rx,
        });
    }
    Ok((report, measured))
}

/// The prefix a resuming destination announced, while the source is
/// still regenerating it: the messages held back and the state they
/// replay into. A held full page is `idx ‖ digest`; its filler is
/// written only if the prefix is rejected and the page sent after all.
struct HeldPrefix {
    announced: ResumeState,
    sim: SessionState,
    index: Option<ChecksumIndex>,
    held: Vec<WireMsg>,
}

/// The daemon's [`MsgSink`]: encodes each engine message into its
/// chunk and writes the chunk once it holds at least [`SESSION_BUF`]
/// bytes and 64 (`STREAM_CHUNK`) messages (a checksum stream writes
/// ≈ 2 341 messages at a time, a full-page stream 64 pages). `progress` is told the cumulative stream
/// position when streaming starts and after every round delimiter sent
/// (the source journals it); the kill switch is ticked once per message
/// *sent* — the hook the chaos harness arms to die mid-bulk.
///
/// A pure observer: it lands every message, so the engine's report is
/// the in-process one. A socket error is parked — the sink goes quiet
/// and [`SocketSink::finish`] returns it — rather than reported as a
/// dead link, which would make the engine account an injected fault.
pub struct SocketSink<'a, W: Write, P: FnMut(u64)> {
    w: W,
    kill: &'a KillSwitch,
    progress: P,
    buf: Vec<u8>,
    in_buf: usize,
    /// Stream messages disposed of so far: skipped or sent.
    position: u64,
    resume: Option<HeldPrefix>,
    /// Whether the pending resume was accepted, once RESUME_OK is sent.
    verdict: Option<bool>,
    skipped_msgs: u64,
    skipped_bytes: u64,
    error: Option<std::io::Error>,
}

impl<'a, W: Write, P: FnMut(u64)> SocketSink<'a, W, P> {
    /// A sink streaming a fresh transfer from message 0.
    pub fn new(w: W, kill: &'a KillSwitch, progress: P) -> Self {
        Self::start(w, kill, progress, None)
    }

    /// With `resume`, messages are held back until the announced prefix
    /// has been regenerated and the RESUME_OK verdict sent.
    fn start(w: W, kill: &'a KillSwitch, progress: P, resume: Option<HeldPrefix>) -> Self {
        let mut sink = SocketSink {
            w,
            kill,
            progress,
            // The most a chunk holds: it is written once it has
            // STREAM_CHUNK messages and SESSION_BUF bytes, so at most
            // STREAM_CHUNK full pages — or, past that many messages,
            // under one full page more than SESSION_BUF, which is less.
            buf: Vec::with_capacity(STREAM_CHUNK * wire::full_page_msg().as_u64() as usize),
            in_buf: 0,
            position: 0,
            resume,
            verdict: None,
            skipped_msgs: 0,
            skipped_bytes: 0,
            error: None,
        };
        match &sink.resume {
            // An empty prefix is decided before the first message.
            Some(r) if r.announced.applied == 0 => sink.settle(),
            Some(_) => {}
            None => (sink.progress)(0),
        }
        sink
    }

    /// Settles a pending resume, writes out the buffered tail and
    /// returns the parked socket error, if any.
    ///
    /// # Errors
    ///
    /// The first I/O error any write of this sink met.
    pub fn finish(&mut self) -> std::io::Result<()> {
        // Still holding: the announced prefix is longer than the stream.
        self.settle();
        self.flush_buf();
        self.error.take().map_or(Ok(()), Err)
    }

    fn push(&mut self, msg: WireMsg) {
        let Some(r) = self.resume.as_mut() else {
            return self.send(msg);
        };
        let applies = r.sim.apply(&msg, r.index.as_ref()).is_ok();
        r.held.push(msg);
        if !applies || r.sim.applied() == r.announced.applied {
            self.settle();
        }
    }

    /// Decides the pending resume: the regenerated prefix replayed into
    /// the announced applied count and state hash (which covers the
    /// round cursor and the finished flag) earns a skip; anything else
    /// is a reject, and the held messages go out after all.
    fn settle(&mut self) {
        let Some(r) = self.resume.take() else { return };
        let accept =
            r.sim.applied() == r.announced.applied && r.sim.state_hash() == r.announced.hash;
        self.error = write_frame(&mut self.w, kind::RESUME_OK, &[u8::from(accept)])
            .and_then(|()| self.w.flush())
            .err();
        if self.error.is_some() {
            return;
        }
        self.verdict = Some(accept);
        let skip = if accept { r.announced.applied } else { 0 };
        (self.progress)(skip);
        if accept {
            (self.position, self.skipped_msgs) = (skip, skip);
            self.skipped_bytes = r.held.iter().map(|m| m.encoded_len().as_u64()).sum();
        } else {
            for msg in r.held {
                self.send(msg);
            }
        }
    }

    fn send(&mut self, msg: WireMsg) {
        if self.error.is_some() {
            return;
        }
        self.kill.tick(KillRole::Source, KillPoint::MidBulk);
        match msg {
            WireMsg::Full { idx, digest, .. } => {
                wiremsg::encode_full_filler(idx, digest, &mut self.buf);
            }
            ref other => other.encode(&mut self.buf),
        }
        self.in_buf += 1;
        self.position += 1;
        if self.in_buf >= STREAM_CHUNK && self.buf.len() >= SESSION_BUF {
            self.flush_buf();
        }
        if matches!(msg, WireMsg::RoundEnd { .. }) {
            (self.progress)(self.position);
        }
    }

    fn flush_buf(&mut self) {
        if self.in_buf > 0 && self.error.is_none() {
            self.error = self
                .w
                .write_all(&self.buf)
                .and_then(|()| self.w.flush())
                .err();
        }
        self.buf.clear();
        self.in_buf = 0;
    }
}

impl<W: Write, P: FnMut(u64)> MsgSink for SocketSink<'_, W, P> {
    fn page(&mut self, msg: PageMsg, digest: PageDigest, _size: Bytes) -> bool {
        // A full page is held as `idx ‖ digest`, the digest the scan
        // already has in hand; its filler is written at encode.
        self.push(match msg {
            PageMsg::Full { idx, .. } => WireMsg::Full {
                idx: idx.as_u64(),
                digest,
                page: Vec::new(),
            },
            other => other.to_wire(),
        });
        true
    }

    fn round_end(&mut self, round: u32) {
        self.push(WireMsg::RoundEnd {
            round: u64::from(round),
        });
    }

    fn stop_end(&mut self) {
        self.push(WireMsg::StopEnd);
    }
}
