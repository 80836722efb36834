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
//! Buffers: the session borrows one set from the daemon's pool and
//! gives it back however it ends (`endpoint::BufferPool`). Outbound, its
//! chunk, sized once at the most a chunk can hold (64 full pages) and
//! reused for every write; a message is encoded straight into it — a
//! full page's filler from its digest — so no page message allocates.
//! (The opening flight and the control frames are small buffers of
//! their own.) Inbound, the session's one [`SessionStream`] over the
//! set's read buffer, through which every reply frame and the bulk
//! checksum exchange are read (the exchange in 16 KiB steps, not one
//! `read` per digest), straight into the source's index, with no other
//! list of the digests held ([`receive_exchange`]): ascending, protocol 7.
//! The guest's digest table and that index are the set's room, refilled
//! whole and given back, so a steady-state session builds neither.
//!
//! The session opens in one flight each way: HELLO‖JOB out, then the
//! guest is built while the destination builds its own state; back
//! come HELLO_ACK and the bulk exchange when the destination offers one
//! — a vecycle job, or any retry epoch. The spec in JOB already says
//! what the destination holds, so nothing is negotiated. DONE carries
//! the destination's content hash, which the source compares with its
//! own.
//!
//! A retry is a recycle. An epoch ≥ 1 is a fresh session whose exchange
//! holds the pages earlier epochs landed (beside the checkpoint's, for
//! a vecycle job), and the source streams `vecycle+dedup` against it
//! from message 0: a page that already landed crosses as a 28-byte
//! checksum. Nothing is replayed or skipped, so every epoch reconciles
//! as `tx = source_traffic + overheads`.

use std::io::{Read, Write};
use std::sync::Arc;

use vecycle_checkpoint::ChecksumIndex;
use vecycle_core::{LiveOutcome, MsgSink, PageMsg};
use vecycle_faults::{KillPoint, KillRole, KillSwitch};
use vecycle_net::{wire, wiremsg, WireMsg};
use vecycle_sim::ScenarioSpec;
use vecycle_types::{Bytes, PageDigest};

use crate::endpoint::{BufferSet, Room, SessionStream, SESSION_BUF};
use crate::frame::{kind, read_frame, write_frame, MAX_PAYLOAD};
use crate::proto::{
    self, expect_kind, forward_overhead, reverse_overhead, JobMsg, ROLE_DEST, ROLE_SOURCE,
};
use crate::queue::Measured;
use crate::scenario;
use crate::server::DaemonState;
use crate::{DaemonError, Endpoint};

/// Applied messages per destination persistence boundary, and the
/// fewest messages the source puts in one socket write. The two need not
/// agree: any landed prefix is a recycle base.
pub(crate) const STREAM_CHUNK: usize = 64;

/// What a completed source-side session hands back to the queue.
pub(crate) type SessionOutcome = (vecycle_core::MigrationReport, Measured);

/// Runs job `job_id` against `peer`, retrying I/O failures (peer died,
/// connection refused while it restarts, socket timeout) up to
/// `config.retries` times with `config.backoff` between attempts. Each
/// retry bumps the epoch, so the next session recycles whatever the
/// destination landed instead of starting over. Non-I/O
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
/// `epoch` 0 is the fresh wire flow; at epoch ≥ 1 the destination
/// always offers a bulk exchange, of at most twice the page count (its
/// landed pages beside its checkpoint's).
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
    // The session's buffers, back on the daemon's list however it ends.
    let mut lent = state.buffers.lend();
    let BufferSet { read, chunk, room } = &mut lent.set;
    let Room { table, index } = room;
    // The session's one reader: every frame and the bulk exchange come
    // through its buffer; writes go straight to the counted socket.
    let mut s = SessionStream::new(stream, read);

    // One flight: HELLO‖JOB in one write. The destination answers only
    // once it has validated the job, built its state and claimed its
    // host, so build the guest meanwhile — the two constructions overlap.
    // It is built in place, over the set's table: the session's one
    // guest-sized table.
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
    let (mut guest, mut workload) = scenario::source_guest(spec, std::mem::take(table))?;

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

    // The bulk exchange follows for a vecycle job and for every retry,
    // into the set's index; a job without one leaves the index's room.
    let offered = (spec.strategy == "vecycle" || epoch > 0)
        .then(|| receive_exchange(&mut s, spec, epoch, std::mem::take(index)))
        .transpose()?
        .map(Arc::new);

    // Run the migration into the socket. Message sizes are the analytic
    // prices, and each round's Control header is the RoundEnd/StopEnd
    // delimiter — the forward ledger total IS the data-plane byte count.
    let strategy = scenario::strategy_over(spec, offered.clone())?;
    let mut sink = SocketSink::new(&mut s, chunk, &state.kill, |landed| {
        state.queue.progress(job_id, landed);
    });
    let outcome = scenario::engine_for(spec).migrate_live_into(
        &mut guest,
        &mut workload,
        strategy,
        &mut sink,
    )?;
    let LiveOutcome::Completed(report) = outcome else {
        unreachable!("the socket sink parks i/o errors, it never reports the link dead")
    };
    // The engine has dropped its strategy: the index goes back to the set.
    if let Some(kept) = offered.and_then(|shared| Arc::try_unwrap(shared).ok()) {
        *index = kept;
    }
    sink.finish()?;
    if report.rounds().iter().any(|r| r.skipped_pages.as_u64() > 0) {
        // Only generation-table strategies skip pages; none of the
        // daemon strategies do. The skip bitmap is a priced control
        // message this stream does not carry, so refuse loudly rather
        // than mis-reconcile.
        return Err(DaemonError::Protocol(
            "skip bitmaps are not streamable over the daemon protocol".into(),
        ));
    }

    // End-to-end verification. The guest's table then goes back to the set.
    let hash = scenario::content_hash(guest.memory().as_slice());
    *table = guest.into_memory().into_digests();
    write_frame(&mut s, kind::COMPLETE, &hash)?;
    s.flush()?;
    let done = expect_kind(read_frame(&mut s, MAX_PAYLOAD)?, kind::DONE, "DONE")?;
    let theirs: [u8; proto::DONE_LEN as usize] = proto::fixed(&done.payload, "done")?;
    if theirs != hash {
        return Err(DaemonError::Corrupt(
            "destination content hash mismatch".into(),
        ));
    }
    // The destination closes once its session has ended (host released,
    // bookkeeping done); the job ends after that. A byte past DONE fails
    // the ledger, so how the wait ends changes nothing else.
    let _ = s.read(&mut [0; 1]);

    // The core oracle: measured socket bytes must equal the analytic
    // ledgers plus the pinned framing overhead, both directions, at
    // every epoch.
    let measured = Measured {
        tx: s.tx(),
        rx: s.rx(),
        expected_tx: report.source_traffic().as_u64() + forward_overhead(job_json.len() as u64),
        expected_rx: report.reverse_traffic().as_u64() + reverse_overhead(),
        job_json_len: job_json.len() as u64,
        resume_epoch: epoch,
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

/// Reads the bulk exchange into the source's index as it arrives,
/// refilling `room` whole: its count is bounded (a digest a page, two
/// on a retry) before the index is sized, and each digest must be above
/// the one before it.
///
/// # Errors
///
/// [`DaemonError::Io`] on a short read; [`DaemonError::Corrupt`] on
/// another message, a count past the bound or a digest out of order.
pub fn receive_exchange<R: Read>(
    r: &mut R,
    spec: &ScenarioSpec,
    epoch: u64,
    room: ChecksumIndex,
) -> Result<ChecksumIndex, DaemonError> {
    let pages = spec.pages();
    let bound = pages * if epoch > 0 { 2 } else { 1 };
    let corrupt = |detail| vecycle_types::Error::Corrupt { detail };
    let admit = |count: usize| {
        if count as u64 > bound {
            return Err(corrupt(format!(
                "bulk exchange carried {count} digests for {pages} pages"
            )));
        }
        let mut index = room;
        index.refill_ascending(count);
        Ok(index)
    };
    Ok(wiremsg::read_bulk_exchange(r, admit, |index, digest| {
        if index.push_ascending(digest) {
            return Ok(());
        }
        let at = index.total_pages();
        Err(corrupt(format!(
            "bulk exchange digest {at} is not above the one before it"
        )))
    })?)
}

/// The most a [`SocketSink`] chunk holds: it is written once it has
/// `STREAM_CHUNK` messages and [`SESSION_BUF`] bytes, so at most
/// `STREAM_CHUNK` full pages — or, past that many messages, under one
/// full page more than `SESSION_BUF`, which is less.
pub(crate) fn chunk_capacity() -> usize {
    STREAM_CHUNK * wire::full_page_msg().as_u64() as usize
}

/// The daemon's [`MsgSink`]: encodes each engine message into its
/// chunk and writes the chunk once it holds at least [`SESSION_BUF`]
/// bytes and 64 (`STREAM_CHUNK`) messages (a checksum stream writes
/// ≈ 2 341 messages at a time, a full-page stream 64 pages). `progress` is told the cumulative stream
/// position when streaming starts and after every round delimiter sent
/// (the source journals it); the kill switch is hit once per message
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
    buf: &'a mut Vec<u8>,
    in_buf: usize,
    /// Stream messages sent so far.
    position: u64,
    error: Option<std::io::Error>,
}

impl<'a, W: Write, P: FnMut(u64)> SocketSink<'a, W, P> {
    /// A sink streaming a transfer from message 0 through `chunk`,
    /// which it empties and, if it has less room, grows once to the most
    /// a chunk holds (64 full pages).
    pub fn new(w: W, chunk: &'a mut Vec<u8>, kill: &'a KillSwitch, mut progress: P) -> Self {
        progress(0);
        chunk.clear();
        chunk.reserve(chunk_capacity());
        SocketSink {
            w,
            kill,
            progress,
            buf: chunk,
            in_buf: 0,
            position: 0,
            error: None,
        }
    }

    /// Writes out the buffered tail and returns the parked socket
    /// error, if any.
    ///
    /// # Errors
    ///
    /// The first I/O error any write of this sink met.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.flush_buf();
        self.error.take().map_or(Ok(()), Err)
    }

    fn send(&mut self, msg: WireMsg) {
        if self.error.is_some() {
            return;
        }
        self.kill.hit(KillRole::Source, KillPoint::MidBulk);
        msg.encode(self.buf);
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
                .write_all(self.buf)
                .and_then(|()| self.w.flush())
                .err();
        }
        self.buf.clear();
        self.in_buf = 0;
    }
}

impl<W: Write, P: FnMut(u64)> MsgSink for SocketSink<'_, W, P> {
    fn page(&mut self, msg: PageMsg, _digest: PageDigest, _size: Bytes) -> bool {
        self.send(msg.to_wire());
        true
    }

    fn round_end(&mut self, round: u32) {
        self.send(WireMsg::RoundEnd {
            round: u64::from(round),
        });
    }

    fn stop_end(&mut self) {
        self.send(WireMsg::StopEnd);
    }
}
