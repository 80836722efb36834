//! The data path costs a syscall per 64 KiB buffer, not per message,
//! on both sides.
//!
//! A warm 128 MiB migration is 32 768 checksum messages of 28 bytes;
//! decoding each straight off the socket is two `read` syscalls per
//! message. [`receive_stream`] over the session's [`SessionStream`]
//! must instead cost one `read` per [`SESSION_BUF`] of stream — pinned
//! here by counting calls — without the read-ahead changing what the
//! state machine sees: the COMPLETE frame that shares a buffer with
//! StopEnd is still there for the next frame read, and a stream cut
//! mid-message leaves exactly the whole messages applied. The source's
//! [`SocketSink`] likewise writes a buffer of at least [`SESSION_BUF`]
//! bytes and 64 messages at a time — pinned by counting writes.

use std::cell::Cell;
use std::io::{Read, Write};
use std::rc::Rc;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_daemon::endpoint::{SessionStream, SESSION_BUF};
use vecycle_daemon::frame::{kind, read_frame, write_frame, Frame, MAX_PAYLOAD};
use vecycle_daemon::session_state::SessionState;
use vecycle_daemon::{receive_stream, scenario, DaemonError, Endpoint, Persist, SocketSink};
use vecycle_faults::KillSwitch;
use vecycle_net::wiremsg::HEADER;
use vecycle_net::{wire, WireMsg};
use vecycle_sim::ScenarioSpec;
use vecycle_types::{PageDigest, SimTime, VmId};

/// Counts `read` calls on the way to the wrapped reader.
struct CountReads<R> {
    inner: R,
    calls: Rc<Cell<u64>>,
}

impl<R: Read> Read for CountReads<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls.set(self.calls.get() + 1);
        self.inner.read(buf)
    }
}

/// One data-plane stream and what a destination needs to apply it.
struct Stream {
    spec: ScenarioSpec,
    index: Option<ChecksumIndex>,
    msgs: Vec<WireMsg>,
    /// The encoded messages followed by a COMPLETE frame.
    bytes: Vec<u8>,
    /// Byte offset at which each message ends.
    ends: Vec<usize>,
}

const COMPLETE_PAYLOAD: [u8; 8] = *b"complete";

impl Stream {
    fn new(spec: ScenarioSpec, index: Option<ChecksumIndex>, mut msgs: Vec<WireMsg>) -> Stream {
        msgs.push(WireMsg::RoundEnd { round: 1 });
        msgs.push(WireMsg::StopEnd);
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for msg in &msgs {
            msg.encode(&mut bytes);
            ends.push(bytes.len());
        }
        write_frame(&mut bytes, kind::COMPLETE, &COMPLETE_PAYLOAD).expect("vec write");
        Stream {
            spec,
            index,
            msgs,
            bytes,
            ends,
        }
    }

    /// The warm 128 MiB shape: every page crosses as a checksum.
    fn checksums() -> Stream {
        let mut spec = ScenarioSpec::golden(0xba7c);
        spec.ram_mib = 128;
        let initial = scenario::initial_memory(&spec).expect("initial memory");
        let digests = initial.snapshot().into_digests();
        let msgs = digests
            .iter()
            .enumerate()
            .map(|(idx, &digest)| WireMsg::Checksum {
                idx: idx as u64,
                digest,
            })
            .collect();
        Stream::new(spec, Some(ChecksumIndex::from_pages(&digests)), msgs)
    }

    /// A cold 16 MiB shape: every page crosses in full.
    fn full_pages() -> Stream {
        let mut spec = ScenarioSpec::golden(0xba7d);
        spec.ram_mib = 16;
        spec.strategy = "full".into();
        spec.warm = false;
        let initial = scenario::initial_memory(&spec).expect("initial memory");
        let msgs = initial
            .snapshot()
            .into_digests()
            .into_iter()
            .enumerate()
            .map(|(idx, digest)| WireMsg::Full {
                idx: idx as u64,
                digest,
            })
            .collect();
        Stream::new(spec, None, msgs)
    }

    fn fresh_state(&self) -> SessionState {
        let initial = scenario::initial_memory(&self.spec).expect("initial memory");
        SessionState::fresh(&self.spec, &initial)
    }

    /// The state after the first `n` messages, applied one by one.
    fn state_after(&self, n: usize) -> SessionState {
        let mut st = self.fresh_state();
        for msg in &self.msgs[..n] {
            st.apply(msg, self.index.as_ref()).expect("stream applies");
        }
        st
    }
}

/// Counts what [`receive_stream`] reports to its persistence hook, and
/// keeps the last digest it reported per page.
struct CountPersists {
    landed: u64,
    boundaries: u64,
    pages: Vec<Option<PageDigest>>,
}

impl Persist for CountPersists {
    fn landed(&mut self, idx: u64, digest: PageDigest) {
        self.landed += 1;
        self.pages[idx as usize] = Some(digest);
    }

    fn boundary(&mut self) {
        self.boundaries += 1;
    }
}

/// What one receive over a fresh session reader and a fresh state left.
struct Received {
    outcome: Result<Frame, DaemonError>,
    state: SessionState,
    landed: u64,
    persists: u64,
    rx: u64,
    buffered: usize,
}

impl Received {
    /// Asserts the stream arrived whole, COMPLETE frame included, and
    /// nothing was read past it.
    fn assert_whole(&self, stream: &Stream) {
        let complete = self.outcome.as_ref().expect("stream is well-formed");
        assert_eq!(complete.kind, kind::COMPLETE);
        assert_eq!(
            complete.payload, COMPLETE_PAYLOAD,
            "the frame behind StopEnd in the same buffer"
        );
        assert_eq!(self.rx, stream.bytes.len() as u64, "rx counts socket bytes");
        assert_eq!(self.buffered, 0, "nothing read ahead past COMPLETE");
        assert_eq!(self.state, stream.state_after(stream.msgs.len()));
    }
}

impl Stream {
    fn receive<R: Read>(&self, source: R) -> Received {
        let mut buf = vec![0; SESSION_BUF];
        let mut s = SessionStream::new(source, &mut buf);
        let mut state = self.fresh_state();
        let mut hook = CountPersists {
            landed: 0,
            boundaries: 0,
            pages: vec![None; self.spec.pages() as usize],
        };
        let outcome = receive_stream(
            &mut s,
            self.index.as_ref(),
            &mut state,
            &KillSwitch::inert(),
            &mut hook,
        )
        .and_then(|()| read_frame(&mut s, MAX_PAYLOAD));
        let pages = hook.pages.iter().enumerate();
        let pages = pages.filter_map(|(idx, d)| d.map(|d| (idx as u64, d)));
        assert!(
            pages.eq(state.landed()),
            "the hook sees each page an applied message wrote, as it ends"
        );
        Received {
            outcome,
            state,
            landed: hook.landed,
            persists: hook.boundaries,
            rx: s.rx(),
            buffered: s.buffered(),
        }
    }

    /// Receives from an in-memory reader that always fills the buffer
    /// it is given, returning `(read calls, persist calls)`.
    fn receive_counting(&self) -> (u64, u64) {
        let calls = Rc::new(Cell::new(0));
        let got = self.receive(CountReads {
            inner: self.bytes.as_slice(),
            calls: Rc::clone(&calls),
        });
        got.assert_whole(self);
        (calls.get(), got.persists)
    }
}

#[test]
fn a_checksum_stream_costs_a_read_per_buffer() {
    let stream = Stream::checksums();
    assert_eq!(stream.msgs.len(), 32_768 + 2);
    let (reads, persists) = stream.receive_counting();
    let bound = stream.bytes.len().div_ceil(SESSION_BUF) as u64 + 8;
    assert!(
        reads <= bound,
        "{reads} reads for {} messages ({} bytes), want <= {bound}",
        stream.msgs.len(),
        stream.bytes.len()
    );
    // The persistence cadence is untouched by the buffering: every 64
    // applied messages, plus the two delimiters.
    assert_eq!(persists, 32_768 / 64 + 2);
}

#[test]
fn a_full_page_stream_costs_a_read_per_buffer() {
    let stream = Stream::full_pages();
    assert_eq!(stream.msgs.len(), 4096 + 2);
    let (reads, persists) = stream.receive_counting();
    let bound = stream.bytes.len().div_ceil(SESSION_BUF) as u64 + 8;
    assert!(reads <= bound, "{reads} reads, want <= {bound}");
    assert_eq!(persists, 4096 / 64 + 2);
}

/// The peer dies mid-message: the error is I/O (the resumable class)
/// and the state holds exactly the messages that arrived whole — what
/// the destination then keeps as the landed prefix.
#[test]
fn eof_mid_message_leaves_exactly_the_whole_messages_applied() {
    let stream = Stream::checksums();
    for whole in [0usize, 1, 63, 64, 2_340, 2_341, 20_000, 32_768] {
        let start = if whole == 0 {
            0
        } else {
            stream.ends[whole - 1]
        };
        // Every cut that leaves message `whole` incomplete.
        for extra in [0usize, 1, 11, 12, 27] {
            let cut = start + extra;
            if cut >= stream.ends[whole] {
                continue;
            }
            let got = stream.receive(&stream.bytes[..cut]);
            let err = got.outcome.expect_err("a cut stream cannot complete");
            assert!(matches!(err, DaemonError::Io(_)), "{whole}+{extra}: {err}");
            assert_eq!(got.state.applied(), whole as u64, "{whole}+{extra}");
            assert_eq!(got.state, stream.state_after(whole), "{whole}+{extra}");
        }
    }
    // Cut inside the COMPLETE frame: the stream itself is whole.
    let got = stream.receive(&stream.bytes[..stream.bytes.len() - 3]);
    let err = got.outcome.expect_err("COMPLETE is cut");
    assert!(matches!(err, DaemonError::Io(_)), "{err}");
    assert!(got.state.finished());
}

/// A full page whose bytes are not its digest's filler never lands: one
/// flipped payload byte — the first filler byte after the digest, or the
/// page's last — fails the stream with a corrupt-payload error naming the
/// page, and the state and the persistence hook hold exactly the pages
/// before it.
#[test]
fn a_full_page_that_is_not_its_filler_is_refused_before_it_lands() {
    let stream = Stream::full_pages();
    for k in [0usize, 63, 4_095] {
        let start = if k == 0 { 0 } else { stream.ends[k - 1] };
        for at in [start + HEADER + 16, stream.ends[k] - 1] {
            let mut bytes = stream.bytes.clone();
            bytes[at] ^= 0x5a;
            let got = stream.receive(bytes.as_slice());
            let err = got.outcome.expect_err("a corrupt page cannot complete");
            let named = format!("full page {k} bytes do not match the digest filler");
            assert!(
                matches!(&err, DaemonError::Corrupt(detail) if *detail == named),
                "page {k}, byte {at}: {err}"
            );
            assert_eq!(got.state, stream.state_after(k), "page {k}, byte {at}");
            assert_eq!(got.landed, k as u64, "page {k}, byte {at}");
        }
    }
}

/// Over real sockets a `read` returns what has arrived, so the count
/// depends on the kernel; what must hold on both transports is that it
/// is far below one per message, and that `rx` is the bytes sent.
#[test]
fn real_sockets_batch_reads_on_both_transports() {
    let stream = Stream::checksums();
    let unix = std::env::temp_dir().join(format!("vecycle-readbatch-{}.sock", std::process::id()));
    for listen in [
        Endpoint::Tcp("127.0.0.1:0".into()),
        Endpoint::Unix(unix.clone()),
    ] {
        let listener = listen.bind().expect("bind");
        let at = listener.local_endpoint().expect("bound endpoint");
        let reads = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut peer = at.connect().expect("connect");
                peer.write_all(&stream.bytes).expect("send stream");
            });
            let calls = Rc::new(Cell::new(0));
            let got = stream.receive(CountReads {
                inner: listener.accept().expect("accept"),
                calls: Rc::clone(&calls),
            });
            got.assert_whole(&stream);
            calls.get()
        });
        let transport = at.transport();
        assert!(
            reads <= stream.msgs.len() as u64 / 8,
            "{transport}: {reads} reads for {} messages",
            stream.msgs.len()
        );
    }
    let _ = std::fs::remove_file(unix);
}

/// Keeps the bytes of each `write` call.
#[derive(Default)]
struct CountWrites(Vec<Vec<u8>>);

impl Write for CountWrites {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams `spec` through a [`SocketSink`] as a source session does and
/// returns `(bytes, messages)` of each write — decoding each write on
/// its own also proves a write never splits a message.
fn streamed_writes(spec: &ScenarioSpec) -> Vec<(usize, usize)> {
    let initial = scenario::initial_memory(spec).expect("initial memory");
    let checkpoint = Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial);
    let strategy = scenario::local_strategy(spec, &checkpoint).expect("strategy");
    let (mut guest, mut workload) = scenario::live_guest(spec, &initial).expect("guest");
    let kill = KillSwitch::inert();
    let mut writes = CountWrites::default();
    let mut chunk = Vec::new();
    let mut sink = SocketSink::new(&mut writes, &mut chunk, &kill, |_| {});
    scenario::engine_for(spec)
        .migrate_live_into(&mut guest, &mut workload, strategy, &mut sink)
        .expect("streamed run");
    sink.finish().expect("the counter never fails a write");
    drop(sink);
    writes
        .0
        .iter()
        .map(|bytes| {
            let mut rest = bytes.as_slice();
            let mut msgs = 0;
            while !rest.is_empty() {
                WireMsg::read_from(&mut rest).expect("a write holds whole messages");
                msgs += 1;
            }
            (bytes.len(), msgs)
        })
        .collect()
}

/// The warm 128 MiB job — ≈ 98 % checksum messages — leaves the source
/// in 64 KiB writes, not 64-message (1.8 KiB) ones.
#[test]
fn a_warm_stream_costs_a_write_per_buffer() {
    let mut spec = ScenarioSpec::golden(0xba7c);
    spec.ram_mib = 128;
    let writes = streamed_writes(&spec);
    let bytes: usize = writes.iter().map(|w| w.0).sum();
    let bound = bytes.div_ceil(SESSION_BUF) + 1;
    assert!(
        writes.len() <= bound,
        "{} writes for {bytes} bytes, want <= {bound}",
        writes.len()
    );
    for (i, &(len, msgs)) in writes[..writes.len() - 1].iter().enumerate() {
        assert!(
            len >= SESSION_BUF && msgs >= 64,
            "write {i}: {len} bytes, {msgs} messages"
        );
    }
}

/// A cold full-page stream passes 64 KiB long before 64 messages, so the
/// message floor sets its writes: exactly 64 per write (≈ 264 KiB).
#[test]
fn a_full_page_stream_still_writes_64_pages_at_a_time() {
    let mut spec = ScenarioSpec::golden(0xba7d);
    spec.ram_mib = 16;
    spec.strategy = "full".into();
    spec.warm = false;
    let writes = streamed_writes(&spec);
    let (last, whole) = writes.split_last().expect("the stream is written");
    assert!(whole.len() >= 4096 / 64, "{} writes", whole.len());
    assert!(whole.iter().all(|&(_, msgs)| msgs == 64), "{writes:?}");
    let full_page = wire::full_page_msg().as_u64() as usize;
    assert_eq!(whole[0].0, 64 * full_page, "round 1 opens with full pages");
    assert!(last.1 <= 64, "{last:?}");
}
