//! TCP / Unix-socket addressing, the session-long buffered and
//! byte-counting reader, and the pool of buffers sessions borrow.

use std::fmt;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use vecycle_checkpoint::ChecksumIndex;
use vecycle_obs::{CounterFamily, Gauge, MetricsRegistry};
use vecycle_types::{sync, PageDigest};

/// Where a daemon listens or a client connects: loopback/LAN TCP or a
/// filesystem Unix socket. Parsed from `unix:<path>` or `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP address, e.g. `127.0.0.1:7310` (port 0 = ephemeral).
    Tcp(String),
    /// Unix domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `unix:<path>` or a `host:port` address.
    pub fn parse(s: &str) -> Endpoint {
        match s.strip_prefix("unix:") {
            Some(path) => Endpoint::Unix(PathBuf::from(path)),
            None => Endpoint::Tcp(s.to_string()),
        }
    }

    /// Opens a listener on this endpoint. A Unix socket file nothing
    /// answers on (a dead daemon's) is removed first; one a live daemon
    /// still accepts on is left alone.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::AddrInUse`] when a live listener holds the
    /// Unix path; otherwise propagates bind errors.
    pub fn bind(&self) -> std::io::Result<Listener> {
        match self {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            Endpoint::Unix(path) => {
                if UnixStream::connect(path).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("a live daemon listens on {}", path.display()),
                    ));
                }
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    /// Connects to this endpoint. A TCP stream gets `TCP_NODELAY`, see
    /// [`Listener::accept`].
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// The transport label used in metrics.
    pub fn transport(&self) -> &'static str {
        match self {
            Endpoint::Tcp(_) => "tcp",
            Endpoint::Unix(_) => "unix",
        }
    }
}

impl fmt::Display for Endpoint {
    // Display is the CLI's address syntax — keep it exactly inverse to
    // `parse`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listener on either transport.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-socket listener.
    Unix(UnixListener),
}

impl Listener {
    /// The endpoint this listener actually bound (TCP resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` errors.
    pub fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| std::io::Error::other("unnamed unix socket"))?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }

    /// Blocks until a connection arrives and accepts it.
    ///
    /// Both ends of a TCP session set `TCP_NODELAY`. Every side of the
    /// protocol batches its own writes (whole frames, stream chunks of
    /// ≥ 64 KiB) and then waits for a reply, so Nagle's
    /// algorithm has nothing left to coalesce; what it did do was hold
    /// the small frame that follows a stream chunk (chunk tail, then
    /// `COMPLETE`, then read `DONE`) until the peer's delayed-ACK timer
    /// fired — a 40 ms stall per job that came and went with scheduling.
    ///
    /// # Errors
    ///
    /// Propagates accept errors.
    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

/// A connected stream on either transport.
pub enum Stream {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-socket stream.
    Unix(UnixStream),
}

impl Stream {
    /// Applies `t` to reads and writes alike (`None` disables), so a
    /// hung peer, or one that stalls on its read side (full socket
    /// buffer, wedged process), surfaces as an I/O error instead of a
    /// stuck thread.
    ///
    /// # Errors
    ///
    /// Propagates the underlying setters' errors.
    pub fn set_io_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t).and_then(|()| s.set_write_timeout(t)),
            Stream::Unix(s) => s.set_read_timeout(t).and_then(|()| s.set_write_timeout(t)),
        }
    }

    /// A second handle on the same connection.
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Read-buffer size of a [`SessionStream`]: 2 340 checksum messages, or
/// 15 full pages, per `read` on the socket.
pub const SESSION_BUF: usize = 64 * 1024;

/// One side's view of a connection for the whole session: every frame
/// and every wire message, first HELLO to DONE, is read through one
/// borrowed [`SESSION_BUF`] buffer, so the data plane costs a `read` per
/// buffer and not two per message. Writes bypass it and go straight to
/// the socket. Both directions are counted — the "measured" side of the
/// ledger-reconciliation oracle.
///
/// The buffer is lent, not owned: a daemon takes it from its pool of
/// session buffer sets and puts it back when the connection ends, so a
/// steady-state session allocates none. Whatever the buffer held before
/// is never read — a new stream starts empty — and a read at least as
/// large as the buffer, with nothing buffered, goes straight to the
/// socket, as `std::io::BufReader`'s does.
///
/// Reading ahead cannot swallow bytes meant for someone else: the
/// connection has one reader per side for its whole life, and each
/// side stops sending at its reply points (COMPLETE, DONE) until the
/// peer answers. The counters sit *under* the buffer, so `rx` is socket
/// bytes, and at session end — buffer drained — what the ledger oracle
/// reconciles.
pub struct SessionStream<'b, S> {
    inner: S,
    tx: u64,
    rx: u64,
    buf: &'b mut [u8],
    /// Next unread byte of `buf`.
    pos: usize,
    /// End of the bytes the last socket read put in `buf`.
    filled: usize,
}

impl<'b, S: Read> SessionStream<'b, S> {
    /// Wraps `inner` with zeroed counters, reading through `buf`, which
    /// starts empty whatever it holds.
    pub fn new(inner: S, buf: &'b mut [u8]) -> Self {
        SessionStream {
            inner,
            tx: 0,
            rx: 0,
            buf,
            pos: 0,
            filled: 0,
        }
    }
}

impl<S> SessionStream<'_, S> {
    /// Bytes written to the stream so far.
    pub fn tx(&self) -> u64 {
        self.tx
    }

    /// Bytes read from the stream so far (read-ahead included).
    pub fn rx(&self) -> u64 {
        self.rx
    }

    /// Bytes read from the stream but not yet consumed by a decoder.
    pub fn buffered(&self) -> usize {
        self.filled - self.pos
    }
}

impl<S: Read> Read for SessionStream<'_, S> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.filled {
            if out.len() >= self.buf.len() {
                let n = self.inner.read(out)?;
                self.rx += n as u64;
                return Ok(n);
            }
            self.filled = self.inner.read(self.buf)?;
            self.rx += self.filled as u64;
            self.pos = 0;
        }
        let n = out.len().min(self.filled - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    #[inline]
    fn read_exact(&mut self, mut out: &mut [u8]) -> std::io::Result<()> {
        if out.len() <= self.filled - self.pos {
            out.copy_from_slice(&self.buf[self.pos..self.pos + out.len()]);
            self.pos += out.len();
            return Ok(());
        }
        while !out.is_empty() {
            match self.read(out) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    ))
                }
                Ok(n) => out = &mut out[n..],
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl<S: Write> Write for SessionStream<'_, S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.tx += n as u64;
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.tx += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The buffers one connection reads and writes through: a
/// [`SESSION_BUF`] read buffer for its [`SessionStream`], a write
/// chunk with room for 64 full-page messages — a source's sink chunk,
/// a destination's HELLO_ACK and exchange — and the [`Room`] a session
/// builds its guest-sized tables in.
#[derive(Default)]
pub(crate) struct BufferSet {
    pub read: Box<[u8]>,
    pub chunk: Vec<u8>,
    pub room: Room,
}

/// A session's guest-sized tables, kept for the next session's: the
/// source's guest or the destination's state builds its digest table in
/// `table`, and the source's received exchange or the destination's
/// offer fills `index`. Room, never content: each is refilled whole
/// before it is read. A session that ends early may drop either; the
/// next one then grows it again.
#[derive(Default)]
pub(crate) struct Room {
    pub table: Vec<PageDigest>,
    pub index: ChecksumIndex,
}

impl BufferSet {
    /// Bytes the set's buffers and tables have room for.
    fn bytes(&self) -> usize {
        let table = self.room.table.capacity() * size_of::<PageDigest>();
        self.read.len() + self.chunk.capacity() + table + self.room.index.capacity_bytes()
    }
}

/// A daemon's free list of [`BufferSet`]s, so a steady-state session
/// allocates no I/O buffer and no guest-sized table. Every session and
/// control connection takes a set when it starts ([`BufferPool::lend`]),
/// and the guard puts it back on every way out. The list keeps at most
/// `cap` sets; one returned past that is freed.
pub(crate) struct BufferPool {
    free: Mutex<Kept>,
    cap: usize,
    /// `daemon_session_buffers_total{op}` over `reused` / `allocated`.
    taken: CounterFamily,
    /// `daemon_session_buffer_bytes`: [`Kept::bytes`].
    kept_bytes: Gauge,
}

/// The listed sets, and the bytes every set the pool keeps, listed or
/// lent, had room for when it was last listed.
struct Kept {
    sets: Vec<BufferSet>,
    bytes: usize,
}

impl BufferPool {
    /// An empty list of at most `cap` sets, counting into `metrics`.
    pub(crate) fn new(cap: usize, metrics: &MetricsRegistry) -> Self {
        let taken = CounterFamily::new(
            metrics,
            "daemon_session_buffers_total",
            "op",
            &["reused", "allocated"],
        );
        // Resolved now, so no take pays for a series key.
        taken.at(0);
        taken.at(1);
        let kept_bytes = metrics.resolve_gauge("daemon_session_buffer_bytes", &[]);
        kept_bytes.set(0.0);
        BufferPool {
            free: Mutex::new(Kept {
                sets: Vec::with_capacity(cap),
                bytes: 0,
            }),
            cap,
            taken,
            kept_bytes,
        }
    }

    /// A set off the list, or a new one; it goes back when the guard
    /// drops.
    pub(crate) fn lend(&self) -> Lent<'_> {
        let set = sync::lock(&self.free).sets.pop();
        self.taken.at(usize::from(set.is_none())).inc(1);
        let (listed, set) = match set {
            Some(set) => (set.bytes(), set),
            None => (
                0,
                BufferSet {
                    read: vec![0; SESSION_BUF].into_boxed_slice(),
                    chunk: Vec::with_capacity(crate::source::chunk_capacity()),
                    room: Room::default(),
                },
            ),
        };
        Lent {
            pool: self,
            set,
            listed,
        }
    }
}

/// A [`BufferSet`] on loan from a [`BufferPool`]. Dropping it empties
/// the chunk and returns the set, whether the connection ended well,
/// failed or unwound.
pub(crate) struct Lent<'a> {
    pool: &'a BufferPool,
    pub set: BufferSet,
    /// The set's bytes when it was last listed; 0 for a new set.
    listed: usize,
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        let mut set = std::mem::take(&mut self.set);
        set.chunk.clear();
        let mut free = sync::lock(&self.pool.free);
        free.bytes -= self.listed;
        if free.sets.len() < self.pool.cap {
            free.bytes += set.bytes();
            free.sets.push(set);
        }
        self.pool.kept_bytes.set(free.bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_are_inverse() {
        for s in ["127.0.0.1:7310", "unix:/tmp/vecycled.sock", "[::1]:9"] {
            assert_eq!(Endpoint::parse(s).to_string(), s);
        }
        assert!(matches!(Endpoint::parse("unix:/x"), Endpoint::Unix(_)));
        assert!(matches!(Endpoint::parse("h:1"), Endpoint::Tcp(_)));
    }

    /// Neither end of a TCP session leaves a small frame waiting on the
    /// peer's delayed ACK.
    #[test]
    fn tcp_sessions_disable_nagle_on_both_ends() {
        let listener = Endpoint::parse("127.0.0.1:0").bind().unwrap();
        let client = listener.local_endpoint().unwrap().connect().unwrap();
        let server = listener.accept().unwrap();
        for end in [client, server] {
            let Stream::Tcp(s) = end else {
                panic!("a TCP endpoint yields TCP streams")
            };
            assert!(s.nodelay().unwrap());
        }
    }

    /// A second bind on a live daemon's path is refused and leaves the
    /// first listener reachable; a dead daemon's leftover file is not.
    #[test]
    fn unix_bind_refuses_a_live_path_and_reclaims_a_stale_one() {
        let path = std::env::temp_dir().join(format!("vecycled-bind-{}.sock", std::process::id()));
        let ep = Endpoint::Unix(path.clone());
        let first = ep.bind().unwrap();
        let err = ep.bind().err().expect("a live path is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        // The refused bind's probe connection is still queued; a fresh
        // one after it must reach the first listener too.
        let _probe = first.accept().unwrap();
        let _client = ep.connect().unwrap();
        first.accept().unwrap();
        drop(first);
        assert!(path.exists(), "dropping a listener leaves its file");
        let again = ep.bind().unwrap();
        drop(again);
        let _ = std::fs::remove_file(&path);
    }

    /// Hands out `data` at most `steps[n % steps.len()]` bytes at the
    /// `n`-th read, counting reads.
    struct Chunky<'a> {
        data: &'a [u8],
        steps: &'a [usize],
        reads: usize,
    }

    impl Read for Chunky<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let step = self.steps[self.reads % self.steps.len()];
            let n = step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.reads += 1;
            Ok(n)
        }
    }

    /// A read of up to `n` bytes, or a `read_exact` of `n`.
    #[derive(Clone, Copy)]
    enum Op {
        Read(usize),
        Exact(usize),
    }

    /// What each op returned, or the kind of error it failed with.
    fn drive(r: &mut impl Read, ops: &[Op]) -> Vec<Result<Vec<u8>, std::io::ErrorKind>> {
        ops.iter()
            .map(|&op| match op {
                Op::Read(n) => {
                    let mut out = vec![0; n];
                    let got = r.read(&mut out).map_err(|e| e.kind())?;
                    out.truncate(got);
                    Ok(out)
                }
                Op::Exact(n) => {
                    let mut out = vec![0; n];
                    r.read_exact(&mut out).map_err(|e| e.kind())?;
                    Ok(out)
                }
            })
            .collect()
    }

    /// The session reader behaves as `std::io::BufReader` of the same
    /// capacity over the same source: the same bytes and errors from
    /// every op, the same reads on the source, the same bytes left
    /// buffered — over short reads, reads at least as large as the
    /// buffer, `read_exact` across refills and past EOF. Its counter is
    /// what the source handed out, and a buffer's old bytes never show.
    #[test]
    fn the_session_reader_matches_bufreader() {
        use Op::{Exact, Read as R};
        let data: Vec<u8> = (0..300u16).map(|i| (i * 7 + 3) as u8).collect();
        let ops = [
            Exact(5),
            R(4),
            Exact(20),
            R(32),
            Exact(16),
            R(1),
            Exact(40),
            R(100),
            Exact(3),
            R(17),
            Exact(500),
            R(8),
            Exact(1),
        ];
        for steps in [&[300][..], &[1], &[3], &[7, 1, 40], &[16, 5], &[64, 0, 2]] {
            let mut std_reader = std::io::BufReader::with_capacity(
                16,
                Chunky {
                    data: &data,
                    steps,
                    reads: 0,
                },
            );
            let want = drive(&mut std_reader, &ops);
            let mut buf = [0xAA; 16];
            let source = Chunky {
                data: &data,
                steps,
                reads: 0,
            };
            let mut s = SessionStream::new(source, &mut buf);
            assert_eq!(drive(&mut s, &ops), want, "steps {steps:?}");
            let left = s.inner.data.len();
            assert_eq!(s.rx(), (data.len() - left) as u64, "steps {steps:?}");
            assert_eq!(s.buffered(), std_reader.buffer().len(), "steps {steps:?}");
            assert_eq!(s.inner.reads, std_reader.get_ref().reads, "steps {steps:?}");
            assert!(want.iter().any(Result::is_err), "some op reads past EOF");
        }
    }

    #[test]
    fn counting_stream_counts_both_directions() {
        let mut buf = [0u8; 10];
        let mut cs = SessionStream::new(std::io::Cursor::new(vec![0u8; 16]), &mut buf);
        let mut out = [0u8; 10];
        cs.read_exact(&mut out).unwrap();
        assert_eq!(cs.rx(), 10);
        cs.write_all(&[1, 2, 3]).unwrap();
        assert_eq!(cs.tx(), 3);
    }
}
