//! TCP / Unix-socket addressing, the byte-counting stream wrapper and
//! the session-long buffered reader over it.

use std::fmt;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

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
    /// Applies a read timeout so a hung peer surfaces as an I/O error
    /// instead of a stuck thread (`None` disables).
    ///
    /// # Errors
    ///
    /// Propagates the underlying setter's error.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Applies a write timeout so a peer that stalls on its read side
    /// (full socket buffer, wedged process) surfaces as an I/O error
    /// on our writes instead of hanging them forever (`None`
    /// disables). Set everywhere `set_read_timeout` is set.
    ///
    /// # Errors
    ///
    /// Propagates the underlying setter's error.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Applies the same timeout to both directions.
    ///
    /// # Errors
    ///
    /// Propagates the underlying setters' errors.
    pub fn set_io_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(t)?;
        self.set_write_timeout(t)
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

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Counts every byte that crosses the wrapped stream — the "measured"
/// side of the ledger-reconciliation oracle.
struct CountingStream<S> {
    inner: S,
    tx: u64,
    rx: u64,
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.rx += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.tx += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Read-buffer size of a [`SessionStream`]: 2 340 checksum messages, or
/// 15 full pages, per `read` on the socket.
pub const SESSION_BUF: usize = 64 * 1024;

/// One side's view of a connection for the whole session: every frame
/// and every wire message, first HELLO to DONE, is read through one
/// [`SESSION_BUF`] buffer, so the data plane costs a `read` per buffer
/// and not two per message. Writes bypass it and go straight to the
/// counted stream.
///
/// Reading ahead cannot swallow bytes meant for someone else: the
/// connection has one reader per side for its whole life, and each
/// side stops sending at its reply points (COMPLETE, DONE) until the
/// peer answers. The counters sit *under* the buffer, so `rx` is socket
/// bytes, and at session end — buffer drained — what the ledger oracle
/// reconciles.
pub struct SessionStream<S> {
    r: BufReader<CountingStream<S>>,
}

impl<S: Read> SessionStream<S> {
    /// Wraps `inner` with zeroed counters and an empty read buffer.
    pub fn new(inner: S) -> Self {
        SessionStream {
            r: BufReader::with_capacity(
                SESSION_BUF,
                CountingStream {
                    inner,
                    tx: 0,
                    rx: 0,
                },
            ),
        }
    }
}

impl<S> SessionStream<S> {
    /// Bytes written to the stream so far.
    pub fn tx(&self) -> u64 {
        self.r.get_ref().tx
    }

    /// Bytes read from the stream so far (read-ahead included).
    pub fn rx(&self) -> u64 {
        self.r.get_ref().rx
    }

    /// Bytes read from the stream but not yet consumed by a decoder.
    pub fn buffered(&self) -> usize {
        self.r.buffer().len()
    }
}

impl<S: Read> Read for SessionStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.r.read(buf)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        self.r.read_exact(buf)
    }
}

impl<S: Write> Write for SessionStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.r.get_mut().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.r.get_mut().flush()
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

    #[test]
    fn counting_stream_counts_both_directions() {
        let mut cs = CountingStream {
            inner: std::io::Cursor::new(vec![0u8; 16]),
            tx: 0,
            rx: 0,
        };
        let mut buf = [0u8; 10];
        cs.read_exact(&mut buf).unwrap();
        assert_eq!(cs.rx, 10);
        cs.write_all(&[1, 2, 3]).unwrap();
        assert_eq!(cs.tx, 3);
    }
}
