//! Support shared by the daemon integration suites (`mod common;`).
#![allow(dead_code)] // each suite uses its own subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::Duration;

use vecycle_daemon::Endpoint;

/// Aborts the process if a test wedges — a hung socket must fail CI,
/// not stall it. Disarmed on drop (the watcher sees the channel close).
pub struct Watchdog(Sender<()>);

impl Watchdog {
    pub fn arm(name: &'static str, limit: Duration) -> Watchdog {
        let (disarm, armed) = channel();
        std::thread::spawn(move || {
            if armed.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                eprintln!("watchdog: {name} exceeded {limit:?}, aborting");
                std::process::abort();
            }
        });
        Watchdog(disarm)
    }
}

/// A loopback TCP endpoint on a port the kernel picks.
pub fn tcp_endpoint() -> Endpoint {
    Endpoint::parse("127.0.0.1:0")
}

/// A path under the system temp dir no other call in this process (or
/// any other live process) gets. Kept short: Unix socket names must
/// stay under `sun_path`.
fn temp_path(tag: &str, suffix: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "vecycled-{}-{tag}-{seq}{suffix}",
        std::process::id()
    ))
}

/// A fresh Unix-socket endpoint.
pub fn unix_endpoint(tag: &str) -> Endpoint {
    Endpoint::Unix(temp_path(tag, ".sock"))
}

/// A fresh (absent) directory for a journal-backed daemon.
pub fn journal_dir(tag: &str) -> PathBuf {
    let dir = temp_path(tag, "");
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
