//! Table-driven protocol state-machine tests against a live daemon.
//!
//! Every malformed opening — wrong version, wrong magic, oversized
//! frame, out-of-order messages, a half-closed peer, replayed fuzz
//! corpus junk — must surface as a clean typed error on the wire (an
//! ERR frame or a hangup), never a hang and never a daemon crash.
//! After each abuse the same daemon must still complete a control
//! round trip, proving the failure was contained to one connection.
//! A watchdog aborts the process if anything wedges.

use std::io::{Read, Write};
mod common;

use std::thread::JoinHandle;
use std::time::Duration;

use common::{tcp_endpoint, unix_endpoint, Watchdog};
use vecycle_daemon::frame::{kind, read_frame, write_frame, MAX_PAYLOAD};
use vecycle_daemon::proto::{self, JobMsg, ROLE_SOURCE};
use vecycle_daemon::{client, Daemon, DaemonConfig, DaemonError, DaemonHandle, Endpoint};
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::PageDigest;

const TEST_LIMIT: Duration = Duration::from_secs(60);

fn spawn_daemon(unix: bool) -> DaemonHandle {
    let ep = if unix {
        unix_endpoint("proto")
    } else {
        tcp_endpoint()
    };
    Daemon::spawn(DaemonConfig::new(ep).with_io_timeout(Duration::from_secs(5)))
        .expect("daemon binds")
}

/// What the daemon did with one scripted opening.
#[derive(Debug, PartialEq, Eq)]
enum Reaction {
    /// An ERR frame whose text contains the expected needle.
    ErrContaining(&'static str),
    /// The daemon just closed the connection (EOF / reset).
    Hangup,
}

/// Writes `bytes`, optionally half-closes the write side, and
/// classifies the daemon's response.
fn poke(daemon: &DaemonHandle, bytes: &[u8], shutdown_write: bool) -> Reaction {
    let mut s = daemon.endpoint().connect().expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The daemon may close mid-write on abusive input; a broken pipe
    // here is just an early Hangup.
    if s.write_all(bytes).is_err() {
        return Reaction::Hangup;
    }
    let _ = s.flush();
    if shutdown_write {
        shutdown_write_half(&s);
    }
    match read_frame(&mut s, MAX_PAYLOAD) {
        Ok(f) if f.kind == kind::ERR => {
            let text = String::from_utf8_lossy(&f.payload).into_owned();
            classify_err(text)
        }
        Ok(f) => panic!("daemon answered abuse with frame kind {:#04x}", f.kind),
        Err(_) => Reaction::Hangup,
    }
}

// Map an observed ERR text back onto the expectation table by keeping
// the raw string around for the assert message.
fn classify_err(text: String) -> Reaction {
    Reaction::ErrContaining(leak(text))
}

// Leak the string so the enum can stay Copy-ish with &'static str;
// tests only.
fn leak(text: String) -> &'static str {
    Box::leak(text.into_boxed_str())
}

fn expect_err(got: &Reaction, needle: &str) {
    match got {
        Reaction::ErrContaining(text) => assert!(
            text.contains(needle),
            "ERR text {text:?} does not contain {needle:?}"
        ),
        Reaction::Hangup => panic!("wanted an ERR frame containing {needle:?}, got a hangup"),
    }
}

fn shutdown_write_half(s: &vecycle_daemon::endpoint::Stream) {
    match s {
        vecycle_daemon::endpoint::Stream::Tcp(t) => {
            let _ = t.shutdown(std::net::Shutdown::Write);
        }
        vecycle_daemon::endpoint::Stream::Unix(u) => {
            let _ = u.shutdown(std::net::Shutdown::Write);
        }
    }
}

fn hello_frame(version: u16, role: u8) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, kind::HELLO, &proto::hello_payload(version, role)).unwrap();
    buf
}

/// A source's opening flight: HELLO at `version`, then JOB for `spec`.
fn hello_job(version: u16, spec: &ScenarioSpec) -> Vec<u8> {
    let mut buf = hello_frame(version, ROLE_SOURCE);
    let job = JobMsg {
        job: 1,
        resume: 0,
        spec: spec.clone(),
    };
    write_frame(&mut buf, kind::JOB, job.encode().as_bytes()).unwrap();
    buf
}

fn assert_alive(daemon: &DaemonHandle) {
    assert!(
        client::ping(daemon.endpoint()),
        "daemon must stay responsive after the abuse"
    );
}

#[test]
fn malformed_openings_get_typed_errors_and_never_kill_the_daemon() {
    let _wd = Watchdog::arm(
        "malformed_openings_get_typed_errors_and_never_kill_the_daemon",
        TEST_LIMIT,
    );
    // One daemon takes all the abuse; it must answer a ping after each
    // row. Covers TCP; the unix variant below replays the same table.
    for unix in [false, true] {
        let daemon = spawn_daemon(unix);
        run_table(&daemon);
        daemon.shutdown();
    }
}

fn run_table(daemon: &DaemonHandle) {
    // -- version mismatch: the exact typed refusal naming both versions,
    //    sent before the JOB behind the HELLO is read. A version-2 peer
    //    is refused before it could wait for an OFFER, a version-3 peer
    //    before it could wait for a resume announcement. The unread JOB
    //    bytes must not cost the refusal (on TCP, closing a socket with
    //    unread data sends a reset).
    for theirs in [99, 2, 3] {
        let refusal = DaemonError::VersionMismatch { ours: 4, theirs };
        let got = poke(daemon, &hello_job(theirs, &ScenarioSpec::golden(1)), false);
        assert_eq!(got, Reaction::ErrContaining(leak(refusal.to_string())));
        assert_alive(daemon);
    }

    // -- bad magic: typed refusal.
    let mut bad_magic = Vec::new();
    let mut payload = proto::hello_payload(proto::VERSION, ROLE_SOURCE).to_vec();
    payload[0] = b'X';
    write_frame(&mut bad_magic, kind::HELLO, &payload).unwrap();
    let got = poke(daemon, &bad_magic, false);
    expect_err(&got, "magic");
    assert_alive(daemon);

    // -- wrong role: a destination cannot open a session.
    let got = poke(
        daemon,
        &hello_frame(proto::VERSION, proto::ROLE_DEST),
        false,
    );
    expect_err(&got, "role");
    assert_alive(daemon);

    // -- out-of-order: opening with a non-HELLO, non-CTRL frame.
    let mut ooo = Vec::new();
    write_frame(&mut ooo, kind::COMPLETE, &[0u8; 8]).unwrap();
    let got = poke(daemon, &ooo, false);
    expect_err(&got, "unexpected opening frame");
    assert_alive(daemon);

    // -- out-of-order inside a session: HELLO then COMPLETE where the
    //    JOB belongs, refused before anything is acknowledged.
    let mut mid = hello_frame(proto::VERSION, ROLE_SOURCE);
    write_frame(&mut mid, kind::COMPLETE, &[0u8; 8]).unwrap();
    let got = poke(daemon, &mid, false);
    expect_err(&got, "unexpected frame kind 0x06, expected JOB");
    assert_alive(daemon);

    // -- oversized frame: declared length beyond the connection limit,
    //    rejected before allocation.
    let mut oversized = vec![kind::HELLO];
    oversized.extend_from_slice(&u32::MAX.to_be_bytes());
    let got = poke(daemon, &oversized, false);
    expect_err(&got, "oversized frame");
    assert_alive(daemon);

    // -- truncated hello then EOF: half-close mid-frame. The daemon
    //    sees a short read; it may answer with an i/o ERR (write half
    //    is still open) or just hang up.
    let hello = hello_frame(proto::VERSION, ROLE_SOURCE);
    let got = poke(daemon, &hello[..hello.len() - 3], true);
    assert!(
        matches!(got, Reaction::Hangup | Reaction::ErrContaining(_)),
        "mid-frame EOF must end the session cleanly, got {got:?}"
    );
    assert_alive(daemon);

    // -- half-close mid-session: a valid HELLO‖JOB for a cold full job,
    //    then EOF while the daemon expects the data rounds.
    let mut cold = ScenarioSpec::golden(1);
    cold.strategy = "full".into();
    cold.warm = false;
    let got = poke_past_session_close(daemon, &hello_job(proto::VERSION, &cold));
    assert!(
        matches!(got, Reaction::Hangup | Reaction::ErrContaining(_)),
        "half-close must end in EOF or a typed error, got {got:?}"
    );
    assert_alive(daemon);

    // -- fuzz corpus junk replayed at the live socket.
    let corpus = std::path::Path::new("fuzz/corpus/ckpt_raw");
    let mut replayed = 0;
    if let Ok(entries) = std::fs::read_dir(corpus) {
        for entry in entries.flatten() {
            let Ok(junk) = std::fs::read(entry.path()) else {
                continue;
            };
            let got = poke(daemon, &junk, true);
            assert!(
                matches!(got, Reaction::Hangup | Reaction::ErrContaining(_)),
                "corpus {:?}: {got:?}",
                entry.path()
            );
            replayed += 1;
        }
    }
    assert!(
        replayed > 0,
        "fuzz corpus ckpt_raw must exist and be replayed"
    );
    assert_alive(daemon);
}

/// Valid HELLO‖JOB, then write-half close: drain whatever the daemon
/// sends (HELLO_ACK, then ERR or EOF once it notices).
fn poke_past_session_close(daemon: &DaemonHandle, bytes: &[u8]) -> Reaction {
    let mut s = daemon.endpoint().connect().expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    if s.write_all(bytes).is_err() {
        return Reaction::Hangup;
    }
    let _ = s.flush();
    shutdown_write_half(&s);
    loop {
        match read_frame(&mut s, MAX_PAYLOAD) {
            Ok(f) if f.kind == kind::ERR => {
                return classify_err(String::from_utf8_lossy(&f.payload).into_owned())
            }
            Ok(_) => continue,
            Err(_) => return Reaction::Hangup,
        }
    }
}

/// A hand-driven destination on a fresh TCP port. It reads HELLO and
/// JOB before it writes a byte — under a read timeout, so a source that
/// waits for an answer before sending its JOB fails the test instead of
/// hanging it — then writes `reply` and holds the socket open until the
/// source hangs up, so the source's error is driven by the reply, not a
/// race with close.
fn fake_destination(reply: Vec<u8>) -> (Endpoint, JoinHandle<()>) {
    let listener = tcp_endpoint().bind().unwrap();
    let peer = listener.local_endpoint().unwrap();
    let server = std::thread::spawn(move || {
        let mut s = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for want in [kind::HELLO, kind::JOB] {
            let f = read_frame(&mut s, MAX_PAYLOAD).expect("HELLO and JOB arrive unanswered");
            assert_eq!(f.kind, want);
        }
        let _ = s.write_all(&reply);
        let _ = s.flush();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
    });
    (peer, server)
}

/// Submits the golden (warm vecycle) job against a fake destination
/// answering with `reply`. The job must fail; returns its failure
/// detail.
fn job_against(reply: Vec<u8>) -> String {
    let (peer, server) = fake_destination(reply);
    let daemon = spawn_daemon(false);
    let id = daemon
        .submit(ScenarioSpec::golden(1), peer)
        .expect("submit");
    let rec = daemon
        .wait_job(id, Duration::from_secs(30))
        .expect("job terminates");
    assert_eq!(rec.state, vecycle_daemon::JobState::Failed);
    server.join().unwrap();
    daemon.shutdown();
    rec.detail
}

/// [`job_against`] a destination that accepts the job and sends
/// `exchange` where the bulk checksum exchange belongs.
fn job_against_exchange(exchange: Vec<u8>) -> String {
    let mut reply = Vec::new();
    let ack = proto::hello_payload(proto::VERSION, proto::ROLE_DEST);
    write_frame(&mut reply, kind::HELLO_ACK, &ack).unwrap();
    reply.extend_from_slice(&exchange);
    job_against(reply)
}

#[test]
fn version_mismatch_surfaces_as_a_typed_client_error() {
    let _wd = Watchdog::arm(
        "version_mismatch_surfaces_as_a_typed_client_error",
        TEST_LIMIT,
    );
    // The same property from the client's side: a source daemon whose
    // peer answers with a different version gets a VersionMismatch, not
    // a hang — and it sent its JOB before any answer arrived.
    let mut reply = Vec::new();
    let ack = proto::hello_payload(7, proto::ROLE_DEST);
    write_frame(&mut reply, kind::HELLO_ACK, &ack).unwrap();
    let detail = job_against(reply);
    let refusal = DaemonError::VersionMismatch { ours: 4, theirs: 7 };
    assert!(
        detail.contains(&refusal.to_string()),
        "failure detail must name the version mismatch: {detail}"
    );
}

#[test]
fn oversized_wire_message_inside_a_session_is_rejected() {
    let _wd = Watchdog::arm(
        "oversized_wire_message_inside_a_session_is_rejected",
        TEST_LIMIT,
    );
    // A destination accepting the job and then streaming a bulk exchange
    // with a forged huge count must produce a typed Corrupt error on the
    // source, not an allocation or a hang. Forged bulk exchange: count
    // u64::MAX, zero payload bytes.
    let mut forged = u64::MAX.to_be_bytes().to_vec();
    forged.push(7); // BULK_EXCHANGE wire kind
    forged.extend_from_slice(&[0xFF, 0xFF, 0xFF]); // max 24-bit length
    let detail = job_against_exchange(forged);
    assert!(
        detail.contains("bulk-exchange") || detail.contains("corrupt"),
        "failure detail: {detail}"
    );
    // A well-formed exchange holds at most one digest per guest page.
    let pages = ScenarioSpec::golden(1).pages();
    let mut digests: Vec<PageDigest> = (0..=pages).map(PageDigest::from_content_id).collect();
    digests.sort();
    let mut exchange = Vec::new();
    WireMsg::BulkExchange { digests }.encode(&mut exchange);
    let detail = job_against_exchange(exchange);
    let bound = format!(
        "corrupt payload: bulk exchange carried {} digests for {pages} pages",
        pages + 1
    );
    assert!(detail.contains(&bound), "failure detail: {detail}");
}

/// The bulk exchange is the sorted, distinct digest list: a duplicate or
/// an out-of-order pair is corrupt, and is refused before any index is
/// built from it.
#[test]
fn a_bulk_exchange_that_is_not_strictly_ascending_is_corrupt() {
    let _wd = Watchdog::arm(
        "a_bulk_exchange_that_is_not_strictly_ascending_is_corrupt",
        TEST_LIMIT,
    );
    let mut d: Vec<PageDigest> = (1..=3).map(PageDigest::from_content_id).collect();
    d.sort();
    for (case, digests) in [
        ("duplicate", vec![d[0], d[1], d[1]]),
        ("descending pair", vec![d[0], d[2], d[1]]),
    ] {
        let mut exchange = Vec::new();
        WireMsg::BulkExchange { digests }.encode(&mut exchange);
        let detail = job_against_exchange(exchange);
        assert!(
            detail.contains("corrupt")
                && detail.contains("digests 1 and 2 are not strictly ascending"),
            "{case}: {detail}"
        );
    }
}

#[test]
fn error_types_format_distinctly() {
    // The typed errors the protocol paths produce must stay
    // distinguishable in journals and job details.
    let cases: Vec<(DaemonError, &str)> = vec![
        (
            DaemonError::VersionMismatch { ours: 1, theirs: 9 },
            "version",
        ),
        (DaemonError::BadMagic, "magic"),
        (
            DaemonError::OversizedFrame { len: 99, max: 10 },
            "oversized frame",
        ),
        (
            DaemonError::UnexpectedFrame {
                expected: "JOB",
                got: 0x42,
            },
            "expected JOB",
        ),
        (
            DaemonError::LedgerMismatch {
                direction: "forward",
                measured: 10,
                expected: 12,
            },
            "ledger",
        ),
    ];
    for (err, needle) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{text:?} lacks {needle:?}");
    }
}
