//! Operator client: one CTRL round trip per call, over TCP or a Unix
//! socket. This is what `vecycle-cli`'s daemon subcommands and the
//! test harness use.

use std::io::Write;
use std::time::{Duration, Instant};

use crate::control::{CtrlRequest, CtrlResponse, JobView};
use crate::frame::{kind, read_frame, write_frame, MAX_PAYLOAD};
use crate::{DaemonError, Endpoint};

/// The control-socket I/O timeout when the caller does not pick one.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often `wait_job` asks for the job's status.
const WAIT_POLL: Duration = Duration::from_millis(25);

/// Sends one control request and reads the response, with
/// [`DEFAULT_IO_TIMEOUT`] on the socket.
///
/// # Errors
///
/// As [`request_timeout`].
pub fn request(ep: &Endpoint, req: &CtrlRequest) -> Result<CtrlResponse, DaemonError> {
    request_timeout(ep, req, DEFAULT_IO_TIMEOUT)
}

/// Sends one control request and reads the response. `io_timeout`
/// bounds both the read and the write, so a wedged daemon can neither
/// starve our read nor hang our send.
///
/// # Errors
///
/// [`DaemonError::Io`] on socket failures, [`DaemonError::Remote`] if
/// the daemon answered with an ERR frame,
/// [`DaemonError::UnexpectedFrame`] / [`DaemonError::Corrupt`] on a
/// malformed reply.
pub fn request_timeout(
    ep: &Endpoint,
    req: &CtrlRequest,
    io_timeout: Duration,
) -> Result<CtrlResponse, DaemonError> {
    let mut stream = ep.connect()?;
    stream.set_io_timeout(Some(io_timeout))?;
    write_frame(&mut stream, kind::CTRL, req.encode().as_bytes())?;
    stream.flush()?;
    let frame = read_frame(&mut stream, MAX_PAYLOAD)?;
    if frame.kind == kind::ERR {
        return Err(DaemonError::Remote(
            String::from_utf8_lossy(&frame.payload).into_owned(),
        ));
    }
    if frame.kind != kind::CTRL_OK {
        return Err(DaemonError::UnexpectedFrame {
            expected: "CTRL_OK",
            got: frame.kind,
        });
    }
    let text = std::str::from_utf8(&frame.payload)
        .map_err(|e| DaemonError::Corrupt(format!("control response not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| DaemonError::Corrupt(format!("control response: {e}")))
}

fn expect_ok(resp: CtrlResponse) -> Result<CtrlResponse, DaemonError> {
    if resp.ok {
        Ok(resp)
    } else {
        Err(DaemonError::Remote(resp.error))
    }
}

/// Submits a migration; returns the job id.
///
/// # Errors
///
/// [`DaemonError::Remote`] with the daemon's message on rejection.
pub fn submit(ep: &Endpoint, spec_kv: &str, peer: &str) -> Result<u64, DaemonError> {
    let resp = expect_ok(request(
        ep,
        &CtrlRequest {
            cmd: "submit".into(),
            spec: spec_kv.to_string(),
            peer: peer.to_string(),
            job: 0,
        },
    )?)?;
    Ok(resp.job)
}

/// Fetches the queue status (all jobs, pause flag, drain order).
///
/// # Errors
///
/// As [`request`].
pub fn status(ep: &Endpoint) -> Result<CtrlResponse, DaemonError> {
    expect_ok(request(ep, &CtrlRequest::bare("status"))?)
}

/// Cancels a queued job.
///
/// # Errors
///
/// [`DaemonError::Remote`] if the job is unknown or already running.
pub fn cancel(ep: &Endpoint, job: u64) -> Result<(), DaemonError> {
    let mut req = CtrlRequest::bare("cancel");
    req.job = job;
    expect_ok(request(ep, &req)?).map(|_| ())
}

/// Whether a daemon answers at `ep`.
pub fn ping(ep: &Endpoint) -> bool {
    matches!(request(ep, &CtrlRequest::bare("ping")), Ok(resp) if resp.ok)
}

/// Polls `status` until job `id` reaches a terminal state, with the
/// default control-socket timeout.
///
/// # Errors
///
/// As [`wait_job_with`].
pub fn wait_job(ep: &Endpoint, id: u64, timeout: Duration) -> Result<JobView, DaemonError> {
    wait_job_with(ep, id, timeout, DEFAULT_IO_TIMEOUT)
}

/// Polls `status` every 25 ms until job `id` reaches a terminal state
/// or `timeout` expires; each status round trip uses `io_timeout` on
/// the socket.
///
/// # Errors
///
/// [`DaemonError::BadJob`] if the job is unknown,
/// [`DaemonError::WaitTimeout`] — carrying the last [`JobView`]
/// observed, so the caller sees *where* the job was stuck — when time
/// runs out; socket errors as [`request_timeout`].
pub fn wait_job_with(
    ep: &Endpoint,
    id: u64,
    timeout: Duration,
    io_timeout: Duration,
) -> Result<JobView, DaemonError> {
    let start = Instant::now();
    let deadline = start + timeout;
    let mut last: Option<JobView>;
    loop {
        let resp = expect_ok(request_timeout(
            ep,
            &CtrlRequest::bare("status"),
            io_timeout,
        )?)?;
        match resp.jobs.into_iter().find(|j| j.id == id) {
            Some(view) if matches!(view.state.as_str(), "done" | "failed" | "cancelled") => {
                return Ok(view)
            }
            Some(view) => last = Some(view),
            None => return Err(DaemonError::BadJob(format!("job {id} not found"))),
        }
        if Instant::now() >= deadline {
            return Err(DaemonError::WaitTimeout {
                job: id,
                waited_ms: start.elapsed().as_millis() as u64,
                last: last.map(Box::new),
            });
        }
        std::thread::sleep(WAIT_POLL.min(deadline.saturating_duration_since(Instant::now())));
    }
}
