//! The operator control surface: JSON request/response over one CTRL
//! frame.
//!
//! Requests and responses are flat structs with concrete fields (the
//! vendored serde derive has no enum or attribute support); unused
//! fields ride along empty. `dispatch` is the daemon-side
//! dispatcher; [`client`](crate::client) wraps the socket round trip.

use serde::{Deserialize, Serialize};
use vecycle_sim::ScenarioSpec;

use crate::queue::JobRecord;
use crate::server::DaemonState;
use crate::{DaemonError, Endpoint};

/// One operator request. `cmd` selects the action; the other fields
/// are that action's arguments (empty/zero when unused).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CtrlRequest {
    /// `submit`, `status`, `pause`, `resume`, `cancel` or `ping`.
    pub cmd: String,
    /// Scenario key-value string ([`ScenarioSpec::parse`]) for `submit`.
    pub spec: String,
    /// Peer daemon address for `submit`.
    pub peer: String,
    /// Job id for `cancel`.
    pub job: u64,
}

impl CtrlRequest {
    /// A request with empty arguments for argument-less commands.
    pub fn bare(cmd: &str) -> CtrlRequest {
        CtrlRequest {
            cmd: cmd.to_string(),
            ..CtrlRequest::default()
        }
    }

    /// The JSON encoding sent in a CTRL frame.
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("control request serializes")
    }

    /// Parses a CTRL frame payload the way the daemon reads one: lossy
    /// UTF-8, then JSON.
    ///
    /// # Errors
    ///
    /// The JSON error on a payload that is not a request.
    pub fn decode(payload: &[u8]) -> Result<CtrlRequest, serde_json::Error> {
        serde_json::from_str(&String::from_utf8_lossy(payload))
    }
}

/// One job as the operator sees it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// Lifecycle state label ([`crate::JobState::label`]).
    pub state: String,
    /// Failure detail, empty while healthy.
    pub detail: String,
    /// Scenario strategy name.
    pub strategy: String,
    /// Peer daemon address.
    pub peer: String,
    /// Pre-copy round count (0 until done).
    pub rounds: u64,
    /// Stop-and-copy downtime in nanoseconds (0 until done).
    pub downtime_ns: u64,
    /// Analytic forward traffic in bytes (0 until done).
    pub forward_bytes: u64,
    /// Analytic reverse traffic in bytes (0 until done).
    pub reverse_bytes: u64,
    /// Measured bytes written to the migration socket.
    pub measured_tx: u64,
    /// Measured bytes read from the migration socket.
    pub measured_rx: u64,
    /// Expected socket bytes, forward (ledger + framing overhead).
    pub expected_tx: u64,
    /// Expected socket bytes, reverse (ledger + framing overhead).
    pub expected_rx: u64,
    /// Whether the migration converged within its round budget.
    pub converged: bool,
    /// Resume epoch of the completing session (0 = fresh transfer,
    /// N ≥ 1 = Nth reconnect/restart attempt).
    pub resumed: u64,
    /// Whether this record was rebuilt from the WAL on boot.
    pub recovered: bool,
}

impl JobView {
    fn from_record(id: u64, rec: &JobRecord) -> JobView {
        let mut view = JobView {
            id,
            state: rec.state.label().to_string(),
            detail: rec.detail.clone(),
            strategy: rec.spec.strategy.clone(),
            peer: rec.peer.to_string(),
            resumed: rec.resume_epoch,
            recovered: rec.recovered,
            ..JobView::default()
        };
        if let Some(report) = &rec.report {
            view.rounds = report.rounds().len() as u64;
            view.downtime_ns = report.downtime().as_nanos();
            view.forward_bytes = report.source_traffic().as_u64();
            view.reverse_bytes = report.reverse_traffic().as_u64();
            view.converged = report.converged();
        }
        if let Some(m) = &rec.measured {
            view.measured_tx = m.tx;
            view.measured_rx = m.rx;
            view.expected_tx = m.expected_tx;
            view.expected_rx = m.expected_rx;
            view.resumed = m.resume_epoch;
        }
        view
    }
}

/// One operator response.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CtrlResponse {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Error message when `ok` is false.
    pub error: String,
    /// The submitted job's id (for `submit`).
    pub job: u64,
    /// Whether admission is paused (for `status`).
    pub paused: bool,
    /// All jobs, ascending id (for `status`).
    pub jobs: Vec<JobView>,
    /// Job ids in admission order (for `status`).
    pub drained: Vec<u64>,
}

impl CtrlResponse {
    fn ok() -> CtrlResponse {
        CtrlResponse {
            ok: true,
            ..CtrlResponse::default()
        }
    }

    pub(crate) fn err(e: &DaemonError) -> CtrlResponse {
        CtrlResponse {
            error: e.to_string(),
            ..CtrlResponse::default()
        }
    }
}

/// Dispatches one operator request against the daemon state.
pub(crate) fn dispatch(
    state: &DaemonState,
    req: &CtrlRequest,
) -> Result<CtrlResponse, DaemonError> {
    let mut resp = CtrlResponse::ok();
    match req.cmd.as_str() {
        "ping" => {}
        "submit" => {
            let spec = ScenarioSpec::parse(&req.spec).map_err(DaemonError::from)?;
            if req.peer.is_empty() {
                return Err(DaemonError::BadSpec("submit needs a peer address".into()));
            }
            resp.job = state.queue.submit(spec, Endpoint::parse(&req.peer))?;
        }
        "status" => {
            let inner = state.queue.lock();
            (resp.paused, resp.drained) = (inner.paused, inner.drained.clone());
            let view = |(id, job): (&u64, &JobRecord)| JobView::from_record(*id, job);
            resp.jobs = inner.jobs.iter().map(view).collect();
        }
        "pause" | "resume" => state.queue.set_paused(req.cmd == "pause"),
        "cancel" => state.queue.cancel(req.job)?,
        other => {
            let unknown = format!("unknown control command {other:?}");
            return Err(DaemonError::Protocol(unknown));
        }
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_response_round_trip_as_json() {
        let req = CtrlRequest {
            cmd: "submit".into(),
            spec: ScenarioSpec::golden(1).to_kv(),
            peer: "127.0.0.1:7310".into(),
            job: 0,
        };
        assert_eq!(CtrlRequest::decode(req.encode().as_bytes()).unwrap(), req);

        let mut resp = CtrlResponse::ok();
        resp.job = 7;
        resp.drained = vec![1, 2, 3];
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<CtrlResponse>(&json).unwrap(), resp);
    }
}
