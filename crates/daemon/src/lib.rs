//! `vecycled`: the migration daemon — real sockets over the analytic
//! wire model.
//!
//! Everything below the socket is the existing stack: the engine prices
//! a migration analytically ([`vecycle_core::MigrationEngine`]), the
//! codec makes bytes match those prices byte-for-byte
//! ([`vecycle_net::wiremsg`]), and this crate moves them between two
//! processes. A source daemon runs the engine into a [`SocketSink`],
//! which encodes each message the moment the engine emits it and
//! writes them over TCP or a Unix socket 64 KiB at a time; the
//! destination rebuilds the guest digest-by-digest and both sides
//! compare an end-to-end content hash.
//!
//! The system's core oracle lives here: after every migration the
//! source reconciles *measured* socket bytes against the analytic
//! [`TrafficLedger`](vecycle_net::TrafficLedger) plus a pinned framing
//! overhead ([`proto::forward_overhead`] /
//! [`proto::reverse_overhead`]). Any other divergence is, by
//! definition, a model bug and fails the migration with
//! [`DaemonError::LedgerMismatch`].
//!
//! Crash durability (journal-backed daemons): every job transition is
//! write-ahead journaled ([`journal`]), boot replays the WAL into the
//! same job table ([`queue::Queue::replay`]) so a killed daemon
//! restarts with no job lost and none completed twice, and a retry
//! epoch is a recycle: the destination offers the pages earlier epochs
//! landed ([`partial_log`], or its in-memory map) in the ordinary bulk
//! exchange, and the source streams against them from message 0.
//!
//! Module map: [`frame`] (control framing), [`proto`] (handshake and
//! fixed control payloads), [`endpoint`] (TCP/Unix addressing),
//! [`queue`] (the job lifecycle: table, admission, WAL writes, boot
//! replay), [`journal`] (the WAL file, the daemon's one job record),
//! [`session_state`] (the destination's stream-apply state machine +
//! its snapshot codec), [`partial_log`] (the destination's append-only
//! log of landed pages), [`record`] (the checksummed record frame the
//! journal and the log share), `server` (listener + dispatch),
//! `source`/`dest` (the two ends of a migration session), [`client`]
//! (operator RPCs), [`scenario`] (deterministic guest construction
//! shared by both processes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
#[doc(hidden)]
mod compat;
pub mod control;
mod dest;
pub mod endpoint;
mod error;
pub mod frame;
pub mod journal;
pub mod partial_log;
pub mod proto;
pub mod queue;
pub mod record;
pub mod scenario;
mod server;
pub mod session_state;
mod source;

pub use dest::{accept, receive_stream, Persist};
pub use endpoint::Endpoint;
pub use error::DaemonError;
pub use queue::{JobState, Measured};
pub use server::{Daemon, DaemonConfig, DaemonHandle};
pub use source::{receive_exchange, SocketSink};
