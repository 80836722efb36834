//! Fleet-scale checkpoint-aware orchestration.
//!
//! The paper's core observation (§2.2) is that VMs ping-pong among a
//! *small* set of hosts, so a checkpoint left behind at departure is
//! very likely useful again soon. A session's `run_schedule` exploits
//! that for requests whose destinations are all pinned up front. This
//! crate runs the same [`vecycle_host::MigrationRequest`] streams and
//! exploits it *actively* — an unpinned request's destination is
//! chosen, per migration, to land on the warmest checkpoint available:
//!
//! * [`FleetSpec`] — topology (hosts, VMs, affinity sets) and the two
//!   policy axes;
//! * [`PlacementMode`] — *where*: the candidate host holding the VM's
//!   freshest checkpoint, vs. blind round-robin, vs. random;
//! * [`TimingPolicy`] — *when*: immediately, or deferred into the
//!   guest's next low-dirty window (bounded by the request deadline);
//! * [`Fleet`] — the event-driven driver: requests arrive on a
//!   [`vecycle_sim::Simulator`], pass timing, placement and admission
//!   control (host locks + rack-pair link caps + a fleet-wide cap),
//!   and execute through the same
//!   [`VeCycleSession::migrate_with_faults`](vecycle_core::session::VeCycleSession::migrate_with_faults)
//!   as the session's schedule runners;
//! * [`FleetReport`] / [`PlacementDecision`] — deterministic results:
//!   a journal of every decision plus aggregate traffic/downtime
//!   accounting, byte-identical across repeat runs.
//!
//! ```
//! use vecycle_fleet::{Fleet, FleetSpec, PlacementMode};
//!
//! # fn main() -> vecycle_types::Result<()> {
//! let spec = FleetSpec::new(8, 16).with_placement(PlacementMode::CheckpointAware);
//! let report = Fleet::new(spec)?.run()?;
//! assert_eq!(report.migrations, report.decisions.len() as u64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
#[doc(hidden)]
mod compat;
mod fleet;
mod journal;
mod placement;
mod report;
mod spec;
mod timing;
mod vms;

pub use fleet::Fleet;
pub use journal::PlacementDecision;
pub use placement::PlacementMode;
pub use report::FleetReport;
pub use spec::FleetSpec;
pub use timing::TimingPolicy;
