//! Hosts, disks, CPUs, clusters and migration schedules.
//!
//! The paper's testbed (§4.1) is two VM hosts with local HDD/SSD storage
//! for checkpoints, gigabit NICs and MD5 throughput of ~350 MiB/s per
//! core. This crate models those components — [`DiskSpec`], [`CpuSpec`],
//! [`Host`] — plus the [`Cluster`] container and the
//! [`MigrationRequest`] streams that drive multi-day scenarios: the
//! §4.6 VDI twice-a-weekday pattern and the ping-pong pattern of the IBM
//! study, each a `Vec` of requests pinned to the move's destination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cpu;
mod disk;
mod locks;
mod obs;
mod schedule;

pub use cluster::{Cluster, Host};
pub use cpu::CpuSpec;
pub use disk::DiskSpec;
pub use locks::{HostClaim, HostLocks};
pub use obs::StoreSeries;
pub use schedule::MigrationRequest;
