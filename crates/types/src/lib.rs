//! Shared value types for the VeCycle workspace.
//!
//! This crate holds the vocabulary every other crate speaks: byte and page
//! quantities, simulated time, rates, identifiers for hosts/VMs/machines,
//! and the [`PageDigest`] content fingerprint type — plus
//! [`atomic_replace`], the one crash-safe file replace every store uses,
//! the seeded generators of [`rng`] and the poison-recovering lock
//! helpers of [`sync`].
//!
//! Everything here is a small, cheap value type. The newtypes exist so the
//! compiler keeps bytes, pages, seconds and rates from being mixed up — a
//! classic source of silent errors in simulators.
//!
//! # Examples
//!
//! ```
//! use vecycle_types::{Bytes, BytesPerSec, SimDuration};
//!
//! let ram = Bytes::from_mib(4096);
//! let gbe = BytesPerSec::from_mib_per_sec(120);
//! let t: SimDuration = gbe.time_to_transfer(ram);
//! assert!((t.as_secs_f64() - 34.13).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic_file;
mod digest;
mod error;
mod ids;
pub mod rng;
pub mod sync;
mod time;
mod units;

pub use atomic_file::atomic_replace;
pub use digest::{DigestHasher, DigestMap, PageDigest};
pub use error::{Error, Result};
pub use ids::{HostId, MachineId, PageIndex, VmId};
pub use time::{SimDuration, SimTime};
pub use units::{Bytes, BytesPerSec, PageCount, Ratio, PAGE_SIZE};
