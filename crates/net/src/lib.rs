//! Network models: links, wire sizing and traffic accounting.
//!
//! Migration time in the paper is governed by two rates — the link's
//! effective bandwidth and the CPU's checksum rate — so the network model
//! here is analytic: a [`LinkSpec`] answers "how long does it take to
//! move N bytes", with a TCP-window cap reproducing why the emulated WAN
//! (465 Mbit/s, 27 ms) only sustains ~6 MiB/s in the paper's
//! measurements. Wire-format sizing ([`wire`]) and the [`TrafficLedger`]
//! make every byte the engine sends attributable and testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
mod compat;
mod ledger;
mod link;
mod netem;
mod obs;
pub mod wire;
pub mod wiremsg;

pub use ledger::{TrafficCategory, TrafficLedger};
pub use link::LinkSpec;
pub use netem::Netem;
pub use obs::LedgerSeries;
pub use wiremsg::WireMsg;
