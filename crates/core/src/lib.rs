//! The VeCycle migration engine — the paper's contribution.
//!
//! A pre-copy live migration moves a VM's memory in rounds: round 1
//! transfers every page, later rounds re-send pages the still-running
//! guest dirtied, and a final stop-and-copy round pauses the VM (§3.1).
//! **VeCycle changes only round 1**: the source computes a content
//! checksum per page and sends a 28-byte checksum message instead of a
//! 4 KiB page whenever the destination — primed with an old checkpoint of
//! the same VM — already holds that content (§3.2, §3.3).
//!
//! The engine here implements that algorithm faithfully, plus every
//! baseline the paper compares against:
//!
//! * [`Strategy::full`] — QEMU's default first round;
//! * [`Strategy::dedup`] — CloudNet-style sender-side deduplication;
//! * [`Strategy::miyakodori`] — dirty-page tracking against a stored
//!   generation vector (Akiyama et al.);
//! * [`Strategy::vecycle`] — content-based redundancy elimination against
//!   a stored checkpoint, optionally combined with dedup.
//!
//! Time is computed from the same two rates that govern the paper's
//! testbed: link throughput ([`vecycle_net::LinkSpec`]) and checksum
//! throughput ([`vecycle_host::CpuSpec`]) — migration time under VeCycle
//! is bounded below by the time to checksum the VM's memory (§3.4).
//!
//! The [`session`] module layers the paper's deployment loop on top:
//! every outgoing migration stores a checkpoint on the source host, every
//! incoming migration recycles the newest local checkpoint if one exists.
//!
//! # Examples
//!
//! ```
//! use vecycle_core::{MigrationEngine, Strategy};
//! use vecycle_mem::DigestMemory;
//! use vecycle_net::LinkSpec;
//! use vecycle_types::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let vm = DigestMemory::with_uniform_content(Bytes::from_mib(64), 7)?;
//! let checkpoint = vm.snapshot();
//! let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
//! let recycled = engine.migrate(&vm, Strategy::vecycle(&checkpoint))?;
//! let baseline = engine.migrate(&vm, Strategy::full())?;
//! assert!(recycled.source_traffic() < baseline.source_traffic());
//! assert!(recycled.total_time() < baseline.total_time());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod compat;
mod engine;
pub mod estimate;
mod merge;
mod pipeline;
mod postcopy;
mod report;
pub mod session;
mod spare;
mod strategy;
mod transcript;

pub use engine::{ExchangeProtocol, MigrationEngine};
pub use merge::{Bytes, Merge, Origin, Resolver};
pub use pipeline::rounds::{AbortedTransfer, LiveOutcome};
pub use pipeline::sink::MsgSink;
pub use pipeline::wire_costs::{DeltaCompression, WireCosts, Xbzrle};
pub use postcopy::PostCopyReport;
pub use report::{MigrationOutcome, MigrationReport, RoundReport, SetupReport};
pub use strategy::{PageAction, Strategy, StrategyName};
pub use transcript::{apply_transcript, LiveTranscript, PageMsg, Transcript};
