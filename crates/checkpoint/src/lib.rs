//! VM checkpoints: the artifact VeCycle recycles.
//!
//! On an outgoing migration the source writes a checkpoint of the VM to
//! its local disk (§3 of the paper); a later *incoming* migration of the
//! same VM initializes guest memory from that checkpoint and builds a
//! checksum index over it, so the source only needs to send pages whose
//! content the checkpoint lacks.
//!
//! This crate provides:
//!
//! * [`Checkpoint`] — an immutable capture of guest memory, either
//!   digest-only (scalable) or with full page bytes (byte-exact restore);
//! * a versioned on-disk format with corruption detection
//!   ([`Checkpoint::write_to`] / [`Checkpoint::read_from`]);
//! * [`ChecksumIndex`] — the sorted checksum → offset index of §3.3
//!   ("we currently keep the checksums and their offsets in a sorted
//!   list, such that we can use binary search");
//! * [`CheckpointStore`] — the per-host store that keeps the most recent
//!   checkpoint per VM, in memory and (through a [`DiskStore`] mirror) as
//!   files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod disk_store;
mod index;
mod lifecycle;
mod obs;
mod partial;
mod store;
mod wire;

pub use checkpoint::{Checkpoint, CheckpointData};
pub use disk_store::DiskStore;
pub use index::{ChecksumIndex, PageLookup};
pub use lifecycle::{
    CheckpointFetch, EvictionPolicy, EvictionReason, EvictionRecord, GoneReason, SaveOutcome,
    ScrubReport,
};
pub use obs::{observe_partial, IndexSeries};
pub use partial::PartialCheckpoint;
pub use store::CheckpointStore;
