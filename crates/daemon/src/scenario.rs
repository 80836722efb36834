//! Deterministic guest construction shared by source, destination and
//! the in-process reference run.
//!
//! Bit-identity across processes rests on this module: both daemons
//! (and the test harness) derive the guest memory, the workload, the
//! engine and the strategy from the [`ScenarioSpec`] alone, through
//! these functions only. The destination's checksum index is rebuilt
//! by the *source* from the bulk-exchanged digests; classification
//! depends only on digest membership and setup pricing only on the
//! distinct count, so the rebuilt index yields the same report as the
//! destination's own ([`reference_run`] pins this in the e2e tests).

use std::sync::Arc;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_core::{MigrationEngine, MigrationReport, Strategy};
use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_mem::{
    workload::{GuestWorkload, IdleWorkload},
    DigestMemory, Guest,
};
use vecycle_net::LinkSpec;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{PageDigest, SimDuration, SimTime, VmId};

use crate::DaemonError;

/// The initial (checkpoint-time) guest memory of a scenario.
///
/// # Errors
///
/// Propagates invalid RAM sizes.
pub fn initial_memory(spec: &ScenarioSpec) -> vecycle_types::Result<DigestMemory> {
    DigestMemory::with_uniform_content(spec.ram(), spec.seed)
}

/// The link model a scenario runs over.
pub fn link_for(spec: &ScenarioSpec) -> LinkSpec {
    match spec.link.as_str() {
        "wan" => LinkSpec::wan_cloudnet(),
        _ => LinkSpec::lan_gigabit(),
    }
}

/// The engine both sides use.
pub fn engine_for(spec: &ScenarioSpec) -> MigrationEngine {
    MigrationEngine::new(link_for(spec))
}

/// The guest as it stands when migration starts: initial memory plus
/// `pre_migrate_secs` of idle-workload divergence. Returns the guest
/// and the workload mid-stream, ready for the migration rounds.
///
/// # Errors
///
/// Propagates invalid RAM sizes.
pub fn live_guest(
    spec: &ScenarioSpec,
    initial: &DigestMemory,
) -> vecycle_types::Result<(Guest<DigestMemory>, IdleWorkload)> {
    let mut guest = Guest::new(initial.snapshot());
    let mut workload = IdleWorkload::new(spec.workload_seed(), spec.rate_pages_per_sec());
    workload.advance(
        &mut guest,
        SimDuration::from_secs_f64(spec.pre_migrate_secs),
    );
    Ok((guest, workload))
}

/// Builds the source strategy from an index rebuilt off the wire
/// (vecycle) or none (full/dedup).
///
/// # Errors
///
/// [`DaemonError::Protocol`] if the spec wants vecycle but no index
/// arrived.
pub fn wire_strategy(
    spec: &ScenarioSpec,
    index: Option<ChecksumIndex>,
) -> Result<Strategy, DaemonError> {
    match spec.strategy.as_str() {
        "full" => Ok(Strategy::full()),
        "dedup" => Ok(Strategy::dedup()),
        "vecycle" => {
            let index = index.ok_or_else(|| {
                DaemonError::Protocol("vecycle strategy needs the destination's index".into())
            })?;
            Ok(Strategy::vecycle_with_index(Arc::new(index)).with_dedup())
        }
        other => Err(DaemonError::BadSpec(format!("unknown strategy {other:?}"))),
    }
}

/// The strategy a purely local run uses — same construction, index
/// built from the local checkpoint.
///
/// # Errors
///
/// [`DaemonError::BadSpec`] on an unknown strategy name.
pub fn local_strategy(
    spec: &ScenarioSpec,
    checkpoint: &Checkpoint,
) -> Result<Strategy, DaemonError> {
    match spec.strategy.as_str() {
        "vecycle" => {
            Ok(Strategy::vecycle_with_index(Arc::new(checkpoint.build_index())).with_dedup())
        }
        _ => wire_strategy(spec, None),
    }
}

/// FNV-1a 64 over a digest sequence — the end-to-end content hash both
/// sides exchange after the stream.
pub fn content_hash(digests: &[PageDigest]) -> [u8; 8] {
    let mut fnv = Fnv1a64::new();
    for d in digests {
        fnv.update(d.as_bytes());
    }
    fnv.finalize()
}

/// What an in-process run of a scenario produces: the report the
/// daemon pair must reproduce bit-identically, and the final content
/// hash both sides must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceRun {
    /// The engine's migration report.
    pub report: MigrationReport,
    /// Content hash of the guest after migration.
    pub hash: [u8; 8],
}

/// Runs the scenario entirely in-process — the reference the loopback
/// e2e suite compares daemon results against.
///
/// # Errors
///
/// Propagates spec validation and engine errors.
pub fn reference_run(spec: &ScenarioSpec) -> Result<ReferenceRun, DaemonError> {
    spec.validate().map_err(DaemonError::from)?;
    let initial = initial_memory(spec)?;
    let strategy = if spec.strategy == "vecycle" {
        let cp = Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial);
        local_strategy(spec, &cp)?
    } else {
        wire_strategy(spec, None)?
    };
    let (mut guest, mut workload) = live_guest(spec, &initial)?;
    let report = engine_for(spec).migrate_live(&mut guest, &mut workload, strategy)?;
    let hash = content_hash(guest.memory().as_slice());
    Ok(ReferenceRun { report, hash })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_run_is_deterministic() {
        let spec = ScenarioSpec::golden(0x7ec);
        let a = reference_run(&spec).unwrap();
        let b = reference_run(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.report.strategy().to_string(), "vecycle+dedup");
    }

    #[test]
    fn wire_index_reproduces_the_local_report() {
        // The crux of cross-process bit-identity: an index rebuilt from
        // the bulk-exchanged (sorted, distinct) digests must produce
        // the same report as the checkpoint's own index.
        let spec = ScenarioSpec::golden(0x7ec);
        let initial = initial_memory(&spec).unwrap();
        let cp = Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial);
        let wire_digests: Vec<PageDigest> = cp.build_index().digests().collect();
        let strategy = wire_strategy(&spec, Some(ChecksumIndex::build(wire_digests))).unwrap();
        let (mut guest, mut workload) = live_guest(&spec, &initial).unwrap();
        let report = engine_for(&spec)
            .migrate_live(&mut guest, &mut workload, strategy)
            .unwrap();
        assert_eq!(report, reference_run(&spec).unwrap().report);
    }

    #[test]
    fn content_hash_tracks_content() {
        let a = content_hash(&[PageDigest::from_content_id(1)]);
        let b = content_hash(&[PageDigest::from_content_id(2)]);
        assert_ne!(a, b);
    }
}
