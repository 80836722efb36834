//! Deterministic guest construction shared by source, destination and
//! the in-process reference run.
//!
//! Bit-identity across processes rests on this module: both daemons
//! (and the test harness) derive the guest memory, the workload, the
//! engine and the strategy from the [`ScenarioSpec`] alone, through
//! these functions only. What the destination offers in the bulk
//! exchange is decided in one place, [`offer`]; the *source* rebuilds
//! that index from its keys, sent in map order, and classification depends
//! only on digest membership and setup pricing only on the distinct
//! count, so the rebuilt index yields the same report as the
//! destination's own ([`reference_run`] and [`reference_run_over`] pin
//! this in the e2e and recovery tests).

use std::sync::Arc;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, PartialCheckpoint};
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
fn link_for(spec: &ScenarioSpec) -> LinkSpec {
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

/// The checksum index a destination offers in the bulk exchange. A fresh
/// epoch offers its checkpoint's for a vecycle job and nothing otherwise
/// (no other stream carries checksum messages). A retry epoch offers the
/// pages earlier epochs landed, `partial` — unioned with the checkpoint
/// for a vecycle job — whatever the job's strategy: a retry is a recycle,
/// the index the in-process retry builds.
pub fn offer(
    spec: &ScenarioSpec,
    initial: &DigestMemory,
    partial: Option<&PartialCheckpoint>,
) -> Option<ChecksumIndex> {
    let vecycle = spec.strategy == "vecycle";
    let checkpoint = if vecycle { initial.as_slice() } else { &[] };
    match partial {
        None => vecycle.then(|| ChecksumIndex::from_pages(checkpoint)),
        Some(partial) => {
            let mut index = ChecksumIndex::default();
            partial.refill_index(&mut index, checkpoint);
            Some(index)
        }
    }
}

/// Builds the source strategy from the index the destination offered:
/// vecycle with dedup over it, or the spec's own full / dedup when the
/// destination offered none.
///
/// # Errors
///
/// [`DaemonError::Protocol`] if the spec wants vecycle but no index
/// arrived.
pub fn wire_strategy(
    spec: &ScenarioSpec,
    index: Option<ChecksumIndex>,
) -> Result<Strategy, DaemonError> {
    match (index, spec.strategy.as_str()) {
        (Some(index), _) => Ok(Strategy::vecycle_with_index(Arc::new(index)).with_dedup()),
        (None, "full") => Ok(Strategy::full()),
        (None, "dedup") => Ok(Strategy::dedup()),
        (None, "vecycle") => Err(DaemonError::Protocol(
            "vecycle strategy needs the destination's index".into(),
        )),
        (None, other) => Err(DaemonError::BadSpec(format!("unknown strategy {other:?}"))),
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
    run(spec, &initial, strategy)
}

/// Runs a retry epoch of the scenario in-process: the session a source
/// streams against a destination holding `partial`, the pages earlier
/// epochs landed — what a resumed daemon job must reproduce.
///
/// # Errors
///
/// Propagates spec validation and engine errors.
pub fn reference_run_over(
    spec: &ScenarioSpec,
    partial: &PartialCheckpoint,
) -> Result<ReferenceRun, DaemonError> {
    spec.validate().map_err(DaemonError::from)?;
    let initial = initial_memory(spec)?;
    let strategy = wire_strategy(spec, offer(spec, &initial, Some(partial)))?;
    run(spec, &initial, strategy)
}

fn run(
    spec: &ScenarioSpec,
    initial: &DigestMemory,
    strategy: Strategy,
) -> Result<ReferenceRun, DaemonError> {
    let (mut guest, mut workload) = live_guest(spec, initial)?;
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
        // the bulk-exchanged (distinct, map-ordered) digests must
        // produce the same report as the checkpoint's own index.
        let spec = ScenarioSpec::golden(0x7ec);
        let initial = initial_memory(&spec).unwrap();
        let offered = offer(&spec, &initial, None).unwrap();
        let wire: Vec<PageDigest> = offered.distinct_digests().collect();
        let strategy = wire_strategy(&spec, Some(ChecksumIndex::from_pages(&wire))).unwrap();
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
