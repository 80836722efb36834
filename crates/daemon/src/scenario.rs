//! Deterministic guest construction shared by source, destination and
//! the in-process reference run.
//!
//! Bit-identity across processes rests on this module: both daemons
//! (and the test harness) derive the guest memory, the workload, the
//! engine and the strategy from the [`ScenarioSpec`] alone, through
//! these functions only. What the destination offers in the bulk
//! exchange is decided in one place, [`offer`]; the *source* rebuilds
//! that index from its digests, sent ascending (protocol 7), and classification depends
//! only on digest membership and setup pricing only on the distinct
//! count, so the rebuilt index yields the same report as the
//! destination's own ([`reference_run`] and [`reference_run_over`] pin
//! this in the e2e and recovery tests).

use std::sync::Arc;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, PartialCheckpoint};
use vecycle_core::{MigrationEngine, MigrationReport, Strategy};
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
    initial_over(spec, Vec::new())
}

/// [`initial_memory`] built over `table`, refilled whole: a table kept
/// from an earlier job lends its room, never its content.
pub(crate) fn initial_over(
    spec: &ScenarioSpec,
    table: Vec<PageDigest>,
) -> vecycle_types::Result<DigestMemory> {
    let mut image = DigestMemory::from_digests(table);
    image.refill_uniform(spec.ram(), spec.seed)?;
    Ok(image)
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
    Ok(guest_over(spec, initial.snapshot()))
}

/// [`live_guest`] built in place over its own [`initial_memory`], which
/// refills `table` whole: the source's guest, one digest table and no
/// copy of it. A daemon passes the table its buffer set kept
/// ([`Guest::into_memory`] gives it back), so a steady-state job
/// allocates none.
///
/// # Errors
///
/// Propagates invalid RAM sizes.
pub fn source_guest(
    spec: &ScenarioSpec,
    table: Vec<PageDigest>,
) -> vecycle_types::Result<(Guest<DigestMemory>, IdleWorkload)> {
    Ok(guest_over(spec, initial_over(spec, table)?))
}

fn guest_over(spec: &ScenarioSpec, initial: DigestMemory) -> (Guest<DigestMemory>, IdleWorkload) {
    let mut guest = Guest::new(initial);
    let mut workload = IdleWorkload::new(spec.workload_seed(), spec.rate_pages_per_sec());
    workload.advance(
        &mut guest,
        SimDuration::from_secs_f64(spec.pre_migrate_secs),
    );
    (guest, workload)
}

/// The checksum index a destination offers in the bulk exchange, given
/// its `checkpoint` digests (read only for a vecycle job), refilled in
/// `room`, which it returns. A fresh epoch offers the checkpoint's for a
/// vecycle job and nothing otherwise (no other stream carries checksum
/// messages), leaving `room` as it was. A retry epoch offers the pages
/// earlier epochs landed, `partial` — unioned with the checkpoint for a
/// vecycle job — whatever the job's strategy: a retry is a recycle, the
/// index the in-process retry builds.
pub fn offer<'r>(
    spec: &ScenarioSpec,
    checkpoint: &[PageDigest],
    partial: Option<&PartialCheckpoint>,
    room: &'r mut ChecksumIndex,
) -> Option<&'r ChecksumIndex> {
    let vecycle = spec.strategy == "vecycle";
    let checkpoint = if vecycle { checkpoint } else { &[] };
    match partial {
        None if !vecycle => return None,
        None => room.refill(checkpoint.iter().copied()),
        Some(partial) => partial.refill_index(room, checkpoint),
    }
    Some(room)
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
    strategy_over(spec, index.map(Arc::new))
}

/// [`wire_strategy`] over an index the caller shares, and may take back
/// once the engine has dropped the strategy.
pub(crate) fn strategy_over(
    spec: &ScenarioSpec,
    index: Option<Arc<ChecksumIndex>>,
) -> Result<Strategy, DaemonError> {
    match (index, spec.strategy.as_str()) {
        (Some(index), _) => Ok(Strategy::vecycle_with_index(index).with_dedup()),
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

/// Multipliers: `LANE_K[l]` mixes a low word into lane `l`; `MIX`
/// mixes each high word and finalizes. Fixed odd constants.
const LANE_K: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];
const MIX: u64 = 0x1d8e_4e27_c47d_124f;
/// The lanes' starting states and the count's.
const LANE_SEED: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
const COUNT_SEED: u64 = 0x4528_21e6_38d0_1377;

/// The low half XOR the high half of the 128-bit product.
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// The end-to-end content hash both sides exchange after the stream
/// (COMPLETE and DONE). Digest `i` goes to lane `i mod 4` as two
/// little-endian words, so the four lanes' multiply chains overlap;
/// the count and the lanes finalize through the same fold, big-endian.
/// An integrity check against divergence, not a MAC.
pub fn content_hash(digests: &[PageDigest]) -> [u8; 8] {
    let absorb = |lanes: &mut [u64; 4], group: &[PageDigest]| {
        for ((lane, digest), k) in lanes.iter_mut().zip(group).zip(LANE_K) {
            let w = u128::from_le_bytes(*digest.as_bytes());
            *lane = fold(fold(*lane ^ w as u64, k) ^ (w >> 64) as u64, MIX);
        }
    };
    let mut lanes = LANE_SEED;
    let (quads, tail) = digests.as_chunks::<4>();
    for quad in quads {
        absorb(&mut lanes, quad);
    }
    absorb(&mut lanes, tail);
    let count = fold(digests.len() as u64 ^ COUNT_SEED, MIX);
    lanes
        .iter()
        .fold(count, |h, &lane| fold(h ^ lane, MIX))
        .to_be_bytes()
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
    let mut index = ChecksumIndex::default();
    let offered = offer(spec, initial.as_slice(), Some(partial), &mut index).is_some();
    let strategy = wire_strategy(spec, offered.then_some(index))?;
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
        // the bulk-exchanged (distinct, ascending) digests must
        // produce the same report as the checkpoint's own index.
        let spec = ScenarioSpec::golden(0x7ec);
        let initial = initial_memory(&spec).unwrap();
        let mut room = ChecksumIndex::default();
        let offered = offer(&spec, initial.as_slice(), None, &mut room).unwrap();
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

    fn ids(n: u64) -> Vec<PageDigest> {
        (1..=n).map(PageDigest::from_content_id).collect()
    }

    #[test]
    fn content_hash_known_answers() {
        let hash = |digests: &[PageDigest]| u64::from_be_bytes(content_hash(digests));
        assert_eq!(hash(&[]), 0x8c7d_9838_e1db_8d7f);
        assert_eq!(hash(&ids(1)), 0x6b7d_682a_f774_effa);
        // 3, 4 and 5 digests: a lane tail, no tail, a tail of one.
        assert_eq!(hash(&ids(3)), 0x7938_87c2_c911_51ba);
        assert_eq!(hash(&ids(4)), 0xf343_1b9f_29a0_9b67);
        assert_eq!(hash(&ids(5)), 0xb081_3876_cc33_4e4c);
        let mut spec = ScenarioSpec::golden(1);
        spec.ram_mib = 128;
        let initial = initial_memory(&spec).unwrap();
        assert_eq!(initial.as_slice().len(), 32_768);
        assert_eq!(hash(initial.as_slice()), 0xf80c_c027_0512_e2f8);
    }

    #[test]
    fn content_hash_equals_a_digest_at_a_time_reference() {
        let reference = |digests: &[PageDigest]| {
            let mut lanes = LANE_SEED;
            for (i, digest) in digests.iter().enumerate() {
                let (lo, hi) = digest.as_bytes().split_at(8);
                let lo = u64::from_le_bytes(lo.try_into().unwrap());
                let hi = u64::from_le_bytes(hi.try_into().unwrap());
                let l = i % 4;
                lanes[l] = fold(fold(lanes[l] ^ lo, LANE_K[l]) ^ hi, MIX);
            }
            let mut h = fold(digests.len() as u64 ^ COUNT_SEED, MIX);
            for lane in lanes {
                h = fold(h ^ lane, MIX);
            }
            h.to_be_bytes()
        };
        let all = ids(64);
        for n in 0..=all.len() {
            assert_eq!(content_hash(&all[..n]), reference(&all[..n]), "{n} digests");
        }
    }

    #[test]
    fn a_flipped_bit_a_swap_or_an_appended_zero_page_moves_the_hash() {
        let mut rng = vecycle_types::rng::Xorshift::new(vecycle_types::rng::split(48, 0));
        for _ in 0..512 {
            let n = 1 + rng.below(40) as usize;
            let list: Vec<PageDigest> = (0..n)
                .map(|_| PageDigest::from_content_id(rng.next()))
                .collect();
            let hash = content_hash(&list);

            let (i, bit) = (rng.below(n as u64) as usize, rng.below(128) as usize);
            let mut flipped = list.clone();
            let mut bytes = *list[i].as_bytes();
            bytes[bit / 8] ^= 1 << (bit % 8);
            flipped[i] = PageDigest::new(bytes);
            assert_ne!(
                content_hash(&flipped),
                hash,
                "bit {bit} of digest {i} of {n}"
            );

            if n > 1 {
                let j = (i + 1 + rng.below(n as u64 - 1) as usize) % n;
                assert_ne!(list[i], list[j]);
                let mut swapped = list.clone();
                swapped.swap(i, j);
                assert_ne!(content_hash(&swapped), hash, "digests {i} and {j} of {n}");
            }

            let mut longer = list;
            longer.push(PageDigest::ZERO_PAGE);
            assert_ne!(content_hash(&longer), hash, "a zero page after {n}");
        }
    }
}
