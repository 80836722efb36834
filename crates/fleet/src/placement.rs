//! Destination choice: checkpoint-aware scoring and the two baselines.
//!
//! The paper's speedups come from *finding* a warm checkpoint at the
//! destination. A static schedule only hits one by luck; the aware
//! placer makes its own luck by scoring each candidate host's
//! [`CheckpointStore`](vecycle_checkpoint::CheckpointStore) for digest
//! overlap with the guest's *current* memory — an exact prediction of
//! the pages the engine will ship as 16-byte checksums instead of
//! 4 KiB payloads ("Simple Destination-Swap Strategies" in PAPERS.md
//! is the where-to-migrate axis this implements).

use vecycle_host::Cluster;
use vecycle_mem::MemoryImage;
use vecycle_types::{DigestSet, HostId, SimTime};

use crate::vms::FleetVm;
use vecycle_types::rng::Xorshift;

/// How the fleet picks destinations for unpinned requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementMode {
    /// Score candidates by recycled-checkpoint coverage; fall back to
    /// round-robin when no candidate holds a usable checkpoint.
    #[default]
    CheckpointAware,
    /// Round-robin over the affinity set, ignoring checkpoints — the
    /// "static schedule" strawman.
    CheckpointBlind,
    /// Uniform random over the affinity set (seeded, replayable).
    Random,
}

impl PlacementMode {
    /// Stable label for metrics, journals and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            PlacementMode::CheckpointAware => "aware",
            PlacementMode::CheckpointBlind => "blind",
            PlacementMode::Random => "random",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "aware" => Some(PlacementMode::CheckpointAware),
            "blind" => Some(PlacementMode::CheckpointBlind),
            "random" => Some(PlacementMode::Random),
            _ => None,
        }
    }
}

/// A placement decision plus why it was made (journalled verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Choice {
    pub to: HostId,
    pub kind: ChoiceKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChoiceKind {
    /// Aware placement found a warm checkpoint: `overlap` guest pages
    /// are already present in the destination's stored digests.
    Warm { overlap: u64, taken_at: SimTime },
    /// Aware placement found nothing warm; fell back to round-robin.
    Cold,
    /// Blind round-robin.
    Blind,
    /// Seeded uniform draw.
    Random,
    /// The request pinned its destination.
    Pinned,
}

impl ChoiceKind {
    pub(crate) fn label(self) -> &'static str {
        match self {
            ChoiceKind::Warm { .. } => "warm",
            ChoiceKind::Cold => "cold",
            ChoiceKind::Blind => "blind",
            ChoiceKind::Random => "random",
            ChoiceKind::Pinned => "pinned",
        }
    }
}

/// Picks a destination for `vm` among its affinity set, excluding its
/// current location.
///
/// Aware scoring, per candidate holding a checkpoint of this VM with a
/// matching page count: `overlap` = number of guest pages whose digest
/// appears in the checkpoint (the engine transfers exactly those as
/// checksums). Best candidate = max by `(overlap, taken_at)`, ties to
/// the lowest `HostId` — total order, no map-iteration nondeterminism.
/// Zero overlap everywhere degrades to the blind round-robin so cold
/// starts still spread load. `stored` is scratch space the fleet
/// reuses across calls, so scoring allocates once per fleet, not once
/// per candidate.
pub(crate) fn choose(
    mode: PlacementMode,
    vm: &mut FleetVm,
    cluster: &Cluster,
    rng: &mut Xorshift,
    stored: &mut DigestSet,
) -> Choice {
    let from = vm.instance.location();
    let count = candidates(vm, from).count();
    assert!(
        count > 0,
        "affinity set of {} collapsed to its current host",
        vm.instance.id()
    );
    match mode {
        PlacementMode::CheckpointAware => {
            let guest = vm.instance.guest().memory();
            let mut best: Option<(u64, SimTime, HostId)> = None;
            for cand in candidates(vm, from) {
                let host = cluster.host(cand).expect("affinity host in cluster");
                let Some(cp) = host.store().latest(vm.instance.id()) else {
                    continue;
                };
                if cp.page_count() != guest.page_count() {
                    continue;
                }
                stored.clear();
                stored.extend(cp.digest_table().iter().copied());
                let overlap = guest
                    .as_slice()
                    .iter()
                    .filter(|d| stored.contains(d))
                    .count() as u64;
                if overlap == 0 {
                    continue;
                }
                let key = (overlap, cp.taken_at(), cand);
                // Strict > on (overlap, freshness) keeps the lowest
                // HostId on full ties because candidates scan ascending.
                if best.is_none_or(|b| (key.0, key.1) > (b.0, b.1)) {
                    best = Some(key);
                }
            }
            match best {
                Some((overlap, taken_at, to)) => Choice {
                    to,
                    kind: ChoiceKind::Warm { overlap, taken_at },
                },
                None => Choice {
                    to: round_robin(vm, from, count),
                    kind: ChoiceKind::Cold,
                },
            }
        }
        PlacementMode::CheckpointBlind => Choice {
            to: round_robin(vm, from, count),
            kind: ChoiceKind::Blind,
        },
        PlacementMode::Random => Choice {
            to: candidates(vm, from)
                .nth(rng.below(count as u64) as usize)
                .expect("the draw is below the count"),
            kind: ChoiceKind::Random,
        },
    }
}

/// The next of the `count` candidates, in turn.
fn round_robin(vm: &mut FleetVm, from: HostId, count: usize) -> HostId {
    let to = candidates(vm, from)
        .nth(vm.rr_cursor as usize % count)
        .expect("the cursor is reduced below the count");
    vm.rr_cursor = vm.rr_cursor.wrapping_add(1);
    to
}

/// The hosts `vm` may move to from `from`: its affinity set minus
/// `from`, in affinity order.
fn candidates(vm: &FleetVm, from: HostId) -> impl Iterator<Item = HostId> + '_ {
    vm.affinity.iter().copied().filter(move |&h| h != from)
}
