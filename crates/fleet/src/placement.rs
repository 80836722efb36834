//! Destination choice: checkpoint-aware placement and the two baselines.
//!
//! The paper's speedups come from *finding* a warm checkpoint at the
//! destination. A static schedule only hits one by luck; the aware
//! placer sends the VM to the candidate host whose
//! [`CheckpointStore`](vecycle_checkpoint::CheckpointStore) holds its
//! freshest checkpoint, since similarity falls as a checkpoint ages (the
//! paper's Figure 1). "Simple Destination-Swap Strategies" in PAPERS.md
//! is the where-to-migrate axis this implements.

use vecycle_host::Cluster;
use vecycle_types::HostId;

use crate::vms::FleetVm;
use vecycle_types::rng::Xorshift;

/// How the fleet picks destinations for unpinned requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementMode {
    /// Go to the candidate holding the VM's newest checkpoint; fall back
    /// to round-robin when no candidate holds a usable one.
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
    /// Aware placement found a warm checkpoint at the destination.
    Warm,
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
    /// Every kind's label, in variant order.
    pub(crate) const LABELS: [&'static str; 5] = ["warm", "cold", "blind", "random", "pinned"];

    pub(crate) fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }
}

/// Picks a destination for `vm` among its affinity set, excluding its
/// current location.
///
/// Aware placement considers each candidate holding a checkpoint of this
/// VM with a matching page count and takes the one whose checkpoint was
/// taken last; on a tie the first in affinity order wins, so the choice
/// is a total order over the walk. When no candidate holds one, it falls
/// back to the blind round-robin so cold starts still spread load.
pub(crate) fn choose(
    mode: PlacementMode,
    vm: &mut FleetVm,
    cluster: &Cluster,
    rng: &mut Xorshift,
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
            let (id, pages) = (vm.instance.id(), vm.instance.guest().page_count());
            let holders = candidates(vm, from).filter_map(|cand| {
                let host = cluster.host(cand).expect("affinity host in cluster");
                let cp = host.store().latest(id)?;
                (cp.page_count() == pages).then(|| (cp.taken_at(), cand))
            });
            // Strict > keeps the first of equally fresh holders.
            match holders.reduce(|best, next| if next.0 > best.0 { next } else { best }) {
                Some((_, to)) => Choice {
                    to,
                    kind: ChoiceKind::Warm,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vms::{CyclicWorkload, DirtyCycle};
    use vecycle_checkpoint::Checkpoint;
    use vecycle_core::session::VmInstance;
    use vecycle_mem::{DigestMemory, Guest, MutableMemory, PageContent};
    use vecycle_net::LinkSpec;
    use vecycle_types::{PageCount, PageIndex, SimDuration, SimTime, VmId};

    /// Host 1 holds an older checkpoint equal to the guest on every
    /// page, host 2 a newer one equal on half: the newer one wins, and
    /// of two equally fresh holders the first in affinity order does.
    #[test]
    fn aware_placement_takes_the_freshest_checkpoint_over_the_closest() {
        let cluster = Cluster::homogeneous(3, LinkSpec::lan_gigabit());
        let id = VmId::new(0);
        let memory = DigestMemory::with_distinct_content(PageCount::new(64), 1);
        let mut half = memory.snapshot();
        for i in 0..32 {
            half.write_page(PageIndex::new(i), PageContent::ContentId((1 << 62) | i));
        }
        let hour = SimDuration::from_hours(1);
        let save = |host, hours, memory: &DigestMemory| {
            let cp = Checkpoint::capture(id, SimTime::EPOCH + hour * hours, memory);
            let host = cluster.host(HostId::new(host)).unwrap();
            host.save_checkpoint(cp).unwrap();
        };
        save(1, 1, &memory);
        save(2, 2, &half);
        let cycle = DirtyCycle::new(hour * 2, SimDuration::ZERO, hour);
        let mut vm = FleetVm {
            instance: VmInstance::new(id, Guest::new(memory.snapshot()), HostId::new(0)),
            workload: CyclicWorkload::new(1, cycle, 0.0, 0.0),
            affinity: (0..3).map(HostId::new).collect(),
            rr_cursor: 0,
            advanced_to: SimTime::EPOCH,
            busy: false,
        };
        let mut rng = Xorshift::new(1);
        let mut aware = || choose(PlacementMode::CheckpointAware, &mut vm, &cluster, &mut rng);
        let first = aware();
        assert_eq!((first.to, first.kind), (HostId::new(2), ChoiceKind::Warm));
        save(1, 2, &memory);
        assert_eq!(aware().to, HostId::new(1));
    }
}
