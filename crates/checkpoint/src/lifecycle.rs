//! Checkpoint lifecycle vocabulary: eviction policies, eviction
//! records, tombstones, and what a fetch or a restart found.
//!
//! "Local storage is cheap" (§2) but not infinite: once a host carries
//! a byte budget, every save becomes an admission decision and *which*
//! checkpoint gets evicted under pressure decides how much of the
//! paper's traffic reduction survives. Workload-cycle studies (Baruchi
//! et al.) show VMs return to hosts on predictable periods, so the
//! cycle-aware [`EvictionPolicy::StalenessScore`] weighs a checkpoint's
//! age against its VM's observed return period instead of treating all
//! staleness alike.
//!
//! Everything here is deterministic: victim selection depends only on
//! store contents and simulated time, never on wall clock or map
//! iteration order.

use std::sync::Arc;

use vecycle_types::{SimDuration, SimTime, VmId};

use crate::Checkpoint;

/// How a [`CheckpointStore`](crate::CheckpointStore) picks eviction
/// victims when a save pushes it over its byte quota.
///
/// All policies are deterministic; ties break towards the oldest
/// checkpoint, then insertion order. The just-saved checkpoint is never
/// a victim — admission already guaranteed it fits the quota alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the checkpoint with the oldest capture time.
    #[default]
    OldestFirst,
    /// Evict the checkpoint least recently recycled by a migration
    /// (never-recycled checkpoints go first, oldest capture first).
    LruByRecycle,
    /// Evict the checkpoint occupying the most bytes.
    LargestFirst,
    /// Evict the checkpoint with the worst age-to-return-period ratio:
    /// a checkpoint two return periods stale is deader than one half a
    /// period stale, even if the latter is older in absolute terms.
    /// VMs with no observed period yet assume one day.
    StalenessScore,
}

impl EvictionPolicy {
    /// Assumed return period for a VM the store has only seen once —
    /// the paper's headline experiment revisits hosts on a daily cycle.
    pub(crate) const DEFAULT_RETURN_PERIOD: SimDuration = SimDuration::from_hours(24);

    /// Stable snake_case label for metrics
    /// (`ckpt_evictions_total{policy=…}`) and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            EvictionPolicy::OldestFirst => "oldest_first",
            EvictionPolicy::LruByRecycle => "lru_by_recycle",
            EvictionPolicy::LargestFirst => "largest_first",
            EvictionPolicy::StalenessScore => "staleness_score",
        }
    }

    /// Parses a CLI-flag spelling (`oldest`, `lru`, `largest`,
    /// `staleness`, or any full label).
    pub fn parse(s: &str) -> Option<EvictionPolicy> {
        match s {
            "oldest" | "oldest_first" => Some(EvictionPolicy::OldestFirst),
            "lru" | "lru_by_recycle" => Some(EvictionPolicy::LruByRecycle),
            "largest" | "largest_first" => Some(EvictionPolicy::LargestFirst),
            "staleness" | "staleness_score" => Some(EvictionPolicy::StalenessScore),
            _ => None,
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a checkpoint left the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionReason {
    /// Replaced by a newer save of the same VM.
    Version,
    /// Evicted to bring the store back under its byte quota.
    Quota,
}

impl EvictionReason {
    /// Stable snake_case label for metrics
    /// (`ckpt_evictions_total{reason=…}`).
    pub fn label(&self) -> &'static str {
        match self {
            EvictionReason::Version => "version",
            EvictionReason::Quota => "quota",
        }
    }
}

/// One checkpoint evicted during a save — enough for the session to
/// narrate it. A [`Quota`](EvictionReason::Quota) record means the VM
/// has no checkpoint left (file deleted, tombstone set); a
/// [`Version`](EvictionReason::Version) record means a newer one took
/// its place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionRecord {
    /// The VM whose checkpoint was evicted.
    pub vm: VmId,
    /// When the evicted checkpoint was captured.
    pub taken_at: SimTime,
    /// Why it was evicted.
    pub reason: EvictionReason,
}

/// Why a VM has *no* checkpoint where one used to be. Distinguishes "we
/// chose to drop it" from "it rotted on disk" so a later migration can
/// degrade with the right cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GoneReason {
    /// Evicted under disk pressure.
    Evicted,
    /// Failed checksum verification during a scrub pass and was
    /// quarantined (file deleted, never restored from).
    Quarantined,
}

impl GoneReason {
    /// Stable snake_case label for events and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            GoneReason::Evicted => "evicted",
            GoneReason::Quarantined => "quarantined",
        }
    }
}

/// What a quota-governed save did: whether the checkpoint was admitted,
/// and which victims were evicted to make room.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SaveOutcome {
    /// False when the checkpoint alone exceeds the quota and admission
    /// refused it outright. A refused save evicts nothing (the
    /// `Default`); a refused *re-admission* from the mirror evicts the
    /// file it came from.
    pub stored: bool,
    /// The VM's previous checkpoint, which this save replaced (a
    /// [`Version`](EvictionReason::Version) record). It comes before
    /// `evicted` in eviction order, and is kept apart so that the
    /// common save, a replacement under no quota pressure, allocates
    /// no list.
    pub replaced: Option<EvictionRecord>,
    /// Checkpoints evicted under the quota by this save, in eviction
    /// order.
    pub evicted: Vec<EvictionRecord>,
}

/// What [`CheckpointStore::fetch`](crate::CheckpointStore::fetch) found
/// when a migration went looking for a recyclable checkpoint.
#[derive(Debug, Clone)]
pub enum CheckpointFetch {
    /// A validated checkpoint, from the warm catalog or read back from
    /// the mirror.
    Usable(Arc<Checkpoint>),
    /// No checkpoint anywhere: first visit (or it was discarded).
    Missing,
    /// The file existed but failed validation and was deleted.
    Corrupt,
    /// The checkpoint this VM left behind is gone and its tombstone says
    /// why: evicted under disk pressure (recycling *would* have
    /// applied), or rotted on disk and quarantined by a restart's scrub.
    Gone(GoneReason),
}

impl CheckpointFetch {
    /// Stable label for `session_checkpoint_fetch_total{result=…}`.
    pub fn label(&self) -> &'static str {
        match self {
            CheckpointFetch::Usable(_) => "hit",
            CheckpointFetch::Missing => "miss",
            CheckpointFetch::Corrupt => "corrupt",
            CheckpointFetch::Gone(why) => why.label(),
        }
    }
}

/// What [`CheckpointStore::restart`](crate::CheckpointStore::restart)
/// found while scrubbing the mirror and re-warming the catalog from it.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Checkpoints that re-verified clean.
    pub verified: u64,
    /// Pages across the clean checkpoints.
    pub clean_pages: u64,
    /// VMs whose files failed validation and were quarantined (file
    /// deleted, tombstone left), in id order.
    pub quarantined: Vec<VmId>,
    /// Estimated pages across the quarantined files (from each file's
    /// length and the layout its header declares — the corrupt payload
    /// itself is untrustworthy).
    pub corrupt_pages: u64,
    /// Checkpoints the re-warm evicted: the quota also applies when
    /// reloading from disk.
    pub evicted: Vec<EvictionRecord>,
}
