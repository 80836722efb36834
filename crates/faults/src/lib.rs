//! Deterministic fault injection for the VeCycle simulation.
//!
//! The paper's premise is that state left behind by earlier transfers can
//! be recycled (§3) and that the system degrades gracefully when no
//! checkpoint is usable (§4.6). This crate supplies the *failure* half of
//! that story: a seeded, reproducible [`FaultPlan`] that injects faults at
//! precise points of a migration schedule, and the [`RetryPolicy`] the
//! session layer uses to recover from them.
//!
//! Everything here is pure data drawn from `vecycle_types::rng` — no
//! clocks, no OS randomness — so a `(seed, FaultPlan)` pair always
//! produces the same failure trace, bit for bit, at any thread count.
//!
//! # Fault taxonomy
//!
//! | Fault | Injection point | Recovery |
//! |---|---|---|
//! | [`FaultKind::LinkDrop`] | after N bytes / a RAM fraction on the wire | abort, leave a partial checkpoint, retry resumes from it |
//! | [`FaultKind::LinkDegrade`] | from a pre-copy round onwards | none needed — rounds just slow down |
//! | [`FaultKind::CheckpointCorrupt`] | on checkpoint load at the destination | discard, fall back to dedup-only |
//! | [`FaultKind::CrashDuringSave`] | while persisting the post-migration checkpoint | old checkpoint survives (atomic rename), new one is lost |
//! | [`FaultKind::DirtySpike`] | guest dirty rate multiplies mid-migration | convergence guard forces stop-and-copy |
//!
//! # Examples
//!
//! ```
//! use vecycle_faults::{DropPoint, FaultKind, FaultPlan, FaultRates};
//!
//! // Hand-crafted: leg 2's first attempt dies halfway through RAM.
//! let plan = FaultPlan::none().inject(
//!     2,
//!     FaultKind::LinkDrop { after: DropPoint::RamFraction(0.5), attempts: 1 },
//! );
//! assert_eq!(plan.faults(2).len(), 1);
//! assert!(plan.faults(0).is_empty());
//!
//! // Seeded: 30% of 100 legs suffer a link drop, reproducibly.
//! let rates = FaultRates { link_drop: 0.3, ..FaultRates::default() };
//! let a = FaultPlan::seeded(7, &rates, 100);
//! let b = FaultPlan::seeded(7, &rates, 100);
//! assert_eq!(a, b);
//! ```

mod obs;
mod plan;
mod process;
mod retry;

pub use obs::observe_plan;
pub use plan::{AttemptFaults, DropPoint, FaultKind, FaultPlan, FaultRates};
pub use process::{KillPoint, KillRole, KillSpec, KillSwitch};
pub use retry::RetryPolicy;

use std::fmt;

/// Why a migration attempt aborted or degraded.
///
/// Causes are deliberately field-less so they stay `Copy + Eq + Hash` and
/// can be embedded in reports and transcripts without breaking their
/// derives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCause {
    /// The migration link dropped mid-transfer.
    LinkFailure,
    /// The destination checkpoint failed validation on load.
    CorruptCheckpoint,
    /// The adaptive policy declined to recycle: the probe fell below the
    /// break-even similarity, or the engine is hash-bound and none pays.
    LowSimilarity,
    /// Pre-copy hit its round limit without converging.
    NonConvergence,
    /// The destination host crashed mid-transfer and restarted from its
    /// disk store.
    HostCrash,
    /// The checkpoint the destination would have recycled was evicted
    /// under disk pressure before the migration arrived.
    CheckpointEvicted,
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultCause::LinkFailure => "link failure",
            FaultCause::CorruptCheckpoint => "corrupt checkpoint",
            FaultCause::LowSimilarity => "low similarity",
            FaultCause::NonConvergence => "non-convergence",
            FaultCause::HostCrash => "host crash",
            FaultCause::CheckpointEvicted => "checkpoint evicted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causes_display_as_prose() {
        assert_eq!(FaultCause::LinkFailure.to_string(), "link failure");
        assert_eq!(FaultCause::NonConvergence.to_string(), "non-convergence");
    }
}
