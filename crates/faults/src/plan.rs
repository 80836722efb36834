//! [`FaultPlan`]: which faults strike which migration legs.

use std::collections::BTreeMap;

use vecycle_types::rng::{split, Xorshift};
use vecycle_types::Bytes;

/// Where on the wire a [`FaultKind::LinkDrop`] cuts the transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DropPoint {
    /// After this many forward-path payload bytes have been sent.
    Bytes(Bytes),
    /// After a fraction of the guest's RAM size worth of payload bytes.
    ///
    /// Resolved against the actual RAM size when the attempt starts, so
    /// the same plan scales across VM sizes.
    RamFraction(f64),
}

impl DropPoint {
    /// Resolves the cut point to a concrete byte count for a guest with
    /// `ram` bytes of memory.
    pub fn resolve(self, ram: Bytes) -> Bytes {
        match self {
            DropPoint::Bytes(b) => b,
            DropPoint::RamFraction(f) => Bytes::new((ram.as_f64() * f.clamp(0.0, 1.0)) as u64),
        }
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The link drops after [`DropPoint`] bytes; the first `attempts`
    /// attempts of the leg are affected, later retries get a clean link
    /// (the transient-failure model).
    LinkDrop { after: DropPoint, attempts: u32 },
    /// From pre-copy round `from_round` (1-based) onwards, link bandwidth
    /// is multiplied by `factor` (`0 < factor <= 1`).
    LinkDegrade { factor: f64, from_round: u32 },
    /// The destination's stored checkpoint is corrupt and fails
    /// validation on load.
    CheckpointCorrupt,
    /// The source host crashes while persisting the post-migration
    /// checkpoint: the new checkpoint is lost, the previous one survives
    /// (guaranteed by `DiskStore`'s fsync + atomic-rename protocol).
    CrashDuringSave,
    /// From pre-copy round `from_round` onwards the guest dirties pages
    /// `factor`× faster, typically defeating convergence.
    DirtySpike { factor: f64, from_round: u32 },
    /// The *destination host* dies after [`DropPoint`] bytes have
    /// landed: the transfer aborts like a link drop, but the host also
    /// loses its in-memory checkpoint catalog and must restart from its
    /// disk store (scrub pass included) before the retry. The first
    /// `attempts` attempts are affected.
    HostCrash { after: DropPoint, attempts: u32 },
}

/// Per-fault-type probabilities for [`FaultPlan::seeded`], each in
/// `[0, 1]` and applied independently per migration leg.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a leg's first attempt suffers a mid-transfer link drop.
    pub link_drop: f64,
    /// Probability the link degrades partway through pre-copy.
    pub link_degrade: f64,
    /// Probability the destination checkpoint is corrupt on load.
    pub corrupt_checkpoint: f64,
    /// Probability the guest's dirty rate spikes mid-migration.
    pub dirty_spike: f64,
    /// Probability the source crashes while saving the new checkpoint.
    pub crash_on_save: f64,
    /// Probability the destination host crashes mid-transfer and has to
    /// restart (with a disk scrub) before the retry.
    pub host_crash: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        FaultRates::default()
    }

    /// A uniform rate `p` for every fault type [`FaultPlan::seeded`]'s
    /// original draw stream covers. [`FaultRates::host_crash`] stays
    /// zero — it rides a second, independent stream (see
    /// `FaultPlan::with_host_crashes`) so historic seeded plans stay
    /// byte-identical.
    pub fn uniform(p: f64) -> Self {
        FaultRates {
            link_drop: p,
            link_degrade: p,
            corrupt_checkpoint: p,
            dirty_spike: p,
            crash_on_save: p,
            host_crash: 0.0,
        }
    }
}

/// A deterministic map from migration-leg index to the faults that strike
/// it. Built by hand with [`FaultPlan::inject`] or generated from a seed
/// with [`FaultPlan::seeded`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    legs: BTreeMap<usize, Vec<FaultKind>>,
}

impl FaultPlan {
    /// The empty plan: every migration runs clean.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault to leg `leg` (builder style).
    #[must_use]
    pub fn inject(mut self, leg: usize, fault: FaultKind) -> Self {
        self.legs.entry(leg).or_default().push(fault);
        self
    }

    /// The faults striking leg `leg` (empty for clean legs).
    pub fn faults(&self, leg: usize) -> &[FaultKind] {
        self.legs.get(&leg).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if no leg has any fault.
    pub fn is_empty(&self) -> bool {
        self.legs.values().all(Vec::is_empty)
    }

    /// Number of legs with at least one fault.
    pub fn faulted_legs(&self) -> usize {
        self.legs.values().filter(|v| !v.is_empty()).count()
    }

    /// Every armed fault with its leg index, in ascending leg order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &FaultKind)> {
        self.legs
            .iter()
            .flat_map(|(&leg, faults)| faults.iter().map(move |f| (leg, f)))
    }

    /// Generates a plan for `legs` migration legs from a seed and
    /// per-fault rates. Same `(seed, rates, legs)` → same plan, always:
    /// the draw order is fixed (one draw per fault type per leg, plus
    /// parameter draws), so adding legs never perturbs earlier ones.
    pub fn seeded(seed: u64, rates: &FaultRates, legs: usize) -> Self {
        let mut rng = Xorshift::new(split(seed, 0));
        let mut plan = FaultPlan::none();
        for leg in 0..legs {
            // Draw parameters unconditionally so each leg consumes a fixed
            // number of draws regardless of which faults fire.
            let drop_p = rng.unit_f64();
            let drop_frac = 0.1 + 0.8 * rng.unit_f64();
            let degrade_p = rng.unit_f64();
            let degrade_factor = 0.2 + 0.3 * rng.unit_f64();
            let corrupt_p = rng.unit_f64();
            let spike_p = rng.unit_f64();
            let spike_factor = 4.0 + 8.0 * rng.unit_f64();
            let crash_p = rng.unit_f64();

            if drop_p < rates.link_drop {
                plan = plan.inject(
                    leg,
                    FaultKind::LinkDrop {
                        after: DropPoint::RamFraction(drop_frac),
                        attempts: 1,
                    },
                );
            }
            if degrade_p < rates.link_degrade {
                plan = plan.inject(
                    leg,
                    FaultKind::LinkDegrade {
                        factor: degrade_factor,
                        from_round: 2,
                    },
                );
            }
            if corrupt_p < rates.corrupt_checkpoint {
                plan = plan.inject(leg, FaultKind::CheckpointCorrupt);
            }
            if spike_p < rates.dirty_spike {
                plan = plan.inject(
                    leg,
                    FaultKind::DirtySpike {
                        factor: spike_factor,
                        from_round: 2,
                    },
                );
            }
            if crash_p < rates.crash_on_save {
                plan = plan.inject(leg, FaultKind::CrashDuringSave);
            }
        }
        // Host crashes ride a second, independent generator appended
        // after the main loop: a plan seeded before host crashes
        // existed reproduces byte-identically (rate 0 draws nothing
        // from the old stream), and enabling them never perturbs the
        // faults above.
        if rates.host_crash > 0.0 {
            plan = plan.with_host_crashes(seed, rates.host_crash, legs);
        }
        plan
    }

    /// Adds seeded destination-host crashes on top of an existing plan,
    /// using a generator stream independent of [`FaultPlan::seeded`]'s:
    /// same `(seed, rate, legs)` → same crash set, and the faults
    /// already in the plan are untouched.
    #[must_use]
    pub(crate) fn with_host_crashes(mut self, seed: u64, rate: f64, legs: usize) -> Self {
        let mut rng = Xorshift::new(split(seed ^ 0x48c5_0000_c3a5_0001, 0));
        for leg in 0..legs {
            // Fixed two draws per leg, fired or not.
            let crash_p = rng.unit_f64();
            let crash_frac = 0.15 + 0.7 * rng.unit_f64();
            if crash_p < rate {
                self = self.inject(
                    leg,
                    FaultKind::HostCrash {
                        after: DropPoint::RamFraction(crash_frac),
                        attempts: 1,
                    },
                );
            }
        }
        self
    }

    /// Projects the leg's faults onto one numbered attempt (1-based),
    /// producing the subset the migration *engine* consumes. Session-level
    /// faults ([`FaultKind::CheckpointCorrupt`], [`FaultKind::CrashDuringSave`])
    /// are not part of the result; the session handles those itself.
    pub fn for_attempt(&self, leg: usize, attempt: u32) -> AttemptFaults {
        let mut out = AttemptFaults::none();
        for fault in self.faults(leg) {
            match *fault {
                // A host crash subsumes a link drop armed on the same
                // leg (the link to a dead host is down either way), so
                // its cut point and cause win regardless of injection
                // order.
                FaultKind::LinkDrop { after, attempts } if attempt <= attempts => {
                    if out.cut_cause != Some(crate::FaultCause::HostCrash) {
                        out.cut_after = Some(after);
                        out.cut_cause = Some(crate::FaultCause::LinkFailure);
                    }
                }
                FaultKind::LinkDrop { .. } => {}
                FaultKind::HostCrash { after, attempts } if attempt <= attempts => {
                    out.cut_after = Some(after);
                    out.cut_cause = Some(crate::FaultCause::HostCrash);
                }
                FaultKind::HostCrash { .. } => {}
                FaultKind::LinkDegrade { factor, from_round } => {
                    out.degrade = Some((factor, from_round));
                }
                FaultKind::DirtySpike { factor, from_round } => {
                    out.dirty_spike = Some((factor, from_round));
                }
                FaultKind::CheckpointCorrupt | FaultKind::CrashDuringSave => {}
            }
        }
        out
    }

    /// True if any fault on `leg` matches `pred`.
    pub fn has(&self, leg: usize, pred: impl Fn(&FaultKind) -> bool) -> bool {
        self.faults(leg).iter().any(pred)
    }
}

/// The engine-visible faults for a single migration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttemptFaults {
    /// Cut the forward transfer after this many payload bytes.
    pub cut_after: Option<DropPoint>,
    /// What to blame when `cut_after` fires (defaults to
    /// [`FaultCause::LinkFailure`](crate::FaultCause::LinkFailure); a
    /// [`FaultKind::HostCrash`] sets
    /// [`FaultCause::HostCrash`](crate::FaultCause::HostCrash) so the
    /// session knows to crash/restart the destination).
    pub cut_cause: Option<crate::FaultCause>,
    /// `(bandwidth factor, from_round)` link degradation.
    pub degrade: Option<(f64, u32)>,
    /// `(dirty-rate factor, from_round)` workload spike.
    pub dirty_spike: Option<(f64, u32)>,
}

impl AttemptFaults {
    /// No engine-level faults this attempt.
    pub fn none() -> Self {
        AttemptFaults::default()
    }

    /// The cause to report when the armed cut fires.
    pub fn abort_cause(&self) -> crate::FaultCause {
        self.cut_cause.unwrap_or(crate::FaultCause::LinkFailure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_clean_everywhere() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.faulted_legs(), 0);
        assert!(plan.faults(17).is_empty());
        assert_eq!(plan.for_attempt(17, 1), AttemptFaults::none());
    }

    #[test]
    fn inject_targets_one_leg() {
        let plan = FaultPlan::none().inject(3, FaultKind::CheckpointCorrupt);
        assert_eq!(plan.faults(3), &[FaultKind::CheckpointCorrupt]);
        assert!(plan.faults(2).is_empty());
        assert_eq!(plan.faulted_legs(), 1);
    }

    #[test]
    fn link_drop_clears_after_configured_attempts() {
        let plan = FaultPlan::none().inject(
            0,
            FaultKind::LinkDrop {
                after: DropPoint::Bytes(Bytes::from_mib(1)),
                attempts: 2,
            },
        );
        assert!(plan.for_attempt(0, 1).cut_after.is_some());
        assert!(plan.for_attempt(0, 2).cut_after.is_some());
        assert!(plan.for_attempt(0, 3).cut_after.is_none());
    }

    #[test]
    fn degrade_and_spike_persist_across_attempts() {
        let plan = FaultPlan::none()
            .inject(
                0,
                FaultKind::LinkDegrade {
                    factor: 0.5,
                    from_round: 2,
                },
            )
            .inject(
                0,
                FaultKind::DirtySpike {
                    factor: 8.0,
                    from_round: 3,
                },
            );
        for attempt in 1..=4 {
            let f = plan.for_attempt(0, attempt);
            assert_eq!(f.degrade, Some((0.5, 2)));
            assert_eq!(f.dirty_spike, Some((8.0, 3)));
        }
    }

    #[test]
    fn seeded_is_reproducible() {
        let rates = FaultRates::uniform(0.4);
        let a = FaultPlan::seeded(42, &rates, 64);
        let b = FaultPlan::seeded(42, &rates, 64);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, &rates, 64);
        assert_ne!(a, c, "different seeds should differ at 40% rates");
    }

    #[test]
    fn seeded_prefix_is_stable_under_leg_growth() {
        let rates = FaultRates::uniform(0.5);
        let short = FaultPlan::seeded(7, &rates, 10);
        let long = FaultPlan::seeded(7, &rates, 50);
        for leg in 0..10 {
            assert_eq!(short.faults(leg), long.faults(leg), "leg {leg}");
        }
    }

    #[test]
    fn seeded_rate_roughly_honoured() {
        let rates = FaultRates {
            link_drop: 0.5,
            ..FaultRates::default()
        };
        let plan = FaultPlan::seeded(1, &rates, 1000);
        let hits = plan.faulted_legs();
        assert!((350..650).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        assert!(FaultPlan::seeded(9, &FaultRates::none(), 100).is_empty());
    }

    #[test]
    fn host_crash_stream_is_independent_of_the_legacy_stream() {
        // Turning host crashes on must not perturb the faults the
        // original five-type stream generated — every historical seeded
        // plan keeps its exact fault set.
        let base = FaultRates::uniform(0.4);
        let with_crashes = FaultRates {
            host_crash: 0.5,
            ..base
        };
        let old = FaultPlan::seeded(21, &base, 40);
        let new = FaultPlan::seeded(21, &with_crashes, 40);
        for leg in 0..40 {
            let old_faults = old.faults(leg);
            let kept: Vec<_> = new
                .faults(leg)
                .iter()
                .filter(|f| !matches!(f, FaultKind::HostCrash { .. }))
                .copied()
                .collect();
            assert_eq!(old_faults, kept.as_slice(), "leg {leg}");
        }
        assert!(new
            .iter()
            .any(|(_, f)| matches!(f, FaultKind::HostCrash { .. })));
    }

    #[test]
    fn host_crash_cut_carries_its_cause_and_wins_over_link_drop() {
        let crash = FaultKind::HostCrash {
            after: DropPoint::RamFraction(0.3),
            attempts: 1,
        };
        let drop = FaultKind::LinkDrop {
            after: DropPoint::Bytes(Bytes::from_mib(1)),
            attempts: 2,
        };
        for plan in [
            FaultPlan::none().inject(0, crash).inject(0, drop),
            FaultPlan::none().inject(0, drop).inject(0, crash),
        ] {
            let f = plan.for_attempt(0, 1);
            assert_eq!(f.cut_after, Some(DropPoint::RamFraction(0.3)));
            assert_eq!(f.abort_cause(), crate::FaultCause::HostCrash);
            // Attempt 2: the crash cleared, the 2-attempt drop remains.
            let f2 = plan.for_attempt(0, 2);
            assert_eq!(f2.cut_after, Some(DropPoint::Bytes(Bytes::from_mib(1))));
            assert_eq!(f2.abort_cause(), crate::FaultCause::LinkFailure);
        }
    }

    #[test]
    fn plain_cut_defaults_to_link_failure_cause() {
        assert_eq!(
            AttemptFaults::none().abort_cause(),
            crate::FaultCause::LinkFailure
        );
    }

    #[test]
    fn drop_point_resolution() {
        let ram = Bytes::from_mib(256);
        assert_eq!(
            DropPoint::Bytes(Bytes::from_mib(3)).resolve(ram),
            Bytes::from_mib(3)
        );
        assert_eq!(
            DropPoint::RamFraction(0.5).resolve(ram),
            Bytes::from_mib(128)
        );
        assert_eq!(DropPoint::RamFraction(2.0).resolve(ram), ram);
    }
}
