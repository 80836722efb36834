//! [`MachineProfile`]: the synthetic memory-evolution model parameters.

use vecycle_types::{Bytes, Ratio, SimDuration};

use crate::ActivitySchedule;

/// The update behaviour of one page class.
///
/// Pages are partitioned into classes with different write rates; the
/// mixture of rates is what produces the paper's characteristic
/// fast-drop-then-plateau similarity curves (Figure 1): hot pages destroy
/// similarity within hours, cold pages keep the long-term plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageClass {
    /// Fraction of (non-pool) pages in this class.
    pub fraction: f64,
    /// Mean updates per page per hour at activity 1.0.
    pub updates_per_hour: f64,
}

/// Where an update's new content comes from.
///
/// Not every guest write creates novel bytes: file caches re-read the
/// same blocks, allocators recycle freed pages, shared libraries re-map.
/// These probabilities control how often a "dirty" page ends up with
/// content the checkpoint (or another frame) already holds — the gap
/// between dirty tracking and content-based elimination in Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateMix {
    /// Probability an update draws from the machine's shared-content pool
    /// (library pages, common file blocks) instead of fresh bytes.
    pub pool: f64,
    /// Probability an update rewrites content the machine has held before
    /// (recycled allocations, re-read cache blocks).
    pub recycle: f64,
    /// Probability an update zeroes the page.
    pub zero: f64,
}

impl UpdateMix {
    fn validate(&self) -> Result<(), String> {
        let sum = self.pool + self.recycle + self.zero;
        if !(0.0..=1.0).contains(&sum) || self.pool < 0.0 || self.recycle < 0.0 || self.zero < 0.0 {
            return Err(format!(
                "update mix probabilities must be non-negative and sum to ≤ 1 (got {sum})"
            ));
        }
        Ok(())
    }
}

/// Full parameter set for one synthetic machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Nominal RAM of the real machine (Table 1).
    pub ram: Bytes,
    /// Fraction of pages that are all-zero at t = 0.
    pub initial_zero: Ratio,
    /// Fraction of pages initially drawn from the shared pool (drives the
    /// duplicate-page percentage of Figure 4).
    pub initial_pool: Ratio,
    /// Number of distinct contents in the shared pool. Smaller pools mean
    /// more duplicates per content.
    pub pool_contents: u32,
    /// The page classes; fractions must sum to 1.
    pub classes: Vec<PageClass>,
    /// Content source mix for updates.
    pub update_mix: UpdateMix,
    /// Fraction of pages whose content is *relocated* to another frame
    /// per hour at activity 1.0. Relocation moves existing content
    /// between frames; it inflates dirty tracking but not content
    /// novelty (Figure 3).
    pub relocation_fraction_per_hour: f64,
    /// Activity modulation over time.
    pub schedule: ActivitySchedule,
    /// Interval between fingerprints (30 min in the paper).
    pub fingerprint_interval: SimDuration,
    /// Total traced duration (7 days for Memory Buddies, 4 for crawlers,
    /// 19 for the desktop).
    pub trace_duration: SimDuration,
    /// If true, fingerprints are only recorded while the machine is
    /// powered on (laptops sleep at night — the paper has only 151–205 of
    /// 336 possible laptop fingerprints).
    pub fingerprints_require_activity: bool,
    /// Mean time between reboots, if the machine reboots during the
    /// trace. A reboot zeroes the hot page class (freshly booted
    /// machines "have a large number of pages containing only zeros",
    /// §2.1 — the zero-page spikes of Figure 4) and drops one
    /// fingerprint ("due to server reboots ... a handful of fingerprints
    /// for the servers are missing", §2.3).
    pub reboot_interval: Option<SimDuration>,
}

impl MachineProfile {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] when fractions are
    /// out of range or class fractions do not sum to 1.
    pub fn validate(&self) -> vecycle_types::Result<()> {
        let fail = |reason: String| Err(vecycle_types::Error::InvalidConfig { reason });
        if self.ram.is_zero() {
            return fail("ram must be positive".into());
        }
        if !self.initial_zero.is_fraction() || !self.initial_pool.is_fraction() {
            return fail("initial fractions must be in [0, 1]".into());
        }
        if self.initial_zero.as_f64() + self.initial_pool.as_f64() > 1.0 + 1e-9 {
            return fail("initial zero + pool fractions exceed 1".into());
        }
        if self.pool_contents == 0 {
            return fail("pool must contain at least one content".into());
        }
        let class_sum: f64 = self.classes.iter().map(|c| c.fraction).sum();
        if self.classes.is_empty() || (class_sum - 1.0).abs() > 1e-6 {
            return fail(format!(
                "page class fractions must sum to 1 (got {class_sum})"
            ));
        }
        if self
            .classes
            .iter()
            .any(|c| c.fraction < 0.0 || c.updates_per_hour < 0.0)
        {
            return fail("page class parameters must be non-negative".into());
        }
        if let Err(e) = self.update_mix.validate() {
            return fail(e);
        }
        if self.relocation_fraction_per_hour < 0.0 {
            return fail("relocation rate must be non-negative".into());
        }
        if self.fingerprint_interval.is_zero() || self.trace_duration.is_zero() {
            return fail("fingerprint interval and duration must be positive".into());
        }
        if let Some(interval) = self.reboot_interval {
            if interval < self.fingerprint_interval {
                return fail("reboot interval shorter than fingerprint interval".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> MachineProfile {
        MachineProfile {
            ram: Bytes::from_gib(1),
            initial_zero: Ratio::new(0.03),
            initial_pool: Ratio::new(0.10),
            pool_contents: 64,
            classes: vec![
                PageClass {
                    fraction: 0.3,
                    updates_per_hour: 0.0,
                },
                PageClass {
                    fraction: 0.7,
                    updates_per_hour: 0.5,
                },
            ],
            update_mix: UpdateMix {
                pool: 0.1,
                recycle: 0.2,
                zero: 0.02,
            },
            relocation_fraction_per_hour: 0.01,
            schedule: ActivitySchedule::Constant(1.0),
            fingerprint_interval: SimDuration::from_mins(30),
            trace_duration: SimDuration::from_days(7),
            fingerprints_require_activity: false,
            reboot_interval: None,
        }
    }

    #[test]
    fn valid_profile_passes() {
        base().validate().unwrap();
    }

    #[test]
    fn max_fingerprints_matches_paper_density() {
        // 7 days at 30-min intervals: the paper's "ideally 336"
        // (inclusive counting gives 337 instants; the first is t = 0).
        let p = base();
        let instants = p.trace_duration.as_nanos() / p.fingerprint_interval.as_nanos() + 1;
        assert_eq!(instants, 337);
    }

    #[test]
    fn class_fractions_must_sum_to_one() {
        let mut p = base();
        p.classes[0].fraction = 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn update_mix_must_be_probabilities() {
        let mut p = base();
        p.update_mix.pool = 0.9;
        p.update_mix.recycle = 0.9;
        assert!(p.validate().is_err());
        let mut q = base();
        q.update_mix.zero = -0.1;
        assert!(q.validate().is_err());
    }

    #[test]
    fn zero_plus_pool_must_fit() {
        let mut p = base();
        p.initial_zero = Ratio::new(0.6);
        p.initial_pool = Ratio::new(0.6);
        assert!(p.validate().is_err());
    }

    #[test]
    fn reboot_interval_must_exceed_fingerprint_interval() {
        let mut p = base();
        p.reboot_interval = Some(SimDuration::from_mins(10));
        assert!(p.validate().is_err());
        p.reboot_interval = Some(SimDuration::from_days(3));
        p.validate().unwrap();
    }

    #[test]
    fn degenerate_sizes_rejected() {
        let mut p = base();
        p.ram = Bytes::ZERO;
        assert!(p.validate().is_err());
        let mut q = base();
        q.pool_contents = 0;
        assert!(q.validate().is_err());
        let mut r = base();
        r.fingerprint_interval = SimDuration::ZERO;
        assert!(r.validate().is_err());
    }
}
