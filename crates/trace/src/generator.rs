//! [`TraceGenerator`]: the synthetic memory-evolution engine.

use vecycle_types::rng::ChaCha8;
use vecycle_types::{Bytes, PageDigest, SimTime};

use crate::{Fingerprint, MachineProfile};

/// Upper bound on the recently-retired contents kept for recycling.
const RECYCLE_RING_MAX: usize = 4096;

/// A generated trace: the fingerprint sequence of one machine.
#[derive(Debug)]
pub struct Trace {
    ram: Bytes,
    fingerprints: Vec<Fingerprint>,
}

impl Trace {
    /// The nominal RAM of the traced machine.
    pub fn ram(&self) -> Bytes {
        self.ram
    }

    /// The recorded fingerprints, in time order.
    pub fn fingerprints(&self) -> &[Fingerprint] {
        &self.fingerprints
    }

    /// Reassembles a trace from its parts (used by the trace-file
    /// loader).
    pub fn from_parts(ram: Bytes, fingerprints: Vec<Fingerprint>) -> Trace {
        Trace { ram, fingerprints }
    }
}

/// Generates synthetic fingerprint traces from a [`MachineProfile`].
///
/// The model: every page belongs to an update-rate class; per 30-minute
/// epoch each page is rewritten with probability
/// `1 − exp(−rate · activity · Δt)`. New content is fresh, recycled,
/// pooled or zero according to the profile's update mix, and a fraction
/// of pages is relocated between frames each epoch. Fingerprints are
/// recorded at every epoch boundary (unless the machine is "off").
///
/// Generation is deterministic in `(profile, seed, scale)`.
#[derive(Debug)]
pub struct TraceGenerator {
    profile: MachineProfile,
    seed: u64,
    scale_pages: Option<u64>,
}

impl TraceGenerator {
    /// Creates a generator for `profile`, seeded deterministically.
    pub fn new(profile: MachineProfile, seed: u64) -> Self {
        TraceGenerator {
            profile,
            seed,
            scale_pages: None,
        }
    }

    /// Overrides the page count, keeping all *fractional* statistics.
    ///
    /// Every paper metric is a fraction of pages, so a machine can be
    /// simulated at reduced scale: an 8 GiB server generated with 16 Ki
    /// pages has the same similarity/duplicate/novelty fractions, and the
    /// experiment harness rescales byte counts by the nominal RAM.
    #[must_use]
    pub fn scale_pages(mut self, pages: u64) -> Self {
        self.scale_pages = Some(pages);
        self
    }

    /// Runs the model and returns the fingerprint sequence.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the profile is
    /// inconsistent (see [`MachineProfile::validate`]).
    pub fn generate(self) -> vecycle_types::Result<Trace> {
        self.profile.validate()?;
        let p = &self.profile;
        let n = self
            .scale_pages
            .unwrap_or_else(|| p.ram.pages_ceil().as_u64()) as usize;
        if n == 0 {
            return Err(vecycle_types::Error::InvalidConfig {
                reason: "scaled page count must be positive".into(),
            });
        }
        let mut rng = ChaCha8::seed_from_u64(self.seed ^ 0x7ec7_ec7e);

        // Content namespaces, disjoint by construction:
        //   0                    -> the zero page
        //   ns | (1 << 38) | k   -> pool content k
        //   ns | counter         -> fresh content (counter < 2^36)
        let ns = (self.seed & 0xff_ffff) << 40;
        let pool_id = |k: u32| ns | (1 << 38) | u64::from(k);
        let mut fresh_counter: u64 = 1;
        let mut fresh = || {
            let id = ns | fresh_counter;
            fresh_counter += 1;
            id
        };

        // Initial page contents.
        let mut contents: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let roll = rng.unit_f64();
            if roll < p.initial_zero.as_f64() {
                contents.push(0);
            } else if roll < p.initial_zero.as_f64() + p.initial_pool.as_f64() {
                contents.push(pool_id(rng.below(u64::from(p.pool_contents)) as u32));
            } else {
                contents.push(fresh());
            }
        }

        // Class assignment: contiguous runs proportional to the class
        // fractions, then shuffled so classes are spread across frames.
        let mut classes: Vec<u8> = Vec::with_capacity(n);
        for (ci, class) in p.classes.iter().enumerate() {
            let count = (class.fraction * n as f64).round() as usize;
            classes.extend(std::iter::repeat_n(ci as u8, count));
        }
        classes.resize(n, (p.classes.len() - 1) as u8);
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            classes.swap(i, j);
        }

        // The recycle ring scales with memory so small-scale traces keep
        // the same recycled-content *fraction* as full-scale ones.
        let ring_cap = (n / 16).clamp(16, RECYCLE_RING_MAX);
        let mut recycle_ring: Vec<u64> = Vec::with_capacity(ring_cap);
        let mut recycle_pos = 0usize;
        let retire = |ring: &mut Vec<u64>, pos: &mut usize, id: u64| {
            if id == 0 {
                return;
            }
            if ring.len() < ring_cap {
                ring.push(id);
            } else {
                ring[*pos] = id;
                *pos = (*pos + 1) % ring_cap;
            }
        };

        // Relocation destinations come from the hottest class: the OS
        // moves data into recently-freed frames, not into the cold
        // resident set. (Letting relocations clobber cold pages would
        // erase the long-term similarity plateau of Figure 2.)
        let hottest = p
            .classes
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.updates_per_hour
                    .partial_cmp(&b.1.updates_per_hour)
                    .expect("rates are finite")
            })
            .map(|(i, _)| i as u8)
            .expect("profiles have at least one class");
        let hot_pages: Vec<u64> = (0..n as u64)
            .filter(|&i| classes[i as usize] == hottest)
            .collect();

        let dt_hours = p.fingerprint_interval.as_hours_f64();
        let steps = p.trace_duration.as_nanos() / p.fingerprint_interval.as_nanos();
        let mut fingerprints = Vec::with_capacity(steps as usize + 1);
        let mut reloc_carry = 0.0f64;
        // Poisson-ish reboots: per-epoch probability dt / mean-interval.
        let reboot_prob = p
            .reboot_interval
            .map(|iv| (p.fingerprint_interval.as_secs_f64() / iv.as_secs_f64()).min(1.0))
            .unwrap_or(0.0);
        let mut rebooting = false;

        let record = |t: SimTime, contents: &[u64]| {
            let pages: Vec<PageDigest> = contents
                .iter()
                .map(|&id| PageDigest::from_content_id(id))
                .collect();
            Fingerprint::new(t, pages)
        };

        for step in 0..=steps {
            let t = SimTime::EPOCH + p.fingerprint_interval * step;
            let activity = p.schedule.activity(t);
            let powered_on = (!p.fingerprints_require_activity || activity >= 0.5) && !rebooting;
            if powered_on {
                fingerprints.push(record(t, &contents));
            }
            rebooting = false;
            if step == steps {
                break;
            }

            if reboot_prob > 0.0 && rng.unit_f64() < reboot_prob {
                // Reboot: part of the hot class — anonymous memory and
                // not-yet-refilled page cache — comes back as zeros;
                // cold/warm pages (resident services, re-read file data)
                // return as before. The machine misses the next
                // fingerprint while down. The zero spike then decays as
                // the cache refills over subsequent epochs, producing the
                // transient spikes of Figure 4.
                for i in 0..n {
                    if classes[i] == hottest && rng.unit_f64() < 0.35 {
                        contents[i] = 0;
                    }
                }
                rebooting = true;
                continue;
            }

            // Per-class update probability for this epoch.
            let probs: Vec<f64> = p
                .classes
                .iter()
                .map(|c| 1.0 - (-c.updates_per_hour * activity * dt_hours).exp())
                .collect();

            for i in 0..n {
                let prob = probs[classes[i] as usize];
                if prob <= 0.0 || rng.unit_f64() >= prob {
                    continue;
                }
                let old = contents[i];
                let roll = rng.unit_f64();
                let m = &p.update_mix;
                contents[i] = if roll < m.pool {
                    pool_id(rng.below(u64::from(p.pool_contents)) as u32)
                } else if roll < m.pool + m.recycle && !recycle_ring.is_empty() {
                    recycle_ring[rng.below(recycle_ring.len() as u64) as usize]
                } else if roll < m.pool + m.recycle + m.zero {
                    0
                } else {
                    fresh()
                };
                retire(&mut recycle_ring, &mut recycle_pos, old);
            }

            // Relocations: fraction of pages per hour, with carry so slow
            // rates still fire eventually.
            let want =
                p.relocation_fraction_per_hour * activity * dt_hours * n as f64 + reloc_carry;
            let moves = want.floor() as u64;
            reloc_carry = want - moves as f64;
            for _ in 0..moves {
                if hot_pages.is_empty() {
                    break;
                }
                let src = rng.below(n as u64) as usize;
                let dst = hot_pages[rng.below(hot_pages.len() as u64) as usize] as usize;
                if src != dst {
                    let old = contents[dst];
                    contents[dst] = contents[src];
                    retire(&mut recycle_ring, &mut recycle_pos, old);
                }
            }
        }

        Ok(Trace {
            ram: p.ram,
            fingerprints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivitySchedule, PageClass, UpdateMix};
    use vecycle_types::{Ratio, SimDuration};

    fn tiny_profile() -> MachineProfile {
        MachineProfile {
            ram: Bytes::from_gib(1),
            initial_zero: Ratio::new(0.05),
            initial_pool: Ratio::new(0.10),
            pool_contents: 16,
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
                pool: 0.05,
                recycle: 0.25,
                zero: 0.02,
            },
            relocation_fraction_per_hour: 0.005,
            schedule: ActivitySchedule::Constant(1.0),
            fingerprint_interval: SimDuration::from_mins(30),
            trace_duration: SimDuration::from_days(2),
            fingerprints_require_activity: false,
            reboot_interval: None,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TraceGenerator::new(tiny_profile(), 1)
            .scale_pages(512)
            .generate()
            .unwrap();
        let b = TraceGenerator::new(tiny_profile(), 1)
            .scale_pages(512)
            .generate()
            .unwrap();
        assert_eq!(a.fingerprints().len(), b.fingerprints().len());
        for (fa, fb) in a.fingerprints().iter().zip(b.fingerprints()) {
            assert_eq!(fa.pages(), fb.pages());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(tiny_profile(), 1)
            .scale_pages(512)
            .generate()
            .unwrap();
        let b = TraceGenerator::new(tiny_profile(), 2)
            .scale_pages(512)
            .generate()
            .unwrap();
        assert_ne!(a.fingerprints()[10].pages(), b.fingerprints()[10].pages());
    }

    #[test]
    fn fingerprint_count_matches_duration() {
        let trace = TraceGenerator::new(tiny_profile(), 3)
            .scale_pages(256)
            .generate()
            .unwrap();
        // 2 days at 30-min intervals, inclusive: 97 fingerprints.
        assert_eq!(trace.fingerprints().len(), 97);
        assert_eq!(
            trace.fingerprints()[1].taken_at().since_epoch(),
            SimDuration::from_mins(30)
        );
    }

    #[test]
    fn similarity_decays_with_time() {
        let trace = TraceGenerator::new(tiny_profile(), 4)
            .scale_pages(2048)
            .generate()
            .unwrap();
        let f = trace.fingerprints();
        let s1 = f[0].similarity(&f[2]).as_f64(); // 1 h
        let s24 = f[0].similarity(&f[48]).as_f64(); // 24 h
        assert!(s1 > s24, "similarity should decay: {s1} vs {s24}");
        // Cold pages (30%) plus recycling keep a plateau.
        assert!(s24 > 0.15, "plateau too low: {s24}");
        assert!(s1 > 0.7, "short-term similarity too low: {s1}");
    }

    #[test]
    fn zero_and_duplicate_fractions_are_plausible() {
        let trace = TraceGenerator::new(tiny_profile(), 5)
            .scale_pages(4096)
            .generate()
            .unwrap();
        for f in [
            &trace.fingerprints()[0],
            trace.fingerprints().last().unwrap(),
        ] {
            let dup = f.duplicate_fraction().as_f64();
            let zero = f.zero_fraction().as_f64();
            assert!(dup > 0.02 && dup < 0.4, "dup = {dup}");
            assert!(zero < 0.15, "zero = {zero}");
            // Zero pages are part of the duplicates.
            assert!(dup >= zero - 1e-9);
        }
    }

    #[test]
    fn laptop_mode_skips_off_hours() {
        let mut p = tiny_profile();
        p.schedule = ActivitySchedule::OfficeHours {
            busy: 1.0,
            quiet: 0.02,
            start_hour: 9,
            end_hour: 17,
        };
        p.fingerprints_require_activity = true;
        p.trace_duration = SimDuration::from_days(7);
        let trace = TraceGenerator::new(p, 6)
            .scale_pages(128)
            .generate()
            .unwrap();
        let max = 337;
        let got = trace.fingerprints().len();
        assert!(got < max / 2, "expected sparse laptop trace, got {got}");
        assert!(got > 30, "trace unexpectedly empty: {got}");
    }

    #[test]
    fn reboots_spike_zero_pages_and_drop_fingerprints() {
        let mut p = tiny_profile();
        p.reboot_interval = Some(SimDuration::from_hours(8));
        p.trace_duration = SimDuration::from_days(4);
        let trace = TraceGenerator::new(p.clone(), 11)
            .scale_pages(2048)
            .generate()
            .unwrap();
        let max = (p.trace_duration.as_nanos() / p.fingerprint_interval.as_nanos() + 1) as usize;
        assert!(
            trace.fingerprints().len() < max,
            "reboots must drop fingerprints ({} of {max})",
            trace.fingerprints().len()
        );
        // Right after a reboot the zero fraction spikes well above the
        // steady state.
        let peak = trace
            .fingerprints()
            .iter()
            .map(|f| f.zero_fraction().as_f64())
            .fold(0.0, f64::max);
        let first = trace.fingerprints()[0].zero_fraction().as_f64();
        assert!(peak > first * 3.0, "peak {peak} vs initial {first}");
    }

    #[test]
    fn invalid_profile_is_rejected() {
        let mut p = tiny_profile();
        p.classes.clear();
        assert!(TraceGenerator::new(p, 1).generate().is_err());
    }
}
