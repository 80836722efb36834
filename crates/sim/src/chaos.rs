//! Seeded chaos scenarios for the soak harness.
//!
//! A [`ChaosScenario`] is a deterministic, *types-only* description of a
//! long hostile run: per leg, which host the VM moves to, how long the
//! guest ages first, and which misfortunes strike — destination crashes,
//! disk-pressure spikes, checkpoint rot, mid-transfer link drops, netem
//! loss. The description deliberately knows nothing about fault plans,
//! clusters, or stores; the soak harness (`vecycle-bench`) translates
//! each [`ChaosAction`] into the concrete machinery. Keeping the
//! generator here, beneath every other crate, means the same scenario
//! bytes drive the CLI, the bench binary, and the test suite.
//!
//! Determinism contract: generation draws a *fixed* number of random
//! values per leg regardless of which actions fire, so scenarios with
//! the same seed share a per-leg prefix even when their lengths differ,
//! and any rate set to zero never perturbs the others.
//!
//! # Examples
//!
//! ```
//! use vecycle_sim::chaos::{ChaosConfig, ChaosScenario};
//!
//! let cfg = ChaosConfig::parse("seed=7,legs=50,crash=0.1,pressure=0.2").unwrap();
//! let a = ChaosScenario::generate(&cfg);
//! let b = ChaosScenario::generate(&cfg);
//! assert_eq!(a, b);
//! assert_eq!(a.legs.len(), 50);
//! ```

use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{Error, SimDuration};

/// Per-action probabilities, each in `[0, 1]`, applied independently per
/// leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRates {
    /// Probability the destination host crashes mid-transfer.
    pub crash: f64,
    /// Probability a disk-pressure spike squeezes the destination's
    /// checkpoint quota before the leg.
    pub pressure: f64,
    /// Probability the destination's stored checkpoint is corrupt.
    pub corrupt: f64,
    /// Probability the link drops mid-transfer.
    pub drop: f64,
    /// Probability the leg runs under netem-style random loss.
    pub loss: f64,
}

impl Default for ChaosRates {
    fn default() -> Self {
        ChaosRates {
            crash: 0.0,
            pressure: 0.0,
            corrupt: 0.0,
            drop: 0.0,
            loss: 0.0,
        }
    }
}

/// Full configuration of a chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the scenario generator.
    pub seed: u64,
    /// Number of migration legs.
    pub legs: usize,
    /// Hosts in the cluster (the VM random-walks across them).
    pub hosts: usize,
    /// Per-action probabilities.
    pub rates: ChaosRates,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x7ec,
            legs: 200,
            hosts: 3,
            rates: ChaosRates::default(),
        }
    }
}

impl ChaosConfig {
    /// Parses a compact `key=value` spec, comma-separated, e.g.
    /// `seed=42,legs=250,crash=0.1,pressure=0.3,corrupt=0.05,loss=0.02`.
    ///
    /// Unknown keys are rejected so typos fail loudly, and so are
    /// repeated keys — a spec like `crash=0.1,crash=0.9` is far more
    /// likely a copy-paste slip than an intentional override, and
    /// silently letting the last value win would make incident logs
    /// lie about the run's configuration. Omitted keys keep their
    /// [`ChaosConfig::default`] value (all rates default to 0).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on malformed pairs, unknown or
    /// duplicate keys, unparsable numbers, rates outside `[0, 1]`, or a
    /// zero leg/host count.
    pub fn parse(spec: &str) -> Result<ChaosConfig, Error> {
        let mut cfg = ChaosConfig::default();
        let bad = |reason: String| Error::InvalidConfig { reason };
        let mut seen: Vec<&str> = Vec::new();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| bad(format!("chaos spec `{pair}` is not key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.contains(&key) {
                return Err(bad(format!("chaos key `{key}` given twice")));
            }
            let rate = |field: &mut f64| -> Result<(), Error> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| bad(format!("chaos rate `{key}={value}` is not a number")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad(format!("chaos rate `{key}={value}` outside [0, 1]")));
                }
                *field = p;
                Ok(())
            };
            match key {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| bad(format!("chaos seed `{value}` is not a u64")))?;
                }
                "legs" => {
                    cfg.legs = value
                        .parse()
                        .map_err(|_| bad(format!("chaos legs `{value}` is not a count")))?;
                }
                "hosts" => {
                    cfg.hosts = value
                        .parse()
                        .map_err(|_| bad(format!("chaos hosts `{value}` is not a count")))?;
                }
                "crash" => rate(&mut cfg.rates.crash)?,
                "pressure" => rate(&mut cfg.rates.pressure)?,
                "corrupt" => rate(&mut cfg.rates.corrupt)?,
                "drop" => rate(&mut cfg.rates.drop)?,
                "loss" => rate(&mut cfg.rates.loss)?,
                _ => return Err(bad(format!("unknown chaos key `{key}`"))),
            }
            seen.push(key);
        }
        if cfg.legs == 0 {
            return Err(bad("chaos legs must be > 0".into()));
        }
        if cfg.hosts < 2 {
            return Err(bad("chaos needs at least 2 hosts".into()));
        }
        Ok(cfg)
    }
}

/// One misfortune striking a migration leg. Parameters are abstract
/// (fractions, probabilities) so the harness can scale them to the
/// actual VM and quota sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosAction {
    /// The destination host dies after this fraction of the guest's RAM
    /// has landed, losing its in-memory checkpoint catalog.
    HostCrash {
        /// Fraction of RAM transferred before the crash, in `(0, 1)`.
        ram_fraction: f64,
    },
    /// Background churn consumes part of the destination's checkpoint
    /// quota before the leg: the harness saves filler checkpoints worth
    /// `quota_fraction` of the budget, forcing the eviction policy to
    /// choose victims.
    DiskPressure {
        /// Fraction of the destination's quota the filler occupies.
        quota_fraction: f64,
    },
    /// The checkpoint the destination would recycle is corrupt.
    CorruptCheckpoint,
    /// The link drops after this fraction of the guest's RAM is sent.
    LinkDrop {
        /// Fraction of RAM transferred before the drop, in `(0, 1)`.
        ram_fraction: f64,
    },
    /// The leg runs under netem-style random packet loss; the harness
    /// converts the probability to an effective-throughput factor via
    /// the TCP loss model.
    LinkLoss {
        /// Random loss probability, in `(0, 1)`.
        probability: f64,
    },
}

impl ChaosAction {
    /// Stable snake_case label (incident logs, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            ChaosAction::HostCrash { .. } => "host_crash",
            ChaosAction::DiskPressure { .. } => "disk_pressure",
            ChaosAction::CorruptCheckpoint => "corrupt_checkpoint",
            ChaosAction::LinkDrop { .. } => "link_drop",
            ChaosAction::LinkLoss { .. } => "link_loss",
        }
    }
}

/// One leg of a chaos scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosLeg {
    /// Destination host index in `[0, hosts)`; generation guarantees it
    /// differs from the previous leg's destination (the walk always
    /// moves).
    pub dest: usize,
    /// Guest aging time since the previous leg.
    pub gap: SimDuration,
    /// Misfortunes striking this leg, in a fixed draw order.
    pub actions: Vec<ChaosAction>,
}

/// A fully generated chaos run: the random walk plus every planned
/// misfortune.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// The configuration that produced this scenario.
    pub config: ChaosConfig,
    /// Per-leg plan, in schedule order.
    pub legs: Vec<ChaosLeg>,
}

impl ChaosScenario {
    /// Generates the scenario for `config`, deterministically.
    ///
    /// The VM starts at host index 0; each leg walks to a uniformly
    /// chosen *different* host. Gaps are uniform in 10 minutes … 2 hours
    /// (long enough for guests to age, short enough that 200-leg soaks
    /// span simulated days, not years).
    pub fn generate(config: &ChaosConfig) -> ChaosScenario {
        let mut rng = Xorshift::new(split(config.seed ^ 0xc4a0_5eed_0dd5_ee17, 0));
        let mut legs = Vec::with_capacity(config.legs);
        let mut at = 0usize;
        for _ in 0..config.legs {
            // Fixed 12 draws per leg, fired or not (see module docs).
            let dest_draw = rng.unit_f64();
            let gap_draw = rng.unit_f64();
            // Cut fractions are deliberately small: recycled transfers
            // move only dirtied pages, a tiny slice of RAM, and a cut
            // point the transfer never reaches is a fault that never
            // strikes.
            let crash_p = rng.unit_f64();
            let crash_frac = 0.005 + 0.1 * rng.unit_f64();
            let pressure_p = rng.unit_f64();
            let pressure_frac = 0.3 + 0.6 * rng.unit_f64();
            let corrupt_p = rng.unit_f64();
            let drop_p = rng.unit_f64();
            let drop_frac = 0.005 + 0.15 * rng.unit_f64();
            let loss_p = rng.unit_f64();
            let loss_prob = 0.001 + 0.019 * rng.unit_f64();
            let _reserved = rng.unit_f64();

            // Walk to one of the other hosts: index into the list with
            // the current host removed.
            let step = 1 + (dest_draw * (config.hosts - 1) as f64) as usize;
            let dest = (at + step.min(config.hosts - 1)) % config.hosts;
            at = dest;
            let gap = SimDuration::from_secs(600 + (gap_draw * 6600.0) as u64);

            let mut actions = Vec::new();
            if crash_p < config.rates.crash {
                actions.push(ChaosAction::HostCrash {
                    ram_fraction: crash_frac,
                });
            }
            if pressure_p < config.rates.pressure {
                actions.push(ChaosAction::DiskPressure {
                    quota_fraction: pressure_frac,
                });
            }
            if corrupt_p < config.rates.corrupt {
                actions.push(ChaosAction::CorruptCheckpoint);
            }
            if drop_p < config.rates.drop {
                actions.push(ChaosAction::LinkDrop {
                    ram_fraction: drop_frac,
                });
            }
            if loss_p < config.rates.loss {
                actions.push(ChaosAction::LinkLoss {
                    probability: loss_prob,
                });
            }
            legs.push(ChaosLeg { dest, gap, actions });
        }
        ChaosScenario {
            config: *config,
            legs,
        }
    }

    /// Number of legs with at least one action armed.
    pub fn armed_legs(&self) -> usize {
        self.legs.iter().filter(|l| !l.actions.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            legs: 100,
            hosts: 4,
            rates: ChaosRates {
                crash: 0.2,
                pressure: 0.3,
                corrupt: 0.1,
                drop: 0.2,
                loss: 0.1,
            },
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = hostile();
        assert_eq!(ChaosScenario::generate(&cfg), ChaosScenario::generate(&cfg));
    }

    #[test]
    fn longer_runs_share_the_prefix() {
        let short = ChaosScenario::generate(&hostile());
        let long = ChaosScenario::generate(&ChaosConfig {
            legs: 250,
            ..hostile()
        });
        assert_eq!(&long.legs[..100], &short.legs[..]);
    }

    #[test]
    fn zero_rates_arm_nothing_but_keep_the_walk() {
        let calm = ChaosScenario::generate(&ChaosConfig {
            rates: ChaosRates::default(),
            ..hostile()
        });
        assert_eq!(calm.armed_legs(), 0);
        let wild = ChaosScenario::generate(&hostile());
        // Fixed draws per leg: the walk itself is identical either way.
        for (c, w) in calm.legs.iter().zip(&wild.legs) {
            assert_eq!(c.dest, w.dest);
            assert_eq!(c.gap, w.gap);
        }
        assert!(wild.armed_legs() > 0);
    }

    #[test]
    fn the_walk_always_moves() {
        let s = ChaosScenario::generate(&hostile());
        let mut at = 0usize;
        for leg in &s.legs {
            assert_ne!(leg.dest, at, "leg destination equals current host");
            assert!(leg.dest < 4);
            at = leg.dest;
        }
    }

    #[test]
    fn hostile_rates_fire_roughly_proportionally() {
        let s = ChaosScenario::generate(&ChaosConfig {
            legs: 1000,
            ..hostile()
        });
        let crashes = s
            .legs
            .iter()
            .flat_map(|l| &l.actions)
            .filter(|a| matches!(a, ChaosAction::HostCrash { .. }))
            .count();
        // 20% rate over 1000 legs: expect ~200, allow wide slack.
        assert!((100..=300).contains(&crashes), "crashes = {crashes}");
    }

    #[test]
    fn parse_round_trips_keys() {
        let cfg = ChaosConfig::parse("seed=9, legs=40, hosts=5, crash=0.25, pressure=1, loss=0.5")
            .unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.legs, 40);
        assert_eq!(cfg.hosts, 5);
        assert_eq!(cfg.rates.crash, 0.25);
        assert_eq!(cfg.rates.pressure, 1.0);
        assert_eq!(cfg.rates.loss, 0.5);
        assert_eq!(cfg.rates.corrupt, 0.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("crash").is_err());
        assert!(ChaosConfig::parse("crash=1.5").is_err());
        assert!(ChaosConfig::parse("seed=abc").is_err());
        assert!(ChaosConfig::parse("legs=0").is_err());
        assert!(ChaosConfig::parse("hosts=1").is_err());
    }

    #[test]
    fn empty_spec_is_the_default() {
        assert_eq!(ChaosConfig::parse("").unwrap(), ChaosConfig::default());
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(ChaosConfig::parse("crash=0.1,crash=0.9").is_err());
        assert!(ChaosConfig::parse("seed=1,legs=10,seed=2").is_err());
        // Whitespace around a repeated key still counts as the same key.
        assert!(ChaosConfig::parse("loss=0.1, loss =0.2").is_err());
    }

    /// The CLI prints these errors verbatim into incident logs; pin the
    /// exact strings so operator tooling that greps them stays stable.
    #[test]
    fn error_strings_are_pinned() {
        let msg = |spec: &str| ChaosConfig::parse(spec).unwrap_err().to_string();
        assert_eq!(
            msg("crash=0.1,crash=0.9"),
            "invalid configuration: chaos key `crash` given twice"
        );
        assert_eq!(
            msg("crash=1.5"),
            "invalid configuration: chaos rate `crash=1.5` outside [0, 1]"
        );
        assert_eq!(
            msg("crash=abc"),
            "invalid configuration: chaos rate `crash=abc` is not a number"
        );
        assert_eq!(
            msg("meteor=1"),
            "invalid configuration: unknown chaos key `meteor`"
        );
        assert_eq!(
            msg("crash"),
            "invalid configuration: chaos spec `crash` is not key=value"
        );
        assert_eq!(
            msg("seed=zz"),
            "invalid configuration: chaos seed `zz` is not a u64"
        );
        assert_eq!(
            msg("legs=0"),
            "invalid configuration: chaos legs must be > 0"
        );
        assert_eq!(
            msg("hosts=1"),
            "invalid configuration: chaos needs at least 2 hosts"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            ChaosAction::DiskPressure {
                quota_fraction: 0.5
            }
            .label(),
            "disk_pressure"
        );
        assert_eq!(ChaosAction::CorruptCheckpoint.label(), "corrupt_checkpoint");
    }
}
