//! The chaos soak's configuration: seed, length, cluster size and
//! per-leg misfortune rates, parsed from a compact `key=value` spec.
//!
//! The soak harness (`vecycle_bench::soak`) turns a [`ChaosConfig`] into
//! what the session already runs — a pinned `MigrationRequest` schedule
//! and a `FaultPlan` — plus the disk pressure and on-disk rot only the
//! harness can stage.
//!
//! # Examples
//!
//! ```
//! use vecycle_sim::chaos::ChaosConfig;
//!
//! let cfg = ChaosConfig::parse("seed=7,legs=50,crash=0.1,pressure=0.2").unwrap();
//! assert_eq!((cfg.seed, cfg.legs, cfg.hosts), (7, 50, 3));
//! assert_eq!(cfg.rates.crash, 0.1);
//! ```

use vecycle_types::Error;

/// Per-misfortune probabilities, each in `[0, 1]`, applied independently
/// per leg.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosRates {
    /// Probability the destination host crashes mid-transfer
    /// (`FaultKind::HostCrash`).
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
    /// `crash` here is a *destination host* crash mid-transfer
    /// (`FaultKind::HostCrash`), unlike the `vecycle` CLI's
    /// `--faults crash=`, which is a crash during the checkpoint save
    /// (`CrashDuringSave`).
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
