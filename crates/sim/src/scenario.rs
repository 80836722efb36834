//! [`ScenarioSpec`]: a self-contained, wire-serializable migration
//! scenario.
//!
//! Two daemon processes must agree *exactly* on the guest they are
//! migrating without shipping gigabytes of state: both sides rebuild
//! the guest deterministically from this spec (seeded uniform content,
//! seeded idle workload, a fixed pre-migration divergence window). The
//! spec is all primitives so it serializes through the vendored serde
//! shim and renders as `key=value` pairs for the CLI.

use serde::{Deserialize, Serialize};
use vecycle_types::{Bytes, Error, PAGE_SIZE};

/// Strategy names a spec may carry.
pub(crate) const STRATEGIES: &[&str] = &["vecycle", "full", "dedup"];
/// Link names a spec may carry.
pub(crate) const LINKS: &[&str] = &["lan", "wan"];

/// A deterministic cross-process migration scenario.
///
/// Equal specs rebuild bit-identical guests, workloads and engines on
/// any host, which is what makes the daemon's remote
/// [`MigrationReport`](https://docs.rs) comparison and ledger
/// reconciliation meaningful.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Guest VM id.
    pub vm: u32,
    /// Source host id (participates in queue locking).
    pub source_host: u32,
    /// Destination host id (participates in queue locking).
    pub dest_host: u32,
    /// Guest RAM in MiB.
    pub ram_mib: u64,
    /// Content seed: both sides derive initial memory from it.
    pub seed: u64,
    /// Migration strategy: `vecycle`, `full` or `dedup`.
    pub strategy: String,
    /// Link model: `lan` (gigabit) or `wan` (emulated cloud WAN).
    pub link: String,
    /// Whether the destination holds a checkpoint of the initial state.
    pub warm: bool,
    /// Fraction of guest pages dirtied per hour by the idle workload.
    pub dirty_frac_per_hour: f64,
    /// Seconds of workload the guest runs *before* migration starts —
    /// the divergence window between checkpoint and live state.
    pub pre_migrate_secs: f64,
}

impl ScenarioSpec {
    /// The golden-suite shape: a 4 MiB idle VM, warm destination, one
    /// hour of divergence at the paper's ~2 %/hour idle dirtying rate.
    pub fn golden(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            vm: 0,
            source_host: 0,
            dest_host: 1,
            ram_mib: 4,
            seed,
            strategy: "vecycle".into(),
            link: "lan".into(),
            warm: true,
            dirty_frac_per_hour: 0.02,
            pre_migrate_secs: 3600.0,
        }
    }

    /// Guest RAM as [`Bytes`].
    pub fn ram(&self) -> Bytes {
        Bytes::from_mib(self.ram_mib)
    }

    /// Guest page count.
    pub fn pages(&self) -> u64 {
        self.ram().pages_ceil().as_u64()
    }

    /// Idle-workload rate in pages per second implied by the dirty
    /// fraction.
    pub fn rate_pages_per_sec(&self) -> f64 {
        self.pages() as f64 * self.dirty_frac_per_hour / 3600.0
    }

    /// Workload seed — derived, so content and write sequence differ.
    pub fn workload_seed(&self) -> u64 {
        self.seed ^ 1
    }

    /// Validates every field against the ranges the daemon accepts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> vecycle_types::Result<()> {
        let bad = |reason: String| Err(Error::InvalidConfig { reason });
        if self.source_host == self.dest_host {
            return bad(format!(
                "source and destination host are both {}",
                self.source_host
            ));
        }
        if self.ram_mib == 0 || self.ram_mib > 256 {
            return bad(format!("ram_mib {} outside 1..=256", self.ram_mib));
        }
        if !STRATEGIES.contains(&self.strategy.as_str()) {
            return bad(format!("unknown strategy {:?}", self.strategy));
        }
        if !LINKS.contains(&self.link.as_str()) {
            return bad(format!("unknown link {:?}", self.link));
        }
        if self.strategy == "vecycle" && !self.warm {
            return bad("strategy vecycle needs a warm destination".into());
        }
        if !self.dirty_frac_per_hour.is_finite()
            || !(0.0..=50.0).contains(&self.dirty_frac_per_hour)
        {
            return bad(format!(
                "dirty_frac_per_hour {} outside 0..=50",
                self.dirty_frac_per_hour
            ));
        }
        if !self.pre_migrate_secs.is_finite() || !(0.0..=604_800.0).contains(&self.pre_migrate_secs)
        {
            return bad(format!(
                "pre_migrate_secs {} outside 0..=604800",
                self.pre_migrate_secs
            ));
        }
        // The bulk checksum exchange must fit the codec's 3-byte length
        // field; the RAM cap above keeps it far below, but pin it so a
        // future cap bump cannot silently break the wire.
        debug_assert!(self.pages() * 16 <= 0xFF_FFFF);
        Ok(())
    }

    /// Renders the spec as `key=value` pairs joined by commas — the
    /// CLI's `--spec` syntax. [`ScenarioSpec::parse`] round-trips it.
    pub fn to_kv(&self) -> String {
        format!(
            "vm={},src={},dst={},ram={},seed={},strategy={},link={},warm={},rate={},pre={}",
            self.vm,
            self.source_host,
            self.dest_host,
            self.ram_mib,
            self.seed,
            self.strategy,
            self.link,
            self.warm,
            self.dirty_frac_per_hour,
            self.pre_migrate_secs,
        )
    }

    /// Parses `key=value` pairs (comma-separated) over golden defaults,
    /// then validates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on unknown or repeated keys,
    /// malformed values or out-of-range fields.
    pub fn parse(s: &str) -> vecycle_types::Result<ScenarioSpec> {
        let mut spec = ScenarioSpec::golden(0);
        let mut seen: Vec<&str> = Vec::new();
        for pair in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair.split_once('=').ok_or_else(|| Error::InvalidConfig {
                reason: format!("expected key=value, got {pair:?}"),
            })?;
            let (key, value) = (key.trim(), value.trim());
            if seen.contains(&key) {
                return Err(Error::InvalidConfig {
                    reason: format!("scenario key {key:?} given twice"),
                });
            }
            seen.push(key);
            let bad = |what: &str| Error::InvalidConfig {
                reason: format!("bad {what} value {value:?}"),
            };
            match key {
                "vm" => spec.vm = value.parse().map_err(|_| bad("vm"))?,
                "src" => spec.source_host = value.parse().map_err(|_| bad("src"))?,
                "dst" => spec.dest_host = value.parse().map_err(|_| bad("dst"))?,
                "ram" => spec.ram_mib = value.parse().map_err(|_| bad("ram"))?,
                "seed" => spec.seed = value.parse().map_err(|_| bad("seed"))?,
                "strategy" => spec.strategy = value.to_string(),
                "link" => spec.link = value.to_string(),
                "warm" => {
                    spec.warm = match value {
                        "true" | "1" => true,
                        "false" | "0" => false,
                        _ => return Err(bad("warm")),
                    }
                }
                "rate" => spec.dirty_frac_per_hour = value.parse().map_err(|_| bad("rate"))?,
                "pre" => spec.pre_migrate_secs = value.parse().map_err(|_| bad("pre"))?,
                other => {
                    return Err(Error::InvalidConfig {
                        reason: format!("unknown scenario key {other:?}"),
                    })
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

// Keep the codec-limit constant honest against the real page size.
const _: () = assert!(PAGE_SIZE == 4096);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_spec_validates_and_round_trips_kv() {
        let spec = ScenarioSpec::golden(0x7ec);
        spec.validate().unwrap();
        let back = ScenarioSpec::parse(&spec.to_kv()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn kv_overrides_apply_over_golden_defaults() {
        let spec = ScenarioSpec::parse("seed=9,strategy=full,warm=0,ram=8,rate=0.5").unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.strategy, "full");
        assert!(!spec.warm);
        assert_eq!(spec.ram_mib, 8);
        assert_eq!(spec.dirty_frac_per_hour, 0.5);
        // Untouched fields keep golden defaults.
        assert_eq!(spec.dest_host, 1);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let spec = ScenarioSpec::golden(42);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for kv in [
            "bogus=1",
            "strategy=magic",
            "link=dialup",
            "ram=0",
            "ram=9999",
            "src=3,dst=3",
            "strategy=vecycle,warm=0",
            "rate=-1",
            "rate=nan",
            "pre=-5",
            "warm=maybe",
            "seed",
            "seed=1,seed=2",
            "strategy=full,strategy=dedup",
        ] {
            assert!(ScenarioSpec::parse(kv).is_err(), "{kv:?} must fail");
        }
        // The last of a repeated key used to win silently.
        let repeated = ScenarioSpec::parse("strategy=full,strategy=vecycle").unwrap_err();
        assert!(repeated.to_string().contains("\"strategy\""), "{repeated}");
    }

    #[test]
    fn derived_quantities_match_the_golden_suite() {
        let spec = ScenarioSpec::golden(0x7ec);
        assert_eq!(spec.pages(), 1024);
        let rate = spec.rate_pages_per_sec();
        assert!((rate - 1024.0 * 0.02 / 3600.0).abs() < 1e-12);
    }
}
