//! Minimal argument parsing: `--flag value` pairs plus positionals.

use std::collections::HashMap;
use std::str::FromStr;

use vecycle_faults::FaultRates;
use vecycle_net::{LinkSpec, Netem};
use vecycle_types::{Bytes, SimDuration};

/// Parsed arguments: named `--key value` options and positional args.
#[derive(Debug, Default)]
pub(crate) struct Args {
    named: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program/subcommand names).
    ///
    /// # Errors
    ///
    /// Fails on a `--flag` without a value or a repeated flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                if out.named.insert(key.to_string(), value.clone()).is_some() {
                    return Err(format!("--{key} given twice"));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// A named option, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(String::as_str)
    }

    /// A required named option.
    ///
    /// # Errors
    ///
    /// Fails when the option is missing.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    /// Positional arguments.
    pub(crate) fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A named option parsed with `FromStr`, with a default.
    ///
    /// # Errors
    ///
    /// Fails when the value does not parse.
    pub(crate) fn get_parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }
}

/// Parses a human byte size: `4GiB`, `512MiB`, `64KiB`, or raw bytes.
///
/// # Errors
///
/// Fails on unknown suffixes or non-numeric values.
pub fn parse_size(s: &str) -> Result<Bytes, String> {
    Bytes::parse(s).map_err(|e| e.to_string())
}

/// Parses a link spec: `lan`, `wan`, or `wan:<loss%>` for a lossy WAN.
///
/// # Errors
///
/// Fails on unknown names or malformed loss values.
pub fn parse_link(s: &str) -> Result<LinkSpec, String> {
    match s {
        "lan" => Ok(LinkSpec::lan_gigabit()),
        "wan" => Ok(LinkSpec::wan_cloudnet()),
        other => {
            if let Some(loss) = other.strip_prefix("wan:") {
                let pct: f64 = loss
                    .strip_suffix('%')
                    .unwrap_or(loss)
                    .parse()
                    .map_err(|_| format!("cannot parse loss {loss:?}"))?;
                if !(0.0..100.0).contains(&pct) {
                    return Err(format!("loss {pct}% out of range"));
                }
                Ok(Netem::new()
                    .loss(pct / 100.0)
                    .apply(LinkSpec::wan_cloudnet()))
            } else {
                Err(format!("unknown link {other:?} (try lan, wan, wan:0.1%)"))
            }
        }
    }
}

/// Parses a duration in seconds (`30s`), minutes (`10m`), hours
/// (`16h`) or days (`2d`).
///
/// # Errors
///
/// Fails on unknown suffixes or non-numeric values.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    if let Some(d) = s.strip_suffix('s') {
        let secs: u64 = d
            .parse()
            .map_err(|_| format!("cannot parse seconds {s:?}"))?;
        Ok(SimDuration::from_secs(secs))
    } else if let Some(d) = s.strip_suffix('m') {
        let mins: u64 = d
            .parse()
            .map_err(|_| format!("cannot parse minutes {s:?}"))?;
        Ok(SimDuration::from_mins(mins))
    } else if let Some(d) = s.strip_suffix('h') {
        let h: u64 = d.parse().map_err(|_| format!("cannot parse hours {s:?}"))?;
        Ok(SimDuration::from_hours(h))
    } else if let Some(d) = s.strip_suffix('d') {
        let days: u64 = d.parse().map_err(|_| format!("cannot parse days {s:?}"))?;
        Ok(SimDuration::from_days(days))
    } else {
        Err(format!(
            "cannot parse duration {s:?} (try 30s, 10m, 16h or 2d)"
        ))
    }
}

/// Parses a fault-injection spec: comma-separated `key=value` pairs.
///
/// Keys: `seed=<u64>` (plan seed, default 0) and per-fault probabilities
/// in `[0, 1]` — `drop`, `degrade`, `corrupt`, `spike`, `crash` (source
/// crash while saving), `hostcrash` (destination dies mid-transfer and
/// restarts from a scrubbed disk store). Example:
/// `seed=7,drop=0.3,corrupt=0.1,hostcrash=0.2`.
///
/// # Errors
///
/// Fails on unknown or duplicate keys, malformed numbers, or
/// out-of-range rates. Repeated keys are rejected rather than
/// last-wins: a spec that names the same fault twice almost certainly
/// means the operator edited the wrong copy, and the incident log
/// would otherwise record a configuration that was never intended.
pub fn parse_faults(s: &str) -> Result<(u64, FaultRates), String> {
    let mut seed = 0u64;
    let mut rates = FaultRates::none();
    let mut seen: Vec<&str> = Vec::new();
    for pair in s.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("fault spec {pair:?} is not key=value"))?;
        if seen.contains(&key) {
            return Err(format!("fault key {key:?} given twice"));
        }
        seen.push(key);
        if key == "seed" {
            seed = value
                .parse()
                .map_err(|_| format!("cannot parse fault seed {value:?}"))?;
            continue;
        }
        let rate: f64 = value
            .parse()
            .map_err(|_| format!("cannot parse fault rate {value:?}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {key}={rate} out of [0, 1]"));
        }
        match key {
            "drop" => rates.link_drop = rate,
            "degrade" => rates.link_degrade = rate,
            "corrupt" => rates.corrupt_checkpoint = rate,
            "spike" => rates.dirty_spike = rate,
            "crash" => rates.crash_on_save = rate,
            "hostcrash" => rates.host_crash = rate,
            other => {
                return Err(format!(
                    "unknown fault {other:?} (try drop, degrade, corrupt, spike, crash, hostcrash)"
                ))
            }
        }
    }
    Ok((seed, rates))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_mixed_args() {
        let a = Args::parse(&argv(&["pos1", "--ram", "4GiB", "pos2", "--seed", "7"])).unwrap();
        assert_eq!(a.positional(), &["pos1", "pos2"]);
        assert_eq!(a.get("ram"), Some("4GiB"));
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_parsed("missing", 42u64).unwrap(), 42);
        assert!(a.require("ram").is_ok());
        assert!(a.require("nope").is_err());
    }

    #[test]
    fn flags_need_values_and_cannot_repeat() {
        assert!(Args::parse(&argv(&["--dangling"])).is_err());
        assert!(Args::parse(&argv(&["--x", "1", "--x", "2"])).is_err());
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size("4GiB").unwrap(), Bytes::from_gib(4));
        assert_eq!(parse_size("512MiB").unwrap(), Bytes::from_mib(512));
        assert_eq!(parse_size("64KiB").unwrap(), Bytes::from_kib(64));
        assert_eq!(parse_size("4096").unwrap(), Bytes::new(4096));
        assert!(parse_size("4GB").is_err());
        assert!(parse_size("abc").is_err());
    }

    #[test]
    fn links() {
        assert_eq!(parse_link("lan").unwrap(), LinkSpec::lan_gigabit());
        assert_eq!(parse_link("wan").unwrap(), LinkSpec::wan_cloudnet());
        let lossy = parse_link("wan:0.5%").unwrap();
        assert!(
            lossy.effective_bandwidth().as_f64()
                < LinkSpec::wan_cloudnet().effective_bandwidth().as_f64()
        );
        assert!(parse_link("dsl").is_err());
        assert!(parse_link("wan:150%").is_err());
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("30s").unwrap(), SimDuration::from_secs(30));
        assert_eq!(parse_duration("90m").unwrap(), SimDuration::from_mins(90));
        assert_eq!(parse_duration("16h").unwrap(), SimDuration::from_hours(16));
        assert_eq!(parse_duration("2d").unwrap(), SimDuration::from_days(2));
        assert!(parse_duration("90").is_err());
        assert!(parse_duration("1w").is_err());
    }

    #[test]
    fn fault_specs() {
        let (seed, rates) = parse_faults("seed=7,drop=0.3,corrupt=0.1").unwrap();
        assert_eq!(seed, 7);
        assert_eq!(rates.link_drop, 0.3);
        assert_eq!(rates.corrupt_checkpoint, 0.1);
        assert_eq!(rates.crash_on_save, 0.0);
        let (seed, rates) = parse_faults("crash=1,spike=0.5,degrade=0.25").unwrap();
        assert_eq!(seed, 0);
        assert_eq!(rates.crash_on_save, 1.0);
        assert_eq!(rates.dirty_spike, 0.5);
        assert_eq!(rates.link_degrade, 0.25);
        let (_, rates) = parse_faults("hostcrash=0.4").unwrap();
        assert_eq!(rates.host_crash, 0.4);
        assert!(parse_faults("drop").is_err());
        assert!(parse_faults("drop=2.0").is_err());
        assert!(parse_faults("meteor=0.1").is_err());
        assert!(parse_faults("seed=x").is_err());
    }

    #[test]
    fn fault_spec_duplicate_keys_are_rejected() {
        assert!(parse_faults("drop=0.1,drop=0.2").is_err());
        assert!(parse_faults("seed=1,corrupt=0.1,seed=2").is_err());
    }

    /// These errors land verbatim in the CLI incident log; pin the exact
    /// strings so log-grepping tooling stays stable.
    #[test]
    fn fault_spec_error_strings_are_pinned() {
        let msg = |spec: &str| parse_faults(spec).unwrap_err();
        assert_eq!(msg("drop=0.1,drop=0.2"), "fault key \"drop\" given twice");
        assert_eq!(msg("drop"), "fault spec \"drop\" is not key=value");
        assert_eq!(msg("drop=2.0"), "fault rate drop=2 out of [0, 1]");
        assert_eq!(msg("drop=zz"), "cannot parse fault rate \"zz\"");
        assert_eq!(msg("seed=x"), "cannot parse fault seed \"x\"");
        assert_eq!(
            msg("meteor=0.1"),
            "unknown fault \"meteor\" (try drop, degrade, corrupt, spike, crash, hostcrash)"
        );
    }
}
