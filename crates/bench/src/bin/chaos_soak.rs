//! Chaos soak: a long seeded hostile run combining host crashes, disk
//! pressure, checkpoint corruption, link drops, and netem loss —
//! asserting the survivability invariants after every leg.
//!
//! ```text
//! cargo run --release --bin chaos_soak -- \
//!     --chaos seed=42,legs=250,crash=0.12,pressure=0.25,corrupt=0.08,drop=0.15,loss=0.1
//! ```
//!
//! Flags:
//!
//! * `--chaos <spec>` — comma-separated `key=value` chaos spec (see
//!   [`ChaosConfig::parse`]); omitted keys keep hostile defaults. Its
//!   `crash` rate crashes the *destination host* mid-transfer
//!   (`FaultKind::HostCrash`), unlike the `vecycle` CLI's `--faults crash=`,
//!   which crashes during the checkpoint save (`CrashDuringSave`);
//! * `--quota <bytes>` — per-host checkpoint byte quota;
//! * `--policy <name>` — eviction policy (`oldest|lru|largest|staleness`).
//!
//! Exit status is non-zero when any invariant is violated. When
//! `results/` exists, the incident log and the canonical metrics
//! snapshot are written there (CI uploads both on failure).

use vecycle_bench::soak::{run_soak, SoakOptions};
use vecycle_checkpoint::EvictionPolicy;
use vecycle_sim::chaos::ChaosConfig;
use vecycle_types::Bytes;

/// Hostile-by-default chaos spec: every fault class armed.
const DEFAULT_SPEC: &str =
    "seed=2022,legs=250,hosts=3,crash=0.12,pressure=0.25,corrupt=0.08,drop=0.15,loss=0.1";

fn main() {
    let mut spec = DEFAULT_SPEC.to_string();
    let mut quota: Option<Bytes> = None;
    let mut policy: Option<EvictionPolicy> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
        };
        match arg.as_str() {
            "--chaos" => spec = grab("--chaos"),
            "--quota" => quota = Some(Bytes::new(grab("--quota").parse().expect("--quota: bytes"))),
            "--policy" => {
                let name = grab("--policy");
                policy = Some(EvictionPolicy::parse(&name).unwrap_or_else(|| {
                    panic!("--policy: unknown policy {name} (oldest|lru|largest|staleness)")
                }));
            }
            other => panic!("unknown argument {other}; known: --chaos --quota --policy"),
        }
    }

    let config = ChaosConfig::parse(&spec).expect("valid --chaos spec");
    let mut opts = SoakOptions::new(config);
    if let Some(quota) = quota {
        opts.quota = quota;
    }
    if let Some(policy) = policy {
        opts.policy = policy;
    }

    println!(
        "Chaos soak — seed {}, {} legs across {} hosts, quota {} ({} eviction)",
        config.seed, config.legs, config.hosts, opts.quota, opts.policy
    );
    println!(
        "rates: crash={} pressure={} corrupt={} drop={} loss={}\n",
        config.rates.crash,
        config.rates.pressure,
        config.rates.corrupt,
        config.rates.drop,
        config.rates.loss
    );

    let report = run_soak(&opts).expect("soak infrastructure");
    println!("{}", report.summary());

    let out = std::path::Path::new("results");
    if out.is_dir() {
        let incidents = report.events.join("\n") + "\n";
        let ipath = out.join("chaos_soak_incidents.log");
        std::fs::write(&ipath, incidents).expect("writing incident log");
        println!("[incident log written to {}]", ipath.display());
        let mpath = out.join("chaos_soak_metrics.json");
        std::fs::write(&mpath, &report.metrics_json).expect("writing metrics json");
        println!("[metrics snapshot written to {}]", mpath.display());
    }

    if !report.violations.is_empty() {
        eprintln!("\nINVARIANT VIOLATIONS:");
        for v in &report.violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!(
        "\nall invariants held across {} legs",
        report.outcomes.migrations
    );
}
