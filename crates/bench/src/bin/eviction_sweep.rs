//! Eviction sweep: how much of VeCycle's traffic reduction survives as
//! the checkpoint quota shrinks, per eviction policy.
//!
//! A pressure-only chaos run (no crashes, no corruption — just
//! background checkpoints squeezing the budget) repeats across quota
//! multiples of the VM's checkpoint size and all four eviction
//! policies. Reported per cell: useful traffic, legs that fell back to
//! a full transfer because their checkpoint was evicted, and total
//! quota evictions. The curve to look for: traffic climbs as the quota
//! drops below ~1 checkpoint's worth (the save is refused and recycling
//! starves), and policies that protect the actively-recycled checkpoint
//! (`oldest`, `lru`) hold the reduction at quotas where `staleness`
//! keeps evicting it in favour of fresher background fillers.
//!
//! Writes `results/eviction_sweep.csv` when `results/` exists.

use vecycle_analysis::{ExperimentLog, Table};
use vecycle_bench::soak::{fresh_soak_dir, run_soak, SoakOptions};
use vecycle_bench::Options;
use vecycle_checkpoint::EvictionPolicy;
use vecycle_sim::chaos::{ChaosConfig, ChaosRates};
use vecycle_types::Bytes;

const LEGS: usize = 60;

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    let ram = Bytes::from_mib(64);
    let checkpoint = Bytes::new(ram.pages_ceil().as_u64() * 16);

    println!(
        "Eviction sweep — {LEGS}-leg random walk, {ram} VM ({checkpoint} checkpoint), \
         steady background disk pressure\n"
    );
    let mut t = Table::new(vec![
        "quota",
        "policy",
        "traffic",
        "fell back",
        "evictions",
        "violations",
    ]);
    let mut csv = String::from(
        "quota_bytes,quota_checkpoints,policy,traffic_bytes,fell_back,evictions,violations\n",
    );

    let policies = [
        EvictionPolicy::OldestFirst,
        EvictionPolicy::LruByRecycle,
        EvictionPolicy::LargestFirst,
        EvictionPolicy::StalenessScore,
    ];
    for quota_factor in [0.5, 1.0, 1.5, 2.5, 4.0, 16.0] {
        let quota = Bytes::new((checkpoint.as_u64() as f64 * quota_factor) as u64);
        for policy in policies {
            let config = ChaosConfig {
                seed: opts.seed,
                legs: LEGS,
                hosts: 3,
                rates: ChaosRates {
                    pressure: 0.5,
                    ..ChaosRates::default()
                },
            };
            let soak = SoakOptions {
                config,
                ram,
                quota,
                policy,
                disk_root: fresh_soak_dir(&format!("evsweep-{quota_factor}-{policy}")),
            };
            let report = run_soak(&soak).expect("sweep infrastructure");
            assert!(
                report.violations.is_empty(),
                "invariants broke at quota {quota} / {policy}: {:?}",
                report.violations
            );
            t.row(vec![
                format!("{quota_factor:.1}x"),
                policy.label().into(),
                format!("{}", report.total_traffic),
                format!("{}", report.fell_back),
                format!("{}", report.evictions),
                format!("{}", report.violations.len()),
            ]);
            csv.push_str(&format!(
                "{},{quota_factor:.1},{},{},{},{},{}\n",
                quota.as_u64(),
                policy.label(),
                report.total_traffic.as_u64(),
                report.fell_back,
                report.evictions,
                report.violations.len(),
            ));
            let cell = format!("q={quota_factor:.1}/{}", policy.label());
            log.record(
                "eviction_sweep",
                &cell,
                "traffic_bytes",
                report.total_traffic.as_u64() as f64,
            );
            log.record(
                "eviction_sweep",
                &cell,
                "fell_back",
                report.fell_back as f64,
            );
            log.record(
                "eviction_sweep",
                &cell,
                "evictions",
                report.evictions as f64,
            );
        }
    }
    print!("{}", t.render());

    let out = std::path::Path::new("results");
    if out.is_dir() {
        let path = out.join("eviction_sweep.csv");
        std::fs::write(&path, csv).expect("writing csv");
        println!("\n[csv written to {}]", path.display());
    }
    opts.finish(&log);
}
