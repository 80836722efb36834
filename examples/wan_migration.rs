//! WAN migration with varying divergence from the checkpoint (§4.5).
//!
//! A 1 GiB VM crosses an emulated CloudNet WAN (465 Mbit/s, 27 ms).
//! Between checkpoint and migration, a ramdisk rewrites 0–100% of its
//! blocks. Run:
//!
//! ```sh
//! cargo run --release --example wan_migration
//! ```

use vecycle::core::{MigrationEngine, Strategy};
use vecycle::mem::workload::RamdiskWorkload;
use vecycle::mem::{DigestMemory, Guest};
use vecycle::net::LinkSpec;
use vecycle::types::{Bytes, Ratio};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = MigrationEngine::new(LinkSpec::wan_cloudnet());
    println!("WAN: {} effective", engine.link().effective_bandwidth());
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "updates", "time", "traffic", "vs full"
    );

    let ram = Bytes::from_gib(1);
    let mut baseline_time = None;
    for pct in [0u32, 25, 50, 75, 100] {
        let mut guest = Guest::new(DigestMemory::zeroed(ram.pages_ceil()));
        let mut ramdisk = RamdiskWorkload::fill(&mut guest, Ratio::new(0.9), 5);
        let checkpoint = guest.memory().snapshot();
        ramdisk.update_fraction(&mut guest, Ratio::new(f64::from(pct) / 100.0));

        let full = engine.migrate(guest.memory(), Strategy::full())?;
        let vecycle = engine.migrate(guest.memory(), Strategy::vecycle(&checkpoint))?;
        baseline_time.get_or_insert_with(|| full.total_time().as_secs_f64());

        println!(
            "{:<12} {:>10.1}s {:>12} {:>9.0}%",
            format!("{pct}%"),
            vecycle.total_time().as_secs_f64(),
            format!("{}", vecycle.source_traffic()),
            (vecycle.total_time().as_secs_f64() / full.total_time().as_secs_f64() - 1.0) * 100.0,
        );
    }
    println!(
        "\nfull migration takes {:.0}s regardless of updates",
        baseline_time.unwrap_or(0.0)
    );
    Ok(())
}
