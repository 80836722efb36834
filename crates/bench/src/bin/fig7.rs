//! Figure 7: migration time and traffic vs percentage of memory updated.
//!
//! The §4.5 controlled experiment: a 4 GiB VM devotes 90% of its RAM to
//! a ramdisk; between checkpoint and migration, {0, 25, 50, 75, 100}% of
//! the ramdisk is rewritten with fresh random blocks.

use vecycle_analysis::{ExperimentLog, Table};
use vecycle_bench::Options;
use vecycle_core::{MigrationEngine, Strategy};
use vecycle_mem::{workload::RamdiskWorkload, DigestMemory, Guest};
use vecycle_net::LinkSpec;
use vecycle_types::{Bytes, Ratio};

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    let ram = Bytes::from_gib(4);
    let updates = [0u32, 25, 50, 75, 100];
    let links = [
        ("lan", LinkSpec::lan_gigabit()),
        ("wan", LinkSpec::wan_cloudnet()),
    ];

    for (link_name, link) in links {
        let engine = MigrationEngine::new(link);
        println!("\nFigure 7 ({link_name}) — 4 GiB VM, ramdisk update sweep");
        let mut t = Table::new(vec![
            "updates [%]",
            "qemu time [s]",
            "vecycle time [s]",
            "Δtime",
            "vecycle tx [GiB]",
        ]);
        for pct in updates {
            let mut guest = Guest::new(DigestMemory::zeroed(ram.pages_ceil()));
            let mut ramdisk =
                RamdiskWorkload::fill(&mut guest, Ratio::new(0.9), opts.seed ^ u64::from(pct));
            let checkpoint = guest.memory().snapshot();
            ramdisk.update_fraction(&mut guest, Ratio::new(f64::from(pct) / 100.0));

            let qemu = engine
                .migrate(guest.memory(), Strategy::full())
                .expect("non-empty guest");
            let vecycle = engine
                .migrate(guest.memory(), Strategy::vecycle(&checkpoint))
                .expect("non-empty guest");

            let tq = qemu.total_time().as_secs_f64();
            let tv = vecycle.total_time().as_secs_f64();
            t.row(vec![
                format!("{pct}"),
                format!("{tq:.1}"),
                format!("{tv:.1}"),
                format!("{:+.0}%", (tv / tq - 1.0) * 100.0),
                format!("{:.2}", vecycle.source_traffic().as_gib_f64()),
            ]);
            let label = |s: &str| format!("{link_name}/{pct}pct/{s}");
            log.record("fig7", label("qemu"), "time_s", tq);
            log.record("fig7", label("vecycle"), "time_s", tv);
            log.record(
                "fig7",
                label("vecycle"),
                "traffic_gib",
                vecycle.source_traffic().as_gib_f64(),
            );
        }
        print!("{}", t.render());
    }

    println!(
        "\nPaper targets: QEMU flat across update rates; VeCycle grows\n\
         linearly and converges on QEMU at 100% (LAN reductions ≈ −68%,\n\
         −49%, −27% at 25/50/75%; WAN −72%, −51%, −27%). Note the\n\
         zero-page effect: the 10% of RAM outside the ramdisk stays\n\
         reusable even at 100% updates."
    );
    opts.finish(&log);
}
