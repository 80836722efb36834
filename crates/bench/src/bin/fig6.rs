//! Figure 6: best-case (idle VM) migration time and traffic vs RAM size.
//!
//! An idle Ubuntu guest ping-pongs between the two benchmark hosts; the
//! destination of each migration holds a checkpoint written ~30 minutes
//! earlier. QEMU 2.0 (full first round) vs VeCycle, over the gigabit LAN
//! and the emulated CloudNet WAN.

use vecycle_analysis::{ExperimentLog, Table};
use vecycle_bench::Options;
use vecycle_core::{MigrationEngine, Strategy};
use vecycle_mem::{workload::IdleWorkload, DigestMemory, Guest};
use vecycle_net::LinkSpec;
use vecycle_types::{Bytes, SimDuration};

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    let sizes_mib = [1024u64, 2048, 4096, 6144];
    let links = [
        ("lan", LinkSpec::lan_gigabit()),
        ("wan", LinkSpec::wan_cloudnet()),
    ];

    for (link_name, link) in links {
        let engine = MigrationEngine::new(link);
        println!("\nFigure 6 ({link_name}) — idle VM, QEMU 2.0 vs VeCycle");
        let mut t = Table::new(vec![
            "RAM [MiB]",
            "qemu time [s]",
            "vecycle time [s]",
            "Δtime",
            "qemu tx",
            "vecycle tx",
            "Δtraffic",
        ]);
        for mib in sizes_mib {
            let ram = Bytes::from_mib(mib);
            // Guest state: memory filled once with random data (the
            // paper's 95%-fill program), then 30 idle minutes of
            // background-daemon writes separate checkpoint from now.
            let mut guest = Guest::new(
                DigestMemory::with_uniform_content(ram, opts.seed ^ mib).expect("page-aligned"),
            );
            let checkpoint = guest.memory().snapshot();
            let mut daemons = IdleWorkload::new(opts.seed ^ mib ^ 1, 2.0);
            use vecycle_mem::workload::GuestWorkload;
            daemons.advance(&mut guest, SimDuration::from_mins(30));

            let qemu = engine
                .migrate(guest.memory(), Strategy::full())
                .expect("non-empty guest");
            let vecycle = engine
                .migrate(guest.memory(), Strategy::vecycle(&checkpoint))
                .expect("non-empty guest");

            let tq = qemu.total_time().as_secs_f64();
            let tv = vecycle.total_time().as_secs_f64();
            let xq = qemu.source_traffic();
            let xv = vecycle.source_traffic();
            t.row(vec![
                format!("{mib}"),
                format!("{tq:.1}"),
                format!("{tv:.1}"),
                format!("{:+.0}%", (tv / tq - 1.0) * 100.0),
                format!("{xq}"),
                format!("{xv}"),
                format!("{:+.0}%", (xv.as_f64() / xq.as_f64() - 1.0) * 100.0),
            ]);
            let label = |s: &str| format!("{link_name}/{mib}MiB/{s}");
            log.record("fig6", label("qemu"), "time_s", tq);
            log.record("fig6", label("vecycle"), "time_s", tv);
            log.record("fig6", label("qemu"), "traffic_gib", xq.as_gib_f64());
            log.record("fig6", label("vecycle"), "traffic_gib", xv.as_gib_f64());
        }
        print!("{}", t.render());
    }

    println!(
        "\nPaper targets: LAN ~10 s/GiB for QEMU vs 3 s (1 GiB) and 13 s\n\
         (6 GiB) for VeCycle (−76% time); WAN 177 s → 16 s for 1 GiB;\n\
         source traffic −94% (idle VM, near-total reuse)."
    );
    opts.finish(&log);
}
