//! Fleet sweep: checkpoint-aware vs. checkpoint-blind vs. random
//! placement at fleet scale.
//!
//! One fleet spec — 1024 hosts, 10240 VMs, 3 requests per VM over
//! affinity sets of 4 — runs once per placement mode with everything
//! else held fixed (same seed, same guests, same request stream, same
//! admission caps). Reported per mode: executed migrations, warm-hit
//! rate, total source traffic, total downtime, queue pressure and
//! makespan. The headline the paper predicts: aware placement turns
//! the ping-pong structure into warm-checkpoint hits and beats blind
//! round-robin on total traffic; random sits in between or below
//! blind depending on how often it stumbles onto a warm host.
//!
//! The run asserts the headline (aware < blind on traffic) and that
//! every mode's report is bit-identical across repeat runs.
//!
//! Writes `results/fleet_sweep.csv` when `results/` exists, and the
//! aware journal to `target/fleet-artifacts/fleet_sweep_journal.jsonl`
//! for CI to upload on failure.

use vecycle_analysis::{ExperimentLog, Table};
use vecycle_bench::Options;
use vecycle_fleet::{Fleet, FleetReport, FleetSpec, PlacementMode};

const HOSTS: u32 = 1024;
const VMS: u32 = 10_240;

fn run_mode(opts: &Options, mode: PlacementMode) -> FleetReport {
    let spec = FleetSpec::new(HOSTS, VMS)
        .with_seed(opts.seed)
        .with_placement(mode);
    Fleet::new(spec)
        .expect("sweep spec validates")
        .run()
        .expect("fleet run is infallible without faults")
}

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    println!(
        "Fleet sweep — {HOSTS} hosts, {VMS} VMs, seed {:#x}\n",
        opts.seed
    );

    let mut t = Table::new(vec![
        "placement",
        "migrations",
        "warm hits",
        "hit rate",
        "traffic",
        "downtime",
        "queued",
        "makespan",
    ]);
    let mut csv = String::from(
        "placement,migrations,warm_hits,hit_rate,traffic_bytes,downtime_nanos,queued,peak_inflight,makespan_nanos\n",
    );

    let modes = [
        PlacementMode::CheckpointAware,
        PlacementMode::CheckpointBlind,
        PlacementMode::Random,
    ];
    let mut reports = Vec::new();
    for mode in modes {
        let report = run_mode(&opts, mode);
        t.row(vec![
            mode.label().into(),
            format!("{}", report.migrations),
            format!("{}", report.placement_hits),
            format!("{:.1}%", report.hit_rate() * 100.0),
            format!("{}", report.total_traffic),
            format!("{}", report.total_downtime),
            format!("{}", report.queued),
            format!("{}", report.makespan),
        ]);
        csv.push_str(&format!(
            "{},{},{},{:.4},{},{},{},{},{}\n",
            mode.label(),
            report.migrations,
            report.placement_hits,
            report.hit_rate(),
            report.total_traffic.as_u64(),
            report.total_downtime.as_nanos(),
            report.queued,
            report.peak_inflight,
            report.makespan.as_nanos(),
        ));
        for (metric, value) in [
            ("traffic_bytes", report.total_traffic.as_u64() as f64),
            ("downtime_nanos", report.total_downtime.as_nanos() as f64),
            ("warm_hits", report.placement_hits as f64),
            ("migrations", report.migrations as f64),
        ] {
            log.record("fleet_sweep", mode.label(), metric, value);
        }
        reports.push((mode, report));
    }
    print!("{}", t.render());

    let aware = &reports[0].1;
    let blind = &reports[1].1;
    assert_eq!(
        aware.migrations, blind.migrations,
        "placement must not change how many migrations execute"
    );
    assert!(
        aware.total_traffic < blind.total_traffic,
        "HEADLINE FAILED: aware {} must beat blind {} on total traffic",
        aware.total_traffic,
        blind.total_traffic
    );
    println!(
        "\naware saves {:.1}% of blind's traffic ({} vs {})",
        (1.0 - aware.total_traffic.as_u64() as f64 / blind.total_traffic.as_u64() as f64) * 100.0,
        aware.total_traffic,
        blind.total_traffic
    );

    // Repeat-run determinism for the aware mode (the one CI diffs).
    let again = run_mode(&opts, PlacementMode::CheckpointAware);
    assert_eq!(
        *aware, again,
        "aware fleet run is not deterministic across repeats"
    );

    let artifacts = std::path::Path::new("target/fleet-artifacts");
    std::fs::create_dir_all(artifacts).expect("creating artifact dir");
    let journal = artifacts.join("fleet_sweep_journal.jsonl");
    std::fs::write(&journal, aware.journal_jsonl()).expect("writing journal");
    println!("[journal written to {}]", journal.display());

    let out = std::path::Path::new("results");
    if out.is_dir() {
        let path = out.join("fleet_sweep.csv");
        std::fs::write(&path, csv).expect("writing csv");
        println!("[csv written to {}]", path.display());
    }
    opts.finish(&log);
}
