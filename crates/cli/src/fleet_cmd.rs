//! The `vecycle fleet` subcommand: run a fleet orchestration scenario
//! from the command line.

use vecycle_analysis::Table;
use vecycle_fleet::{Fleet, FleetSpec, PlacementMode, TimingPolicy};

use crate::args::{parse_duration, Args};

const HELP: &str = "\
vecycle fleet — event-driven checkpoint-aware fleet orchestration

USAGE:
  vecycle fleet run [--hosts N] [--vms N] [--placement aware|blind|random]
                    [--timing immediate|window] [--max-wait 30m]
                    [--legs N] [--interval 10m] [--seed N]
                    [--preseed true] [--journal <file.jsonl>]

Runs an event-driven fleet: each VM issues --legs migration requests at
a jittered --interval; the placement engine sends the VM to the host in
its affinity set holding its freshest checkpoint (--placement aware),
round-robins blindly (blind), or draws at random (random). Admission
control caps concurrent migrations per host pair, per rack link and
fleet-wide. With --timing window, starts defer into the guest's next
low-dirty phase (at most --max-wait, never past the request deadline).

Results are bit-identical across repeat runs. --journal writes the
placement-decision journal as JSON Lines.";

/// Runs `vecycle fleet ...`.
///
/// # Errors
///
/// Every user mistake (unknown flag value, invalid topology) surfaces
/// as a message.
pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = argv.split_first() else {
        println!("{HELP}");
        return Ok(());
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        "run" => run_fleet(rest),
        other => Err(format!("unknown fleet subcommand {other:?} (try run)")),
    }
}

fn run_fleet(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    let hosts: u32 = args.get_parsed("hosts", 64)?;
    let vms: u32 = args.get_parsed("vms", 256)?;
    let placement = match args.get("placement") {
        None => PlacementMode::CheckpointAware,
        Some(name) => PlacementMode::parse(name)
            .ok_or_else(|| format!("unknown placement {name:?} (aware|blind|random)"))?,
    };
    let timing = match args.get("timing").unwrap_or("immediate") {
        "immediate" => TimingPolicy::Immediate,
        "window" => TimingPolicy::LowDirtyWindow {
            max_wait: parse_duration(args.get("max-wait").unwrap_or("30m"))?,
        },
        other => return Err(format!("unknown timing {other:?} (immediate|window)")),
    };
    if args.get("max-wait").is_some() && matches!(timing, TimingPolicy::Immediate) {
        return Err("--max-wait needs --timing window".into());
    }

    let mut spec = FleetSpec::new(hosts, vms)
        .with_placement(placement)
        .with_timing(timing)
        .with_seed(args.get_parsed("seed", 1)?);
    spec.requests_per_vm = args.get_parsed("legs", spec.requests_per_vm)?;
    if let Some(interval) = args.get("interval") {
        spec.mean_interval = parse_duration(interval)?;
    }
    spec.preseed_checkpoints = args.get_parsed("preseed", false)?;
    spec.validate().map_err(|e| e.to_string())?;

    println!(
        "fleet — {hosts} hosts, {vms} VMs, {} legs/VM, placement {}, timing {}",
        spec.requests_per_vm,
        placement.label(),
        timing.label()
    );
    let mut fleet = Fleet::new(spec).map_err(|e| e.to_string())?;
    let report = fleet.run().map_err(|e| e.to_string())?;
    print!("{report}");

    let mut t = Table::new(vec!["reason", "migrations"]);
    for reason in ["warm", "cold", "blind", "random", "pinned"] {
        let n = report
            .decisions
            .iter()
            .filter(|d| d.reason == reason)
            .count();
        if n > 0 {
            t.row(vec![reason.into(), format!("{n}")]);
        }
    }
    print!("{}", t.render());

    if !report.incidents.is_empty() {
        println!("incidents:");
        for line in &report.incidents {
            println!("  {line}");
        }
    }
    if let Some(path) = args.get("journal") {
        std::fs::write(path, report.journal_jsonl()).map_err(|e| e.to_string())?;
        println!("journal written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_runs() {
        run(&argv(&[])).unwrap();
        run(&argv(&["help"])).unwrap();
    }

    #[test]
    fn small_fleet_runs_for_every_placement() {
        for placement in ["aware", "blind", "random"] {
            run(&argv(&[
                "run",
                "--hosts",
                "8",
                "--vms",
                "16",
                "--legs",
                "2",
                "--placement",
                placement,
            ]))
            .unwrap();
        }
    }

    #[test]
    fn window_timing_runs_and_flags_validate() {
        run(&argv(&[
            "run",
            "--hosts",
            "8",
            "--vms",
            "8",
            "--legs",
            "1",
            "--timing",
            "window",
            "--max-wait",
            "10m",
        ]))
        .unwrap();
        assert!(run(&argv(&["run", "--max-wait", "5m"])).is_err());
        assert!(run(&argv(&["run", "--placement", "psychic"])).is_err());
        assert!(run(&argv(&["run", "--timing", "someday"])).is_err());
        assert!(run(&argv(&["run", "--hosts", "2", "--vms", "4"])).is_err());
    }

    #[test]
    fn journal_flag_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("vecycle-fleet-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        run(&argv(&[
            "run",
            "--hosts",
            "8",
            "--vms",
            "8",
            "--legs",
            "1",
            "--journal",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        assert!(text.lines().all(|l| l.starts_with('{')));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
    }
}
