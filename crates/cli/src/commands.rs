//! Subcommand dispatch and implementations.

use vecycle_analysis::Table;
use vecycle_checkpoint::{Checkpoint, EvictionPolicy};
use vecycle_core::session::{
    RecyclePolicy, ScheduleSummary, SessionEvent, VeCycleSession, VmInstance,
};
use vecycle_core::{estimate, MigrationEngine, MigrationReport, Strategy};
use vecycle_faults::{FaultPlan, RetryPolicy};
use vecycle_host::{Cluster, CpuSpec, MigrationRequest};
use vecycle_mem::workload::{GuestWorkload, IdleWorkload};
use vecycle_mem::{DigestMemory, Guest, MemoryImage, MutableMemory, PageContent};
use vecycle_net::LinkSpec;
use vecycle_obs::MetricsRegistry;
use vecycle_trace::{catalog, Trace, TraceGenerator, TraceStats};
use vecycle_types::{Bytes, HostId, PageIndex, Ratio, VmId};

use crate::args::{parse_duration, parse_faults, parse_link, parse_size, Args};

const HELP: &str = "\
vecycle — checkpoint-recycled VM migration simulator

USAGE:
  vecycle trace gen --machine <name> --out <file.vtrc> [--scale N] [--seed N]
  vecycle trace stat <file.vtrc>
  vecycle trace list
  vecycle checkpoint inspect <file.ckpt>
  vecycle estimate --ram <size> --similarity <0..1> [--link lan|wan|wan:p%]
  vecycle simulate migrate --ram <size> --similarity <0..1> [--link ...] [--seed N]
  vecycle simulate vdi [--policy vecycle|dedup|baseline|adaptive] [--ram <size>]
  vecycle simulate pingpong [--ram <size>] [--gap 2h] [--count 10]
  vecycle daemon serve|submit|status|pause|resume|cancel ...
  vecycle fleet run [--hosts N] [--vms N] [--placement aware|blind|random]
                    [--timing immediate|window] [--legs N] [--seed N] ...
  vecycle help

`daemon` is the two-process migration surface (also installed as the
`vecycled` binary): `serve` runs a daemon on a TCP or unix: address,
the other subcommands drive it over its control socket. See
`vecycle daemon help`.

`simulate vdi` and `simulate pingpong` also accept fault injection and
checkpoint lifecycle pressure:
  --faults seed=7,drop=0.3,degrade=0.2,corrupt=0.1,spike=0.2,crash=0.1,hostcrash=0.1
  --retry N              max attempts per migration (default 3)
  --disk-quota <size>    per-host checkpoint byte budget (evictions and
                         refused saves land in the incident log)
  --evict-policy <name>  oldest | lru | largest | staleness (needs --disk-quota)
  --metrics-out <file>   write the run's metrics timeline as JSONL
                         (spans + events; see DESIGN.md §10)

Sizes look like 4GiB / 512MiB; machines are Table-1 names (try
`vecycle trace list`).";

/// Runs a command line. Returns a user-facing error string on failure.
///
/// # Errors
///
/// Every user mistake (unknown subcommand, bad flag, missing file)
/// surfaces here as a message.
pub fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = match argv.split_first() {
        None => return Err("no subcommand".into()),
        Some((c, r)) => (c.as_str(), r),
    };
    match cmd {
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        "trace" => trace_cmd(rest),
        "checkpoint" => checkpoint_cmd(rest),
        "estimate" => estimate_cmd(rest),
        "simulate" => simulate_cmd(rest),
        "daemon" => crate::daemon_cmd::run(rest),
        "fleet" => crate::fleet_cmd::run(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn trace_cmd(argv: &[String]) -> Result<(), String> {
    let (sub, rest) = argv
        .split_first()
        .ok_or("trace needs a subcommand: gen | stat | list")?;
    let args = Args::parse(rest)?;
    match sub.as_str() {
        "list" => {
            let mut t = Table::new(vec!["machine", "kind", "ram", "trace span"]);
            for m in catalog() {
                t.row(vec![
                    m.name.into(),
                    m.kind.to_string(),
                    format!("{}", m.ram()),
                    format!("{:.0} days", m.profile.trace_duration.as_hours_f64() / 24.0),
                ]);
            }
            print!("{}", t.render());
            Ok(())
        }
        "gen" => {
            let name = args.require("machine")?;
            let out = args.require("out")?;
            let scale: u64 = args.get_parsed("scale", 1024)?;
            let seed: u64 = args.get_parsed("seed", 0x7ec)?;
            let machine = catalog()
                .into_iter()
                .find(|m| m.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("no machine named {name:?} (see `vecycle trace list`)"))?;
            let pages = ((machine.ram().as_gib_f64() * scale as f64).round() as u64).max(64);
            let trace = TraceGenerator::new(machine.profile.clone(), seed)
                .scale_pages(pages)
                .generate()
                .map_err(|e| e.to_string())?;
            let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
            trace
                .write_to(std::io::BufWriter::new(file))
                .map_err(|e| e.to_string())?;
            println!(
                "wrote {} fingerprints × {pages} pages to {out}",
                trace.fingerprints().len()
            );
            Ok(())
        }
        "stat" => {
            let path = args
                .positional()
                .first()
                .ok_or("trace stat needs a file argument")?;
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let trace =
                Trace::read_from(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
            println!("{path}: nominal RAM {}", trace.ram());
            println!("{}", TraceStats::compute(&trace));
            Ok(())
        }
        other => Err(format!("unknown trace subcommand {other:?}")),
    }
}

fn checkpoint_cmd(argv: &[String]) -> Result<(), String> {
    let (sub, rest) = argv
        .split_first()
        .ok_or("checkpoint needs a subcommand: inspect")?;
    let args = Args::parse(rest)?;
    match sub.as_str() {
        "inspect" => {
            let path = args
                .positional()
                .first()
                .ok_or("checkpoint inspect needs a file argument")?;
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let cp =
                Checkpoint::read_from(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
            let index = cp.build_index();
            println!("{path}:");
            println!("  vm:            {}", cp.vm());
            println!("  taken at:      {}", cp.taken_at());
            println!("  pages:         {}", cp.page_count().as_u64());
            println!("  ram:           {}", cp.ram_size());
            println!("  storage:       {}", cp.storage_size());
            println!("  distinct:      {} hashes", index.distinct());
            println!("  exchange size: {}", index.wire_size());
            Ok(())
        }
        other => Err(format!("unknown checkpoint subcommand {other:?}")),
    }
}

fn estimate_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    let ram = parse_size(args.require("ram")?)?;
    let similarity: f64 = args.get_parsed("similarity", f64::NAN)?;
    if !(0.0..=1.0).contains(&similarity) {
        return Err("--similarity must be in [0, 1]".into());
    }
    let link = parse_link(args.get("link").unwrap_or("lan"))?;
    let cpu = CpuSpec::phenom_ii();
    let full = estimate::estimate_full(ram, Ratio::ZERO, link);
    let vecycle = estimate::estimate_vecycle(
        ram,
        Ratio::new(similarity),
        Ratio::ZERO,
        link,
        &cpu,
        vecycle_hash::ChecksumAlgorithm::Md5,
    );
    let mut t = Table::new(vec!["strategy", "traffic", "time"]);
    t.row(vec![
        "full".into(),
        format!("{}", full.traffic),
        format!("{}", full.time),
    ]);
    t.row(vec![
        "vecycle".into(),
        format!("{}", vecycle.traffic),
        format!("{}", vecycle.time),
    ]);
    print!("{}", t.render());
    match estimate::break_even_similarity(ram, link, &cpu, vecycle_hash::ChecksumAlgorithm::Md5) {
        Some(s) => println!("break-even similarity on this link: {s}"),
        None => println!("vecycle cannot beat a full migration on this link"),
    }
    Ok(())
}

/// Parses the `--disk-quota` / `--evict-policy` pair into a per-host
/// checkpoint budget. `--evict-policy` alone is rejected: a policy only
/// means something once there is a quota to enforce.
fn lifecycle_flags(args: &Args) -> Result<Option<(Bytes, EvictionPolicy)>, String> {
    let Some(spec) = args.get("disk-quota") else {
        if args.get("evict-policy").is_some() {
            return Err("--evict-policy needs --disk-quota".into());
        }
        return Ok(None);
    };
    let quota = parse_size(spec)?;
    let policy = match args.get("evict-policy") {
        None => EvictionPolicy::OldestFirst,
        Some(name) => EvictionPolicy::parse(name).ok_or_else(|| {
            format!("unknown eviction policy {name:?} (oldest|lru|largest|staleness)")
        })?,
    };
    Ok(Some((quota, policy)))
}

/// Counts the checkpoint-lifecycle incidents in a run's event stream;
/// `None` when nothing lifecycle-related happened.
fn lifecycle_summary(events: &[SessionEvent]) -> Option<String> {
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    let evicted = count("checkpoint_evicted");
    let refused = count("checkpoint_save_refused");
    let restarts = count("host_restarted");
    let quarantined = count("checkpoint_quarantined");
    if evicted + refused + restarts + quarantined == 0 {
        return None;
    }
    Some(format!(
        "lifecycle: {evicted} evictions, {refused} saves refused, {restarts} host restarts, \
         {quarantined} quarantined"
    ))
}

/// Runs `schedule` through `session`, injecting faults when `--faults`
/// was given, and prints the incident log (evictions and refused saves
/// of a `--disk-quota` run included). With `--metrics-out <file>`
/// the run is instrumented and its timeline written as JSONL (one span
/// or event per line). Returns the reports and the incident events.
fn run_with_optional_faults<M, W>(
    args: &Args,
    session: VeCycleSession,
    vm: &mut VmInstance<M>,
    schedule: &[MigrationRequest],
    workload: &mut W,
) -> Result<(Vec<MigrationReport>, Vec<SessionEvent>), String>
where
    M: MutableMemory,
    W: GuestWorkload<M>,
{
    let retry: u32 = args.get_parsed("retry", 3)?;
    let mut session = session.with_retry_policy(RetryPolicy::default().with_max_attempts(retry));
    let metrics = args.get("metrics-out").map(|_| MetricsRegistry::new());
    if let Some(m) = &metrics {
        session = session.with_metrics(m.clone());
    }
    let plan = match args.get("faults") {
        Some(spec) => {
            let (fault_seed, rates) = parse_faults(spec)?;
            FaultPlan::seeded(fault_seed, &rates, schedule.len())
        }
        None => FaultPlan::none(),
    };
    let run = session
        .run_schedule_with_faults(vm, schedule, workload, &plan)
        .map_err(|e| e.to_string())?;
    let (reports, events) = (run.reports, run.events);
    if !events.is_empty() {
        println!("incidents:");
        for e in &events {
            println!("  {e}");
        }
    }
    if let Some(m) = &metrics {
        let path = args.get("metrics-out").expect("checked above");
        std::fs::write(path, m.snapshot().events_jsonl()).map_err(|e| e.to_string())?;
        println!("metrics timeline written to {path}");
    }
    Ok((reports, events))
}

fn simulate_cmd(argv: &[String]) -> Result<(), String> {
    let (sub, rest) = argv
        .split_first()
        .ok_or("simulate needs a subcommand: migrate | vdi")?;
    let args = Args::parse(rest)?;
    match sub.as_str() {
        "migrate" => {
            let ram = parse_size(args.require("ram")?)?;
            let similarity: f64 = args.get_parsed("similarity", 1.0)?;
            if !(0.0..=1.0).contains(&similarity) {
                return Err("--similarity must be in [0, 1]".into());
            }
            let link = parse_link(args.get("link").unwrap_or("lan"))?;
            let seed: u64 = args.get_parsed("seed", 1)?;
            if ram.as_u64() % vecycle_types::PAGE_SIZE != 0 || ram.is_zero() {
                return Err("--ram must be a positive multiple of 4KiB".into());
            }

            let base = DigestMemory::with_uniform_content(ram, seed).map_err(|e| e.to_string())?;
            let mut vm = base.snapshot();
            let novel = ((1.0 - similarity) * vm.page_count().as_u64() as f64).round() as u64;
            for i in 0..novel {
                vm.write_page(PageIndex::new(i), PageContent::ContentId((1 << 54) | i));
            }
            let engine = MigrationEngine::new(link);
            let full = engine
                .migrate(&vm, Strategy::full())
                .map_err(|e| e.to_string())?;
            let re = engine
                .migrate(&vm, Strategy::vecycle(&base))
                .map_err(|e| e.to_string())?;
            println!("{full}");
            println!("{re}");
            println!(
                "reduction: traffic -{:.0}%, time -{:.0}%",
                (1.0 - re.source_traffic().as_f64() / full.source_traffic().as_f64()) * 100.0,
                (1.0 - re.total_time().as_secs_f64() / full.total_time().as_secs_f64()) * 100.0,
            );
            Ok(())
        }
        "vdi" => {
            let ram = parse_size(args.get("ram").unwrap_or("256MiB"))?;
            let policy = match args.get("policy").unwrap_or("vecycle") {
                "vecycle" => RecyclePolicy::VeCycle,
                "dedup" => RecyclePolicy::DedupOnly,
                "baseline" => RecyclePolicy::Baseline,
                "adaptive" => RecyclePolicy::Adaptive {
                    min_similarity: 0.3,
                },
                other => return Err(format!("unknown policy {other:?}")),
            };
            if ram.as_u64() % vecycle_types::PAGE_SIZE != 0 || ram.is_zero() {
                return Err("--ram must be a positive multiple of 4KiB".into());
            }
            let seed: u64 = args.get_parsed("seed", 3)?;

            let mut cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
            if let Some((quota, evict)) = lifecycle_flags(&args)? {
                cluster = cluster.with_checkpoint_quotas(quota, evict);
            }
            let session = VeCycleSession::new(cluster).with_policy(policy);
            let mem = DigestMemory::with_uniform_content(ram, seed).map_err(|e| e.to_string())?;
            let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(1));
            let schedule = MigrationRequest::vdi(VmId::new(0), HostId::new(0), HostId::new(1), 19);
            // ~20% of pages touched per 8h working stretch.
            let rate = ram.pages_ceil().as_u64() as f64 * 0.2 / (8.0 * 3600.0);
            let mut workload = IdleWorkload::new(seed ^ 1, rate);
            let (reports, events) =
                run_with_optional_faults(&args, session, &mut vm, &schedule, &mut workload)?;

            let mut t = Table::new(vec![
                "#", "strategy", "outcome", "traffic", "% of ram", "time",
            ]);
            for (i, r) in reports.iter().enumerate() {
                t.row(vec![
                    format!("{}", i + 1),
                    r.strategy().to_string(),
                    r.outcome().to_string(),
                    format!("{}", r.source_traffic()),
                    format!("{:.0}%", r.traffic_fraction_of_ram().as_percent()),
                    format!("{}", r.total_time()),
                ]);
            }
            print!("{}", t.render());
            println!("{}", ScheduleSummary::of(&reports));
            if let Some(line) = lifecycle_summary(&events) {
                println!("{line}");
            }
            Ok(())
        }
        "pingpong" => {
            let ram = parse_size(args.get("ram").unwrap_or("128MiB"))?;
            let gap = parse_duration(args.get("gap").unwrap_or("2h"))?;
            let count: u64 = args.get_parsed("count", 10)?;
            if count == 0 {
                return Err("--count must be positive".into());
            }
            if ram.as_u64() % vecycle_types::PAGE_SIZE != 0 || ram.is_zero() {
                return Err("--ram must be a positive multiple of 4KiB".into());
            }
            let seed: u64 = args.get_parsed("seed", 5)?;

            let mut cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
            if let Some((quota, evict)) = lifecycle_flags(&args)? {
                cluster = cluster.with_checkpoint_quotas(quota, evict);
            }
            let session = VeCycleSession::new(cluster);
            let mem = DigestMemory::with_uniform_content(ram, seed).map_err(|e| e.to_string())?;
            let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0));
            let schedule = MigrationRequest::ping_pong(
                VmId::new(0),
                HostId::new(0),
                HostId::new(1),
                vecycle_types::SimTime::EPOCH + gap,
                gap,
                count,
            );
            let rate = ram.pages_ceil().as_u64() as f64 * 0.05 / gap.as_secs_f64();
            let mut workload = IdleWorkload::new(seed ^ 1, rate);
            let (reports, events) =
                run_with_optional_faults(&args, session, &mut vm, &schedule, &mut workload)?;
            let mut t = Table::new(vec!["#", "strategy", "outcome", "traffic", "time"]);
            for (i, r) in reports.iter().enumerate() {
                t.row(vec![
                    format!("{}", i + 1),
                    r.strategy().to_string(),
                    r.outcome().to_string(),
                    format!("{}", r.source_traffic()),
                    format!("{}", r.total_time()),
                ]);
            }
            print!("{}", t.render());
            println!("{}", ScheduleSummary::of(&reports));
            if let Some(line) = lifecycle_summary(&events) {
                println!("{line}");
            }
            Ok(())
        }
        other => Err(format!("unknown simulate subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_runs() {
        run(&argv(&["help"])).unwrap();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&[])).is_err());
    }

    #[test]
    fn trace_list_runs() {
        run(&argv(&["trace", "list"])).unwrap();
    }

    #[test]
    fn trace_gen_and_stat_round_trip() {
        let dir = std::env::temp_dir().join(format!("vecycle-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vtrc");
        run(&argv(&[
            "trace",
            "gen",
            "--machine",
            "Server A",
            "--out",
            path.to_str().unwrap(),
            "--scale",
            "64",
        ]))
        .unwrap();
        run(&argv(&["trace", "stat", path.to_str().unwrap()])).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn trace_gen_unknown_machine_errors() {
        let err = run(&argv(&[
            "trace",
            "gen",
            "--machine",
            "Server Z",
            "--out",
            "/tmp/x",
        ]))
        .unwrap_err();
        assert!(err.contains("no machine"));
    }

    #[test]
    fn estimate_validates_similarity() {
        assert!(run(&argv(&["estimate", "--ram", "1GiB", "--similarity", "1.5"])).is_err());
        run(&argv(&[
            "estimate",
            "--ram",
            "1GiB",
            "--similarity",
            "0.8",
            "--link",
            "wan",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_migrate_runs() {
        run(&argv(&[
            "simulate",
            "migrate",
            "--ram",
            "16MiB",
            "--similarity",
            "0.75",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_migrate_rejects_bad_ram() {
        assert!(run(&argv(&[
            "simulate",
            "migrate",
            "--ram",
            "1000",
            "--similarity",
            "0.5",
        ]))
        .is_err());
    }

    #[test]
    fn simulate_vdi_all_policies_run() {
        for policy in ["vecycle", "dedup", "baseline", "adaptive"] {
            run(&argv(&[
                "simulate", "vdi", "--ram", "16MiB", "--policy", policy,
            ]))
            .unwrap();
        }
        assert!(run(&argv(&["simulate", "vdi", "--policy", "magic"])).is_err());
    }

    #[test]
    fn simulate_pingpong_runs() {
        run(&argv(&[
            "simulate", "pingpong", "--ram", "8MiB", "--gap", "1h", "--count", "4",
        ]))
        .unwrap();
        assert!(run(&argv(&["simulate", "pingpong", "--count", "0"])).is_err());
        assert!(run(&argv(&["simulate", "pingpong", "--gap", "soon"])).is_err());
    }

    #[test]
    fn simulate_with_faults_runs() {
        run(&argv(&[
            "simulate",
            "pingpong",
            "--ram",
            "8MiB",
            "--gap",
            "1h",
            "--count",
            "4",
            "--faults",
            "seed=7,drop=0.5,corrupt=0.5,crash=0.5",
            "--retry",
            "2",
        ]))
        .unwrap();
        run(&argv(&[
            "simulate",
            "vdi",
            "--ram",
            "8MiB",
            "--faults",
            "seed=3,drop=0.3,degrade=0.3,spike=0.3",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_metrics_out_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("vecycle-cli-mx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        run(&argv(&[
            "simulate",
            "pingpong",
            "--ram",
            "8MiB",
            "--gap",
            "1h",
            "--count",
            "2",
            "--metrics-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "timeline must not be empty");
        assert!(
            text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
            "every line must be a JSON object"
        );
        assert!(text.contains("\"migration\""));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn simulate_rejects_bad_fault_specs() {
        assert!(run(&argv(&[
            "simulate",
            "vdi",
            "--ram",
            "8MiB",
            "--faults",
            "meteor=0.5",
        ]))
        .is_err());
        assert!(run(&argv(&[
            "simulate", "vdi", "--ram", "8MiB", "--faults", "drop=7",
        ]))
        .is_err());
    }

    #[test]
    fn simulate_with_disk_quota_runs_and_reports_lifecycle() {
        // A quota of one checkpoint (16 bytes per page for an 8 MiB
        // digest VM = 32 KiB) forces the second host's save to evict or
        // refuse — either way the lifecycle path is exercised.
        run(&argv(&[
            "simulate",
            "pingpong",
            "--ram",
            "8MiB",
            "--gap",
            "1h",
            "--count",
            "6",
            "--disk-quota",
            "32KiB",
            "--evict-policy",
            "lru",
        ]))
        .unwrap();
        // Quotas compose with fault injection, including host crashes.
        run(&argv(&[
            "simulate",
            "vdi",
            "--ram",
            "8MiB",
            "--disk-quota",
            "16KiB",
            "--faults",
            "seed=11,drop=0.3,hostcrash=0.4",
        ]))
        .unwrap();
    }

    #[test]
    fn lifecycle_flags_are_validated() {
        let err = run(&argv(&[
            "simulate",
            "pingpong",
            "--ram",
            "8MiB",
            "--evict-policy",
            "lru",
        ]))
        .unwrap_err();
        assert!(err.contains("--disk-quota"), "{err}");
        let err = run(&argv(&[
            "simulate",
            "pingpong",
            "--ram",
            "8MiB",
            "--disk-quota",
            "32KiB",
            "--evict-policy",
            "roulette",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown eviction policy"), "{err}");
    }

    #[test]
    fn checkpoint_inspect_round_trip() {
        use vecycle_types::{PageCount, SimTime};
        let dir = std::env::temp_dir().join(format!("vecycle-cli-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vm.ckpt");
        let mem = DigestMemory::with_distinct_content(PageCount::new(16), 1);
        let cp = Checkpoint::capture(VmId::new(3), SimTime::EPOCH, &mem);
        cp.write_to(std::fs::File::create(&path).unwrap()).unwrap();
        run(&argv(&["checkpoint", "inspect", path.to_str().unwrap()])).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_inspect_missing_file_errors() {
        assert!(run(&argv(&["checkpoint", "inspect", "/nonexistent.ckpt"])).is_err());
    }
}
