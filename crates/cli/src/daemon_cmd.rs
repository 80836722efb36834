//! The `vecycled` operator surface: `serve` runs a daemon in the
//! foreground; `submit`, `status`, `pause`, `resume`, `cancel` and
//! `metrics` speak to a running daemon over its control socket.
//!
//! Addresses are `host:port` (TCP) or `unix:<path>` (Unix socket) —
//! the same syntax on both the `--listen` and `--addr`/`--peer`
//! flags. The same grammar is reachable as `vecycle daemon <sub>`.

use std::time::Duration;

use vecycle_daemon::control::{CtrlRequest, JobView};
use vecycle_daemon::{client, Daemon, DaemonConfig, Endpoint};
use vecycle_sim::ScenarioSpec;

use crate::args::Args;

pub(crate) const DAEMON_HELP: &str = "\
vecycled — the VeCycle migration daemon

USAGE:
  vecycled serve  --listen <addr> [--workers N] [--timeout-secs N]
                  [--journal-dir <dir>] [--retries N] [--backoff-ms N]
  vecycled submit --addr <addr> --peer <addr> [--spec k=v,...]
                  [--wait-secs N] [--timeout-secs N]
  vecycled status --addr <addr> [--timeout-secs N]
  vecycled pause  --addr <addr> [--timeout-secs N]
  vecycled resume --addr <addr> [--timeout-secs N]
  vecycled cancel --addr <addr> --job <id> [--timeout-secs N]
  vecycled metrics --addr <addr> [--timeout-secs N]

Addresses are host:port (TCP) or unix:<path> (Unix socket). A spec is
comma-separated key=value pairs over the golden-scenario defaults:
vm, src, dst, ram (MiB), seed, strategy (vecycle|full|dedup),
link (lan|wan), warm (true|false), rate (dirty fraction/hour), pre
(seconds before migration). Workers default to VECYCLE_THREADS (else 1).

--journal-dir makes the daemon crash-durable: every job transition is
write-ahead journaled there and replayed on restart (no job lost, none
completed twice); interrupted transfers resume from partial state.
--retries / --backoff-ms let a source ride out a dying peer.
--wait-secs polls the job's status every 25 ms; --timeout-secs on
client subcommands bounds each control round trip (read and write).";

/// Runs a `vecycled`-style command line (also mounted as
/// `vecycle daemon ...`).
///
/// # Errors
///
/// Every operator mistake surfaces as a message string.
pub fn run(argv: &[String]) -> Result<(), String> {
    let (sub, rest) = match argv.split_first() {
        None => {
            return Err("daemon needs a subcommand: \
                 serve | submit | status | pause | resume | cancel | metrics"
                .into())
        }
        Some((c, r)) => (c.as_str(), r),
    };
    if matches!(sub, "help" | "--help" | "-h") {
        println!("{DAEMON_HELP}");
        return Ok(());
    }
    let args = Args::parse(rest)?;
    match sub {
        "serve" => serve(&args),
        "submit" => submit(&args),
        "status" => status(&args),
        "pause" => {
            ctrl(&args, CtrlRequest::bare("pause"))?;
            println!("paused");
            Ok(())
        }
        "resume" => {
            ctrl(&args, CtrlRequest::bare("resume"))?;
            println!("resumed");
            Ok(())
        }
        "cancel" => {
            let job: u64 = args.get_parsed("job", 0)?;
            if job == 0 {
                return Err("--job is required".into());
            }
            let mut req = CtrlRequest::bare("cancel");
            req.job = job;
            ctrl(&args, req)?;
            println!("cancelled job {job}");
            Ok(())
        }
        "metrics" => {
            print!("{}", ctrl(&args, CtrlRequest::bare("metrics"))?.metrics);
            Ok(())
        }
        other => Err(format!("unknown daemon subcommand {other:?}")),
    }
}

fn addr(args: &Args) -> Result<Endpoint, String> {
    Ok(Endpoint::parse(args.require("addr")?))
}

/// One control round trip honoring `--timeout-secs`, failing on a
/// daemon-side rejection.
fn ctrl(args: &Args, req: CtrlRequest) -> Result<vecycle_daemon::control::CtrlResponse, String> {
    let resp = client::request_timeout(&addr(args)?, &req, io_timeout(args)?)
        .map_err(|e| e.to_string())?;
    if resp.ok {
        Ok(resp)
    } else {
        Err(resp.error)
    }
}

fn serve(args: &Args) -> Result<(), String> {
    let listen = Endpoint::parse(args.require("listen")?);
    let mut config = DaemonConfig::new(listen);
    if let Some(workers) = args.get("workers") {
        let n: usize = workers
            .parse()
            .map_err(|_| format!("--workers: cannot parse {workers:?}"))?;
        config = config.with_workers(n);
    }
    let timeout: u64 = args.get_parsed("timeout-secs", 30)?;
    config = config.with_io_timeout(Duration::from_secs(timeout.max(1)));
    if let Some(dir) = args.get("journal-dir") {
        config = config.with_journal_dir(std::path::PathBuf::from(dir));
    }
    let retries: u32 = args.get_parsed("retries", 0)?;
    config = config.with_retries(retries);
    let backoff: u64 = args.get_parsed("backoff-ms", 200)?;
    config = config.with_backoff(Duration::from_millis(backoff));
    let handle = Daemon::spawn(config).map_err(|e| e.to_string())?;
    println!("vecycled listening on {}", handle.endpoint());
    // Foreground daemon: serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn submit(args: &Args) -> Result<(), String> {
    let ep = addr(args)?;
    let peer = args.require("peer")?;
    let spec_kv = match args.get("spec") {
        Some(kv) => kv.to_string(),
        None => ScenarioSpec::golden(0x7ec).to_kv(),
    };
    // Validate locally first so typos fail before touching the daemon.
    ScenarioSpec::parse(&spec_kv).map_err(|e| e.to_string())?;
    let req = CtrlRequest {
        cmd: "submit".into(),
        spec: spec_kv,
        peer: peer.to_string(),
        job: 0,
    };
    let job = ctrl(args, req)?.job;
    println!("submitted job {job}");
    let wait: u64 = args.get_parsed("wait-secs", 0)?;
    if wait > 0 {
        let view = client::wait_job_with(&ep, job, Duration::from_secs(wait), io_timeout(args)?)
            .map_err(|e| e.to_string())?;
        print_job(&view);
        if view.state != "done" {
            return Err(format!("job {job} ended {}: {}", view.state, view.detail));
        }
    }
    Ok(())
}

/// The control-socket I/O timeout for client subcommands.
fn io_timeout(args: &Args) -> Result<Duration, String> {
    let secs: u64 = args.get_parsed("timeout-secs", client::DEFAULT_IO_TIMEOUT.as_secs())?;
    Ok(Duration::from_secs(secs.max(1)))
}

fn status(args: &Args) -> Result<(), String> {
    let resp = ctrl(args, CtrlRequest::bare("status"))?;
    println!(
        "queue: {} job(s), {}",
        resp.jobs.len(),
        if resp.paused { "paused" } else { "running" }
    );
    if !resp.drained.is_empty() {
        let order: Vec<String> = resp.drained.iter().map(u64::to_string).collect();
        println!("admission order: {}", order.join(", "));
    }
    for view in &resp.jobs {
        print_job(view);
    }
    Ok(())
}

fn print_job(view: &JobView) {
    let mut line = format!(
        "job {}: {} {} -> {}",
        view.id, view.state, view.strategy, view.peer
    );
    if view.rounds > 0 {
        line.push_str(&format!(
            ", {} rounds, downtime {:.3} ms, fwd {} B (measured {} B), rev {} B (measured {} B), converged={}",
            view.rounds,
            view.downtime_ns as f64 / 1e6,
            view.forward_bytes,
            view.measured_tx,
            view.reverse_bytes,
            view.measured_rx,
            view.converged,
        ));
    }
    if !view.detail.is_empty() {
        line.push_str(&format!(" [{}]", view.detail));
    }
    println!("{line}");
}
