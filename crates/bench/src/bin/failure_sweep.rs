//! Failure sweep: how VeCycle's recycling degrades — and recovers —
//! as fault rates climb.
//!
//! A ping-pong schedule runs under seeded fault plans with uniform
//! per-fault probability `p` ∈ {0, 0.1, 0.25, 0.5, 0.75}, once with
//! partial-checkpoint resume enabled (the default retry policy) and once
//! retrying from scratch. Reported per cell: outcome counts, useful vs
//! wasted traffic, and mean migration time. The interesting deltas:
//!
//! * wasted traffic grows with `p` but the *resume* column grows slower —
//!   aborted attempts leave landed pages the retry recycles;
//! * fallbacks (corrupt checkpoints, low similarity) cost traffic but
//!   never correctness: every non-failed migration lands the VM.
//!
//! Writes `results/failure_sweep.csv` when `results/` exists, plus
//! `results/failure_sweep_metrics.json` — the canonical
//! [`MetricsSnapshot`](vecycle_obs::MetricsSnapshot) accumulated across
//! every cell, for cross-checking the sweep against the typed counters
//! (injected vs observed faults, engine vs net wire bytes).

use vecycle_analysis::{ExperimentLog, Table};
use vecycle_bench::Options;
use vecycle_core::session::{ScheduleSummary, VeCycleSession, VmInstance};
use vecycle_faults::{FaultPlan, FaultRates, RetryPolicy};
use vecycle_host::{Cluster, MigrationRequest};
use vecycle_mem::{workload::IdleWorkload, DigestMemory, Guest};
use vecycle_net::LinkSpec;
use vecycle_obs::MetricsRegistry;
use vecycle_types::{Bytes, HostId, SimDuration, SimTime, VmId};

const LEGS: u64 = 20;

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    let metrics = MetricsRegistry::new();
    let ram = Bytes::from_mib(64);

    println!(
        "Failure sweep — {LEGS}-leg ping-pong, {ram} VM, uniform fault rate p\n\
         (resume = retries recycle the aborted attempt's landed pages)\n"
    );
    let mut t = Table::new(vec![
        "p",
        "retry",
        "ok",
        "retried",
        "fell back",
        "failed",
        "traffic",
        "wasted",
        "mean time",
    ]);
    let mut csv = String::from(
        "rate,retry,migrations,retried,fell_back,failed,traffic_bytes,wasted_bytes,mean_time_s\n",
    );

    for p in [0.0, 0.1, 0.25, 0.5, 0.75] {
        for (retry_name, retry) in [
            ("resume", RetryPolicy::default()),
            ("scratch", RetryPolicy::from_scratch()),
        ] {
            let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
            let session = VeCycleSession::new(cluster)
                .with_retry_policy(retry)
                .with_metrics(metrics.clone());
            let mem = DigestMemory::with_uniform_content(ram, opts.seed).expect("page-aligned");
            let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0));
            let schedule = MigrationRequest::ping_pong(
                vm.id(),
                HostId::new(0),
                HostId::new(1),
                SimTime::EPOCH + SimDuration::from_hours(1),
                SimDuration::from_hours(1),
                LEGS,
            );
            // ~5% of pages touched per gap.
            let rate = ram.pages_ceil().as_u64() as f64 * 0.05 / 3600.0;
            let mut workload = IdleWorkload::new(opts.seed ^ 1, rate);
            let plan = FaultPlan::seeded(opts.seed, &FaultRates::uniform(p), schedule.len());
            let run = session
                .run_schedule_with_faults(&mut vm, &schedule, &mut workload, &plan)
                .expect("fault-free of real errors");
            let s = ScheduleSummary::of(&run.reports);
            let ok = s.migrations - s.retried - s.fell_back - s.failed;
            t.row(vec![
                format!("{p:.2}"),
                retry_name.into(),
                format!("{ok}"),
                format!("{}", s.retried),
                format!("{}", s.fell_back),
                format!("{}", s.failed),
                format!("{}", s.total_traffic),
                format!("{}", s.wasted_traffic),
                format!("{:.2}s", s.mean_time.as_secs_f64()),
            ]);
            csv.push_str(&format!(
                "{p:.2},{retry_name},{},{},{},{},{},{},{:.3}\n",
                s.migrations,
                s.retried,
                s.fell_back,
                s.failed,
                s.total_traffic.as_u64(),
                s.wasted_traffic.as_u64(),
                s.mean_time.as_secs_f64(),
            ));
            let cell = format!("p={p:.2}/{retry_name}");
            log.record("failure_sweep", &cell, "retried", s.retried as f64);
            log.record("failure_sweep", &cell, "failed", s.failed as f64);
            log.record(
                "failure_sweep",
                &cell,
                "wasted_bytes",
                s.wasted_traffic.as_f64(),
            );
        }
    }
    print!("{}", t.render());

    let snap = metrics.snapshot();
    println!(
        "\nmetrics: {} faults injected, {} observed by the session, \
         {} engine wire bytes",
        snap.counter_total("faults_injected_total"),
        snap.counter_total("faults_observed_total"),
        snap.counter_total("engine_wire_bytes_total"),
    );

    let out = std::path::Path::new("results");
    if out.is_dir() {
        let path = out.join("failure_sweep.csv");
        std::fs::write(&path, csv).expect("writing csv");
        println!("\n[csv written to {}]", path.display());
        let mpath = out.join("failure_sweep_metrics.json");
        std::fs::write(&mpath, snap.to_canonical_json()).expect("writing metrics json");
        println!("[metrics snapshot written to {}]", mpath.display());
    }
    opts.finish(&log);
}
