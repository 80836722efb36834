//! The chaos soak harness: drives a [`ChaosScenario`] against a real
//! cluster and checks cluster-wide invariants after every leg.
//!
//! The scenario (from `vecycle-sim`) is abstract; this module is the
//! translation layer. Each [`ChaosAction`] becomes concrete machinery:
//!
//! | action | realisation |
//! |---|---|
//! | `HostCrash` | [`FaultKind::HostCrash`] — destination dies mid-transfer, restarts from its scrubbed disk store |
//! | `DiskPressure` | filler checkpoints saved at the destination, squeezing the quota so the eviction policy must choose victims |
//! | `CorruptCheckpoint` | [`FaultKind::CheckpointCorrupt`], or — when the leg also crashes — real on-disk byte rot the restart scrub must quarantine |
//! | `LinkDrop` | [`FaultKind::LinkDrop`] |
//! | `LinkLoss` | [`FaultKind::LinkDegrade`] with the factor the netem TCP loss model assigns to that loss probability |
//!
//! After every leg the harness asserts the survivability invariants (no
//! quota overrun, disk ≡ catalog, tombstones stay dead, injected faults
//! never produce a `Failed` outcome) and at the end reconciles the three
//! wire accountings (engine counters, net counters, report ledgers).
//! Violations are *collected*, not panicked, so a soak reports every
//! broken invariant of a bad run at once.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use vecycle_checkpoint::{Checkpoint, EvictionPolicy};
use vecycle_core::session::{SessionEvent, VeCycleSession, VmInstance};
use vecycle_core::{MigrationOutcome, MigrationReport};
use vecycle_faults::{DropPoint, FaultKind, FaultPlan};
use vecycle_host::{Cluster, Host, StoreSeries};
use vecycle_mem::{workload::GuestWorkload, workload::IdleWorkload, DigestMemory, Guest};
use vecycle_net::{LinkSpec, Netem};
use vecycle_obs::{MetricsRegistry, MetricsSnapshot};
use vecycle_sim::chaos::{ChaosAction, ChaosConfig, ChaosScenario};
use vecycle_types::{Bytes, HostId, SimTime, VmId, PAGE_SIZE};

/// Everything a soak run needs beyond the scenario itself.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// The chaos configuration (seed, legs, hosts, rates).
    pub config: ChaosConfig,
    /// Main VM RAM size.
    pub ram: Bytes,
    /// Per-host checkpoint byte quota.
    pub quota: Bytes,
    /// Eviction policy under pressure.
    pub policy: EvictionPolicy,
    /// Root directory for the per-host durable stores. Must be empty or
    /// absent; see [`fresh_soak_dir`].
    pub disk_root: PathBuf,
}

impl SoakOptions {
    /// Sensible soak defaults for `config`: 64 MiB VM, a quota holding
    /// ~2.5 checkpoints (so pressure bites), oldest-first eviction,
    /// stores under a process-scoped temp dir.
    pub fn new(config: ChaosConfig) -> SoakOptions {
        let ram = Bytes::from_mib(64);
        // A digest checkpoint stores 16 bytes per page.
        let checkpoint = Bytes::new(ram.pages_ceil().as_u64() * 16);
        SoakOptions {
            config,
            ram,
            quota: Bytes::new(checkpoint.as_u64() * 5 / 2),
            policy: EvictionPolicy::OldestFirst,
            disk_root: fresh_soak_dir(&format!("seed{}", config.seed)),
        }
    }
}

/// Creates (after removing any stale copy) a process-scoped scratch
/// directory for a soak's durable stores.
pub fn fresh_soak_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vecycle-soak-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a soak run produced: outcome counts, the incident transcript,
/// lifecycle totals, the canonical metrics snapshot — and every
/// invariant violation found (an empty list is the pass criterion).
#[derive(Debug)]
pub struct SoakReport {
    /// Migration legs actually run (excludes skipped no-op legs).
    pub legs_run: usize,
    /// Legs skipped because the VM was already at the destination.
    pub skipped: usize,
    /// Legs that completed first try.
    pub completed: usize,
    /// Legs that completed after at least one retry.
    pub retried: usize,
    /// Legs that degraded to a full transfer.
    pub fell_back: usize,
    /// Legs that exhausted every attempt (must be 0 for injected faults).
    pub failed: usize,
    /// Invariant violations, in detection order. Empty = the soak passed.
    pub violations: Vec<String>,
    /// Quota evictions across all hosts (`ckpt_evictions_total`).
    pub evictions: u64,
    /// Host restarts (`host_restarts_total`).
    pub restarts: u64,
    /// Checkpoints quarantined by scrub passes.
    pub quarantined: u64,
    /// The incident transcript, rendered (for repeat-run diffs).
    pub events: Vec<String>,
    /// Canonical metrics JSON — byte-comparable across runs.
    pub metrics_json: String,
    /// Useful source→destination traffic summed over all legs.
    pub total_traffic: Bytes,
    /// Traffic burned on aborted attempts.
    pub wasted_traffic: Bytes,
}

impl SoakReport {
    /// One-line summary for logs and CI output.
    pub fn summary(&self) -> String {
        format!(
            "{} legs ({} skipped): {} ok, {} retried, {} fell back, {} failed; \
             {} evictions, {} restarts, {} quarantined; {} violations",
            self.legs_run,
            self.skipped,
            self.completed,
            self.retried,
            self.fell_back,
            self.failed,
            self.evictions,
            self.restarts,
            self.quarantined,
            self.violations.len(),
        )
    }
}

/// Folds one counter family into a `labels -> value` map so two
/// families can be compared series-by-series.
fn family(snap: &MetricsSnapshot, name: &str) -> BTreeMap<Vec<(String, String)>, u64> {
    snap.counters_named(name)
        .map(|c| (c.labels.clone(), c.value))
        .collect()
}

/// Sums one counter family filtered to a single direction label.
fn direction_total(snap: &MetricsSnapshot, name: &str, direction: &str) -> u64 {
    snap.counters_named(name)
        .filter(|c| {
            c.labels
                .iter()
                .any(|(k, v)| k == "direction" && v == direction)
        })
        .map(|c| c.value)
        .sum()
}

/// Flips one payload byte of `vm`'s checkpoint file at `host`, if it has
/// one — real on-disk rot for the restart scrub to find. Returns whether
/// a file was rotted.
fn rot_checkpoint_file(host: &Host, vm: VmId) -> vecycle_types::Result<bool> {
    let Some(ds) = host.store().disk() else {
        return Ok(false);
    };
    let path = ds.root().join(format!("vm-{}.ckpt", vm.as_u32()));
    let Ok(mut bytes) = std::fs::read(&path) else {
        return Ok(false);
    };
    if bytes.len() < 64 {
        return Ok(false);
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, bytes).map_err(vecycle_types::Error::Io)?;
    Ok(true)
}

/// Converts a netem loss probability into the bandwidth factor the
/// engine's `LinkDegrade` fault applies: the ratio of lossy to clean
/// effective throughput on the reference WAN link.
fn loss_factor(probability: f64) -> f64 {
    let base = LinkSpec::wan_cloudnet();
    let lossy = Netem::new().loss(probability).apply(base);
    let clean = base.effective_bandwidth().as_f64();
    let degraded = lossy.effective_bandwidth().as_f64();
    (degraded / clean).clamp(0.01, 1.0)
}

/// Builds the [`FaultPlan`] for `scenario`. Legs in `rot` (both corrupt
/// *and* crash armed) skip the `CheckpointCorrupt` injection — their
/// corruption is real file rot applied just before the leg, so the
/// restart's scrub pass is what discovers it.
fn fault_plan(scenario: &ChaosScenario, rot: &BTreeSet<usize>) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for (idx, leg) in scenario.legs.iter().enumerate() {
        for action in &leg.actions {
            plan = match *action {
                // On rot legs the crash must actually strike — the whole
                // point is the restart scrub finding the rotted file —
                // so cut almost immediately instead of at a RAM fraction
                // the (possibly tiny, recycled) transfer may never reach.
                ChaosAction::HostCrash { .. } if rot.contains(&idx) => plan.inject(
                    idx,
                    FaultKind::HostCrash {
                        after: DropPoint::Bytes(Bytes::new(4096)),
                        attempts: 1,
                    },
                ),
                ChaosAction::HostCrash { ram_fraction } => plan.inject(
                    idx,
                    FaultKind::HostCrash {
                        after: DropPoint::RamFraction(ram_fraction),
                        attempts: 1,
                    },
                ),
                ChaosAction::LinkDrop { ram_fraction } => plan.inject(
                    idx,
                    FaultKind::LinkDrop {
                        after: DropPoint::RamFraction(ram_fraction),
                        attempts: 1,
                    },
                ),
                ChaosAction::CorruptCheckpoint if rot.contains(&idx) => plan,
                ChaosAction::CorruptCheckpoint => plan.inject(idx, FaultKind::CheckpointCorrupt),
                ChaosAction::LinkLoss { probability } => plan.inject(
                    idx,
                    FaultKind::LinkDegrade {
                        factor: loss_factor(probability),
                        from_round: 1,
                    },
                ),
                ChaosAction::DiskPressure { .. } => plan,
            };
        }
    }
    plan
}

/// Runs the full soak: build the cluster, translate the scenario, drive
/// every leg, check invariants after each, reconcile the wire
/// accountings at the end.
///
/// Injected faults are expected and recovered from; only infrastructure
/// problems (I/O failures, unknown hosts) surface as `Err`.
///
/// # Errors
///
/// Propagates disk-store I/O errors and session-level non-fault errors.
pub fn run_soak(opts: &SoakOptions) -> vecycle_types::Result<SoakReport> {
    let scenario = ChaosScenario::generate(&opts.config);
    let metrics = MetricsRegistry::new();

    let cluster = Cluster::homogeneous(opts.config.hosts as u32, LinkSpec::lan_gigabit())
        .attach_disk_stores(&opts.disk_root)?
        .with_checkpoint_quotas(opts.quota, opts.policy);
    let session = VeCycleSession::new(cluster).with_metrics(metrics.clone());

    let mem = DigestMemory::with_uniform_content(opts.ram, opts.config.seed)?;
    let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0));
    let pages = opts.ram.pages_ceil().as_u64();
    // ~5% of pages touched per hour of gap, like the failure sweep.
    let mut workload = IdleWorkload::new(opts.config.seed ^ 1, pages as f64 * 0.05 / 3600.0);

    // Legs where corruption is realised as on-disk rot (scrub coverage)
    // rather than an injected load failure: those that also crash.
    let rot: BTreeSet<usize> = scenario
        .legs
        .iter()
        .enumerate()
        .filter(|(_, leg)| {
            let crash = leg
                .actions
                .iter()
                .any(|a| matches!(a, ChaosAction::HostCrash { .. }));
            crash
                && leg
                    .actions
                    .iter()
                    .any(|a| matches!(a, ChaosAction::CorruptCheckpoint))
        })
        .map(|(idx, _)| idx)
        .collect();
    let plan = fault_plan(&scenario, &rot);
    vecycle_faults::observe_plan(&metrics, &plan);
    let store_series = StoreSeries::new(&metrics, session.cluster());

    let mut report = SoakReport {
        legs_run: 0,
        skipped: 0,
        completed: 0,
        retried: 0,
        fell_back: 0,
        failed: 0,
        violations: Vec::new(),
        evictions: 0,
        restarts: 0,
        quarantined: 0,
        events: Vec::new(),
        metrics_json: String::new(),
        total_traffic: Bytes::ZERO,
        wasted_traffic: Bytes::ZERO,
    };
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut reports: Vec<MigrationReport> = Vec::new();
    let mut known_vms: BTreeSet<VmId> = BTreeSet::new();
    known_vms.insert(vm.id());
    let mut filler_seq = 0u32;
    let mut clock = SimTime::EPOCH;

    for (idx, leg) in scenario.legs.iter().enumerate() {
        clock += leg.gap;
        workload.advance(vm.guest_mut(), leg.gap);
        let to = HostId::new(leg.dest as u32);
        if to == vm.location() {
            report.skipped += 1;
            continue;
        }
        let dest = session
            .cluster()
            .host(to)
            .expect("scenario destinations are cluster hosts")
            .clone();

        // Pre-leg chaos: disk pressure and (on rot legs) real file rot.
        for action in &leg.actions {
            if let ChaosAction::DiskPressure { quota_fraction } = *action {
                // Filler checkpoints worth `quota_fraction` of the
                // budget: each filler VM's digest checkpoint stores 16
                // bytes per page.
                let filler_bytes = (opts.quota.as_u64() as f64 * quota_fraction) as u64;
                let filler_ram = Bytes::new((filler_bytes / 16).max(1) * PAGE_SIZE);
                let filler_id = VmId::new(100 + filler_seq);
                filler_seq += 1;
                known_vms.insert(filler_id);
                let filler_mem = DigestMemory::with_uniform_content(
                    filler_ram,
                    opts.config.seed ^ u64::from(filler_seq),
                )?;
                let cp = Checkpoint::capture(filler_id, clock, &filler_mem);
                let outcome = dest.save_checkpoint(cp)?;
                store_series.record_save(&dest, &outcome);
            }
        }
        if rot.contains(&idx) {
            rot_checkpoint_file(&dest, vm.id())?;
        }

        let fetch_gone_before = metrics
            .counter("session_checkpoint_fetch_total", &[("result", "evicted")])
            + metrics.counter(
                "session_checkpoint_fetch_total",
                &[("result", "quarantined")],
            );
        let leg_report = session.migrate_with_faults(
            &mut vm,
            to,
            clock,
            &mut workload,
            &plan,
            idx,
            &mut events,
        )?;
        let fetch_gone_after = metrics
            .counter("session_checkpoint_fetch_total", &[("result", "evicted")])
            + metrics.counter(
                "session_checkpoint_fetch_total",
                &[("result", "quarantined")],
            );
        report.legs_run += 1;

        match leg_report.outcome() {
            MigrationOutcome::Completed => report.completed += 1,
            MigrationOutcome::CompletedAfterRetries { .. } => report.retried += 1,
            MigrationOutcome::FellBackToFull { .. } => report.fell_back += 1,
            MigrationOutcome::Failed { .. } => report.failed += 1,
        }
        if matches!(leg_report.outcome(), MigrationOutcome::Failed { .. }) {
            report.violations.push(format!(
                "leg {idx}: outcome Failed — injected faults must always be survivable"
            ));
        }
        if fetch_gone_after > fetch_gone_before
            && matches!(leg_report.outcome(), MigrationOutcome::Completed)
        {
            report.violations.push(format!(
                "leg {idx}: fetched an evicted/quarantined tombstone yet reported a clean \
                 Completed outcome"
            ));
        }
        reports.push(leg_report);

        check_cluster_invariants(&session, opts, &known_vms, idx, &mut report.violations);

        // Engine counters may only ever lead net counters (by wasted
        // attempts), never trail them.
        let snap = metrics.snapshot();
        let engine_bytes = snap.counter_total("engine_wire_bytes_total");
        let net_bytes = snap.counter_total("net_wire_bytes_total");
        if engine_bytes < net_bytes {
            report.violations.push(format!(
                "leg {idx}: net accounting ({net_bytes}) exceeds engine accounting \
                 ({engine_bytes})"
            ));
        }
    }

    // End-of-run reconciliation: the three wire accountings.
    let snap = metrics.snapshot();
    let wasted: u64 = reports.iter().map(|r| r.wasted_traffic().as_u64()).sum();
    // Wasted traffic is forward-path bytes of aborted attempts, so the
    // exact reconciliation is per direction: forward, the engine leads
    // the net side by exactly the waste; reverse, it may lead by the
    // aborted attempts' (unreported) digest requests but never trail.
    let engine_fwd = direction_total(&snap, "engine_wire_bytes_total", "forward");
    let net_fwd = direction_total(&snap, "net_wire_bytes_total", "forward");
    if engine_fwd != net_fwd + wasted {
        report.violations.push(format!(
            "wire accounting: engine forward {engine_fwd} != net forward {net_fwd} + wasted \
             {wasted}"
        ));
    }
    let engine_rev = direction_total(&snap, "engine_wire_bytes_total", "reverse");
    let net_rev = direction_total(&snap, "net_wire_bytes_total", "reverse");
    if engine_rev < net_rev {
        report.violations.push(format!(
            "wire accounting: engine reverse {engine_rev} trails net reverse {net_rev}"
        ));
    }
    let source: u64 = reports.iter().map(|r| r.source_traffic().as_u64()).sum();
    let reverse: u64 = reports.iter().map(|r| r.reverse_traffic().as_u64()).sum();
    if direction_total(&snap, "net_wire_bytes_total", "forward") != source {
        report.violations.push(format!(
            "wire accounting: net forward bytes != report source traffic {source}"
        ));
    }
    if direction_total(&snap, "net_wire_bytes_total", "reverse") != reverse {
        report.violations.push(format!(
            "wire accounting: net reverse bytes != report reverse traffic {reverse}"
        ));
    }
    if family(&snap, "engine_wire_messages_total").is_empty() && report.legs_run > 0 {
        report
            .violations
            .push("wire accounting: no engine messages recorded at all".into());
    }

    report.evictions = snap.counter_total("ckpt_evictions_total");
    report.restarts = snap.counter_total("host_restarts_total");
    report.quarantined = snap.counter(
        "session_events_total",
        &[("event", "checkpoint_quarantined")],
    );
    report.events = events.iter().map(|e| e.to_string()).collect();
    report.metrics_json = snap.to_canonical_json();
    report.total_traffic = reports.iter().map(|r| r.source_traffic()).sum();
    report.wasted_traffic = Bytes::new(wasted);
    Ok(report)
}

/// The per-leg survivability invariants, checked across every host:
/// quota respected, durable store ≡ in-memory catalog, tombstoned VMs
/// really gone.
fn check_cluster_invariants(
    session: &VeCycleSession,
    opts: &SoakOptions,
    known_vms: &BTreeSet<VmId>,
    leg: usize,
    violations: &mut Vec<String>,
) {
    for host in session.cluster().hosts() {
        let store = host.store();
        if store.used() > opts.quota {
            violations.push(format!(
                "leg {leg}: {} holds {} of checkpoints, quota is {}",
                host.id(),
                store.used(),
                opts.quota
            ));
        }
        let catalog = store.vm_ids();
        if let Some(ds) = store.disk() {
            match ds.list() {
                Ok(on_disk) => {
                    if on_disk != catalog {
                        violations.push(format!(
                            "leg {leg}: {} disk files {:?} != catalog {:?}",
                            host.id(),
                            on_disk,
                            catalog
                        ));
                    }
                }
                Err(e) => violations.push(format!(
                    "leg {leg}: {} disk store unreadable: {e}",
                    host.id()
                )),
            }
        }
        for &vm in known_vms {
            if store.gone(vm).is_some() && store.latest(vm).is_some() {
                violations.push(format!(
                    "leg {leg}: {} still serves {vm} despite its tombstone",
                    host.id()
                ));
            }
        }
    }
}
