//! The chaos soak harness: drives a seeded hostile run against a real
//! cluster and checks cluster-wide invariants after every leg.
//!
//! A chaos run is what the session already understands — a pinned
//! [`MigrationRequest`] schedule (the VM's random walk) and a
//! [`FaultPlan`] addressing it by leg — plus the two misfortunes the
//! session cannot inject, which stay private to this harness:
//!
//! | misfortune | realisation |
//! |---|---|
//! | host crash | [`FaultKind::HostCrash`] — destination dies mid-transfer, restarts from its scrubbed disk store |
//! | disk pressure | filler checkpoints saved at the destination, squeezing the quota so the eviction policy must choose victims |
//! | corruption | [`FaultKind::CheckpointCorrupt`], or — when the leg also crashes — real on-disk byte rot the restart scrub must quarantine |
//! | link drop | [`FaultKind::LinkDrop`] |
//! | link loss | [`FaultKind::LinkDegrade`] with the factor the netem TCP loss model assigns to that loss probability |
//!
//! After every leg the harness asserts the survivability invariants (no
//! quota overrun, disk ≡ catalog, tombstones stay dead, injected faults
//! never produce a `Failed` outcome) and at the end reconciles the three
//! wire accountings (engine counters, net counters, report ledgers).
//! Violations are *collected*, not panicked, so a soak reports every
//! broken invariant of a bad run at once.

use std::collections::BTreeSet;
use std::path::PathBuf;

use vecycle_checkpoint::{Checkpoint, EvictionPolicy};
use vecycle_core::session::{ScheduleSummary, SessionEvent, VeCycleSession, VmInstance};
use vecycle_core::{MigrationOutcome, MigrationReport};
use vecycle_faults::{DropPoint, FaultKind, FaultPlan};
use vecycle_host::{Cluster, Host, MigrationRequest, StoreSeries};
use vecycle_mem::{workload::GuestWorkload, workload::IdleWorkload, DigestMemory, Guest};
use vecycle_net::{LinkSpec, Netem};
use vecycle_obs::{MetricsRegistry, MetricsSnapshot};
use vecycle_sim::chaos::ChaosConfig;
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{Bytes, HostId, SimDuration, SimTime, VmId, PAGE_SIZE};

/// Everything a soak run needs: the chaos configuration and the cluster
/// it strikes.
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

/// What a soak run produced: the legs' outcomes and traffic, the
/// incident transcript, lifecycle totals, the canonical metrics snapshot
/// — and every invariant violation found (an empty list is the pass
/// criterion).
#[derive(Debug)]
pub struct SoakReport {
    /// Outcomes and traffic of the legs actually run (`failed` must be
    /// 0: injected faults are always survivable).
    pub outcomes: ScheduleSummary,
    /// Legs skipped because the VM was already at the destination.
    pub skipped: usize,
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
}

impl SoakReport {
    /// One-line summary for logs and CI output.
    pub fn summary(&self) -> String {
        let o = &self.outcomes;
        format!(
            "{} legs ({} skipped): {} ok, {} retried, {} fell back, {} failed; \
             {} evictions, {} restarts, {} quarantined; {} violations",
            o.migrations,
            self.skipped,
            o.migrations - o.retried - o.fell_back - o.failed,
            o.retried,
            o.fell_back,
            o.failed,
            self.evictions,
            self.restarts,
            self.quarantined,
            self.violations.len(),
        )
    }
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

/// The soak's one VM.
const VM: VmId = VmId::new(0);

/// A generated chaos run: the walk and the injected faults in the
/// session's vocabulary, plus the per-leg misfortunes only the harness
/// can stage.
#[derive(Debug, Clone, PartialEq)]
struct ChaosRun {
    /// The VM's walk, one request per leg, each pinned to its destination.
    schedule: Vec<MigrationRequest>,
    /// Faults the session injects, addressed by leg.
    plan: FaultPlan,
    /// Per leg: the fraction of the destination's quota that filler
    /// checkpoints occupy before the leg, if a pressure spike strikes.
    pressure: Vec<Option<f64>>,
    /// Per leg: whether the VM's checkpoint file at the destination rots
    /// on disk before the leg (legs that both crash and corrupt).
    rot: Vec<bool>,
}

impl ChaosRun {
    /// Generates the run for `config`, deterministically.
    ///
    /// The VM starts at host 0; each leg walks to a uniformly chosen
    /// *different* host after a gap uniform in 10 minutes … 2 hours.
    /// Generation draws a fixed twelve values per leg, whichever
    /// misfortunes fire, so runs with the same seed share a per-leg
    /// prefix even when their lengths differ, and a zero rate never
    /// perturbs the others.
    fn generate(config: &ChaosConfig) -> ChaosRun {
        let mut rng = Xorshift::new(split(config.seed ^ 0xc4a0_5eed_0dd5_ee17, 0));
        let rates = config.rates;
        let mut run = ChaosRun {
            schedule: Vec::with_capacity(config.legs),
            plan: FaultPlan::none(),
            pressure: Vec::with_capacity(config.legs),
            rot: Vec::with_capacity(config.legs),
        };
        let (mut at, mut clock) = (0usize, SimTime::EPOCH);
        for leg in 0..config.legs {
            let dest_draw = rng.unit_f64();
            let gap_draw = rng.unit_f64();
            // Cut fractions are deliberately small: recycled transfers
            // move only dirtied pages, a tiny slice of RAM, and a cut
            // point the transfer never reaches is a fault that never
            // strikes.
            let crash_p = rng.unit_f64();
            let crash_frac = 0.005 + 0.1 * rng.unit_f64();
            let pressure_p = rng.unit_f64();
            let pressure_frac = 0.3 + 0.6 * rng.unit_f64();
            let corrupt_p = rng.unit_f64();
            let drop_p = rng.unit_f64();
            let drop_frac = 0.005 + 0.15 * rng.unit_f64();
            let loss_p = rng.unit_f64();
            let loss_prob = 0.001 + 0.019 * rng.unit_f64();
            let _reserved = rng.unit_f64();

            // Walk to one of the other hosts: index into the list with
            // the current host removed.
            let step = 1 + (dest_draw * (config.hosts - 1) as f64) as usize;
            at = (at + step.min(config.hosts - 1)) % config.hosts;
            clock += SimDuration::from_secs(600 + (gap_draw * 6600.0) as u64);
            run.schedule
                .push(MigrationRequest::open(clock, VM).pinned(HostId::new(at as u32)));

            let crash = crash_p < rates.crash;
            let corrupt = corrupt_p < rates.corrupt;
            // A leg that both crashes and corrupts realises the
            // corruption as on-disk rot for the restart scrub to find, so
            // its crash must actually strike: cut almost immediately
            // instead of at a RAM fraction the (possibly tiny, recycled)
            // transfer may never reach.
            let rot = crash && corrupt;
            if crash {
                let after = if rot {
                    DropPoint::Bytes(Bytes::new(4096))
                } else {
                    DropPoint::RamFraction(crash_frac)
                };
                run.plan = run
                    .plan
                    .inject(leg, FaultKind::HostCrash { after, attempts: 1 });
            }
            if corrupt && !rot {
                run.plan = run.plan.inject(leg, FaultKind::CheckpointCorrupt);
            }
            if drop_p < rates.drop {
                run.plan = run.plan.inject(
                    leg,
                    FaultKind::LinkDrop {
                        after: DropPoint::RamFraction(drop_frac),
                        attempts: 1,
                    },
                );
            }
            if loss_p < rates.loss {
                run.plan = run.plan.inject(
                    leg,
                    FaultKind::LinkDegrade {
                        factor: loss_factor(loss_prob),
                        from_round: 1,
                    },
                );
            }
            run.pressure
                .push((pressure_p < rates.pressure).then_some(pressure_frac));
            run.rot.push(rot);
        }
        run
    }
}

/// Runs the full soak: build the cluster, generate the run, drive every
/// leg, check invariants after each, reconcile the wire
/// accountings at the end.
///
/// Injected faults are expected and recovered from; only infrastructure
/// problems (I/O failures, unknown hosts) surface as `Err`.
///
/// # Errors
///
/// Propagates disk-store I/O errors and session-level non-fault errors.
pub fn run_soak(opts: &SoakOptions) -> vecycle_types::Result<SoakReport> {
    let run = ChaosRun::generate(&opts.config);
    let metrics = MetricsRegistry::new();

    let cluster = Cluster::homogeneous(opts.config.hosts as u32, LinkSpec::lan_gigabit())
        .attach_disk_stores(&opts.disk_root)?
        .with_checkpoint_quotas(opts.quota, opts.policy);
    let session = VeCycleSession::new(cluster).with_metrics(metrics.clone());

    let mem = DigestMemory::with_uniform_content(opts.ram, opts.config.seed)?;
    let mut vm = VmInstance::new(VM, Guest::new(mem), HostId::new(0));
    let pages = opts.ram.pages_ceil().as_u64();
    // ~5% of pages touched per hour of gap, like the failure sweep.
    let mut workload = IdleWorkload::new(opts.config.seed ^ 1, pages as f64 * 0.05 / 3600.0);

    vecycle_faults::observe_plan(&metrics, &run.plan);
    let store_series = StoreSeries::new(&metrics, session.cluster());

    let mut skipped = 0;
    let mut violations = Vec::new();
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut reports: Vec<MigrationReport> = Vec::new();
    let mut known_vms: BTreeSet<VmId> = BTreeSet::new();
    known_vms.insert(vm.id());
    let mut filler_seq = 0u32;
    let mut clock = SimTime::EPOCH;

    for (idx, request) in run.schedule.iter().enumerate() {
        workload.advance(vm.guest_mut(), request.at.duration_since(clock));
        clock = request.at;
        let to = request.pinned_to.expect("chaos requests are pinned");
        if to == vm.location() {
            skipped += 1;
            continue;
        }
        let dest = session
            .cluster()
            .host(to)
            .expect("chaos destinations are cluster hosts")
            .clone();

        // Pre-leg misfortunes the session cannot inject: disk pressure
        // and (on rot legs) real file rot.
        if let Some(quota_fraction) = run.pressure[idx] {
            // Filler checkpoints worth `quota_fraction` of the budget:
            // each filler VM's digest checkpoint stores 16 bytes per page.
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
        if run.rot[idx] {
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
            &run.plan,
            idx,
            &mut events,
        )?;
        let fetch_gone_after = metrics
            .counter("session_checkpoint_fetch_total", &[("result", "evicted")])
            + metrics.counter(
                "session_checkpoint_fetch_total",
                &[("result", "quarantined")],
            );
        if matches!(leg_report.outcome(), MigrationOutcome::Failed { .. }) {
            violations.push(format!(
                "leg {idx}: outcome Failed — injected faults must always be survivable"
            ));
        }
        if fetch_gone_after > fetch_gone_before
            && matches!(leg_report.outcome(), MigrationOutcome::Completed)
        {
            violations.push(format!(
                "leg {idx}: fetched an evicted/quarantined tombstone yet reported a clean \
                 Completed outcome"
            ));
        }
        reports.push(leg_report);

        check_cluster_invariants(&session, opts, &known_vms, idx, &mut violations);

        // Engine counters may only ever lead net counters (by wasted
        // attempts), never trail them.
        let snap = metrics.snapshot();
        let engine_bytes = snap.counter_total("engine_wire_bytes_total");
        let net_bytes = snap.counter_total("net_wire_bytes_total");
        if engine_bytes < net_bytes {
            violations.push(format!(
                "leg {idx}: net accounting ({net_bytes}) exceeds engine accounting \
                 ({engine_bytes})"
            ));
        }
    }

    // End-of-run reconciliation: the three wire accountings.
    let snap = metrics.snapshot();
    let outcomes = ScheduleSummary::of(&reports);
    let wasted = outcomes.wasted_traffic.as_u64();
    // Wasted traffic is forward-path bytes of aborted attempts, so the
    // exact reconciliation is per direction: forward, the engine leads
    // the net side by exactly the waste; reverse, it may lead by the
    // aborted attempts' (unreported) digest requests but never trail.
    let engine_fwd = direction_total(&snap, "engine_wire_bytes_total", "forward");
    let net_fwd = direction_total(&snap, "net_wire_bytes_total", "forward");
    if engine_fwd != net_fwd + wasted {
        violations.push(format!(
            "wire accounting: engine forward {engine_fwd} != net forward {net_fwd} + wasted \
             {wasted}"
        ));
    }
    let engine_rev = direction_total(&snap, "engine_wire_bytes_total", "reverse");
    let net_rev = direction_total(&snap, "net_wire_bytes_total", "reverse");
    if engine_rev < net_rev {
        violations.push(format!(
            "wire accounting: engine reverse {engine_rev} trails net reverse {net_rev}"
        ));
    }
    let source = outcomes.total_traffic.as_u64();
    let reverse: u64 = reports.iter().map(|r| r.reverse_traffic().as_u64()).sum();
    if net_fwd != source {
        violations.push(format!(
            "wire accounting: net forward bytes != report source traffic {source}"
        ));
    }
    if net_rev != reverse {
        violations.push(format!(
            "wire accounting: net reverse bytes != report reverse traffic {reverse}"
        ));
    }
    if snap
        .counters_named("engine_wire_messages_total")
        .next()
        .is_none()
        && !reports.is_empty()
    {
        violations.push("wire accounting: no engine messages recorded at all".into());
    }

    Ok(SoakReport {
        outcomes,
        skipped,
        violations,
        evictions: snap.counter_total("ckpt_evictions_total"),
        restarts: snap.counter_total("host_restarts_total"),
        quarantined: snap.counter(
            "session_events_total",
            &[("event", "checkpoint_quarantined")],
        ),
        events: events.iter().map(|e| e.to_string()).collect(),
        metrics_json: snap.to_canonical_json(),
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile(legs: usize) -> ChaosConfig {
        ChaosConfig::parse(&format!(
            "seed=42,legs={legs},hosts=4,crash=0.2,pressure=0.3,corrupt=0.1,drop=0.2,loss=0.1"
        ))
        .expect("spec is well-formed")
    }

    type Leg = (u32, u64, Vec<FaultKind>, Option<f64>, bool);

    /// Each leg as `(dest, at in seconds, faults, pressure, rot)`.
    fn legs(run: &ChaosRun) -> Vec<Leg> {
        let at =
            |r: &MigrationRequest| r.at.duration_since(SimTime::EPOCH).as_nanos() / 1_000_000_000;
        run.schedule
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let dest = r.pinned_to.expect("pinned").as_u32();
                (
                    dest,
                    at(r),
                    run.plan.faults(i).to_vec(),
                    run.pressure[i],
                    run.rot[i],
                )
            })
            .collect()
    }

    /// The draw stream every checked-in soak result depends on.
    #[test]
    fn the_draw_stream_is_pinned() {
        let crash = |f| FaultKind::HostCrash {
            after: DropPoint::RamFraction(f),
            attempts: 1,
        };
        let drop = |f| FaultKind::LinkDrop {
            after: DropPoint::RamFraction(f),
            attempts: 1,
        };
        let expected: Vec<Leg> = vec![
            (1, 1398, vec![drop(0.14577125733818447)], None, false),
            (3, 2578, vec![drop(0.12706073516274902)], None, false),
            (
                0,
                7240,
                vec![FaultKind::LinkDegrade {
                    factor: 0.05408935546875,
                    from_round: 1,
                }],
                Some(0.489672971068216),
                false,
            ),
            (2, 11399, vec![], None, false),
            (3, 13984, vec![], Some(0.5607323208991964), false),
            (0, 14871, vec![drop(0.05710973038768618)], None, false),
            (2, 18905, vec![], Some(0.8982068978712561), false),
            (0, 20827, vec![crash(0.03628620940774858)], None, false),
        ];
        assert_eq!(legs(&ChaosRun::generate(&hostile(100)))[..8], expected[..]);
    }

    /// A leg that both crashes and corrupts rots on disk instead: its
    /// crash cuts at 4 KiB and no `CheckpointCorrupt` is injected.
    #[test]
    fn crash_plus_corrupt_is_a_rot_leg() {
        let run = ChaosRun::generate(
            &ChaosConfig::parse(
                "seed=2022,legs=250,hosts=3,crash=0.12,pressure=0.25,corrupt=0.08,drop=0.15,loss=0.1",
            )
            .expect("spec is well-formed"),
        );
        let rot: Vec<usize> = (0..250).filter(|&i| run.rot[i]).collect();
        assert_eq!(rot, [94, 203]);
        for i in rot {
            assert_eq!(
                run.plan.faults(i),
                [FaultKind::HostCrash {
                    after: DropPoint::Bytes(Bytes::new(4096)),
                    attempts: 1
                }]
            );
        }
        assert_eq!(run.plan.faulted_legs(), 106);
        assert_eq!(run.pressure.iter().flatten().count(), 66);
    }

    #[test]
    fn generation_is_repeatable_and_prefix_stable() {
        let short = ChaosRun::generate(&hostile(100));
        assert_eq!(short, ChaosRun::generate(&hostile(100)));
        assert_eq!(
            legs(&ChaosRun::generate(&hostile(250)))[..100],
            legs(&short)[..]
        );
    }

    #[test]
    fn zero_rates_strike_nothing_but_keep_the_walk() {
        let calm = ChaosRun::generate(&ChaosConfig {
            rates: vecycle_sim::chaos::ChaosRates::default(),
            ..hostile(100)
        });
        assert!(calm.plan.is_empty());
        assert!(calm.pressure.iter().all(Option::is_none) && !calm.rot.contains(&true));
        let wild = ChaosRun::generate(&hostile(100));
        assert_eq!(calm.schedule, wild.schedule);
        assert!(!wild.plan.is_empty());
    }

    #[test]
    fn the_walk_always_moves() {
        let mut at = HostId::new(0);
        for r in &ChaosRun::generate(&hostile(100)).schedule {
            let dest = r.pinned_to.expect("pinned");
            assert_ne!(dest, at, "leg destination equals current host");
            assert!(dest.as_u32() < 4);
            at = dest;
        }
    }

    #[test]
    fn crash_rate_is_roughly_honoured() {
        let run = ChaosRun::generate(&hostile(1000));
        let crashes = run
            .plan
            .iter()
            .filter(|(_, f)| matches!(f, FaultKind::HostCrash { .. }))
            .count();
        // 20% rate over 1000 legs: expect ~200, allow wide slack.
        assert!((100..=300).contains(&crashes), "crashes = {crashes}");
    }
}
