//! Canonical observability scenarios for the golden-transcript suite.
//!
//! Each function runs a fixed-seed simulation end to end and returns the
//! [`MetricsSnapshot`] its shared registry accumulated. The snapshots
//! are locked down byte-for-byte in `tests/metrics_golden.rs` against
//! the JSON files under `tests/golden/`; regenerate those with
//! `cargo run --bin regen_golden` after an *intentional* metrics change.
//!
//! Determinism contract: a scenario's snapshot depends only on its seed
//! constants — never on the host wall clock or the iteration order of
//! any unordered container. `tests/parallel_props.rs` pins repeat-run
//! identity.

use vecycle_checkpoint::{Checkpoint, EvictionPolicy};
use vecycle_core::session::{RecyclePolicy, SessionEvent, VeCycleSession, VmInstance};
use vecycle_faults::{DropPoint, FaultKind, FaultPlan, FaultRates, RetryPolicy};
use vecycle_host::{Cluster, MigrationRequest, StoreSeries};
use vecycle_mem::{workload::IdleWorkload, DigestMemory, Guest};
use vecycle_net::LinkSpec;
use vecycle_obs::{MetricsRegistry, MetricsSnapshot};
use vecycle_types::{Bytes, HostId, SimDuration, SimTime, VmId};

/// Every scenario's VM: small enough that the suite is quick, large
/// enough that rounds, dedup and zero suppression all fire.
const RAM: Bytes = Bytes::from_mib(4);

/// Generator seed shared by the scenarios.
const SEED: u64 = 0x7ec;

/// A 2-host LAN session sharing `metrics`.
fn session(metrics: &MetricsRegistry, retry: RetryPolicy) -> VeCycleSession {
    let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
    VeCycleSession::new(cluster)
        .with_policy(RecyclePolicy::VeCycle)
        .with_retry_policy(retry)
        .with_metrics(metrics.clone())
}

/// A fresh VM placed on host 0.
fn instance() -> VmInstance<DigestMemory> {
    let mem = DigestMemory::with_uniform_content(RAM, SEED).expect("page-aligned RAM");
    VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0))
}

/// A ping-pong schedule between the two hosts, hourly legs.
fn ping_pong(legs: u64) -> Vec<MigrationRequest> {
    MigrationRequest::ping_pong(
        VmId::new(0),
        HostId::new(0),
        HostId::new(1),
        SimTime::EPOCH + SimDuration::from_hours(1),
        SimDuration::from_hours(1),
        legs,
    )
}

/// An idle VM hopping back and forth: the paper's best case. Four legs,
/// a trickle of background dirtying, no faults — the snapshot captures
/// the clean path through engine, session, checkpoint and net counters.
pub fn idle_vm() -> MetricsSnapshot {
    let metrics = MetricsRegistry::new();
    let s = session(&metrics, RetryPolicy::default());
    let mut vm = instance();
    // ~2% of pages touched per hour-long gap.
    let rate = RAM.pages_ceil().as_u64() as f64 * 0.02 / 3600.0;
    let mut workload = IdleWorkload::new(SEED ^ 1, rate);
    s.run_schedule(&mut vm, &ping_pong(4), &mut workload)
        .expect("clean schedule");
    metrics.snapshot()
}

/// Three sessions at increasing guest update rates (1%, 5%, 25% of
/// pages per gap) accumulating into one registry — the observability
/// view of the paper's update-rate sensitivity experiment.
pub fn update_rate_sweep() -> MetricsSnapshot {
    let metrics = MetricsRegistry::new();
    for (i, frac) in [0.01, 0.05, 0.25].into_iter().enumerate() {
        let s = session(&metrics, RetryPolicy::default());
        let mut vm = instance();
        let rate = RAM.pages_ceil().as_u64() as f64 * frac / 3600.0;
        let mut workload = IdleWorkload::new(SEED.wrapping_add(i as u64), rate);
        s.run_schedule(&mut vm, &ping_pong(2), &mut workload)
            .expect("clean schedule");
    }
    metrics.snapshot()
}

/// A faulted schedule at 25% and 50% uniform fault rates, once resuming
/// from partial checkpoints and once retrying from scratch. Returns the
/// snapshot; [`failure_sweep_with_events`] also returns the transcript
/// so tests can reconcile prose events against the typed counters.
pub fn failure_sweep() -> MetricsSnapshot {
    failure_sweep_with_events().0
}

/// [`failure_sweep`] plus the concatenated [`SessionEvent`] transcript.
pub fn failure_sweep_with_events() -> (MetricsSnapshot, Vec<SessionEvent>) {
    let metrics = MetricsRegistry::new();
    let mut events = Vec::new();
    for p in [0.25, 0.5] {
        for retry in [RetryPolicy::default(), RetryPolicy::from_scratch()] {
            let s = session(&metrics, retry);
            let mut vm = instance();
            let rate = RAM.pages_ceil().as_u64() as f64 * 0.05 / 3600.0;
            let mut workload = IdleWorkload::new(SEED ^ 2, rate);
            let schedule = ping_pong(6);
            let plan = FaultPlan::seeded(SEED, &FaultRates::uniform(p), schedule.len());
            let run = s
                .run_schedule_with_faults(&mut vm, &schedule, &mut workload, &plan)
                .expect("faults are data, not errors");
            events.extend(run.events);
        }
    }
    (metrics.snapshot(), events)
}

/// A distinct scratch directory per call for the lifecycle scenario's
/// durable stores (the scenario runs repeatedly within one test
/// process, and leftover files would break determinism).
fn fresh_lifecycle_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vecycle-golden-lifecycle-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flips one payload byte in the middle of a checkpoint file — real
/// on-disk rot for a restart's scrub pass to quarantine.
fn rot_file(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).expect("rotting an existing checkpoint file");
    assert!(bytes.len() >= 64, "checkpoint file too small to rot safely");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(path, bytes).expect("writing rotted checkpoint file");
}

/// The checkpoint-lifecycle scenario: a quota-squeezed 2-host cluster
/// with durable stores, exercising every lifecycle metric in one run —
/// quota evictions (`ckpt_evictions_total`), a destination host crash
/// whose restart scrub re-verifies the disk store and quarantines a
/// deliberately rotted filler (`scrub_pages_total`,
/// `host_restarts_total`), an injected corrupt-checkpoint load that
/// degrades a leg to a full transfer, and a follow-up run under a
/// starvation quota whose departure saves are all refused. The
/// `store_bytes` gauge tracks admission and eviction throughout.
pub fn lifecycle() -> MetricsSnapshot {
    let metrics = MetricsRegistry::new();
    let dir = fresh_lifecycle_dir();
    // Quota: 2.5 checkpoints' worth (a 4 MiB digest VM checkpoints into
    // 16 KiB), so the third resident forces an eviction.
    let quota = Bytes::from_kib(40);
    let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit())
        .attach_disk_stores(&dir)
        .expect("scratch disk stores")
        .with_checkpoint_quotas(quota, EvictionPolicy::LruByRecycle);
    let s = VeCycleSession::new(cluster)
        .with_policy(RecyclePolicy::VeCycle)
        .with_retry_policy(RetryPolicy::default())
        .with_metrics(metrics.clone());

    // Two fillers pre-seed host 1's store, squeezing the quota before
    // the VM's own checkpoint arrives.
    let host1 = s.cluster().host(HostId::new(1)).expect("host 1").clone();
    let store_series = StoreSeries::new(&metrics, s.cluster());
    for (i, ram_mib) in [(0u64, 4u64), (1, 4)] {
        let mem = DigestMemory::with_uniform_content(Bytes::from_mib(ram_mib), SEED ^ (0x100 + i))
            .expect("page-aligned filler");
        let cp = Checkpoint::capture(VmId::new(100 + i as u32), SimTime::EPOCH, &mem);
        let outcome = host1.save_checkpoint(cp).expect("filler save");
        store_series.record_save(&host1, &outcome);
    }
    // Rot the *second* filler on disk: the first is the LRU victim when
    // the VM's own checkpoint lands, so only the second survives to be
    // scrubbed after the crash.
    rot_file(&dir.join("host-1").join("vm-101.ckpt"));

    let mut vm = instance();
    let rate = RAM.pages_ceil().as_u64() as f64 * 0.02 / 3600.0;
    let mut workload = IdleWorkload::new(SEED ^ 3, rate);
    let schedule = ping_pong(6);
    // Leg 2 (0 → 1): host 1 dies almost immediately, restarts, and its
    // scrub finds the rot. Leg 4 (0 → 1): the recycled checkpoint is
    // corrupt on load.
    let plan = FaultPlan::none()
        .inject(
            2,
            FaultKind::HostCrash {
                after: DropPoint::Bytes(Bytes::new(4096)),
                attempts: 1,
            },
        )
        .inject(4, FaultKind::CheckpointCorrupt);
    s.run_schedule_with_faults(&mut vm, &schedule, &mut workload, &plan)
        .expect("faults are data, not errors");

    // A second session under a starvation quota smaller than one
    // checkpoint: every departure save is refused, so recycling never
    // engages and the refusal path shows up in the transcript.
    let starved = Cluster::homogeneous(2, LinkSpec::lan_gigabit())
        .with_checkpoint_quotas(Bytes::from_kib(8), EvictionPolicy::OldestFirst);
    let s = VeCycleSession::new(starved)
        .with_policy(RecyclePolicy::VeCycle)
        .with_retry_policy(RetryPolicy::default())
        .with_metrics(metrics.clone());
    let mut vm = instance();
    let mut workload = IdleWorkload::new(SEED ^ 4, rate);
    s.run_schedule_with_faults(&mut vm, &ping_pong(2), &mut workload, &FaultPlan::none())
        .expect("clean schedule");

    let snap = metrics.snapshot();
    let _ = std::fs::remove_dir_all(&dir);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_repeatable() {
        assert_eq!(idle_vm().to_canonical_json(), idle_vm().to_canonical_json());
    }

    #[test]
    fn failure_sweep_observes_faults() {
        let (snap, events) = failure_sweep_with_events();
        assert!(!events.is_empty(), "50% fault rate must produce incidents");
        assert!(snap.counter_total("faults_injected_total") > 0);
        assert!(snap.counter_total("session_events_total") > 0);
    }

    #[test]
    fn lifecycle_observes_every_lifecycle_metric() {
        let snap = lifecycle();
        assert!(snap.counter_total("ckpt_evictions_total") > 0, "evictions");
        assert!(snap.counter_total("host_restarts_total") > 0, "restarts");
        assert!(snap.counter_total("scrub_pages_total") > 0, "scrub");
        assert!(
            snap.counter(
                "session_events_total",
                &[("event", "checkpoint_quarantined")]
            ) > 0,
            "the rotted filler must be quarantined by the restart scrub"
        );
        assert!(
            snap.counter(
                "session_events_total",
                &[("event", "checkpoint_save_refused")]
            ) > 0,
            "the oversized filler must be refused"
        );
        // Repeatable within one process (fresh scratch dirs per call).
        assert_eq!(snap.to_canonical_json(), lifecycle().to_canonical_json());
    }
}
