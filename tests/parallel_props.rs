//! Determinism properties of the transfer pipeline: a run depends only
//! on its inputs. Repeat runs are bit-identical — per-round counts,
//! traffic ledgers, downtime, the exact message transcript, the
//! canonical metrics snapshot — the clean path is the faulted path with
//! an empty plan, and a byte guest that still owes digests scans like a
//! settled one.
//!
//! The file name and the remaining `*_across_thread_counts` /
//! `*_thread_invariant` test names are kept as stable ids. Each once
//! also compared scan-thread counts, an option that no longer exists
//! (the first-round scan is one walk in page order); its doc comment
//! says what it checks now.

use proptest::collection::vec;
use proptest::prelude::*;

use vecycle::core::{LiveOutcome, MigrationEngine, Strategy};
use vecycle::faults::{AttemptFaults, DropPoint};
use vecycle::mem::workload::{IdleWorkload, SilentWorkload};
use vecycle::mem::{DigestMemory, Guest, MemoryImage, MutableMemory, PageContent};
use vecycle::net::LinkSpec;
use vecycle::obs::{MetricsRegistry, MetricsSnapshot};
use vecycle::types::{PageCount, PageIndex};

/// Builds a digest-level image holding the given content ids (id 0 is
/// the zero page).
fn image(ids: &[u64]) -> DigestMemory {
    let mut m = DigestMemory::zeroed(PageCount::new(ids.len() as u64));
    for (i, &id) in ids.iter().enumerate() {
        m.write_page(PageIndex::new(i as u64), PageContent::ContentId(id));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reports and transcripts are bit-identical across repeat runs for
    /// every strategy family. Content ids are drawn from a small range so
    /// the images are dense with duplicates and zero pages — the cases
    /// where dedup resolution could depend on anything but page order.
    #[test]
    fn scan_is_deterministic_across_repeat_runs(
        vm_ids in vec(0u64..24, 1..200),
        cp_ids in vec(0u64..24, 1..200),
        use_index in any::<bool>(),
        use_dedup in any::<bool>(),
        suppress_zeros in any::<bool>(),
    ) {
        let vm = image(&vm_ids);
        let cp = image(&cp_ids);
        let base = if use_index {
            Strategy::vecycle(&cp)
        } else {
            Strategy::full()
        };
        let strategy = if use_dedup { base.with_dedup() } else { base };
        let run = || {
            MigrationEngine::new(LinkSpec::lan_gigabit())
                .with_zero_page_suppression(suppress_zeros)
                .migrate_with_transcript(&vm, strategy.clone())
                .unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    /// Gang migrations share one dedup cache across VMs; the scan must
    /// produce the same cross-VM back-references on every run. (Which
    /// references those are is pinned against a reference model in
    /// `vecycle-core`'s `scan_tests`.)
    #[test]
    fn gang_scan_is_deterministic_across_repeat_runs(
        a_ids in vec(0u64..16, 1..120),
        b_ids in vec(0u64..16, 1..120),
    ) {
        let a = image(&a_ids);
        let b = image(&b_ids);
        let strategies = [Strategy::dedup(), Strategy::dedup()];
        let run = || {
            MigrationEngine::new(LinkSpec::lan_gigabit())
                .migrate_gang(&[&a, &b], &strategies)
                .unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    /// A migration attempt running under an injected link cut is just as
    /// deterministic as a clean one: completed reports, abort causes,
    /// wasted traffic/time and the per-page landed digests are all
    /// bit-identical across repeat runs. Additionally, every landed
    /// digest must equal the guest's actual page content — the resumed
    /// retry recycles exactly what a fault-free transfer would have sent.
    #[test]
    fn faulted_migration_is_deterministic_across_repeat_runs(
        vm_ids in vec(0u64..24, 1..200),
        cp_ids in vec(0u64..24, 1..200),
        cut_frac in 0.0f64..0.9,
        use_index in any::<bool>(),
    ) {
        let cp = image(&cp_ids);
        let strategy = if use_index {
            Strategy::vecycle(&cp).with_dedup()
        } else {
            Strategy::dedup()
        };
        let faults = AttemptFaults {
            cut_after: Some(DropPoint::RamFraction(cut_frac)),
            ..AttemptFaults::none()
        };
        let run = || {
            let mut guest = Guest::new(image(&vm_ids));
            MigrationEngine::new(LinkSpec::lan_gigabit())
                .migrate_live_faulted(
                    &mut guest,
                    &mut SilentWorkload,
                    strategy.clone(),
                    &faults,
                )
                .unwrap()
        };
        let first = run();
        if let LiveOutcome::Aborted(a) = &first {
            let vm = image(&vm_ids);
            for (i, landed) in a.landed.iter().enumerate() {
                if let Some(d) = landed {
                    prop_assert_eq!(
                        *d,
                        vm.page_digest(PageIndex::new(i as u64)),
                        "landed digest {} diverges from guest content", i
                    );
                }
            }
        }
        match (&first, &run()) {
            (LiveOutcome::Completed(a), LiveOutcome::Completed(b)) => prop_assert_eq!(a, b),
            (LiveOutcome::Aborted(a), LiveOutcome::Aborted(b)) => {
                prop_assert_eq!(a.cause, b.cause);
                prop_assert_eq!(&a.landed, &b.landed);
                prop_assert_eq!(a.traffic, b.traffic);
                prop_assert_eq!(a.elapsed, b.elapsed);
            }
            _ => prop_assert!(false, "outcome kind diverged on the rerun"),
        }
    }

    /// The *clean-is-faulted* pipeline invariant: [`MigrationEngine::
    /// migrate_live`] is exactly `migrate_live_faulted` with an empty
    /// fault plan. Both entry points must produce an identical report
    /// *and* an identical canonical metrics snapshot — same counters,
    /// same spans, same outcome tags — across strategies and workload
    /// seeds. Any fork between the two paths
    /// (a clean-only shortcut, a faulted-only counter) fails here.
    #[test]
    fn clean_path_equals_faulted_path_with_empty_plan(
        vm_ids in vec(0u64..24, 1..200),
        cp_ids in vec(0u64..24, 1..200),
        seed in any::<u64>(),
        rate in 1.0f64..4000.0,
        use_index in any::<bool>(),
        use_dedup in any::<bool>(),
    ) {
        let cp = image(&cp_ids);
        let base = if use_index {
            Strategy::vecycle(&cp)
        } else {
            Strategy::full()
        };
        let strategy = if use_dedup { base.with_dedup() } else { base };
        let run = |faulted: bool| {
            let metrics = MetricsRegistry::new();
            let mut guest = Guest::new(image(&vm_ids));
            let mut workload = IdleWorkload::new(seed, rate);
            let engine = MigrationEngine::new(LinkSpec::lan_gigabit()).with_metrics(metrics.clone());
            let report = if faulted {
                match engine
                    .migrate_live_faulted(
                        &mut guest,
                        &mut workload,
                        strategy.clone(),
                        &AttemptFaults::none(),
                    )
                    .unwrap()
                {
                    LiveOutcome::Completed(report) => report,
                    LiveOutcome::Aborted(_) => unreachable!("no faults injected"),
                }
            } else {
                engine
                    .migrate_live(&mut guest, &mut workload, strategy.clone())
                    .unwrap()
            };
            (report, metrics.snapshot().to_canonical_json())
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// With a metrics registry attached, the snapshot — counters,
    /// histograms and the span timeline, serialized canonically — is
    /// byte-identical across repeat runs.
    #[test]
    fn metrics_snapshot_is_identical_across_repeat_runs(
        vm_ids in vec(0u64..24, 1..200),
        cp_ids in vec(0u64..24, 1..200),
        use_index in any::<bool>(),
        use_dedup in any::<bool>(),
    ) {
        let vm = image(&vm_ids);
        let cp = image(&cp_ids);
        let base = if use_index {
            Strategy::vecycle(&cp)
        } else {
            Strategy::full()
        };
        let strategy = if use_dedup { base.with_dedup() } else { base };
        let snap = || {
            let metrics = MetricsRegistry::new();
            MigrationEngine::new(LinkSpec::lan_gigabit())
                .with_metrics(metrics.clone())
                .migrate(&vm, strategy.clone())
                .unwrap();
            metrics.snapshot().to_canonical_json()
        };
        prop_assert_eq!(snap(), snap());
    }

    /// Same property under an injected link cut: the abort path ends
    /// spans early and records the wreck, and all of it must still be
    /// the same on every run.
    #[test]
    fn faulted_metrics_snapshot_is_identical_across_repeat_runs(
        vm_ids in vec(0u64..24, 1..200),
        cp_ids in vec(0u64..24, 1..200),
        cut_frac in 0.0f64..0.9,
    ) {
        let cp = image(&cp_ids);
        let strategy = Strategy::vecycle(&cp).with_dedup();
        let faults = AttemptFaults {
            cut_after: Some(DropPoint::RamFraction(cut_frac)),
            ..AttemptFaults::none()
        };
        let snap = || {
            let metrics = MetricsRegistry::new();
            let mut guest = Guest::new(image(&vm_ids));
            MigrationEngine::new(LinkSpec::lan_gigabit())
                .with_metrics(metrics.clone())
                .migrate_live_faulted(
                    &mut guest,
                    &mut SilentWorkload,
                    strategy.clone(),
                    &faults,
                )
                .unwrap();
            metrics.snapshot().to_canonical_json()
        };
        prop_assert_eq!(snap(), snap());
    }
}

/// The golden scenarios — including the faulted failure sweep and the
/// disk-pressure lifecycle run — produce byte-identical snapshots when
/// re-run with the same seed.
#[test]
fn golden_scenarios_are_thread_invariant_and_repeatable() {
    type Scenario = fn() -> MetricsSnapshot;
    let scenarios: [(&str, Scenario); 4] = [
        ("idle_vm", vecycle::golden::idle_vm),
        ("update_rate_sweep", vecycle::golden::update_rate_sweep),
        ("failure_sweep", vecycle::golden::failure_sweep),
        ("lifecycle", vecycle::golden::lifecycle),
    ];
    for (name, run) in scenarios {
        assert_eq!(
            run().to_canonical_json(),
            run().to_canonical_json(),
            "{name}: same-seed rerun diverged"
        );
    }
}

/// A byte-backed guest whose pages were written *after* construction
/// still owes their digests when the scan starts: the first digest read
/// settles them. The report and the transcript are the ones a fully
/// settled guest produces.
#[test]
fn byte_guest_with_pending_digests_scans_identically_across_thread_counts() {
    use vecycle::checkpoint::Checkpoint;
    use vecycle::core::apply_transcript;
    use vecycle::mem::ByteMemory;
    use vecycle::types::{SimTime, VmId};

    let pages = 160u64;
    let base = ByteMemory::with_distinct_content(PageCount::new(pages), 3);
    let checkpoint = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &base);
    let mut guest = base.snapshot();
    for i in (0..pages).step_by(3) {
        guest.write_page(PageIndex::new(i), PageContent::ContentId(7_000 + i % 11));
    }
    guest.write_page(PageIndex::new(9), PageContent::Zero);
    guest.relocate_page(PageIndex::new(3), PageIndex::new(100)); // pending source
    guest.relocate_page(PageIndex::new(4), PageIndex::new(101)); // settled source

    let strategy = Strategy::vecycle_from_checkpoint(&checkpoint).with_dedup();
    let scan = |vm: &ByteMemory| {
        MigrationEngine::new(LinkSpec::lan_gigabit())
            .migrate_with_transcript(vm, strategy.clone())
            .unwrap()
    };
    let settled = guest.snapshot();
    assert_eq!(settled.digests().len() as u64, pages); // settles the copy
    let pending = guest.snapshot(); // every copy starts unsettled
    let (report, transcript) = scan(&pending);
    assert_eq!((report, transcript.clone()), scan(&settled));
    let rebuilt = apply_transcript(&checkpoint, &transcript).unwrap();
    assert!(rebuilt.content_equals(&guest));
}

/// Fleet-scale determinism: a full event-driven fleet run — placement
/// scoring, admission control, queue retries, the works — over ≥1k
/// hosts and ≥10k VMs yields a bit-identical placement journal, report
/// and canonical metrics snapshot across repeat runs.
#[test]
fn fleet_run_is_thread_invariant_and_repeatable_at_scale() {
    use vecycle::fleet::{Fleet, FleetSpec};

    let run = || {
        let mut spec = FleetSpec::new(1024, 10_240).with_seed(0xf1ee7);
        // One leg per VM keeps the debug-build runtime bounded while
        // still pushing >10k placement decisions through admission.
        spec.requests_per_vm = 1;
        let mut fleet = Fleet::new(spec).expect("spec validates");
        let report = fleet.run().expect("clean fleet run");
        let snap = fleet.metrics().snapshot().to_canonical_json();
        (report, snap)
    };
    let (base_report, base_snap) = run();
    assert!(
        base_report.migrations >= 10_000,
        "the scale floor must actually be exercised ({} migrations)",
        base_report.migrations
    );
    let (again_report, again_snap) = run();
    assert_eq!(
        base_report.journal_jsonl(),
        again_report.journal_jsonl(),
        "placement journal diverged on the rerun"
    );
    assert_eq!(base_report, again_report, "same-seed rerun diverged");
    assert_eq!(base_snap, again_snap, "same-seed metrics diverged");
}

/// Absolute pin for the fleet: the test above proves a run is the same
/// every time, this one proves it is still the run it was.
/// The literals are a 16-host × 160-VM aware fleet's totals and the
/// FNV-1a of its placement journal; a fleet refactor that moves any of
/// them changed behaviour, not structure.
#[test]
fn small_aware_fleet_matches_pinned_totals() {
    use vecycle::fleet::{Fleet, FleetSpec};
    use vecycle::hash::{Fnv1a64, Hasher};

    let fnv = |s: &str| u64::from_be_bytes(Fnv1a64::digest(s.as_bytes()));
    let mut fleet = Fleet::new(FleetSpec::new(16, 160).with_seed(0xf1ee7)).expect("spec validates");
    let report = fleet.run().expect("clean fleet run");
    assert_eq!(report.migrations, 480);
    assert_eq!(report.placement_hits, 320);
    assert_eq!(report.total_traffic.as_u64(), 27_880_704);
    assert_eq!(
        fnv(&report.journal_jsonl()),
        0x02e7_9d1f_0775_ff1d,
        "placement journal diverged"
    );
    // The metrics exports, byte for byte: series order, label order,
    // span names and attrs all feed these two hashes.
    let snap = fleet.metrics().snapshot();
    assert_eq!(snap.timeline.len(), 3_520);
    assert_eq!(
        fnv(&snap.to_canonical_json()),
        0xabcd_74b1_ca29_5270,
        "canonical metrics JSON diverged"
    );
    assert_eq!(
        fnv(&snap.events_jsonl()),
        0x42aa_b3e6_68a5_9f62,
        "metrics timeline diverged"
    );
}

/// Checkpoint-lifecycle determinism: with a byte quota squeezing every
/// host's store, the eviction order — read off the incident transcript —
/// and the full metrics snapshot are identical across repeat runs for
/// every eviction policy. The choice of victim must depend only on
/// catalog state.
#[test]
fn eviction_order_is_deterministic_across_thread_counts() {
    use vecycle::checkpoint::{Checkpoint, EvictionPolicy};
    use vecycle::core::session::{VeCycleSession, VmInstance};
    use vecycle::faults::FaultPlan;
    use vecycle::host::{Cluster, MigrationRequest};
    use vecycle::types::{Bytes, HostId, SimDuration, SimTime, VmId};

    for policy in [
        EvictionPolicy::OldestFirst,
        EvictionPolicy::LruByRecycle,
        EvictionPolicy::LargestFirst,
        EvictionPolicy::StalenessScore,
    ] {
        let run = || {
            let metrics = MetricsRegistry::new();
            // A 4 MiB digest VM checkpoints into 16 KiB; the 40 KiB
            // quota holds two and a half, so fillers + the VM's own
            // checkpoint force evictions on every departure.
            let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit())
                .with_checkpoint_quotas(Bytes::from_kib(40), policy);
            let session = VeCycleSession::new(cluster).with_metrics(metrics.clone());
            for host in session.cluster().hosts() {
                for i in 0..2u32 {
                    let ram = Bytes::from_mib(4 * u64::from(i + 1));
                    let mem = DigestMemory::with_uniform_content(ram, 0x900 + u64::from(i))
                        .expect("page-aligned filler");
                    let cp = Checkpoint::capture(
                        VmId::new(50 + i),
                        SimTime::EPOCH + SimDuration::from_secs(u64::from(i)),
                        &mem,
                    );
                    host.save_checkpoint(cp).expect("filler save");
                }
            }
            let mem = DigestMemory::with_uniform_content(Bytes::from_mib(4), 0x7ec)
                .expect("page-aligned VM");
            let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0));
            let schedule = MigrationRequest::ping_pong(
                VmId::new(0),
                HostId::new(0),
                HostId::new(1),
                SimTime::EPOCH + SimDuration::from_hours(1),
                SimDuration::from_hours(1),
                6,
            );
            let mut workload = IdleWorkload::new(1, 1024.0 * 0.02 / 3600.0);
            let run = session
                .run_schedule_with_faults(&mut vm, &schedule, &mut workload, &FaultPlan::none())
                .expect("clean schedule");
            let transcript: Vec<String> = run.events.iter().map(|e| e.to_string()).collect();
            (transcript, metrics.snapshot().to_canonical_json())
        };
        let base = run();
        assert!(
            base.0.iter().any(|e| e.contains("evicted")),
            "{policy}: the squeeze must actually evict"
        );
        assert_eq!(
            run(),
            base,
            "{policy}: eviction order or metrics diverged on the rerun"
        );
    }
}
