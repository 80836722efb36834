//! Wire-accounting invariants: the engine's incremental
//! `engine_wire_*` counters, the net layer's ledger-derived
//! `net_wire_*` counters and the per-report traffic ledgers are three
//! independent accountings of the same bytes. On a clean run all three
//! must agree exactly, per direction and message kind, for every
//! strategy family; under faults the engine side may exceed the net
//! side by exactly the traffic wasted on aborted attempts.

use std::collections::BTreeMap;

use vecycle::checkpoint::Checkpoint;
use vecycle::core::session::{RecyclePolicy, VeCycleSession, VmInstance};
use vecycle::core::{MigrationEngine, Strategy};
use vecycle::faults::FaultPlan;
use vecycle::host::{Cluster, MigrationRequest};
use vecycle::mem::workload::{GuestWorkload, IdleWorkload};
use vecycle::mem::{ByteMemory, Guest};
use vecycle::net::LinkSpec;
use vecycle::obs::{MetricsRegistry, MetricsSnapshot};
use vecycle::types::{HostId, PageCount, SimDuration, SimTime, VmId};

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

/// An aged guest plus the checkpoint its destination still holds.
fn aged_guest(pages: u64, seed: u64) -> (Guest<ByteMemory>, Checkpoint) {
    let mut guest = Guest::with_generations(ByteMemory::with_distinct_content(
        PageCount::new(pages),
        seed,
    ));
    let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, guest.memory());
    let mut daemons = IdleWorkload::new(seed ^ 1, 0.05);
    daemons.advance(&mut guest, SimDuration::from_mins(30));
    (guest, cp)
}

#[test]
fn wire_counters_reconcile_for_every_strategy() {
    let (guest, cp) = aged_guest(384, 41);
    let gen_snapshot = {
        // A snapshot taken before the daemon writes, so dirty tracking
        // has both reusable and changed pages.
        let fresh =
            Guest::with_generations(ByteMemory::with_distinct_content(PageCount::new(384), 41));
        fresh.generations().expect("tracked").snapshot()
    };
    let strategies: Vec<(&str, Strategy)> = vec![
        ("full", Strategy::full()),
        ("dedup", Strategy::dedup()),
        (
            "dirty",
            Strategy::miyakodori(guest.generations().expect("tracked"), &gen_snapshot),
        ),
        ("vecycle", Strategy::vecycle_from_checkpoint(&cp)),
        (
            "vecycle+dedup",
            Strategy::vecycle_from_checkpoint(&cp).with_dedup(),
        ),
    ];

    for (name, strategy) in strategies {
        let metrics = MetricsRegistry::new();
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit()).with_metrics(metrics.clone());
        let report = engine.migrate(guest.memory(), strategy).unwrap();
        let snap = metrics.snapshot();

        // Engine-side and net-side accountings agree series-by-series:
        // same (direction, kind) label sets, same bytes, same messages.
        assert_eq!(
            family(&snap, "engine_wire_bytes_total"),
            family(&snap, "net_wire_bytes_total"),
            "{name}: byte accounting diverged between engine and net"
        );
        assert_eq!(
            family(&snap, "engine_wire_messages_total"),
            family(&snap, "net_wire_messages_total"),
            "{name}: message accounting diverged between engine and net"
        );

        // Both reconcile with the report's ledgers per direction.
        assert_eq!(
            direction_total(&snap, "engine_wire_bytes_total", "forward"),
            report.source_traffic().as_u64(),
            "{name}: forward bytes != report source traffic"
        );
        assert_eq!(
            direction_total(&snap, "engine_wire_bytes_total", "reverse"),
            report.reverse_traffic().as_u64(),
            "{name}: reverse bytes != report reverse traffic"
        );
        assert_eq!(
            snap.counter_total("engine_wire_bytes_total"),
            (report.source_traffic() + report.reverse_traffic()).as_u64(),
            "{name}: total wire bytes != report total"
        );
    }
}

#[test]
fn clean_session_run_keeps_engine_and_net_in_lockstep() {
    let snap = vecycle::golden::idle_vm();
    assert_eq!(
        family(&snap, "engine_wire_bytes_total"),
        family(&snap, "net_wire_bytes_total"),
    );
    assert_eq!(
        family(&snap, "engine_wire_messages_total"),
        family(&snap, "net_wire_messages_total"),
    );
    assert!(snap.counter_total("engine_wire_bytes_total") > 0);
}

/// Session-level *clean-is-faulted* symmetry: `run_schedule` is exactly
/// `run_schedule_with_faults` with an empty [`FaultPlan`]. Both must
/// leave byte-identical snapshots — the same `session_events_total` and
/// `session_outcomes_total` series included, so the fault-capable path
/// cannot tag events or outcomes differently when no fault ever fires.
#[test]
fn clean_and_null_plan_session_runs_are_indistinguishable() {
    let run = |plan: Option<&FaultPlan>| {
        let metrics = MetricsRegistry::new();
        let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
        let engine = MigrationEngine::new(cluster.link()).with_metrics(metrics.clone());
        let session = VeCycleSession::new(cluster)
            .with_engine(engine)
            .with_policy(RecyclePolicy::VeCycle)
            .with_metrics(metrics.clone());
        let mem = ByteMemory::with_distinct_content(PageCount::new(256), 99);
        let mut vm = VmInstance::new(VmId::new(7), Guest::new(mem), HostId::new(0));
        let schedule = MigrationRequest::ping_pong(
            VmId::new(7),
            HostId::new(0),
            HostId::new(1),
            SimTime::EPOCH + SimDuration::from_hours(1),
            SimDuration::from_hours(1),
            3,
        );
        let mut workload = IdleWorkload::new(17, 0.02);
        match plan {
            Some(plan) => {
                session
                    .run_schedule_with_faults(&mut vm, &schedule, &mut workload, plan)
                    .unwrap();
            }
            None => {
                session
                    .run_schedule(&mut vm, &schedule, &mut workload)
                    .unwrap();
            }
        }
        metrics.snapshot()
    };
    let clean = run(None);
    let faulted = run(Some(&FaultPlan::none()));
    assert_eq!(
        family(&clean, "session_events_total"),
        family(&faulted, "session_events_total"),
        "event tagging forked between the clean and fault-capable paths"
    );
    assert_eq!(
        family(&clean, "session_outcomes_total"),
        family(&faulted, "session_outcomes_total"),
        "outcome tagging forked between the clean and fault-capable paths"
    );
    assert_eq!(
        clean.to_canonical_json(),
        faulted.to_canonical_json(),
        "a null fault plan must be observationally identical to no plan"
    );
    // Events are incident-driven, so a clean run records none — but the
    // outcome series must prove both runs actually migrated.
    assert_eq!(
        clean.counter("session_outcomes_total", &[("outcome", "completed")]),
        3
    );
}

#[test]
fn faulted_runs_diverge_by_exactly_the_wasted_traffic() {
    let snap = vecycle::golden::failure_sweep();
    let engine_bytes = snap.counter_total("engine_wire_bytes_total");
    let net_bytes = snap.counter_total("net_wire_bytes_total");
    assert!(
        engine_bytes >= net_bytes,
        "net counters only see completed migrations, so they can never \
         exceed the engine's incremental accounting"
    );
    let aborted = snap.counter("session_events_total", &[("event", "attempt_aborted")]);
    if aborted > 0 {
        assert!(
            engine_bytes > net_bytes,
            "aborted attempts recorded traffic, so the accountings must differ"
        );
    }
}

/// `engine_scan_pages_total{class}` is tallied during the scan and
/// recorded once per class, not once per page: it must still equal
/// round 1 of the report class for class, and carry no series for a
/// class the scan never saw.
#[test]
fn scan_page_counters_equal_round_one() {
    use vecycle::mem::PageContent;
    use vecycle::types::PageIndex;

    // Zero pages and repeated content on top of the aged guest, so the
    // zero and dedup_ref classes exist where a strategy can see them.
    let (mut guest, cp) = aged_guest(384, 43);
    for i in 0..8 {
        guest.write_page(PageIndex::new(100 + i), PageContent::Zero);
        guest.write_page(PageIndex::new(300 + i), PageContent::ContentId(77));
    }
    let gen_snapshot = {
        let fresh =
            Guest::with_generations(ByteMemory::with_distinct_content(PageCount::new(384), 43));
        fresh.generations().expect("tracked").snapshot()
    };
    let strategy = |name: &str| match name {
        "full" => Strategy::full(),
        "dedup" => Strategy::dedup(),
        "dirty" => Strategy::miyakodori(guest.generations().expect("tracked"), &gen_snapshot),
        _ => Strategy::vecycle_from_checkpoint(&cp).with_dedup(),
    };

    for name in ["full", "dedup", "dirty", "vecycle+dedup"] {
        let metrics = MetricsRegistry::new();
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit()).with_metrics(metrics.clone());
        let report = engine.migrate(guest.memory(), strategy(name)).unwrap();
        let first = &report.rounds()[0];
        let expected: BTreeMap<Vec<(String, String)>, u64> = [
            ("full", first.full_pages),
            ("checksum", first.checksum_pages),
            ("dedup_ref", first.dedup_refs),
            ("skipped", first.skipped_pages),
            ("zero", first.zero_pages),
        ]
        .into_iter()
        .filter(|(_, n)| n.as_u64() > 0)
        .map(|(class, n)| (vec![("class".to_string(), class.to_string())], n.as_u64()))
        .collect();
        let scanned = family(&metrics.snapshot(), "engine_scan_pages_total");
        assert_eq!(scanned, expected, "{name}");
        assert_eq!(
            scanned.values().sum::<u64>(),
            384,
            "{name}: every page is in exactly one class"
        );
        let classes: Vec<&str> = scanned.keys().map(|labels| labels[0].1.as_str()).collect();
        let want: &[&str] = match name {
            "full" => &["full", "zero"],
            "dedup" => &["dedup_ref", "full", "zero"],
            "dirty" => &["full", "skipped", "zero"],
            _ => &["checksum", "dedup_ref", "full", "zero"],
        };
        assert_eq!(classes, want, "{name}: series set");
    }
}
