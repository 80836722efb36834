//! Multi-migration scenarios across the session, host and sim layers.

use vecycle::core::session::{RecyclePolicy, VeCycleSession, VmInstance};
use vecycle::core::{MigrationEngine, Strategy};
use vecycle::host::{Cluster, MigrationRequest};
use vecycle::mem::workload::IdleWorkload;
use vecycle::mem::{DigestMemory, Guest};
use vecycle::net::LinkSpec;
use vecycle::sim::Simulator;
use vecycle::types::{Bytes, HostId, SimDuration, SimTime, VmId};

fn vdi_session(policy: RecyclePolicy) -> Vec<vecycle::core::MigrationReport> {
    let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
    let session = VeCycleSession::new(cluster).with_policy(policy);
    let mem = DigestMemory::with_uniform_content(Bytes::from_mib(64), 5).unwrap();
    let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(1));
    let schedule = MigrationRequest::vdi(VmId::new(0), HostId::new(0), HostId::new(1), 19);
    // 0.03 pages/s ≈ 1.7k writes over a 16 h night on a 16k-page guest.
    let mut workload = IdleWorkload::new(3, 0.03);
    session
        .run_schedule(&mut vm, &schedule, &mut workload)
        .unwrap()
}

#[test]
fn vdi_scenario_is_deterministic() {
    let a = vdi_session(RecyclePolicy::VeCycle);
    let b = vdi_session(RecyclePolicy::VeCycle);
    assert_eq!(a.len(), 26);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.source_traffic(), y.source_traffic());
        assert_eq!(x.total_time(), y.total_time());
    }
}

#[test]
fn vdi_vecycle_beats_baseline_substantially() {
    let baseline: f64 = vdi_session(RecyclePolicy::Baseline)
        .iter()
        .map(|r| r.source_traffic().as_f64())
        .sum();
    let vecycle: f64 = vdi_session(RecyclePolicy::VeCycle)
        .iter()
        .map(|r| r.source_traffic().as_f64())
        .sum();
    let frac = vecycle / baseline;
    // The paper's §4.6 aggregate is 25% of baseline; with our synthetic
    // desktop anything clearly below half proves the mechanism.
    assert!(frac < 0.5, "vecycle moved {:.0}% of baseline", frac * 100.0);
}

#[test]
fn first_vdi_migration_is_the_most_expensive() {
    let reports = vdi_session(RecyclePolicy::VeCycle);
    let first = reports[0].source_traffic();
    for later in &reports[2..] {
        assert!(later.source_traffic() <= first);
    }
}

#[test]
fn simulator_drives_scheduled_migrations() {
    // Use the DES to fire migrations at schedule instants.
    let schedule = MigrationRequest::ping_pong(
        VmId::new(0),
        HostId::new(0),
        HostId::new(1),
        SimTime::EPOCH + SimDuration::from_hours(1),
        SimDuration::from_hours(2),
        6,
    );
    let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
    let session = VeCycleSession::new(cluster);
    let mem = DigestMemory::with_uniform_content(Bytes::from_mib(16), 6).unwrap();
    let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0));
    let mut workload = IdleWorkload::new(8, 1.0);

    let mut sim = Simulator::new();
    for leg in &schedule {
        sim.schedule_at(leg.at, *leg);
    }
    let mut reports = Vec::new();
    sim.run(|sim, ev| {
        use vecycle::mem::workload::GuestWorkload;
        // Age the guest up to the event instant (run_schedule does this
        // internally; with the DES we do it per event).
        workload.advance(vm.guest_mut(), SimDuration::from_hours(2));
        let report = session
            .migrate(
                &mut vm,
                ev.payload.pinned_to.unwrap(),
                sim.now(),
                &mut workload,
            )
            .unwrap();
        reports.push(report);
    });
    assert_eq!(reports.len(), 6);
    assert_eq!(vm.location(), HostId::new(0));
    // After warmup, every migration recycles.
    for r in &reports[1..] {
        assert_eq!(r.strategy().to_string(), "vecycle+dedup");
    }
}

#[test]
fn shorter_gaps_mean_less_traffic() {
    // The headline time-similarity relationship, end to end: migrating
    // every 30 min moves less than migrating every 8 h.
    let run = |gap_hours: u64| -> f64 {
        let cluster = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
        let session = VeCycleSession::new(cluster);
        let mem = DigestMemory::with_uniform_content(Bytes::from_mib(32), 7).unwrap();
        let mut vm = VmInstance::new(VmId::new(0), Guest::new(mem), HostId::new(0));
        let schedule = MigrationRequest::ping_pong(
            VmId::new(0),
            HostId::new(0),
            HostId::new(1),
            SimTime::EPOCH,
            SimDuration::from_hours(gap_hours),
            8,
        );
        let mut workload = IdleWorkload::new(9, 2.0);
        let reports = session
            .run_schedule(&mut vm, &schedule, &mut workload)
            .unwrap();
        // Skip the cold first migration.
        reports[1..]
            .iter()
            .map(|r| r.source_traffic().as_f64())
            .sum()
    };
    let short = run(1);
    let long = run(8);
    assert!(
        short < long,
        "1 h gaps ({short:.0} B) should move less than 8 h gaps ({long:.0} B)"
    );
}

#[test]
fn strategy_hierarchy_holds_on_an_aged_guest() {
    // full >= dedup >= vecycle >= vecycle+dedup (traffic), on one state.
    let mem = DigestMemory::with_uniform_content(Bytes::from_mib(32), 8).unwrap();
    let mut guest = Guest::new(mem);
    let cp = guest.memory().snapshot();
    use vecycle::mem::workload::GuestWorkload;
    IdleWorkload::new(11, 20.0).advance(&mut guest, SimDuration::from_hours(1));

    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let t = |s: Strategy| {
        engine
            .migrate(guest.memory(), s)
            .unwrap()
            .source_traffic()
            .as_u64()
    };
    let full = t(Strategy::full());
    let dedup = t(Strategy::dedup());
    let vecycle = t(Strategy::vecycle(&cp));
    let both = t(Strategy::vecycle(&cp).with_dedup());
    assert!(dedup <= full);
    assert!(vecycle <= dedup);
    assert!(both <= vecycle);
}

#[test]
fn scan_workload_wavefront_converges_or_hits_round_cap() {
    // A scanner rewrites memory sequentially; pre-copy chases the
    // wavefront. At moderate rates the engine still converges within
    // its round budget.
    use vecycle::mem::workload::ScanWorkload;
    let mem = DigestMemory::with_uniform_content(Bytes::from_mib(16), 10).unwrap();
    let mut guest = Guest::new(mem);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let mut scanner = ScanWorkload::new(11, 5_000.0);
    let r = engine
        .migrate_live(&mut guest, &mut scanner, Strategy::full())
        .unwrap();
    assert!(r.rounds().len() <= 30);
    // Each round's dirty set shrinks (the wavefront advances slower than
    // the wire drains it at this rate).
    for w in r.rounds().windows(2) {
        assert!(
            w[1].full_pages <= w[0].full_pages,
            "round sizes must shrink: {:?}",
            r.rounds().iter().map(|x| x.full_pages).collect::<Vec<_>>()
        );
    }
}
