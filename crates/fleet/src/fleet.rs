//! The fleet driver: an event-driven orchestrator over [`VeCycleSession`].
//!
//! Where `run_schedule` walks one VM's pinned [`MigrationRequest`]s in
//! order, [`Fleet`] pops the requests of many VMs off a [`Simulator`]
//! and *decides* each leg at its simulated instant: the timing policy
//! picks when, the placement engine picks where (unless the request is
//! pinned), admission control picks whether now or queued.
//! The migration itself goes through the same
//! [`VeCycleSession::migrate_with_faults`] the schedule runners use, so
//! fleet runs inherit the full retry/recycle/persist discipline — and
//! the clean path stays the faulted path with [`FaultPlan::none`].
//!
//! # Determinism
//!
//! The event loop is single-threaded in simulated time. Same-timestamp
//! events pop FIFO (pinned by `vecycle-sim`'s regression tests), every
//! tie-break in placement is a total order, and all randomness flows
//! from splitmix lanes of the spec seed — so the journal, the report
//! and the metrics snapshot are byte-identical across repeat runs.

use std::collections::{BTreeMap, VecDeque};

use vecycle_checkpoint::Checkpoint;
use vecycle_core::session::{SessionEvent, VeCycleSession, VmInstance};
use vecycle_core::MigrationOutcome;
use vecycle_faults::FaultPlan;
use vecycle_host::{Cluster, MigrationRequest};
use vecycle_mem::workload::GuestWorkload;
use vecycle_mem::{DigestMemory, Guest};
use vecycle_obs::{layouts, Counter, CounterFamily, Gauge, Histogram, MetricsRegistry};
use vecycle_sim::Simulator;
use vecycle_types::{Bytes, HostId, PageCount, SimDuration, SimTime, VmId};

use crate::admission::Admission;
use crate::journal::PlacementDecision;
use crate::placement::{self, Choice, ChoiceKind};
use crate::report::FleetReport;
use crate::spec::FleetSpec;
use crate::vms::{CyclicWorkload, DirtyCycle, FleetVm};
use vecycle_types::rng::{split, Xorshift};

/// Fraction of a guest's pages dirtied per minute in the high phase.
const HIGH_DIRTY_PER_MIN: f64 = 0.02;
/// Fraction of a guest's pages dirtied per minute in the low phase.
const LOW_DIRTY_PER_MIN: f64 = 0.001;
/// Every VM's dirty cycle period.
const CYCLE_PERIOD: SimDuration = SimDuration::from_mins(10);
/// Length of the low-dirty window within each period.
const CYCLE_LOW_LEN: SimDuration = SimDuration::from_mins(2);

/// The three event kinds driving a fleet run; payloads index into the
/// merged request stream.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A request arrives (the VM asks to move).
    Arrive(u32),
    /// A deferred request reaches its policy-chosen start instant.
    Start(u32),
    /// An in-flight migration finishes.
    Complete(u32),
}

/// Per-request progress, parallel to the merged request stream.
#[derive(Debug, Default, Clone)]
struct ReqState {
    started: Option<SimTime>,
    queued_at: Option<SimTime>,
    choice: Option<Choice>,
    admitted: Option<(HostId, HostId)>,
}

/// Mutable run-scoped state, kept apart from `Fleet` so handlers can
/// borrow fleet fields and run state independently. What a report sums
/// over executed migrations is a fold of `journal` in [`Fleet::finish`].
#[derive(Debug)]
struct RunState {
    admission: Admission,
    pending: VecDeque<u32>,
    req: Vec<ReqState>,
    exec_seq: u64,
    journal: Vec<PlacementDecision>,
    events: Vec<SessionEvent>,
    skipped: u64,
    deferred: u64,
    queued: u64,
    peak_queue: u64,
    peak_inflight: u64,
}

impl RunState {
    fn new(requests: usize, spec: &FleetSpec) -> Self {
        RunState {
            admission: Admission::new(spec.hosts_per_rack, spec.link_capacity, spec.max_inflight),
            pending: VecDeque::new(),
            req: vec![ReqState::default(); requests],
            exec_seq: 0,
            journal: Vec::with_capacity(requests),
            events: Vec::new(),
            skipped: 0,
            deferred: 0,
            queued: 0,
            peak_queue: 0,
            peak_inflight: 0,
        }
    }
}

/// The `fleet_*` series, resolved once per fleet in the session's
/// registry.
#[derive(Debug)]
struct FleetSeries {
    requests: CounterFamily,
    migrations: CounterFamily,
    placement: CounterFamily,
    queued: Counter,
    queue_depth: Gauge,
    traffic: Counter,
    wasted: Counter,
    deadline_misses: Counter,
    queue_wait: Histogram,
    duration: Histogram,
    inflight: Gauge,
    busy_links: Gauge,
}

impl FleetSeries {
    fn new(m: &MetricsRegistry) -> Self {
        FleetSeries {
            requests: CounterFamily::new(
                m,
                "fleet_requests_total",
                "disposition",
                &["skipped", "deferred", "executed"],
            ),
            migrations: CounterFamily::new(
                m,
                "fleet_migrations_total",
                "outcome",
                &MigrationOutcome::LABELS,
            ),
            placement: CounterFamily::new(
                m,
                "fleet_placement_total",
                "result",
                &ChoiceKind::LABELS,
            ),
            queued: m.resolve_counter("fleet_admission_queued_total", &[]),
            queue_depth: m.resolve_gauge("fleet_admission_queue_depth", &[]),
            traffic: m.resolve_counter("fleet_traffic_bytes_total", &[]),
            wasted: m.resolve_counter("fleet_wasted_bytes_total", &[]),
            deadline_misses: m.resolve_counter("fleet_deadline_misses_total", &[]),
            queue_wait: m.resolve_histogram(
                "fleet_queue_wait_sim_millis",
                &[],
                layouts::SIM_MILLIS,
            ),
            duration: m.resolve_histogram("fleet_migration_sim_millis", &[], layouts::SIM_MILLIS),
            inflight: m.resolve_gauge("fleet_inflight", &[]),
            busy_links: m.resolve_gauge("fleet_busy_links", &[]),
        }
    }

    /// Publishes the admission controller's in-flight and busy-link
    /// counts.
    fn admission(&self, admission: &Admission) {
        self.inflight.set(f64::from(admission.inflight()));
        self.busy_links.set(admission.busy_links() as f64);
    }
}

/// A fleet of VMs orchestrated over a cluster by placement, timing and
/// admission policies, executing legs through a [`VeCycleSession`].
#[derive(Debug)]
pub struct Fleet {
    spec: FleetSpec,
    cluster: Cluster,
    session: VeCycleSession,
    series: FleetSeries,
    vms: Vec<FleetVm>,
    requests: Vec<MigrationRequest>,
    rng: Xorshift,
}

impl Fleet {
    /// Builds a fleet per `spec`: a homogeneous cluster, per-VM guests,
    /// affinity sets and request streams (all derived from the spec
    /// seed), executed by a [`VeCycleSession`].
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the spec does
    /// not validate.
    pub fn new(spec: FleetSpec) -> vecycle_types::Result<Self> {
        spec.validate()?;
        let cluster = Cluster::homogeneous(spec.hosts, spec.link);
        // Hosts share their checkpoint stores by Arc, so the session's
        // cluster clone and the fleet's placement view stay coherent.
        // The session's fresh registry carries the `fleet_*` series too.
        let session = VeCycleSession::new(cluster.clone());
        let series = FleetSeries::new(session.metrics());
        let mut vms = Vec::with_capacity(spec.vms as usize);
        let mut requests = Vec::with_capacity(spec.vms as usize * spec.requests_per_vm as usize);
        for i in 0..spec.vms {
            let vm_id = VmId::new(i);
            let vm_seed = split(spec.seed, u64::from(i));
            let mut draw = Xorshift::new(split(vm_seed, 0));

            // The paper's small host set: `affinity` distinct hosts,
            // kept sorted so candidate scans are a total order.
            let mut affinity = Vec::with_capacity(spec.affinity as usize);
            while affinity.len() < spec.affinity as usize {
                let host = HostId::new(draw.below(u64::from(spec.hosts)) as u32);
                if let Err(at) = affinity.binary_search(&host) {
                    affinity.insert(at, host);
                }
            }
            let start = affinity[draw.below(affinity.len() as u64) as usize];

            let guest = Guest::new(DigestMemory::with_distinct_content(
                PageCount::new(spec.pages_per_vm),
                split(vm_seed, 1),
            ));
            // Per-VM phase offset: low windows are staggered across
            // the fleet, so the LowDirtyWindow policy spreads starts
            // instead of synchronizing a thundering herd.
            let slack = CYCLE_PERIOD.as_nanos() - CYCLE_LOW_LEN.as_nanos();
            let cycle = DirtyCycle::new(
                CYCLE_PERIOD,
                SimDuration::from_nanos(draw.below(slack + 1)),
                CYCLE_LOW_LEN,
            );
            let per_min = spec.pages_per_vm as f64 / 60.0;
            let workload = CyclicWorkload::new(
                split(vm_seed, 2),
                cycle,
                LOW_DIRTY_PER_MIN * per_min,
                HIGH_DIRTY_PER_MIN * per_min,
            );

            if spec.preseed_checkpoints {
                for &h in affinity.iter().filter(|&&h| h != start) {
                    let host = cluster
                        .host(h)
                        .ok_or_else(|| vecycle_types::Error::NotFound {
                            what: format!("affinity host {h}"),
                        })?;
                    let _ = host.save_checkpoint(Checkpoint::capture(
                        vm_id,
                        SimTime::EPOCH,
                        guest.memory(),
                    ))?;
                }
            }

            requests.extend(MigrationRequest::small_host_set_stream(
                vm_id,
                spec.mean_interval,
                spec.requests_per_vm,
                split(vm_seed, 3),
                Some(spec.deadline_slack),
            ));
            vms.push(FleetVm {
                instance: VmInstance::new(vm_id, guest, start),
                workload,
                affinity,
                rr_cursor: 0,
                advanced_to: SimTime::EPOCH,
                busy: false,
            });
        }
        MigrationRequest::merge(&mut requests);
        let rng = Xorshift::new(split(spec.seed, u64::from(u32::MAX)));
        Ok(Fleet {
            spec,
            cluster,
            session,
            series,
            vms,
            requests,
            rng,
        })
    }

    /// Replaces the generated request stream with an explicit one —
    /// e.g. [`MigrationRequest::ping_pong`] or [`MigrationRequest::vdi`]
    /// schedules, one per VM. The stream is re-merged into canonical
    /// `(at, vm)` order.
    ///
    /// # Panics
    ///
    /// Panics if a request names a VM outside the fleet.
    #[must_use]
    pub fn with_request_stream(mut self, requests: Vec<MigrationRequest>) -> Self {
        assert!(
            requests.iter().all(|r| r.vm.as_usize() < self.vms.len()),
            "request stream names a VM outside the fleet"
        );
        self.requests = requests;
        MigrationRequest::merge(&mut self.requests);
        self
    }

    /// The spec this fleet was built from.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The session's metrics registry, which the fleet's `fleet_*`
    /// series share.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.session.metrics()
    }

    /// The merged request stream, in `(at, vm)` order.
    pub fn requests(&self) -> &[MigrationRequest] {
        &self.requests
    }

    /// Runs the fleet to completion with no faults.
    ///
    /// # Errors
    ///
    /// Propagates session errors (unknown hosts, engine invariant
    /// violations) — fault-induced migration failures are data in the
    /// report, not errors.
    pub fn run(&mut self) -> vecycle_types::Result<FleetReport> {
        self.run_with_faults(&FaultPlan::none())
    }

    /// Runs the fleet to completion under `plan`; leg indexes in the
    /// plan refer to execution sequence numbers (journal `seq`).
    ///
    /// # Errors
    ///
    /// See [`Fleet::run`].
    pub fn run_with_faults(&mut self, plan: &FaultPlan) -> vecycle_types::Result<FleetReport> {
        // A request has at most one event queued at a time.
        let mut sim = Simulator::with_capacity(self.requests.len());
        for (i, r) in self.requests.iter().enumerate() {
            sim.schedule_at(r.at, Ev::Arrive(i as u32));
        }
        let mut st = RunState::new(self.requests.len(), &self.spec);
        while let Some(ev) = sim.pop() {
            match ev.payload {
                Ev::Arrive(i) => self.on_arrive(&mut sim, &mut st, i, ev.time, plan)?,
                Ev::Start(i) => self.on_start(&mut sim, &mut st, i, ev.time, plan)?,
                Ev::Complete(i) => self.on_complete(&mut sim, &mut st, i, ev.time, plan)?,
            }
        }
        debug_assert_eq!(st.admission.inflight(), 0, "run drained with claims held");
        debug_assert!(st.pending.is_empty(), "run drained with queued requests");
        Ok(self.finish(st))
    }

    fn on_arrive(
        &mut self,
        sim: &mut Simulator<Ev>,
        st: &mut RunState,
        i: u32,
        now: SimTime,
        plan: &FaultPlan,
    ) -> vecycle_types::Result<()> {
        let r = self.requests[i as usize];
        let vm = &mut self.vms[r.vm.as_usize()];
        if vm.busy {
            st.skipped += 1;
            self.series.requests.of("skipped").inc(1);
            return Ok(());
        }
        vm.busy = true;
        let start = self
            .spec
            .timing
            .start_time(now, vm.workload.cycle(), r.deadline);
        if start > now {
            st.deferred += 1;
            self.series.requests.of("deferred").inc(1);
            sim.schedule_at(start, Ev::Start(i));
            Ok(())
        } else {
            self.on_start(sim, st, i, now, plan)
        }
    }

    fn on_start(
        &mut self,
        sim: &mut Simulator<Ev>,
        st: &mut RunState,
        i: u32,
        now: SimTime,
        plan: &FaultPlan,
    ) -> vecycle_types::Result<()> {
        let r = self.requests[i as usize];
        let idx = r.vm.as_usize();
        let from = self.vms[idx].instance.location();
        let choice = match r.pinned_to {
            Some(p) if p == from => {
                // Pinned to where the VM already runs: nothing to do.
                self.vms[idx].busy = false;
                st.skipped += 1;
                self.series.requests.of("skipped").inc(1);
                return Ok(());
            }
            Some(p) => Choice {
                to: p,
                kind: ChoiceKind::Pinned,
            },
            None => placement::choose(
                self.spec.placement,
                &mut self.vms[idx],
                &self.cluster,
                &mut self.rng,
            ),
        };
        st.req[i as usize].started = Some(now);
        st.req[i as usize].choice = Some(choice);
        if st.admission.try_admit(u64::from(i), from, choice.to) {
            self.execute(sim, st, i, now, plan)
        } else {
            st.req[i as usize].queued_at = Some(now);
            st.pending.push_back(i);
            st.queued += 1;
            st.peak_queue = st.peak_queue.max(st.pending.len() as u64);
            self.series.queued.inc(1);
            self.series.queue_depth.set(st.pending.len() as f64);
            Ok(())
        }
    }

    /// Runs request `i`'s migration right now (admission already
    /// granted) and schedules its completion.
    fn execute(
        &mut self,
        sim: &mut Simulator<Ev>,
        st: &mut RunState,
        i: u32,
        now: SimTime,
        plan: &FaultPlan,
    ) -> vecycle_types::Result<()> {
        let r = self.requests[i as usize];
        let rs = &st.req[i as usize];
        let choice = rs.choice.expect("execute without placement");
        let started = rs.started.expect("execute without start");
        let queued_at = rs.queued_at;
        let vm = &mut self.vms[r.vm.as_usize()];
        let from = vm.instance.location();

        // Catch the guest up to `now` before the engine snapshots it;
        // the engine itself advances the workload through the copy
        // rounds from here on.
        let gap = now.duration_since(vm.advanced_to);
        if !gap.is_zero() {
            vm.workload.advance(vm.instance.guest_mut(), gap);
        }

        let leg = st.exec_seq as usize;
        st.exec_seq += 1;
        let report = self.session.migrate_with_faults(
            &mut vm.instance,
            choice.to,
            now,
            &mut vm.workload,
            plan,
            leg,
            &mut st.events,
        )?;

        let duration = report.total_time_with_retries();
        let completion = now + duration;
        let deadline_missed = r.deadline.is_some_and(|d| completion > d);
        let reason = choice.kind.label();
        let queued_nanos = queued_at
            .map(|q| now.duration_since(q).as_nanos())
            .unwrap_or(0);
        let outcome = report.outcome().label();
        let decision = PlacementDecision {
            seq: leg as u64,
            at_nanos: now.since_epoch().as_nanos(),
            vm: r.vm.as_u32(),
            from: from.as_u32(),
            to: choice.to.as_u32(),
            reason,
            deferred_nanos: started.duration_since(r.at).as_nanos(),
            queued_nanos,
            traffic_bytes: report.source_traffic().as_u64(),
            wasted_bytes: report.wasted_traffic().as_u64(),
            downtime_nanos: report.downtime().as_nanos(),
            duration_nanos: duration.as_nanos(),
            outcome,
            deadline_missed,
        };

        st.peak_inflight = st.peak_inflight.max(u64::from(st.admission.inflight()));
        st.req[i as usize].admitted = Some((from, choice.to));

        let series = &self.series;
        series.requests.of("executed").inc(1);
        series.migrations.of(outcome).inc(1);
        series.placement.of(reason).inc(1);
        series.traffic.inc(report.source_traffic().as_u64());
        series.wasted.inc(report.wasted_traffic().as_u64());
        if deadline_missed {
            series.deadline_misses.inc(1);
        }
        series.queue_wait.observe(queued_nanos / 1_000_000);
        series.duration.observe(duration.as_nanos() / 1_000_000);
        series.admission(&st.admission);

        st.journal.push(decision);
        sim.schedule_at(completion, Ev::Complete(i));
        Ok(())
    }

    fn on_complete(
        &mut self,
        sim: &mut Simulator<Ev>,
        st: &mut RunState,
        i: u32,
        now: SimTime,
        plan: &FaultPlan,
    ) -> vecycle_types::Result<()> {
        let r = self.requests[i as usize];
        let (from, to) = st.req[i as usize].admitted.expect("complete without admit");
        st.admission.release(u64::from(i), from, to);
        let vm = &mut self.vms[r.vm.as_usize()];
        vm.busy = false;
        // The engine already played the workload through the migration
        // window; external catch-up resumes from the completion instant.
        vm.advanced_to = now;
        self.series.admission(&st.admission);

        // Retry the queue in FIFO order, once per completion. Entries
        // whose resources are still busy go back in the same relative
        // order — no head-of-line blocking, no starvation (every
        // completion retries the whole queue).
        let rounds = st.pending.len();
        for _ in 0..rounds {
            let j = st.pending.pop_front().expect("queue length checked");
            let rj = self.requests[j as usize];
            let from_j = self.vms[rj.vm.as_usize()].instance.location();
            let to_j = st.req[j as usize].choice.expect("queued without choice").to;
            if st.admission.try_admit(u64::from(j), from_j, to_j) {
                self.execute(sim, st, j, now, plan)?;
            } else {
                st.pending.push_back(j);
            }
        }
        self.series.queue_depth.set(st.pending.len() as f64);
        Ok(())
    }

    fn finish(&self, st: RunState) -> FleetReport {
        let journal = &st.journal;
        let count = |f: fn(&PlacementDecision) -> bool| journal.iter().filter(|d| f(d)).count();
        let sum = |f: fn(&PlacementDecision) -> u64| journal.iter().map(f).sum::<u64>();
        let hits = count(|d| d.reason == "warm") as u64;
        let makespan = journal.iter().map(|d| d.at_nanos + d.duration_nanos);
        let mut outcomes = BTreeMap::new();
        for d in journal {
            *outcomes.entry(d.outcome).or_insert(0) += 1;
        }
        FleetReport {
            migrations: journal.len() as u64,
            skipped: st.skipped,
            deferred: st.deferred,
            queued: st.queued,
            placement_hits: hits,
            placement_misses: journal.len() as u64 - hits,
            deadline_misses: count(|d| d.deadline_missed) as u64,
            peak_queue_depth: st.peak_queue,
            peak_inflight: st.peak_inflight,
            total_traffic: Bytes::new(sum(|d| d.traffic_bytes)),
            total_wasted: Bytes::new(sum(|d| d.wasted_bytes)),
            total_downtime: SimDuration::from_nanos(sum(|d| d.downtime_nanos)),
            total_duration: SimDuration::from_nanos(sum(|d| d.duration_nanos)),
            makespan: SimDuration::from_nanos(makespan.max().unwrap_or(0)),
            outcomes,
            incidents: st.events.iter().map(|e| e.to_string()).collect(),
            decisions: st.journal,
        }
    }
}
