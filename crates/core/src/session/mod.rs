//! [`VeCycleSession`]: the paper's deployment loop over hosts and
//! checkpoints.
//!
//! §3 describes the operational cycle: *"On an outgoing migration, the
//! source writes a checkpoint of the VM to its local disk. A subsequent
//! incoming migration of the same VM reuses the local checkpoint to
//! bootstrap the VM."* This module owns that cycle so callers only say
//! "move this VM there now".

use std::sync::{Arc, OnceLock};

use vecycle_checkpoint::{ChecksumIndex, IndexSeries, PartialCheckpoint};
use vecycle_faults::{FaultCause, FaultKind, FaultPlan, RetryPolicy};
use vecycle_host::{Cluster, MigrationRequest, StoreSeries};
use vecycle_mem::{workload::GuestWorkload, Guest, MutableMemory};
use vecycle_net::TrafficLedger;
use vecycle_obs::{layouts, Counter, CounterFamily, Gauge, MetricsRegistry};
use vecycle_types::{Bytes, Error, HostId, SimDuration, SimTime, VmId};

use crate::spare::Spare;
use crate::{LiveOutcome, MigrationEngine, MigrationOutcome, MigrationReport, SetupReport};

/// What first-round technique the session applies when a checkpoint is
/// (or is not) available at the destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecyclePolicy {
    /// Always full migrations (the QEMU baseline).
    Baseline,
    /// Sender-side dedup only.
    DedupOnly,
    /// VeCycle: recycle a destination checkpoint when present, falling
    /// back to dedup when none exists (as §4.6 assumes: "VeCycle still
    /// uses deduplication").
    VeCycle,
    /// Adaptive: probe a page sample against the destination checkpoint
    /// and only recycle when the estimated similarity reaches the
    /// engine's [`break_even_similarity`](crate::estimate::break_even_similarity)
    /// for the guest's RAM — busy VMs skip the checksum pass entirely
    /// (§2.3: "an active VM with no idle intervals will only gain a
    /// small benefit from a local checkpoint"). On a hash-bound engine,
    /// where no similarity pays, it never probes and never recycles.
    Adaptive,
}

mod events;
mod lifecycle;

pub use events::{FaultedScheduleRun, ScheduleSummary, SessionEvent};

/// A placed VM: guest state plus its current host.
#[derive(Debug)]
pub struct VmInstance<M> {
    id: VmId,
    guest: Guest<M>,
    location: HostId,
}

impl<M: MutableMemory> VmInstance<M> {
    /// Places a guest on `host`.
    pub fn new(id: VmId, guest: Guest<M>, host: HostId) -> Self {
        VmInstance {
            id,
            guest,
            location: host,
        }
    }

    /// The VM's identifier.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// Where the VM currently runs.
    pub fn location(&self) -> HostId {
        self.location
    }

    /// The guest state.
    pub fn guest(&self) -> &Guest<M> {
        &self.guest
    }

    /// Mutable guest state (for driving workloads between migrations).
    pub fn guest_mut(&mut self) -> &mut Guest<M> {
        &mut self.guest
    }
}

/// Drives checkpoint-recycled migrations across a [`Cluster`].
#[derive(Debug)]
pub struct VeCycleSession {
    cluster: Cluster,
    engine: MigrationEngine,
    policy: RecyclePolicy,
    retry: RetryPolicy,
    series: SessionSeries,
    /// The recycling index, refilled in place each leg while no
    /// strategy still holds it.
    index: Spare<Arc<ChecksumIndex>>,
}

/// The series every migration records into, resolved once per session
/// registry; rarer incidents (aborts, retries, crashes, evictions) take
/// the string-keyed path.
#[derive(Debug)]
struct SessionSeries {
    /// `session_attempts_total`, also read back: a migration's attempts
    /// are its delta.
    attempts: Counter,
    outcomes: CounterFamily,
    fetch: CounterFamily,
    saves: CounterFamily,
    /// `checkpoint_index_*{source}` for a checkpoint, a partial, both.
    index: [IndexSeries; 3],
    store: StoreSeries,
    /// Resolved by the first leg the Adaptive policy probes.
    probe: OnceLock<ProbeSeries>,
}

/// `session_similarity_estimate` and
/// `session_similarity_probe_total{verdict}`.
#[derive(Debug)]
struct ProbeSeries {
    estimate: Gauge,
    verdicts: CounterFamily,
}

impl ProbeSeries {
    fn new(metrics: &MetricsRegistry) -> Self {
        ProbeSeries {
            estimate: metrics.resolve_gauge("session_similarity_estimate", &[]),
            verdicts: CounterFamily::new(
                metrics,
                "session_similarity_probe_total",
                "verdict",
                &["recycle", "fallback"],
            ),
        }
    }
}

impl SessionSeries {
    fn new(metrics: &MetricsRegistry, cluster: &Cluster) -> Self {
        SessionSeries {
            attempts: metrics.resolve_counter("session_attempts_total", &[]),
            outcomes: CounterFamily::new(
                metrics,
                "session_outcomes_total",
                "outcome",
                &MigrationOutcome::LABELS,
            ),
            fetch: CounterFamily::new(
                metrics,
                "session_checkpoint_fetch_total",
                "result",
                &["hit", "miss", "corrupt", "evicted", "quarantined"],
            ),
            saves: CounterFamily::new(
                metrics,
                "session_checkpoint_saves_total",
                "result",
                &["lost", "refused", "saved"],
            ),
            index: ["checkpoint", "partial", "merged"].map(|s| IndexSeries::new(metrics, s)),
            store: StoreSeries::new(metrics, cluster),
            probe: OnceLock::new(),
        }
    }
}

impl VeCycleSession {
    /// Creates a session over `cluster` with the VeCycle policy, an
    /// engine configured from the cluster's link, and the default
    /// [`RetryPolicy`].
    pub fn new(cluster: Cluster) -> Self {
        let engine = MigrationEngine::new(cluster.link());
        VeCycleSession {
            series: SessionSeries::new(engine.metrics(), &cluster),
            cluster,
            engine,
            policy: RecyclePolicy::VeCycle,
            retry: RetryPolicy::default(),
            index: Spare::default(),
        }
    }

    /// Overrides the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RecyclePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the engine.
    #[must_use]
    pub fn with_engine(mut self, engine: MigrationEngine) -> Self {
        self.series = SessionSeries::new(engine.metrics(), &self.cluster);
        self.engine = engine;
        self
    }

    /// Overrides the retry policy for faulted migrations.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Shares a metrics registry with this session (and its engine).
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.series = SessionSeries::new(&metrics, &self.cluster);
        self.engine = self.engine.with_metrics(metrics);
        self
    }

    /// The metrics registry (the engine's — session and engine always
    /// share one, so wire counters and session counters land together).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.engine.metrics()
    }

    /// Appends a transcript event *and* bumps its typed counter in one
    /// step — the only way session code records an incident, so the two
    /// accountings cannot drift.
    fn record_event(&self, events: &mut Vec<SessionEvent>, event: SessionEvent) {
        self.metrics()
            .inc("session_events_total", &[("event", event.kind())], 1);
        events.push(event);
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Migrates `vm` to `to` at simulated instant `now`, running
    /// `workload` inside the guest during the copy rounds.
    ///
    /// Implements the full cycle: pick a strategy from the destination's
    /// checkpoint store, run the pre-copy engine, store a fresh
    /// checkpoint of the *post-migration* state at the source (the host
    /// being vacated), and update the VM's location.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if `to` is not in the cluster or the
    /// VM's current host is unknown, and propagates engine errors.
    pub fn migrate<M, W>(
        &self,
        vm: &mut VmInstance<M>,
        to: HostId,
        now: SimTime,
        workload: &mut W,
    ) -> vecycle_types::Result<MigrationReport>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
    {
        self.migrate_with_faults(
            vm,
            to,
            now,
            workload,
            &FaultPlan::none(),
            0,
            &mut Vec::new(),
        )
    }

    /// Migrates `vm` to `to` at simulated instant `now` under the faults
    /// `plan` assigns to leg `leg`, retrying per the session's
    /// [`RetryPolicy`]. Incidents are appended to `events` in occurrence
    /// order.
    ///
    /// This is the one entry point every scheduling layer drives — the
    /// schedule runners below and the fleet orchestrator
    /// (`vecycle-fleet`) — so all of them exercise the same
    /// retry/recycle/persist discipline. The clean path is this path with
    /// [`FaultPlan::none`]. Contract:
    ///
    /// * the VM migrates from its **actual** location (`vm.location()`),
    ///   not any location a stale plan assumed;
    /// * on success `vm.location()` becomes `to` and a checkpoint of the
    ///   departed state lands at the vacated host;
    /// * fault-induced failures are **data**, not errors: an attempt
    ///   killed by an injected link drop is retried (recycling the
    ///   aborted attempt's landed pages as a [`PartialCheckpoint`] when
    ///   the policy allows), and a migration that exhausts every attempt
    ///   returns a report with [`MigrationOutcome::Failed`] and the VM
    ///   still at the source;
    /// * `Err` is reserved for real problems: unknown hosts, filesystem
    ///   failures, engine invariant violations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if `to` is not in the cluster or the
    /// VM's current host is unknown, and propagates engine and
    /// durable-store errors.
    #[allow(clippy::too_many_arguments)]
    pub fn migrate_with_faults<M, W>(
        &self,
        vm: &mut VmInstance<M>,
        to: HostId,
        now: SimTime,
        workload: &mut W,
        plan: &FaultPlan,
        leg: usize,
        events: &mut Vec<SessionEvent>,
    ) -> vecycle_types::Result<MigrationReport>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
    {
        let source = self
            .cluster
            .host(vm.location)
            .ok_or_else(|| Error::NotFound {
                what: format!("source host {}", vm.location),
            })?
            .clone();
        let dest = self
            .cluster
            .host(to)
            .ok_or_else(|| Error::NotFound {
                what: format!("destination host {to}"),
            })?
            .clone();

        let inject_corrupt = plan.has(leg, |f| matches!(f, FaultKind::CheckpointCorrupt));
        let crash_on_save = plan.has(leg, |f| matches!(f, FaultKind::CrashDuringSave));
        let mut fetch = self.fetch_checkpoint(vm.id, &dest, inject_corrupt, events)?;
        // The attempts this migration makes are *derived from the metrics
        // layer*: the counter delta across the retry loop is the one
        // source of truth the outcome reports (the transcript's
        // `AttemptAborted`/`RetryScheduled` counts must reconcile with it
        // — tested in `tests/metrics_golden.rs`).
        let attempts_before = self.series.attempts.get();

        let mut partial: Option<PartialCheckpoint> = None;
        let mut wasted_traffic = Bytes::ZERO;
        let mut wasted_time = SimDuration::ZERO;
        let mut attempt = 1u32;
        loop {
            self.series.attempts.inc(1);
            let attempt_faults = plan.for_attempt(leg, attempt);
            let (strategy, cause) = self.strategy_for(vm, &fetch, partial.as_ref());
            let strategy_name = strategy.name();
            match self.engine.migrate_live_faulted(
                &mut vm.guest,
                workload,
                strategy,
                &attempt_faults,
            )? {
                LiveOutcome::Completed(mut report) => {
                    let attempts = (self.series.attempts.get() - attempts_before) as u32;
                    let outcome = if attempts > 1 {
                        MigrationOutcome::CompletedAfterRetries { attempts }
                    } else if let Some(cause) = cause {
                        MigrationOutcome::FellBackToFull { cause }
                    } else {
                        MigrationOutcome::Completed
                    };
                    self.series.outcomes.of(outcome.label()).inc(1);
                    report.set_outcome(outcome);
                    report.add_waste(wasted_traffic, wasted_time);

                    self.persist_checkpoint(vm, &source, now, crash_on_save, &mut report, events)?;
                    vm.location = to;
                    return Ok(report);
                }
                LiveOutcome::Aborted(aborted) => {
                    wasted_traffic += aborted.traffic;
                    wasted_time = wasted_time.saturating_add(aborted.elapsed);
                    self.metrics().inc(
                        "faults_observed_total",
                        &[("cause", aborted.cause.label())],
                        1,
                    );
                    self.record_event(
                        events,
                        SessionEvent::AttemptAborted {
                            vm: vm.id,
                            attempt,
                            cause: aborted.cause,
                            landed: aborted.landed_pages(),
                        },
                    );
                    if aborted.cause == FaultCause::HostCrash {
                        // The destination died mid-transfer: its in-memory
                        // catalog (and any landed pages) are gone. Play out
                        // the restart — re-open the disk store, scrub it —
                        // before deciding whether to retry, so even a
                        // migration out of attempts leaves the cluster in
                        // its post-restart state.
                        self.crash_and_restart(&dest, events)?;
                    }
                    if attempt >= self.retry.max_attempts {
                        self.series.outcomes.of("failed").inc(1);
                        self.record_event(
                            events,
                            SessionEvent::MigrationFailed {
                                vm: vm.id,
                                cause: aborted.cause,
                            },
                        );
                        let mut report = MigrationReport::new(
                            strategy_name,
                            vm.guest.ram_size(),
                            Vec::new(),
                            SimDuration::ZERO,
                            SetupReport::default(),
                            TrafficLedger::new(),
                            TrafficLedger::new(),
                        );
                        report.set_outcome(MigrationOutcome::Failed {
                            cause: aborted.cause,
                        });
                        report.set_converged(false);
                        report.add_waste(wasted_traffic, wasted_time);
                        // The VM never left; no checkpoint is written and
                        // its location does not change.
                        return Ok(report);
                    }
                    let next = attempt + 1;
                    let backoff = self.retry.backoff_before(next);
                    self.metrics().inc("session_retries_total", &[], 1);
                    self.metrics().observe(
                        "session_backoff_sim_millis",
                        &[],
                        layouts::SIM_MILLIS,
                        backoff.as_nanos() / 1_000_000,
                    );
                    self.record_event(
                        events,
                        SessionEvent::RetryScheduled {
                            vm: vm.id,
                            attempt: next,
                            backoff,
                        },
                    );
                    // The guest keeps running (and dirtying pages) at the
                    // source while the session waits out the backoff.
                    workload.advance(&mut vm.guest, backoff);
                    wasted_time = wasted_time.saturating_add(backoff);
                    if aborted.cause == FaultCause::HostCrash {
                        // Landed pages died with the destination — there is
                        // nothing to resume from. Re-fetch instead: the
                        // restarted host's scrubbed disk store decides what
                        // the next attempt can recycle.
                        partial = None;
                        fetch = self.fetch_checkpoint(vm.id, &dest, false, events)?;
                    } else if self.retry.resume_from_partial
                        && !matches!(self.policy, RecyclePolicy::Baseline)
                        && aborted.landed_pages().as_u64() > 0
                    {
                        self.record_event(
                            events,
                            SessionEvent::ResumedFromPartial {
                                vm: vm.id,
                                attempt: next,
                                landed: aborted.landed_pages(),
                            },
                        );
                        let resumed = PartialCheckpoint::new(vm.id, aborted.landed);
                        vecycle_checkpoint::observe_partial(self.metrics(), &resumed);
                        partial = Some(resumed);
                    }
                    attempt = next;
                }
            }
        }
    }

    /// [`VeCycleSession::run_schedule_with_faults`] with an empty fault
    /// plan: one report per migration, in schedule order.
    ///
    /// # Errors
    ///
    /// As there; with no faults to absorb, also on the first request
    /// whose migration fails.
    pub fn run_schedule<M, W>(
        &self,
        vm: &mut VmInstance<M>,
        schedule: &[MigrationRequest],
        workload: &mut W,
    ) -> vecycle_types::Result<Vec<MigrationReport>>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
    {
        let run = self.run_schedule_with_faults(vm, schedule, workload, &FaultPlan::none())?;
        Ok(run.reports)
    }

    /// Runs a schedule — a time-ordered stream of requests for this VM,
    /// each pinned to its destination, such as [`MigrationRequest::vdi`]
    /// returns — under fault injection (`plan` addresses a request by its
    /// index in `schedule`), advancing `workload` through the gaps so the
    /// guest keeps aging between moves.
    ///
    /// Each request migrates from the VM's *actual* location, and one
    /// whose destination is where the VM already is is skipped. So a
    /// failed migration does not poison the run: the VM simply stays
    /// where it is, and later requests adapt. A request's `deadline` is
    /// not consulted — the session starts every move at `at`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`], before anything moves, unless every
    /// request names this VM, is pinned, and `at` never decreases.
    /// Otherwise propagates only non-fault errors (unknown hosts,
    /// filesystem failures); injected faults never produce an `Err`.
    pub fn run_schedule_with_faults<M, W>(
        &self,
        vm: &mut VmInstance<M>,
        schedule: &[MigrationRequest],
        workload: &mut W,
        plan: &FaultPlan,
    ) -> vecycle_types::Result<FaultedScheduleRun>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
    {
        let mut moves = Vec::with_capacity(schedule.len());
        let mut clock = SimTime::EPOCH;
        for r in schedule {
            let Some(to) = r.pinned_to.filter(|_| r.vm == vm.id && r.at >= clock) else {
                return Err(Error::InvalidConfig {
                    reason: format!("{r:?} is not a pinned request for {} in time order", vm.id),
                });
            };
            moves.push((r.at, to));
            clock = r.at;
        }
        vecycle_faults::observe_plan(self.metrics(), plan);
        let mut reports = Vec::with_capacity(moves.len());
        let mut events = Vec::new();
        let mut clock = SimTime::EPOCH;
        for (leg_idx, (at, to)) in moves.into_iter().enumerate() {
            workload.advance(&mut vm.guest, at.duration_since(clock));
            clock = at;
            if to == vm.location {
                continue;
            }
            reports.push(self.migrate_with_faults(
                vm,
                to,
                clock,
                workload,
                plan,
                leg_idx,
                &mut events,
            )?);
        }
        Ok(FaultedScheduleRun { reports, events })
    }
}
