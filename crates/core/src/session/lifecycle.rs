//! The session's checkpoint-lifecycle half: finding a recyclable
//! checkpoint at the destination, choosing a strategy from what it
//! found, persisting the post-migration checkpoint through quota
//! admission, and surviving destination-host crashes.
//!
//! Split from `session/mod.rs` so the retry loop reads as one page and
//! the lifecycle rules as another; everything here is `pub(super)`
//! plumbing for [`VeCycleSession`].

use std::sync::Arc;

use vecycle_checkpoint::{
    Checkpoint, CheckpointFetch, ChecksumIndex, EvictionReason, EvictionRecord, GoneReason,
    IndexSeries, PartialCheckpoint,
};
use vecycle_faults::FaultCause;
use vecycle_host::Host;
use vecycle_mem::MutableMemory;
use vecycle_types::{SimTime, VmId};

use crate::{estimate, MigrationEngine, MigrationReport, Strategy};

use super::{ProbeSeries, RecyclePolicy, SessionEvent, VeCycleSession, VmInstance};

/// The fault-shaped reason recycling is impossible, if any — what a
/// completed migration reports as its `FellBackToFull` cause.
fn fallback_cause(fetch: &CheckpointFetch) -> Option<FaultCause> {
    match fetch {
        CheckpointFetch::Usable(_) | CheckpointFetch::Missing => None,
        // A quarantined checkpoint *is* a corrupt checkpoint — the
        // scrub just found it before the load did.
        CheckpointFetch::Corrupt | CheckpointFetch::Gone(GoneReason::Quarantined) => {
            Some(FaultCause::CorruptCheckpoint)
        }
        CheckpointFetch::Gone(GoneReason::Evicted) => Some(FaultCause::CheckpointEvicted),
    }
}

/// Refills `index` from a stored checkpoint's digest table, borrowed.
fn refill_from(index: &mut ChecksumIndex, checkpoint: &Checkpoint) {
    let table = checkpoint.digest_table();
    index.refill(table.iter().copied());
}

impl VeCycleSession {
    /// Finds a recyclable checkpoint of `vm` at `dest`, narrates what the
    /// store did to answer and counts the answer in
    /// `session_checkpoint_fetch_total{result}`. With `inject_corrupt` the fault plan says
    /// the stored bytes are bad, so whatever is there is discarded
    /// unread. Corrupt checkpoints are discarded — worst case VeCycle
    /// behaves like plain dedup, never worse (§3's invariant that
    /// recycling is an optimisation, not a dependency).
    pub(super) fn fetch_checkpoint(
        &self,
        vm: VmId,
        dest: &Host,
        inject_corrupt: bool,
        events: &mut Vec<SessionEvent>,
    ) -> vecycle_types::Result<CheckpointFetch> {
        let fetch = if inject_corrupt {
            match dest.store().discard(vm)? {
                true => CheckpointFetch::Corrupt,
                false => CheckpointFetch::Missing,
            }
        } else {
            let (fetch, warmed) = dest.store().fetch(vm)?;
            if let Some(outcome) = warmed {
                // Warming a cold catalog goes through quota admission
                // like any save; under pressure it can itself evict.
                self.series.store.record_save(dest, &outcome);
                self.record_evictions(dest, &outcome.evicted, events);
            }
            fetch
        };
        if matches!(fetch, CheckpointFetch::Corrupt) {
            self.record_event(
                events,
                SessionEvent::CorruptCheckpointDiscarded {
                    vm,
                    host: dest.id(),
                },
            );
        }
        self.series.fetch.of(fetch.label()).inc(1);
        Ok(fetch)
    }

    /// Refills the session's index through `fill`, recording the build.
    /// The refill is in place unless a strategy still holds the index
    /// (the adaptive probe's, for a resumed leg); then this leg's index
    /// is a fresh one, kept for the next leg.
    fn refilled(
        &self,
        series: &IndexSeries,
        fill: impl FnOnce(&mut ChecksumIndex),
    ) -> Arc<ChecksumIndex> {
        let unshared = |index: &Arc<_>| Arc::strong_count(index) == 1;
        let mut index = self.index.take().filter(unshared).unwrap_or_default();
        fill(Arc::get_mut(&mut index).expect("no strategy holds the index"));
        series.record(&index);
        self.index.put(Arc::clone(&index));
        index
    }

    /// The index a first round can recycle from: a full checkpoint, a
    /// [`PartialCheckpoint`] from an aborted attempt, or both (their
    /// digests union into one index), refilled from the borrowed digest
    /// tables. `None` when the destination holds neither, which leaves
    /// sender-side dedup.
    fn recycle_index(
        &self,
        checkpoint: Option<&Checkpoint>,
        partial: Option<&PartialCheckpoint>,
    ) -> Option<Arc<ChecksumIndex>> {
        let [checkpoint_index, partial_index, merged_index] = &self.series.index;
        Some(match (checkpoint, partial) {
            (Some(cp), Some(p)) => {
                self.refilled(merged_index, |i| p.refill_index(i, cp.digest_table()))
            }
            (Some(cp), None) => self.refilled(checkpoint_index, |i| refill_from(i, cp)),
            (None, Some(p)) => self.refilled(partial_index, |i| p.refill_index(i, &[])),
            (None, None) => return None,
        })
    }

    /// Picks the first-round strategy from what the destination holds.
    /// Also reports why recycling was skipped, if it was skipped for a
    /// fault-shaped reason.
    pub(super) fn strategy_for<M: MutableMemory>(
        &self,
        vm: &VmInstance<M>,
        fetch: &CheckpointFetch,
        partial: Option<&PartialCheckpoint>,
    ) -> (Strategy, Option<FaultCause>) {
        let partial = partial
            .filter(|p| p.page_count() == vm.guest().page_count() && p.landed_pages().as_u64() > 0);
        let cause = fallback_cause(fetch);
        let cp = match fetch {
            CheckpointFetch::Usable(cp) if cp.page_count() == vm.guest().page_count() => {
                Some(cp.as_ref())
            }
            _ => None,
        };
        let recycling = |index: Option<Arc<ChecksumIndex>>| match index {
            Some(index) => Strategy::vecycle_with_index(index).with_dedup(),
            None => Strategy::dedup(),
        };
        match (self.policy, cp) {
            (RecyclePolicy::Baseline, _) => (Strategy::full(), None),
            (RecyclePolicy::DedupOnly, _) => (recycling(self.recycle_index(None, partial)), None),
            (RecyclePolicy::VeCycle, _) | (RecyclePolicy::Adaptive, None) => {
                (recycling(self.recycle_index(cp, partial)), cause)
            }
            (RecyclePolicy::Adaptive, Some(cp)) => {
                // A hash-bound engine gains from no similarity: no probe.
                let e = &self.engine;
                let ram = vm.guest().page_count().bytes();
                let threshold = estimate::break_even_similarity(ram, e.link, &e.cpu, e.algorithm);
                let recycled = threshold.and_then(|threshold| {
                    let [checkpoint_index, ..] = &self.series.index;
                    let probe = self.refilled(checkpoint_index, |i| refill_from(i, cp));
                    let estimate =
                        MigrationEngine::estimate_similarity(vm.guest().memory(), &probe, 256);
                    let recycle = estimate >= threshold;
                    let series =
                        (self.series.probe).get_or_init(|| ProbeSeries::new(self.metrics()));
                    series.estimate.set(estimate.as_f64());
                    let verdict = if recycle { "recycle" } else { "fallback" };
                    series.verdicts.of(verdict).inc(1);
                    recycle.then_some(probe)
                });
                match (recycled, partial) {
                    (Some(probe), None) => (recycling(Some(probe)), None),
                    (Some(_), Some(_)) => (recycling(self.recycle_index(Some(cp), partial)), None),
                    (None, _) => (
                        recycling(self.recycle_index(None, partial)),
                        Some(FaultCause::LowSimilarity),
                    ),
                }
            }
        }
    }

    /// Appends one `CheckpointEvicted` event per *quota* eviction —
    /// routine replacement by a newer save is not an incident.
    fn record_evictions(
        &self,
        host: &Host,
        evicted: &[EvictionRecord],
        events: &mut Vec<SessionEvent>,
    ) {
        let policy = host.store().policy();
        for record in evicted {
            if record.reason == EvictionReason::Quota {
                self.record_event(
                    events,
                    SessionEvent::CheckpointEvicted {
                        vm: record.vm,
                        host: host.id(),
                        policy,
                        reason: record.reason,
                    },
                );
            }
        }
    }

    /// "After the migration, the source writes a checkpoint of the VM to
    /// its local disk" — the state that just left, pushed through quota
    /// admission and mirrored to the durable store. The write is off the
    /// critical path but its cost is accounted in the setup report.
    pub(super) fn persist_checkpoint<M: MutableMemory>(
        &self,
        vm: &VmInstance<M>,
        source: &Host,
        now: SimTime,
        crash_on_save: bool,
        report: &mut MigrationReport,
        events: &mut Vec<SessionEvent>,
    ) -> vecycle_types::Result<()> {
        if crash_on_save {
            // The host dies mid-write: the fsync + rename protocol
            // guarantees the *previous* checkpoint survives intact, so
            // only the fresh capture is lost.
            self.series.saves.of("lost").inc(1);
            self.record_event(
                events,
                SessionEvent::CheckpointSaveLost {
                    vm: vm.id(),
                    host: source.id(),
                },
            );
            return Ok(());
        }
        let checkpoint = Checkpoint::capture(vm.id(), now, vm.guest().memory());
        let outcome = source.save_checkpoint(checkpoint)?;
        if !outcome.stored {
            self.series.saves.of("refused").inc(1);
            self.record_event(
                events,
                SessionEvent::CheckpointSaveRefused {
                    vm: vm.id(),
                    host: source.id(),
                },
            );
            self.series.store.record(source);
            return Ok(());
        }
        self.series.saves.of("saved").inc(1);
        self.series.store.record_save(source, &outcome);
        self.record_evictions(source, &outcome.evicted, events);
        report.setup_mut().checkpoint_write = source.disk().sequential_time(vm.guest().ram_size());
        Ok(())
    }

    /// Plays out a destination-host crash and restart: the in-memory
    /// catalog dies with the host, the disk store survives, and the
    /// restart scrubs every file — quarantining rot, re-admitting the
    /// clean ones through quota admission.
    pub(super) fn crash_and_restart(
        &self,
        dest: &Host,
        events: &mut Vec<SessionEvent>,
    ) -> vecycle_types::Result<()> {
        dest.crash();
        self.record_event(events, SessionEvent::HostCrashed { host: dest.id() });
        let scrub = dest.restart()?;
        for &vm in &scrub.quarantined {
            self.record_event(
                events,
                SessionEvent::CheckpointQuarantined {
                    vm,
                    host: dest.id(),
                },
            );
        }
        self.record_evictions(dest, &scrub.evicted, events);
        self.record_event(
            events,
            SessionEvent::HostRestarted {
                host: dest.id(),
                verified: scrub.verified,
                quarantined: scrub.quarantined.len() as u64,
            },
        );
        self.series.store.record_restart(dest, &scrub);
        Ok(())
    }
}
