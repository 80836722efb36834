//! [`MigrationEngine`]: configuration plus thin drivers over the one
//! transfer pipeline.
//!
//! Every public migration flavor — static, gang, live, faulted — is a
//! policy loop over [`TransferLoop`](crate::pipeline::rounds::TransferLoop):
//! the drivers here decide *when* to run another round or hand over;
//! the pipeline decides what a round costs, what a fault destroys and
//! what the observability layer sees. See [`crate::pipeline`] for the
//! module map and the invariants.

use std::sync::Arc;

use vecycle_faults::AttemptFaults;
use vecycle_host::{CpuSpec, DiskSpec};
use vecycle_mem::{workload::GuestWorkload, Guest, MemoryImage, MutableMemory};
use vecycle_net::LinkSpec;
use vecycle_obs::MetricsRegistry;
use vecycle_types::{DigestMap, PageCount, PageIndex, SimDuration};

use crate::pipeline::obs::EngineSeries;
use crate::pipeline::rounds::{DedupCache, LiveOutcome, TransferLoop};
use crate::pipeline::sink::{CountOnly, CutSink, MsgSink};
use crate::pipeline::wire_costs::{DeltaCompression, Xbzrle};
use crate::spare::Spare;
use crate::{LiveTranscript, MigrationReport, Strategy, Transcript};

/// How source and destination agree on which checksums the destination
/// holds (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeProtocol {
    /// The destination sends all its checksums in bulk before the first
    /// copy round — the paper's choice.
    Bulk,
    /// The source queries the destination per page; `pipeline_depth`
    /// queries are in flight at once. The paper expects this to be slow
    /// ("high frequency exchange of small messages") — the protocol
    /// ablation quantifies by how much.
    PerPage {
        /// Concurrent in-flight queries.
        pipeline_depth: u32,
    },
}

/// The migration engine: link, CPU and policy knobs.
///
/// Construct with [`MigrationEngine::new`] and adjust with the `with_*`
/// methods. No migration's result depends on an earlier one, so the
/// engine can be reused; it keeps only its last dedup table, for the
/// next migration to refill.
#[derive(Debug, Clone)]
pub struct MigrationEngine {
    pub(crate) link: LinkSpec,
    pub(crate) cpu: CpuSpec,
    pub(crate) dest_disk: DiskSpec,
    pub(crate) algorithm: vecycle_hash::ChecksumAlgorithm,
    pub(crate) exchange: ExchangeProtocol,
    pub(crate) max_rounds: u32,
    pub(crate) max_downtime: SimDuration,
    pub(crate) zero_suppression: bool,
    pub(crate) compression: Option<DeltaCompression>,
    pub(crate) xbzrle: Option<Xbzrle>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) series: Arc<EngineSeries>,
    /// The last single-VM migration's dedup table, for the next to refill.
    pub(crate) dedup_table: Spare<DigestMap<PageIndex>>,
}

impl MigrationEngine {
    /// Creates an engine with the paper's benchmark defaults: Phenom-II
    /// checksum rates, MD5, checkpoint on HDD, bulk exchange, QEMU-like
    /// round limit and 300 ms downtime target.
    pub fn new(link: LinkSpec) -> Self {
        let metrics = MetricsRegistry::new();
        MigrationEngine {
            link,
            cpu: CpuSpec::phenom_ii(),
            dest_disk: DiskSpec::hdd_samsung_hd204ui(),
            algorithm: vecycle_hash::ChecksumAlgorithm::Md5,
            exchange: ExchangeProtocol::Bulk,
            max_rounds: 30,
            max_downtime: SimDuration::from_millis(300),
            // QEMU 2.0 suppresses all-zero pages by default; the
            // prototype inherits it, so so do we.
            zero_suppression: true,
            compression: None,
            xbzrle: None,
            series: Arc::new(EngineSeries::new(&metrics)),
            metrics,
            dedup_table: Spare::default(),
        }
    }

    /// Replaces the CPU model.
    #[must_use]
    pub fn with_cpu(mut self, cpu: CpuSpec) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replaces the destination checkpoint disk model.
    #[must_use]
    pub fn with_dest_disk(mut self, disk: DiskSpec) -> Self {
        self.dest_disk = disk;
        self
    }

    /// Replaces the checksum algorithm (§3.4 ablation).
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: vecycle_hash::ChecksumAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Replaces the checksum-exchange protocol.
    #[must_use]
    pub fn with_exchange(mut self, exchange: ExchangeProtocol) -> Self {
        self.exchange = exchange;
        self
    }

    /// Limits the number of pre-copy rounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        assert!(max_rounds > 0, "need at least one round");
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the stop-and-copy downtime target.
    #[must_use]
    pub fn with_max_downtime(mut self, max_downtime: SimDuration) -> Self {
        self.max_downtime = max_downtime;
        self
    }

    /// Enables or disables QEMU-style zero-page suppression (default on).
    #[must_use]
    pub fn with_zero_page_suppression(mut self, enabled: bool) -> Self {
        self.zero_suppression = enabled;
        self
    }

    /// Enables delta compression of full-page payloads (default off).
    #[must_use]
    pub fn with_compression(mut self, compression: DeltaCompression) -> Self {
        self.compression = Some(compression);
        self
    }

    /// Enables XBZRLE delta encoding for re-sent pages (default off).
    #[must_use]
    pub fn with_xbzrle(mut self, xbzrle: Xbzrle) -> Self {
        self.xbzrle = Some(xbzrle);
        self
    }

    /// Shares a metrics registry with this engine (default: a fresh
    /// private one, so un-instrumented callers pay only a no-reader
    /// registry). The registry is purely an observer: attaching one
    /// never changes a single byte of any migration result.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.series = Arc::new(EngineSeries::new(&metrics));
        self.metrics = metrics;
        self
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Estimates the similarity between `vm` and a checkpoint index by
    /// probing `samples` evenly-spaced pages — the cheap test a
    /// deployment can run before committing to checksum the whole image
    /// (an always-busy VM gains little from VeCycle, §2.3).
    pub fn estimate_similarity<M: MemoryImage>(
        vm: &M,
        index: &vecycle_checkpoint::ChecksumIndex,
        samples: u64,
    ) -> vecycle_types::Ratio {
        let n = vm.page_count().as_u64();
        if n == 0 || samples == 0 {
            return vecycle_types::Ratio::ZERO;
        }
        let samples = samples.min(n);
        let mut hits = 0u64;
        // Weyl-sequence probing: deterministic but aperiodic, so guests
        // with regular write patterns (every k-th page) don't alias the
        // sample (a plain stride would).
        for k in 0..samples {
            let mixed = (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let idx = PageIndex::new(mixed % n);
            if index.contains(vm.page_digest(idx)) {
                hits += 1;
            }
        }
        vecycle_types::Ratio::new(hits as f64 / samples as f64)
    }

    /// The engine's link.
    pub fn link(&self) -> LinkSpec {
        self.link
    }

    /// Migrates a *static* memory image (no concurrent guest writes):
    /// one copy round plus the completion handshake. This is the
    /// idle-VM measurement shape of §4.4.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the image is
    /// empty.
    pub fn migrate<M: MemoryImage>(
        &self,
        vm: &M,
        strategy: Strategy,
    ) -> vecycle_types::Result<MigrationReport> {
        let mut sent = DedupCache::single_vm(&self.dedup_table, &strategy, vm.page_count());
        self.static_round("static", vm, &strategy, sent.as_mut(), &mut CountOnly)
    }

    /// Like [`MigrationEngine::migrate`], but also records the message
    /// stream so a destination can replay it (see
    /// [`crate::apply_transcript`]).
    ///
    /// # Errors
    ///
    /// Same as [`MigrationEngine::migrate`].
    pub fn migrate_with_transcript<M: MemoryImage>(
        &self,
        vm: &M,
        strategy: Strategy,
    ) -> vecycle_types::Result<(MigrationReport, Transcript)> {
        let mut transcript = Transcript::new();
        let mut sent = DedupCache::single_vm(&self.dedup_table, &strategy, vm.page_count());
        let report = self.static_round("static", vm, &strategy, sent.as_mut(), &mut transcript)?;
        Ok((report, transcript))
    }

    /// One static transfer: a first round and an empty stop-and-copy
    /// flush, against the caller's dedup cache (if it keeps one).
    fn static_round<M: MemoryImage, S: MsgSink>(
        &self,
        mode: &'static str,
        vm: &M,
        strategy: &Strategy,
        sent: Option<&mut DedupCache>,
        sink: &mut S,
    ) -> vecycle_types::Result<MigrationReport> {
        if vm.page_count() == PageCount::ZERO {
            return Err(vecycle_types::Error::InvalidConfig {
                reason: "cannot migrate an empty memory image".into(),
            });
        }
        let faults = AttemptFaults::none();
        let mut tl = TransferLoop::start(self, mode, strategy, vm.ram_size(), &faults, sink);
        tl.first_round(vm, strategy, sent)
            .expect("a fault-free transfer cannot abort");
        let downtime = tl
            .stop_copy(vm, &[])
            .expect("a fault-free transfer cannot abort");
        Ok(tl.complete(strategy, vm.ram_size(), downtime, true))
    }

    /// Migrates a *gang* of VMs to the same destination with a shared
    /// sender-side dedup cache — cluster-level deduplication in the
    /// spirit of VMFlock/Shrinker (related work §5): identical pages
    /// across co-migrating VMs cross the wire once.
    ///
    /// `vms[i]` migrates under `strategies[i]`; cross-VM dedup only
    /// applies where a strategy enables dedup.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the slices
    /// have different lengths, the gang is empty, or any image is empty.
    pub fn migrate_gang<M: MemoryImage>(
        &self,
        vms: &[&M],
        strategies: &[Strategy],
    ) -> vecycle_types::Result<Vec<MigrationReport>> {
        if vms.is_empty() || vms.len() != strategies.len() {
            return Err(vecycle_types::Error::InvalidConfig {
                reason: format!(
                    "gang of {} VMs with {} strategies",
                    vms.len(),
                    strategies.len()
                ),
            });
        }
        // Shared by every member: a later member that dedups references
        // what any earlier one sent, checksum sends included.
        let mut sent = DedupCache::gang();
        vms.iter()
            .zip(strategies)
            .map(|(vm, strategy)| {
                self.static_round("gang", *vm, strategy, Some(&mut sent), &mut CountOnly)
            })
            .collect()
    }

    /// Migrates a *live* guest: the workload keeps dirtying memory while
    /// rounds are in flight, exactly as in §3.1's description.
    ///
    /// The guest's dirty tracker is cleared at the start (dirty logging
    /// begins when migration begins) and left cleared on return; the
    /// guest's memory reflects all writes the workload performed during
    /// the migration.
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the guest has
    /// no pages.
    pub fn migrate_live<M, W>(
        &self,
        guest: &mut Guest<M>,
        workload: &mut W,
        strategy: Strategy,
    ) -> vecycle_types::Result<MigrationReport>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
    {
        self.migrate_live_into(guest, workload, strategy, &mut CountOnly)
            .map(completed)
    }

    /// Like [`MigrationEngine::migrate_live`], but also records the full
    /// per-round message stream so a remote destination can replay it.
    ///
    /// Recording is a pure observer: the report is bit-identical to
    /// [`MigrationEngine::migrate_live`] for the same guest, workload and
    /// strategy (pinned by a unit test in `transcript.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the guest has
    /// no pages.
    pub fn migrate_live_with_transcript<M, W>(
        &self,
        guest: &mut Guest<M>,
        workload: &mut W,
        strategy: Strategy,
    ) -> vecycle_types::Result<(MigrationReport, LiveTranscript)>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
    {
        let mut recorder = LiveTranscript::default();
        let outcome = self.migrate_live_into(guest, workload, strategy, &mut recorder)?;
        Ok((completed(outcome), recorder))
    }

    /// Like [`MigrationEngine::migrate_live`], but every page message
    /// and round delimiter is pushed into `sink` the moment it exists —
    /// the entry point for a caller that streams the migration instead
    /// of recording it.
    ///
    /// The sink is a pure observer of a transfer it lets complete: the
    /// report is bit-identical to [`MigrationEngine::migrate_live`]. A
    /// sink that reports the link dead ([`MsgSink::page`] returning
    /// `false`) ends the attempt as [`LiveOutcome::Aborted`], the
    /// wreckage carrying [`MsgSink::landed`].
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the guest has
    /// no pages.
    pub fn migrate_live_into<M, W, S>(
        &self,
        guest: &mut Guest<M>,
        workload: &mut W,
        strategy: Strategy,
        sink: &mut S,
    ) -> vecycle_types::Result<LiveOutcome>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
        S: MsgSink,
    {
        self.live_rounds(guest, workload, strategy, &AttemptFaults::none(), sink)
    }

    /// Like [`MigrationEngine::migrate_live`], but the attempt runs under
    /// injected faults and may therefore die mid-flight.
    ///
    /// With [`AttemptFaults::none`] this is *exactly* `migrate_live`:
    /// every fault check is a no-op and the report is bit-identical. An
    /// armed link cut makes each message land at the destination only if
    /// the cumulative forward payload stays under the cut point; when the
    /// link dies the attempt returns [`LiveOutcome::Aborted`] carrying
    /// the per-page landed digests — the raw material a session layer
    /// turns into a [`vecycle_checkpoint::PartialCheckpoint`] and
    /// recycles on retry. The guest is left as the failed attempt really
    /// left it: memory reflects all workload writes up to the abort. (A
    /// retry restarts dirty logging and re-scans every page in its own
    /// round 1, so the aborted attempt's residual dirty set need not
    /// survive.)
    ///
    /// # Errors
    ///
    /// Returns [`vecycle_types::Error::InvalidConfig`] if the guest has
    /// no pages. Injected faults never surface as `Err` — they are data,
    /// in the returned [`LiveOutcome`].
    pub fn migrate_live_faulted<M, W>(
        &self,
        guest: &mut Guest<M>,
        workload: &mut W,
        strategy: Strategy,
        faults: &AttemptFaults,
    ) -> vecycle_types::Result<LiveOutcome>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
    {
        match faults.cut_after {
            Some(point) => {
                let mut cut = CutSink::new(point.resolve(guest.ram_size()), guest.page_count());
                self.live_rounds(guest, workload, strategy, faults, &mut cut)
            }
            None => self.live_rounds(guest, workload, strategy, faults, &mut CountOnly),
        }
    }

    /// The one live-migration driver: the policy loop over
    /// [`TransferLoop`], for any faults and any sink.
    fn live_rounds<M, W, S>(
        &self,
        guest: &mut Guest<M>,
        workload: &mut W,
        strategy: Strategy,
        faults: &AttemptFaults,
        sink: &mut S,
    ) -> vecycle_types::Result<LiveOutcome>
    where
        M: MutableMemory,
        W: GuestWorkload<M>,
        S: MsgSink,
    {
        if guest.page_count() == PageCount::ZERO {
            return Err(vecycle_types::Error::InvalidConfig {
                reason: "cannot migrate an empty guest".into(),
            });
        }
        let mut tl = TransferLoop::start(self, "live", &strategy, guest.ram_size(), faults, sink);

        guest.dirty_mut().clear();
        let mut sent = DedupCache::single_vm(&self.dedup_table, &strategy, guest.page_count());
        if let Err(wreck) = tl.first_round(&*guest, &strategy, sent.as_mut()) {
            return Ok(LiveOutcome::Aborted(wreck));
        }
        workload.advance(guest, tl.spiked(1, tl.last_round_duration()));
        let mut dirty = guest.dirty_mut().drain();
        self.obs_dirty(&dirty);

        // Iterative pre-copy: re-send dirty pages until the residual set
        // fits the downtime budget or the round limit is hit (the
        // convergence guard).
        while tl.rounds_len() < self.max_rounds as usize
            && dirty.len() as u64 > self.downtime_budget_pages()
        {
            let round_no = tl.rounds_len() as u32 + 1;
            match tl.resend_round(&*guest, &dirty, &strategy, sent.as_mut()) {
                Ok(duration) => {
                    workload.advance(guest, tl.spiked(round_no, duration));
                    dirty = guest.dirty_mut().drain();
                    self.obs_dirty(&dirty);
                }
                Err(wreck) => return Ok(LiveOutcome::Aborted(wreck)),
            }
        }

        // Convergence verdict: did the residue genuinely fit the downtime
        // budget, or did the round limit force the handover?
        let converged = dirty.len() as u64 <= self.downtime_budget_pages();

        let downtime = match tl.stop_copy(&*guest, &dirty) {
            Ok(downtime) => downtime,
            Err(wreck) => return Ok(LiveOutcome::Aborted(wreck)),
        };
        Ok(LiveOutcome::Completed(tl.complete(
            &strategy,
            guest.ram_size(),
            downtime,
            converged,
        )))
    }

    /// Pages the final round may still carry within the downtime target.
    ///
    /// Divides the downtime byte budget by the wire size a resent page
    /// *actually* occupies: XBZRLE deltas and compressed payloads shrink
    /// resends, so more residual pages fit the same pause — using the
    /// uncompressed size here would stop iterating too early and then
    /// overshoot the downtime target it was meant to respect.
    pub(crate) fn downtime_budget_pages(&self) -> u64 {
        let budget = self.link.effective_bandwidth().bytes_in(self.max_downtime);
        budget.as_u64() / self.wire_costs().resend_page().as_u64()
    }
}

/// Unwraps an attempt whose sink lands every message.
fn completed(outcome: LiveOutcome) -> MigrationReport {
    match outcome {
        LiveOutcome::Completed(report) => report,
        LiveOutcome::Aborted(_) => unreachable!("a fault-free attempt cannot abort"),
    }
}
