//! [`TransferLoop`]: the one abortable transfer pipeline every
//! migration flavor drives.
//!
//! A transfer is: setup, a first round, zero or more resend rounds, a
//! stop-and-copy flush, completion. The loop owns the ledgers, the
//! migration span and the elapsed clock; the drivers in `engine.rs` own
//! only the *policy* — when to stop iterating, what the workload
//! dirties in between, which [`MsgSink`] the messages go to.
//!
//! Every page message of every round kind goes through one step,
//! [`TransferLoop::emit`]: price the message, hand it to the sink, count
//! it if it landed. A sink that reports the link dead turns the round
//! into an [`AbortedTransfer`], assembled in [`TransferLoop::abort`] and
//! nowhere else. The clean path is this loop with
//! [`AttemptFaults::none`] and a sink that lands everything: every fault
//! check is a no-op and the results are bit-identical whichever sink is
//! attached, a property pinned by the golden suite,
//! `tests/parallel_props.rs` and `tests/stream_identity.rs`.
//!
//! Round 1 is one ascending walk over the image
//! ([`TransferLoop::scan`]): each page is classified against the dedup
//! cache as the walk finds it and its message goes straight into the
//! emission step, so no round is ever materialised before its first
//! byte reaches the sink.

use vecycle_faults::{AttemptFaults, FaultCause};
use vecycle_mem::MemoryImage;
use vecycle_net::{wire, LinkSpec, TrafficCategory, TrafficLedger};
use vecycle_obs::SpanId;
use vecycle_types::{Bytes, BytesPerSec, DigestMap, PageCount, PageDigest, PageIndex, SimDuration};

use super::obs::{obs_pages, Direction};
use super::sink::MsgSink;
use crate::spare::Spare;
use crate::strategy::PageAction;
use crate::{
    ExchangeProtocol, MigrationEngine, MigrationReport, PageMsg, RoundReport, SetupReport, Strategy,
};

/// What a (possibly faulted) live migration attempt produced.
///
/// Transient — matched and consumed immediately by the session, never
/// stored in bulk, so the variant size gap is harmless.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum LiveOutcome {
    /// The attempt ran to handover.
    Completed(MigrationReport),
    /// The sink reported the link dead mid-flight — under
    /// `migrate_live_faulted`, the injected link cut.
    Aborted(AbortedTransfer),
}

/// The wreckage of an aborted migration attempt: what landed at the
/// destination before the link died, and what the attempt cost.
///
/// The landed map is the raw material of a
/// [`vecycle_checkpoint::PartialCheckpoint`]; the session layer wraps it
/// (the engine does not know VM identities).
#[derive(Debug, Clone)]
pub struct AbortedTransfer {
    /// Why the attempt died.
    pub cause: FaultCause,
    /// Per guest page, the digest of the content that reached the
    /// destination before the cut (page order; `None` = never arrived).
    pub landed: Vec<Option<PageDigest>>,
    /// Source traffic spent on the attempt (all of it wasted).
    pub traffic: Bytes,
    /// Time spent on the attempt before it died.
    pub elapsed: SimDuration,
}

impl AbortedTransfer {
    /// Pages whose content reached the destination.
    pub fn landed_pages(&self) -> PageCount {
        PageCount::new(self.landed.iter().filter(|d| d.is_some()).count() as u64)
    }
}

/// Per-class page-message counts: what a round landed, or what the
/// first-round scan classified.
#[derive(Default)]
struct PageCounts {
    full: u64,
    checksums: u64,
    refs: u64,
    zeros: u64,
}

impl PageCounts {
    /// The counter of the class `msg` belongs to.
    fn class_mut(&mut self, msg: &PageMsg) -> &mut u64 {
        match msg {
            PageMsg::Full { .. } => &mut self.full,
            PageMsg::Checksum { .. } => &mut self.checksums,
            PageMsg::DedupRef { .. } => &mut self.refs,
            PageMsg::Zero { .. } => &mut self.zeros,
        }
    }

    /// The page-message bytes at `full_cost` per full page.
    fn bytes(&self, full_cost: Bytes) -> Bytes {
        full_cost * self.full
            + wire::checksum_msg() * self.checksums
            + wire::dedup_ref_msg() * self.refs
            + wire::zero_page_msg() * self.zeros
    }
}

/// What the first-round scan hands back to its round.
struct Scan {
    /// Dirty-tracking skips (count only; they emit nothing).
    skipped: u64,
    landed: PageCounts,
    /// False once the sink reported the link dead.
    alive: bool,
}

/// The sender-side dedup cache: digest → the first page that carried
/// the content (DESIGN §13.2). Which sends it records is fixed where it
/// is built, not by the rounds that fill it:
///
/// * a single-VM migration's cache ([`DedupCache::single_vm`]) records
///   full sends only. Its one strategy answers every digest in its
///   immutable index before it reads the cache, so an entry for a
///   checksum send could never be read;
/// * a gang's cache ([`DedupCache::gang`]) records checksum sends too:
///   a later member whose index lacks the content must still reference
///   an earlier member's checksum send of it.
pub(crate) struct DedupCache<'e> {
    first: DigestMap<PageIndex>,
    records_checksums: bool,
    /// Where a single-VM cache's table goes when its migration ends,
    /// aborted or not: the engine's spare, for the next one to refill.
    spare: Option<&'e Spare<DigestMap<PageIndex>>>,
}

impl<'e> DedupCache<'e> {
    /// A single-VM migration's cache: none unless the strategy reads
    /// one. It refills the engine's `spare` table, emptied, when there
    /// is one. Without an index every page may be a full send, so the
    /// table is sized to the page count and never rehashes; with one,
    /// only the pages the index misses can land in it, so it reserves
    /// nothing and grows from whatever room it kept.
    pub(crate) fn single_vm(
        spare: &'e Spare<DigestMap<PageIndex>>,
        strategy: &Strategy,
        pages: PageCount,
    ) -> Option<Self> {
        let capacity = strategy.index().map_or(pages.as_usize(), |_| 0);
        strategy.dedups().then(|| {
            let mut first = spare.take().unwrap_or_default();
            first.clear();
            first.reserve(capacity);
            DedupCache {
                first,
                records_checksums: false,
                spare: Some(spare),
            }
        })
    }

    /// A gang's shared cache, maintained by every member, dedup or not,
    /// because a later member may dedup. Capacity 14 is `std`'s
    /// 16-bucket table.
    pub(crate) fn gang() -> Self {
        DedupCache {
            first: DigestMap::with_capacity_and_hasher(14, Default::default()),
            records_checksums: true,
            spare: None,
        }
    }
}

impl Drop for DedupCache<'_> {
    fn drop(&mut self) {
        if let Some(spare) = self.spare {
            spare.put(std::mem::take(&mut self.first));
        }
    }
}

/// One in-flight transfer: ledgers, span, rounds, elapsed pre-copy time
/// and the sink its messages go to, advanced by the driver one round at
/// a time.
pub(crate) struct TransferLoop<'e, S: MsgSink> {
    engine: &'e MigrationEngine,
    faults: &'e AttemptFaults,
    sink: &'e mut S,
    span: SpanId,
    setup: SetupReport,
    forward: TrafficLedger,
    reverse: TrafficLedger,
    rounds: Vec<RoundReport>,
    elapsed: SimDuration,
}

impl<'e, S: MsgSink> TransferLoop<'e, S> {
    /// Opens the migration span and runs the setup phase.
    pub(crate) fn start(
        engine: &'e MigrationEngine,
        mode: &'static str,
        strategy: &Strategy,
        ram: Bytes,
        faults: &'e AttemptFaults,
        sink: &'e mut S,
    ) -> Self {
        let span = engine.obs_migration_start(mode, strategy);
        let forward = TrafficLedger::new();
        let mut reverse = TrafficLedger::new();
        let setup = engine.setup_phase(strategy, ram, &mut reverse);
        TransferLoop {
            engine,
            faults,
            sink,
            span,
            setup,
            forward,
            reverse,
            rounds: Vec::new(),
            elapsed: SimDuration::ZERO,
        }
    }

    /// Rounds completed so far.
    pub(crate) fn rounds_len(&self) -> usize {
        self.rounds.len()
    }

    /// Duration of the most recent round.
    pub(crate) fn last_round_duration(&self) -> SimDuration {
        self.rounds.last().map_or(SimDuration::ZERO, |r| r.duration)
    }

    /// The workload-advance time for a round under a possible
    /// dirty-spike fault.
    pub(crate) fn spiked(&self, round: u32, duration: SimDuration) -> SimDuration {
        spiked_duration(self.faults, round, duration)
    }

    /// The one emission step every page message of every round goes
    /// through: price it, offer it to the sink, count it if it landed.
    /// Returns false if the sink reports the link dead.
    fn emit(
        &mut self,
        msg: PageMsg,
        digest: PageDigest,
        full_cost: Bytes,
        landed: &mut PageCounts,
    ) -> bool {
        let size = match msg {
            PageMsg::Full { .. } => full_cost,
            PageMsg::Checksum { .. } => wire::checksum_msg(),
            PageMsg::DedupRef { .. } => wire::dedup_ref_msg(),
            PageMsg::Zero { .. } => wire::zero_page_msg(),
        };
        let class = landed.class_mut(&msg);
        let ok = self.sink.page(msg, digest, size);
        *class += u64::from(ok);
        ok
    }

    /// The first-round scan: one ascending walk over the image, each
    /// page classified against the dedup cache as the walk finds it and
    /// its message emitted on the spot. Page order alone fixes every
    /// dedup winner: a content's first sender is the lowest page that
    /// announces it, after whatever an earlier gang VM left in `sent`.
    ///
    /// A dead link stops the offering, not the classification: the scan
    /// counters and `sent` cover the whole image either way. Without a
    /// cache (a strategy that never dedups never reads one) the pages
    /// classify against an empty map.
    fn scan<M: MemoryImage>(
        &mut self,
        vm: &M,
        strategy: &Strategy,
        mut sent: Option<&mut DedupCache>,
        full_cost: Bytes,
    ) -> Scan {
        debug_assert!(sent.is_some() || !strategy.dedups());
        let no_cache = DigestMap::default();
        let zero_suppression = self.engine.zero_suppression;
        let n = vm.page_count().as_u64();
        self.sink.reserve(n as usize);
        // Every non-skipped page by class, whether or not the link lived
        // to carry its message.
        let mut classified = PageCounts::default();
        let mut scan = Scan {
            skipped: 0,
            landed: PageCounts::default(),
            alive: true,
        };
        for idx in (0..n).map(PageIndex::new) {
            let digest = vm.page_digest(idx);
            let cache = sent.as_deref().map_or(&no_cache, |c| &c.first);
            let msg = match strategy.classify(idx, digest, cache) {
                PageAction::Skip => {
                    scan.skipped += 1;
                    continue;
                }
                // Zero suppression applies whenever a payload would be
                // sent: a 13-byte marker beats both the full page and
                // the 28-byte checksum message, and announces nothing.
                _ if zero_suppression && digest.is_zero_page() => PageMsg::Zero { idx },
                PageAction::SendFull => {
                    remember(&mut sent, digest, idx, false);
                    // The message shares the guest's buffer; only a sink
                    // that reads the message is worth even the handle.
                    let bytes = if S::PER_MESSAGE && scan.alive {
                        vm.page_bytes(idx).cloned()
                    } else {
                        None
                    };
                    PageMsg::Full { idx, digest, bytes }
                }
                PageAction::SendChecksum => {
                    remember(&mut sent, digest, idx, true);
                    PageMsg::Checksum { idx, digest }
                }
                PageAction::SendDedupRef(source) => PageMsg::DedupRef { idx, source },
            };
            *classified.class_mut(&msg) += 1;
            if scan.alive {
                scan.alive = self.emit(msg, digest, full_cost, &mut scan.landed);
            }
        }
        obs_pages(
            &self.engine.series.scan,
            &[
                scan.skipped,
                classified.zeros,
                classified.checksums,
                classified.refs,
                classified.full,
            ],
        );
        scan
    }

    /// Emits one message per dirty page, in ascending page order (so
    /// dedup cache updates stay deterministic across runs): a zero
    /// marker for a suppressed all-zero page, otherwise whatever
    /// `classify` decides. Returns what landed and whether the link
    /// survived the walk.
    fn emit_dirty<M: MemoryImage>(
        &mut self,
        vm: &M,
        dirty: &[PageIndex],
        full_cost: Bytes,
        mut classify: impl FnMut(PageIndex, PageDigest) -> PageAction,
    ) -> (PageCounts, bool) {
        let zero_suppression = self.engine.zero_suppression;
        self.sink.reserve(dirty.len());
        let mut landed = PageCounts::default();
        for &idx in dirty {
            let digest = vm.page_digest(idx);
            let msg = if zero_suppression && digest.is_zero_page() {
                PageMsg::Zero { idx }
            } else {
                match classify(idx, digest) {
                    PageAction::SendFull => PageMsg::Full {
                        idx,
                        digest,
                        bytes: vm.page_bytes(idx).filter(|_| S::PER_MESSAGE).cloned(),
                    },
                    PageAction::SendChecksum => PageMsg::Checksum { idx, digest },
                    PageAction::SendDedupRef(source) => PageMsg::DedupRef { idx, source },
                    PageAction::Skip => unreachable!("a dirty page is never skipped"),
                }
            };
            if !self.emit(msg, digest, full_cost, &mut landed) {
                return (landed, false);
            }
        }
        (landed, true)
    }

    /// Records a round's landed page messages in the forward ledger.
    fn record_landed(&mut self, landed: &PageCounts, full_cost: Bytes) {
        for (category, count, size) in [
            (TrafficCategory::FullPages, landed.full, full_cost),
            (
                TrafficCategory::Checksums,
                landed.checksums,
                wire::checksum_msg(),
            ),
            (
                TrafficCategory::DedupRefs,
                landed.refs,
                wire::dedup_ref_msg(),
            ),
            (
                TrafficCategory::ZeroMarkers,
                landed.zeros,
                wire::zero_page_msg(),
            ),
        ] {
            self.engine
                .rec_many(&mut self.forward, Direction::Forward, category, count, size);
        }
    }

    /// Records the round delimiter's control header.
    fn record_delimiter(&mut self) {
        self.record_forward(TrafficCategory::Control, Bytes::new(wire::MSG_HEADER));
    }

    /// Assembles the wreckage of a transfer whose sink reported the
    /// link dead in `round`, after `round_bytes` of that round landed
    /// (already in the ledger; the delimiter never made it out), and
    /// closes the span.
    fn abort(&mut self, round: u32, link: LinkSpec, round_bytes: Bytes) -> AbortedTransfer {
        let wreck = AbortedTransfer {
            cause: self.faults.abort_cause(),
            landed: self.sink.landed(),
            traffic: self.forward.total(),
            elapsed: self.elapsed.saturating_add(link.transfer_time(round_bytes)),
        };
        self.engine.obs_abort(self.span, round, &wreck);
        wreck
    }

    /// Runs round 1: the scan streams its messages into the sink, then
    /// the round is recorded. The sink can kill the round mid-stream;
    /// the `Err` carries the wreckage (already counted and span-closed).
    /// A round that survives is accounted from what landed, which is
    /// then exactly what the scan classified.
    pub(crate) fn first_round<M: MemoryImage>(
        &mut self,
        vm: &M,
        strategy: &Strategy,
        sent: Option<&mut DedupCache>,
    ) -> Result<(), AbortedTransfer> {
        let engine = self.engine;
        let link = engine.link_for_round(1, self.faults);
        let page_msg = engine.wire_costs().full_page();
        let Scan {
            skipped,
            landed,
            alive,
        } = self.scan(vm, strategy, sent, page_msg);
        self.record_landed(&landed, page_msg);
        if !alive {
            return Err(self.abort(1, link, landed.bytes(page_msg)));
        }
        self.sink.round_end(1);
        self.record_delimiter();
        let n = vm.page_count().as_u64();
        // Miyakodori ships the page-reuse bitmap so the destination knows
        // which checkpoint pages stand (1 bit per page).
        if skipped > 0 {
            self.record_forward(
                TrafficCategory::Control,
                Bytes::new(n.div_ceil(8) + wire::MSG_HEADER),
            );
        }

        let mut query_time = SimDuration::ZERO;
        if strategy.needs_exchange() {
            if let ExchangeProtocol::PerPage { pipeline_depth } = engine.exchange {
                // Every scanned page costs a query/reply pair; queries
                // pipeline `pipeline_depth` deep.
                self.record_forward_many(TrafficCategory::Checksums, n, wire::page_query());
                engine.rec_many(
                    &mut self.reverse,
                    Direction::Reverse,
                    TrafficCategory::Control,
                    n,
                    wire::page_query_reply(),
                );
                let rtts = n.div_ceil(u64::from(pipeline_depth.max(1)));
                query_time =
                    SimDuration::from_secs_f64(link.round_trip().as_secs_f64() * rtts as f64);
            }
        }

        let bytes = self.forward.total();
        // §3.4: with reuse, the checksum rate bounds the round from
        // below; checksums for all n pages are computed during round 1.
        let duration = link
            .transfer_time(bytes)
            .max(self.cpu_floor(strategy, n, landed.full))
            .saturating_add(query_time);
        self.push_round(RoundReport {
            round: 1,
            full_pages: PageCount::new(landed.full),
            checksum_pages: PageCount::new(landed.checksums),
            dedup_refs: PageCount::new(landed.refs),
            skipped_pages: PageCount::new(skipped),
            zero_pages: PageCount::new(landed.zeros),
            bytes_sent: bytes,
            duration,
        });
        Ok(())
    }

    /// The CPU-side lower bound of a round: hashing `hashed` pages (when
    /// the strategy computes checksums) and compressing `full` payloads
    /// (when compression is on) both overlap the wire.
    fn cpu_floor(&self, strategy: &Strategy, hashed: u64, full: u64) -> SimDuration {
        let engine = self.engine;
        let checksum_cost = if strategy.computes_checksums() {
            engine
                .cpu
                .checksum_time(engine.algorithm, Bytes::from_pages(hashed))
        } else {
            SimDuration::ZERO
        };
        let compress_cost = match engine.compression {
            Some(c) => c.time(Bytes::from_pages(full)),
            None => SimDuration::ZERO,
        };
        checksum_cost.max(compress_cost)
    }

    /// Seals a completed pre-copy round: span, histograms, clock.
    fn push_round(&mut self, round: RoundReport) {
        self.engine.obs_round(&round);
        self.elapsed = self.elapsed.saturating_add(round.duration);
        self.rounds.push(round);
    }

    /// Runs one resend round over the drained dirty set. Every resend
    /// goes back through the strategy: a guest that rewrites a page with
    /// content the destination's checkpoint already holds costs a 28-byte
    /// checksum message, not a full page (§3.1 — the re-dirtied page is
    /// classified exactly like a first-round page, minus the stale
    /// reusable-set check). Returns the round's duration, or the
    /// wreckage if the sink reported the link dead mid-round.
    pub(crate) fn resend_round<M: MemoryImage>(
        &mut self,
        vm: &M,
        dirty: &[PageIndex],
        strategy: &Strategy,
        mut sent: Option<&mut DedupCache>,
    ) -> Result<SimDuration, AbortedTransfer> {
        let engine = self.engine;
        let round_no = self.rounds.len() as u32 + 1;
        let link = engine.link_for_round(round_no, self.faults);
        let page_msg = engine.wire_costs().resend_page();
        let no_cache = DigestMap::default();
        let (landed, alive) = self.emit_dirty(vm, dirty, page_msg, |idx, digest| {
            let cache = sent.as_deref().map_or(&no_cache, |c| &c.first);
            let action = strategy.classify_resend(digest, cache);
            if matches!(action, PageAction::SendFull | PageAction::SendChecksum) {
                let checksum = matches!(action, PageAction::SendChecksum);
                remember(&mut sent, digest, idx, checksum);
            }
            action
        });
        let bytes = landed.bytes(page_msg);
        self.record_landed(&landed, page_msg);
        obs_pages(
            &engine.series.resend,
            &[landed.full, landed.checksums, landed.refs, landed.zeros],
        );
        if !alive {
            return Err(self.abort(round_no, link, bytes));
        }
        self.sink.round_end(round_no);
        self.record_delimiter();
        // Re-dirtied pages must be re-hashed before the index lookup.
        let duration = link.transfer_time(bytes).max(self.cpu_floor(
            strategy,
            dirty.len() as u64,
            landed.full,
        ));
        self.push_round(RoundReport {
            round: round_no,
            full_pages: PageCount::new(landed.full),
            checksum_pages: PageCount::new(landed.checksums),
            dedup_refs: PageCount::new(landed.refs),
            skipped_pages: PageCount::ZERO,
            zero_pages: PageCount::new(landed.zeros),
            bytes_sent: bytes,
            duration,
        });
        Ok(duration)
    }

    /// Pauses the guest, flushes the residual dirty set and hands over
    /// execution: one transfer plus the resume handshake. Returns the
    /// downtime, or the wreckage if the link died during the flush.
    ///
    /// The flush re-sends pages already transferred once, so XBZRLE
    /// applies here as well; zero-page suppression does too — a guest
    /// that zeroes pages during the last round pays 13-byte markers,
    /// not full pages, exactly as in the copy rounds.
    pub(crate) fn stop_copy<M: MemoryImage>(
        &mut self,
        vm: &M,
        dirty: &[PageIndex],
    ) -> Result<SimDuration, AbortedTransfer> {
        let engine = self.engine;
        let final_round = self.rounds.len() as u32 + 1;
        let link = engine.link_for_round(final_round, self.faults);
        let page_msg = engine.wire_costs().resend_page();
        let (landed, alive) = self.emit_dirty(vm, dirty, page_msg, |_, _| PageAction::SendFull);
        let bytes = landed.bytes(page_msg);
        self.record_landed(&landed, page_msg);
        if !alive {
            return Err(self.abort(final_round, link, bytes));
        }
        self.sink.stop_end();
        self.record_delimiter();
        obs_pages(&engine.series.stop_copy, &[landed.full, landed.zeros]);
        Ok(link.transfer_time(bytes).saturating_add(link.round_trip()))
    }

    /// Seals the transfer into a [`MigrationReport`], exporting the
    /// ledgers and closing the migration span.
    pub(crate) fn complete(
        self,
        strategy: &Strategy,
        ram: Bytes,
        downtime: SimDuration,
        converged: bool,
    ) -> MigrationReport {
        let mut report = MigrationReport::new(
            strategy.name(),
            ram,
            self.rounds,
            downtime,
            self.setup,
            self.forward,
            self.reverse,
        );
        report.set_converged(converged);
        self.engine.obs_migration_end(self.span, &report);
        report
    }

    /// Records one forward-path message outside the round structure
    /// (post-copy streams its traffic directly).
    pub(crate) fn record_forward(&mut self, category: TrafficCategory, bytes: Bytes) {
        self.engine
            .rec(&mut self.forward, Direction::Forward, category, bytes);
    }

    /// Bulk form of [`TransferLoop::record_forward`].
    pub(crate) fn record_forward_many(
        &mut self,
        category: TrafficCategory,
        count: u64,
        size: Bytes,
    ) {
        self.engine
            .rec_many(&mut self.forward, Direction::Forward, category, count, size);
    }

    /// Forward-path bytes recorded so far.
    pub(crate) fn forward_total(&self) -> Bytes {
        self.forward.total()
    }

    /// Seals a round-less transfer (post-copy): exports both ledgers to
    /// `net_wire_*`, closes the migration span with `attrs`, and hands
    /// the forward ledger back for the caller's report.
    pub(crate) fn finish_observed(self, attrs: &[(&str, u64)]) -> TrafficLedger {
        self.engine.obs_ledgers(&self.forward, &self.reverse);
        self.engine.metrics.span_end(self.span, attrs);
        self.forward
    }
}

impl MigrationEngine {
    /// Runs the destination's setup phase: checkpoint read + index build,
    /// plus the bulk checksum exchange when that protocol is active.
    pub(crate) fn setup_phase(
        &self,
        strategy: &Strategy,
        ram: Bytes,
        reverse: &mut TrafficLedger,
    ) -> SetupReport {
        let Some(index) = strategy.index() else {
            return SetupReport::default();
        };
        // Destination: sequential checkpoint read, hashing each block as
        // it streams past (§3.3); the slower of disk and hash rate wins.
        let read = self
            .dest_disk
            .sequential_time(ram)
            .max(self.cpu.checksum_time(self.algorithm, ram));
        // The paper's sort-based index build: ~n log n digest comparisons
        // at ~20 ns per element-move. The real index is a hash map filled
        // in one pass, but the simulated price stays the paper's model,
        // so simulated times and goldens do not depend on the map.
        let entries = index.distinct() as u64;
        let index_build = SimDuration::from_nanos(
            entries.max(1) * (64 - entries.max(2).leading_zeros() as u64) * 20,
        );
        let mut setup = SetupReport {
            checkpoint_read: read,
            checkpoint_write: SimDuration::ZERO,
            index_build,
            exchange_bytes: Bytes::ZERO,
            exchange_time: SimDuration::ZERO,
        };
        if matches!(self.exchange, ExchangeProtocol::Bulk) {
            let bytes = wire::bulk_exchange(entries);
            self.rec(
                reverse,
                Direction::Reverse,
                TrafficCategory::BulkExchange,
                bytes,
            );
            setup.exchange_bytes = bytes;
            setup.exchange_time = self.link.transfer_time(bytes);
        }
        setup
    }

    /// The link a given round experiences under the attempt's faults: a
    /// `LinkDegrade` fault multiplies bandwidth by its factor from its
    /// onset round onward. Clean attempts always see the engine's link.
    pub(crate) fn link_for_round(&self, round: u32, faults: &AttemptFaults) -> LinkSpec {
        match faults.degrade {
            Some((factor, from_round)) if round >= from_round => self
                .link
                .with_bandwidth(BytesPerSec::new(self.link.bandwidth().as_f64() * factor)),
            _ => self.link,
        }
    }
}

/// Records `idx` as the first sender of `digest`, if there is a cache
/// and it keeps this kind of send: every cache keeps full sends, only a
/// gang's keeps checksum sends.
#[inline]
fn remember(
    sent: &mut Option<&mut DedupCache>,
    digest: PageDigest,
    idx: PageIndex,
    checksum: bool,
) {
    if let Some(cache) = sent
        .as_deref_mut()
        .filter(|c| !checksum || c.records_checksums)
    {
        cache.first.entry(digest).or_insert(idx);
    }
}

/// The workload-advance time for a round under a possible dirty-spike
/// fault: from the spike's onset round the guest dirties memory as if
/// `factor`× the round duration had elapsed. Clean attempts (and rounds
/// before the onset) pass the duration through untouched, bit-exactly.
fn spiked_duration(faults: &AttemptFaults, round: u32, duration: SimDuration) -> SimDuration {
    match faults.dirty_spike {
        Some((factor, from_round)) if round >= from_round && factor > 1.0 => {
            SimDuration::from_secs_f64(duration.as_secs_f64() * factor)
        }
        _ => duration,
    }
}

#[cfg(test)]
#[path = "scan_tests.rs"]
mod scan_tests;
