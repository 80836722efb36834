//! The first-round page scan: one phased algorithm for every thread
//! count.
//!
//! There is no separate sequential scan. One thread is simply the
//! parallel scan with a single shard, run inline on the caller's thread —
//! the *serial-is-parallel* invariant. Results are bit-identical for any
//! thread count (`tests/parallel_props.rs` pins this): the phases merge
//! shards in page order, so the dedup cache resolves exactly as a
//! one-page-at-a-time walk would have resolved it.

use vecycle_checkpoint::{DedupIndex, DigestTable};
use vecycle_mem::{MemoryImage, PageArena};
use vecycle_types::{PageDigest, PageIndex};

use crate::strategy::PageAction;
use crate::{MigrationEngine, PageMsg, Strategy};

/// What one first-round scan produced: per-action page counts and, when
/// a transcript was requested, the ordered message stream.
pub(crate) struct ScanOutcome {
    pub(crate) full: u64,
    pub(crate) checksums: u64,
    pub(crate) refs: u64,
    pub(crate) skipped: u64,
    pub(crate) zeros: u64,
    pub(crate) msgs: Option<Vec<PageMsg>>,
}

impl ScanOutcome {
    fn new(want_msgs: bool) -> Self {
        ScanOutcome {
            full: 0,
            checksums: 0,
            refs: 0,
            skipped: 0,
            zeros: 0,
            msgs: want_msgs.then(Vec::new),
        }
    }

    /// Appends a later shard's outcome (shards arrive in page order).
    fn merge(&mut self, part: ScanOutcome) {
        self.full += part.full;
        self.checksums += part.checksums;
        self.refs += part.refs;
        self.skipped += part.skipped;
        self.zeros += part.zeros;
        if let (Some(acc), Some(msgs)) = (self.msgs.as_mut(), part.msgs) {
            acc.extend(msgs);
        }
    }
}

/// Phase-A result for one contiguous page range of the scan.
struct ShardScan {
    /// Dirty-tracking skips (count only; they emit nothing).
    skipped: u64,
    /// Non-skipped pages in range order, awaiting dedup resolution.
    records: Vec<PreRecord>,
    /// Digest → lowest in-range page that would insert it into the dedup
    /// cache (both full-page candidates and checksum announcements).
    inserts: DigestTable<PageIndex>,
}

/// A page's dedup-independent classification, before `SendFull`
/// candidates are resolved into full pages or back-references.
enum PreRecord {
    /// Suppressed all-zero page.
    Zero(PageIndex),
    /// Checkpoint-index hit: sends a checksum message unconditionally.
    Checksum(PageIndex, PageDigest),
    /// Would send in full; may become a dedup ref in phase C.
    Candidate(PageIndex, PageDigest),
}

/// Runs the shard jobs: inline on the caller's thread when one shard (or
/// one thread) suffices, on scoped worker threads otherwise. Either way
/// the results come back in job order.
fn run_shards<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| scope.spawn(move |_| job()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    })
    .expect("scoped scan threads")
}

impl MigrationEngine {
    /// The first-round page scan.
    ///
    /// The image splits into `threads` contiguous page ranges. Phase A
    /// classifies each range concurrently with [`Strategy::preclassify`],
    /// which depends only on `(idx, digest)` — never on what was sent
    /// earlier — recording per-shard outcomes in page order plus a
    /// per-shard first-occurrence map over the digests that would enter
    /// the dedup cache. Phase B merges those maps in range order, so each
    /// digest resolves to the *lowest* page index that inserts it — the
    /// page a one-at-a-time walk would have inserted first. Phase C then
    /// resolves `SendFull` candidates concurrently against the
    /// pre-existing cache and the merged map, which is exactly the state
    /// a sequential walk would have consulted: classification outcomes
    /// partition digests into disjoint classes (index hits always send
    /// checksums, dirty-tracking skips never insert, suppressed zeros
    /// never insert), so no candidate can race a checksum insert. Phase D
    /// concatenates shard outcomes in page order and commits this round's
    /// first-senders to the shared dedup cache.
    pub(crate) fn scan<M: MemoryImage>(
        &self,
        vm: &M,
        strategy: &Strategy,
        sent: &mut DedupIndex,
        want_msgs: bool,
    ) -> ScanOutcome {
        let n = vm.page_count().as_u64();
        let shard_len = n.div_ceil(self.threads as u64).max(1);
        let ranges: Vec<(u64, u64)> = (0..n)
            .step_by(shard_len as usize)
            .map(|lo| (lo, (lo + shard_len).min(n)))
            .collect();

        // Phase A: dedup-independent classification, one shard per thread.
        let mut shards: Vec<ShardScan> = run_shards(
            self.threads,
            ranges
                .iter()
                .map(|&(lo, hi)| {
                    move || {
                        let mut shard = ShardScan {
                            skipped: 0,
                            records: Vec::with_capacity((hi - lo) as usize),
                            inserts: DigestTable::new(),
                        };
                        for i in lo..hi {
                            let idx = PageIndex::new(i);
                            let digest = vm.page_digest(idx);
                            let action = strategy.preclassify(idx, digest);
                            // Zero suppression applies whenever a payload
                            // would be sent: a 13-byte marker beats both
                            // the full page and the 28-byte checksum
                            // message. Dirty-tracking skips stay skips.
                            if self.zero_suppression
                                && digest.is_zero_page()
                                && action != PageAction::Skip
                            {
                                shard.records.push(PreRecord::Zero(idx));
                                continue;
                            }
                            match action {
                                PageAction::SendFull => {
                                    shard.inserts.or_insert(digest, idx);
                                    shard.records.push(PreRecord::Candidate(idx, digest));
                                }
                                PageAction::SendChecksum => {
                                    shard.inserts.or_insert(digest, idx);
                                    shard.records.push(PreRecord::Checksum(idx, digest));
                                }
                                PageAction::Skip => shard.skipped += 1,
                                PageAction::SendDedupRef(_) => {
                                    unreachable!("preclassify never emits dedup refs")
                                }
                            }
                        }
                        shard
                    }
                })
                .collect(),
        );

        // Phase B: merge shard maps in page order — the earliest range
        // holding a digest wins, which is the global minimum index. The
        // first range's map is the merge's starting point as it stands,
        // so it is moved, not re-inserted: with one shard there is
        // nothing left to copy.
        let mut round_min = shards
            .first_mut()
            .map(|first| std::mem::take(&mut first.inserts))
            .unwrap_or_default();
        for shard in shards.iter().skip(1) {
            for (digest, &idx) in shard.inserts.iter() {
                round_min.or_insert(digest, idx);
            }
        }

        // Phase C: resolve candidates against the dedup state, again one
        // shard per thread (both maps are now read-only).
        let dedup = strategy.dedup_enabled();
        let sent_view: &DedupIndex = sent;
        let round_min_view = &round_min;
        let resolved: Vec<(ScanOutcome, vecycle_obs::CounterShard)> = run_shards(
            self.threads,
            shards
                .iter()
                .map(|shard| {
                    move || {
                        let mut out = ScanOutcome::new(want_msgs);
                        // Full-page payloads for this shard accumulate in
                        // one arena; messages get refcounted slices of it
                        // after sealing instead of per-page boxes.
                        let mut arena = PageArena::new();
                        let mut fixups: Vec<(usize, vecycle_mem::ArenaSlot)> = Vec::new();
                        out.skipped = shard.skipped;
                        for rec in &shard.records {
                            match *rec {
                                PreRecord::Zero(idx) => {
                                    out.zeros += 1;
                                    if let Some(t) = out.msgs.as_mut() {
                                        t.push(PageMsg::Zero { idx });
                                    }
                                }
                                PreRecord::Checksum(idx, digest) => {
                                    out.checksums += 1;
                                    if let Some(t) = out.msgs.as_mut() {
                                        t.push(PageMsg::Checksum { idx, digest });
                                    }
                                }
                                PreRecord::Candidate(idx, digest) => {
                                    // A prior sender of this content
                                    // (an earlier gang VM, or a lower
                                    // page of this image) turns the
                                    // candidate into a back-reference.
                                    let source = if dedup {
                                        sent_view.get(digest).or_else(|| {
                                            let first = *round_min_view
                                                .get(digest)
                                                .expect("candidate digest recorded in phase A");
                                            (first < idx).then_some(first)
                                        })
                                    } else {
                                        None
                                    };
                                    match source {
                                        Some(source) => {
                                            out.refs += 1;
                                            if let Some(t) = out.msgs.as_mut() {
                                                t.push(PageMsg::DedupRef { idx, source });
                                            }
                                        }
                                        None => {
                                            out.full += 1;
                                            if let Some(t) = out.msgs.as_mut() {
                                                if let Some(b) = vm.page_bytes(idx) {
                                                    fixups.push((t.len(), arena.push(b)));
                                                }
                                                t.push(PageMsg::Full {
                                                    idx,
                                                    digest,
                                                    bytes: None,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        // Seal the arena and patch the byte-carrying full
                        // pages. Message order is untouched, so results
                        // stay bit-identical to the per-page-box path.
                        if !fixups.is_empty() {
                            let sealed = arena.seal();
                            let msgs = out.msgs.as_mut().expect("fixups imply recorded messages");
                            for (pos, slot) in fixups {
                                if let PageMsg::Full { bytes, .. } = &mut msgs[pos] {
                                    *bytes = Some(sealed.slice(slot));
                                }
                            }
                        }
                        // One counter update per class seen, from the
                        // tallies above: a series exists only for a
                        // class with pages, as a per-page count made it.
                        let mut pages = vecycle_obs::CounterShard::default();
                        for (class, n) in [
                            ("skipped", out.skipped),
                            ("zero", out.zeros),
                            ("checksum", out.checksums),
                            ("dedup_ref", out.refs),
                            ("full", out.full),
                        ] {
                            if n > 0 {
                                pages.inc("engine_scan_pages_total", &[("class", class)], n);
                            }
                        }
                        (out, pages)
                    }
                })
                .collect(),
        );

        // Phase D: concatenate shard outcomes in page order and commit
        // this round's first-senders to the shared dedup cache (existing
        // entries — earlier gang VMs — keep priority, as they did when
        // a sequential walk inserted per page).
        let mut out = ScanOutcome::new(want_msgs);
        for (part, pages) in resolved {
            out.merge(part);
            // Counter addition commutes, so absorbing the per-worker
            // shards in range order yields the same totals a per-page
            // walk records — snapshots stay bit-identical across thread
            // counts.
            self.metrics.absorb(pages);
        }
        for (digest, &idx) in round_min.iter() {
            sent.insert_first(digest, idx);
        }
        out
    }
}
