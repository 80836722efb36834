//! The first-round scan against a reference model, and the pins that
//! keep it a single streaming pass.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use vecycle_faults::AttemptFaults;
use vecycle_mem::{DigestMemory, GenerationTable, MemoryImage, MutableMemory, PageContent};
use vecycle_net::LinkSpec;
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{Bytes, PageCount, PageDigest, PageIndex};

use super::{AbortedTransfer, DedupCache, TransferLoop};
use crate::pipeline::sink::{CutSink, MsgSink};
use crate::spare::Spare;
use crate::{MigrationEngine, PageMsg, RoundReport, Strategy, Transcript};

/// A digest-level image holding the given content ids (id 0 is the zero
/// page).
fn image(ids: &[u64]) -> DigestMemory {
    let mut m = DigestMemory::zeroed(PageCount::new(ids.len() as u64));
    for (i, &id) in ids.iter().enumerate() {
        m.write_page(PageIndex::new(i as u64), PageContent::ContentId(id));
    }
    m
}

/// Runs round 1 of a static transfer into `sink` against the caller's
/// dedup cache, if any; returns the round's report, or the wreckage if
/// the sink killed it.
fn first_round<M: MemoryImage, S: MsgSink>(
    engine: &MigrationEngine,
    vm: &M,
    strategy: &Strategy,
    sent: Option<&mut DedupCache>,
    sink: &mut S,
) -> Result<RoundReport, AbortedTransfer> {
    let faults = AttemptFaults::none();
    let mut tl = TransferLoop::start(engine, "static", strategy, vm.ram_size(), &faults, sink);
    tl.first_round(vm, strategy, sent)?;
    Ok(tl.rounds.remove(0))
}

/// The scan's transcript and per-class counts equal a naive
/// `HashMap::entry().or_insert()` walk in page order that records
/// every full and checksum send — for every strategy family, zero
/// suppression on and off, and both kinds of cache. A gang's cache,
/// pre-seeded by an earlier member (whose pages share this image's
/// index range, so a prior sender can sit at the *same* page index
/// and must still yield a back-reference), ends equal to the
/// model's. A single-VM cache starts empty and ends equal to the
/// model's minus the entries only a checksum send made: the index
/// answers those digests before any lookup can reach them, so the
/// two rules send the same messages. A strategy that does not dedup
/// scans the same without any cache.
#[test]
fn scan_matches_a_naive_walk_in_page_order() {
    for case in 0..96 {
        let mut rng = Xorshift::new(split(1, case));
        let mut ids = |min_len: u64| -> Vec<u64> {
            let len = min_len + rng.below(200 - min_len);
            (0..len).map(|_| rng.below(24)).collect()
        };
        let (vm_ids, cp_ids, prior_ids) = (ids(1), ids(1), ids(0));
        let written: Vec<bool> = (0..200).map(|_| rng.next() & 1 == 1).collect();
        let mut coin = || rng.next() & 1 == 1;
        let (use_index, use_tracking, use_dedup) = (coin(), coin(), coin());
        let (suppress_zeros, gang) = (coin(), coin());
        let vm = image(&vm_ids);
        let n = vm_ids.len();
        let digest = |id: u64| PageDigest::from_content_id(id);

        // The strategy under test and the model's view of its inputs.
        let checkpoint: HashSet<PageDigest> = if use_index {
            cp_ids.iter().map(|&id| digest(id)).collect()
        } else {
            HashSet::new()
        };
        let mut table = GenerationTable::new(vm.page_count());
        let snapshot = table.snapshot();
        for i in (0..n).filter(|&i| written[i]) {
            table.bump(PageIndex::new(i as u64));
        }
        let reusable = |i: usize| use_tracking && !use_index && !written[i];
        let base = if use_index {
            Strategy::vecycle(&image(&cp_ids))
        } else if use_tracking {
            Strategy::miyakodori(&table, &snapshot)
        } else {
            Strategy::full()
        };
        let strategy = if use_dedup { base.with_dedup() } else { base };

        // The cache under test and, for a gang, what an earlier member
        // left behind in it.
        let spare = Spare::default();
        let mut sent = if gang {
            DedupCache::gang()
        } else {
            // A single VM's cache, whatever the strategy under test.
            DedupCache::single_vm(&spare, &Strategy::dedup(), vm.page_count())
                .expect("dedup keeps a cache")
        };
        let mut model_sent: HashMap<PageDigest, PageIndex> = HashMap::new();
        for (i, &id) in prior_ids.iter().enumerate().filter(|_| gang) {
            sent.first
                .entry(digest(id))
                .or_insert_with(|| PageIndex::new(i as u64));
            model_sent
                .entry(digest(id))
                .or_insert_with(|| PageIndex::new(i as u64));
        }
        // The model's entries that only a checksum send made.
        let mut checksum_only: HashSet<PageDigest> = HashSet::new();

        // The model: one page at a time, lowest index first.
        let mut model = Transcript::new();
        let mut skipped = 0u64;
        for (i, &id) in vm_ids.iter().enumerate() {
            let (idx, digest) = (PageIndex::new(i as u64), digest(id));
            if reusable(i) {
                skipped += 1;
            } else if suppress_zeros && digest.is_zero_page() {
                model.push(PageMsg::Zero { idx });
            } else if checkpoint.contains(&digest) {
                if let Entry::Vacant(slot) = model_sent.entry(digest) {
                    slot.insert(idx);
                    checksum_only.insert(digest);
                }
                model.push(PageMsg::Checksum { idx, digest });
            } else if let Some(&source) = model_sent.get(&digest).filter(|_| use_dedup) {
                model.push(PageMsg::DedupRef { idx, source });
            } else {
                model_sent.entry(digest).or_insert(idx);
                model.push(PageMsg::Full {
                    idx,
                    digest,
                    bytes: None,
                });
            }
        }

        let engine = MigrationEngine::new(LinkSpec::lan_gigabit())
            .with_zero_page_suppression(suppress_zeros);
        let mut transcript = Transcript::new();
        let round = first_round(&engine, &vm, &strategy, Some(&mut sent), &mut transcript)
            .expect("a recording sink lands everything");
        if !use_dedup {
            let mut uncached = Transcript::new();
            let uncached_round = first_round(&engine, &vm, &strategy, None, &mut uncached)
                .expect("a recording sink lands everything");
            assert_eq!(&uncached, &transcript);
            assert_eq!(&uncached_round, &round);
        }

        assert_eq!(&transcript, &model);
        let count = |class: fn(&PageMsg) -> bool| model.iter().filter(|m| class(m)).count() as u64;
        assert_eq!(
            round.full_pages.as_u64(),
            count(|m| matches!(m, PageMsg::Full { .. }))
        );
        assert_eq!(
            round.checksum_pages.as_u64(),
            count(|m| matches!(m, PageMsg::Checksum { .. }))
        );
        assert_eq!(
            round.dedup_refs.as_u64(),
            count(|m| matches!(m, PageMsg::DedupRef { .. }))
        );
        assert_eq!(
            round.zero_pages.as_u64(),
            count(|m| matches!(m, PageMsg::Zero { .. }))
        );
        assert_eq!(round.skipped_pages.as_u64(), skipped);
        if !gang {
            model_sent.retain(|digest, _| !checksum_only.contains(digest));
        }
        assert_eq!(sent.first.len(), model_sent.len());
        for (digest, first) in &sent.first {
            assert_eq!(model_sent.get(digest), Some(first));
        }
    }
}

/// The gang case the property above only hits by chance, spelled out: a
/// prior sender at the very page index being scanned is still a prior
/// sender.
#[test]
fn a_prior_sender_at_the_same_page_index_yields_a_dedup_ref() {
    let vm = image(&[7, 8]);
    let mut sent = DedupCache::gang();
    sent.first
        .insert(PageDigest::from_content_id(7), PageIndex::new(0));
    let mut transcript = Transcript::new();
    first_round(
        &MigrationEngine::new(LinkSpec::lan_gigabit()),
        &vm,
        &Strategy::dedup(),
        Some(&mut sent),
        &mut transcript,
    )
    .expect("a recording sink lands everything");
    assert_eq!(
        transcript,
        vec![
            PageMsg::DedupRef {
                idx: PageIndex::new(0),
                source: PageIndex::new(0)
            },
            PageMsg::Full {
                idx: PageIndex::new(1),
                digest: PageDigest::from_content_id(8),
                bytes: None
            },
        ]
    );
}

/// An image that counts how often each page's digest is asked for.
struct CountingImage {
    inner: DigestMemory,
    reads: RefCell<Vec<u32>>,
}

impl CountingImage {
    fn new(inner: DigestMemory) -> Self {
        let pages = inner.page_count().as_usize();
        CountingImage {
            inner,
            reads: RefCell::new(vec![0; pages]),
        }
    }
}

impl MemoryImage for CountingImage {
    fn page_count(&self) -> PageCount {
        self.inner.page_count()
    }

    fn page_digest(&self, idx: PageIndex) -> PageDigest {
        self.reads.borrow_mut()[idx.as_usize()] += 1;
        self.inner.page_digest(idx)
    }
}

/// A sink that notes how many digests the image had served when its
/// first message arrived.
struct FirstMessageProbe<'a> {
    image: &'a CountingImage,
    reads_at_first_message: Option<u32>,
    messages: u64,
}

impl MsgSink for FirstMessageProbe<'_> {
    fn page(&mut self, _msg: PageMsg, _digest: PageDigest, _size: Bytes) -> bool {
        self.reads_at_first_message
            .get_or_insert_with(|| self.image.reads.borrow().iter().sum());
        self.messages += 1;
        true
    }
}

/// Round 1 streams: the sink holds its first message before the image
/// has been asked for a second digest, and the whole round reads each
/// page's digest exactly once.
#[test]
fn round_one_streams_and_reads_each_digest_once() {
    let vm = CountingImage::new(DigestMemory::with_distinct_content(PageCount::new(96), 5));
    let mut probe = FirstMessageProbe {
        image: &vm,
        reads_at_first_message: None,
        messages: 0,
    };
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    first_round(
        &engine,
        &vm,
        &Strategy::dedup(),
        Some(&mut DedupCache::gang()),
        &mut probe,
    )
    .expect("the probe lands everything");
    assert_eq!(probe.messages, 96);
    assert_eq!(probe.reads_at_first_message, Some(1));
    assert!(vm.reads.borrow().iter().all(|&reads| reads == 1));
}

/// A dead link stops the offering, not the classification: the scan
/// counters cover the whole image, the landed prefix does not, and no
/// digest is read twice on the way.
#[test]
fn a_link_cut_stops_the_offering_but_not_the_classification() {
    let vm = CountingImage::new(DigestMemory::with_distinct_content(PageCount::new(96), 5));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let mut cut = CutSink::new(Bytes::from_pages(24), vm.page_count());
    let wreck = first_round(
        &engine,
        &vm,
        &Strategy::full(),
        Some(&mut DedupCache::gang()),
        &mut cut,
    )
    .expect_err("the cut must abort round 1");
    let landed = wreck.landed_pages().as_u64();
    assert!(0 < landed && landed < 24, "{landed} pages landed");
    assert_eq!(
        engine
            .metrics()
            .counter("engine_scan_pages_total", &[("class", "full")]),
        96
    );
    assert!(vm.reads.borrow().iter().all(|&reads| reads == 1));
}
