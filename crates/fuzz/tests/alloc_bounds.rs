//! Allocation bounds of the byte path, measured with the fuzzer's
//! counting allocator: what the hash batcher, the streaming checkpoint
//! reader, a whole ping-pong leg, a fleet run, the metrics registry and
//! the daemon's data plane ask the allocator for.

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, DiskStore};
use vecycle_core::{apply_transcript, MigrationEngine, Strategy};
use vecycle_daemon::endpoint::{SessionStream, SESSION_BUF};
use vecycle_daemon::session_state::SessionState;
use vecycle_daemon::{receive_stream, scenario, SocketSink};
use vecycle_faults::KillSwitch;
use vecycle_fleet::{Fleet, FleetSpec, PlacementMode};
use vecycle_fuzz::{alloc_budget, AllocMeter, AllocStats, CountingAlloc};
use vecycle_hash::ChecksumAlgorithm;
use vecycle_mem::workload::{GuestWorkload, IdleWorkload, RelocationWorkload};
use vecycle_mem::{ByteMemory, DigestMemory, Guest};
use vecycle_net::{wire, LinkSpec};
use vecycle_obs::{layouts, MetricsRegistry};
use vecycle_sim::ScenarioSpec;
use vecycle_types::{PageCount, PageDigest, SimDuration, SimTime, VmId, PAGE_SIZE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn metered<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    AllocMeter::start();
    let out = f();
    (out, AllocMeter::stop())
}

/// `digest_pages` gathers lane groups into a fixed array: whatever the
/// batch shape, the one thing it allocates is the vector it returns.
#[test]
fn digest_pages_allocates_only_its_output() {
    let pages: Vec<Vec<u8>> = (0..41usize)
        .map(|i| vec![(i % 7) as u8; if i % 9 == 8 { 100 } else { 4096 }])
        .collect();
    let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
    for algo in ChecksumAlgorithm::ALL {
        for n in [0, 1, 5, 16, 21, 41] {
            let (digests, stats) = metered(|| algo.digest_pages(&views[..n]));
            assert_eq!(digests.len(), n);
            assert_eq!(
                (stats.requested, stats.largest),
                (16 * n as u64, 16 * n as u64)
            );
        }
    }
}

/// The streaming reader under the fuzz targets' own budget: a header
/// claiming 2⁴⁰ pages on a 100-byte input asks for no more memory than
/// an honest 100-byte input may.
#[test]
fn a_forged_page_count_stays_inside_the_input_budget() {
    let mem = ByteMemory::with_distinct_content(PageCount::new(1), 3);
    let mut file = Vec::new();
    Checkpoint::capture_bytes(VmId::new(1), SimTime::EPOCH, &mem)
        .write_to(&mut file)
        .unwrap();
    for kind_version in [[2u8, 1], [1, 1], [1, 0]] {
        let mut forged = file[..100].to_vec();
        forged[9..11].copy_from_slice(&kind_version);
        forged[24..32].copy_from_slice(&(1u64 << 40).to_be_bytes());
        let (result, stats) = metered(|| Checkpoint::read_from(&forged[..]));
        assert!(result.is_err());
        assert!(
            stats.requested <= alloc_budget(forged.len()),
            "{kind_version:?}: {stats:?}"
        );
    }
}

/// One leg of `examples/ping_pong.rs` over a disk store — age the guest,
/// load the checkpoint, migrate against it, merge, capture, save — makes
/// no allocation anywhere near the size of the guest: pages are read
/// into, shared from and written out of their own 4 KiB buffers.
#[test]
fn a_ping_pong_leg_allocates_nothing_guest_sized() {
    const PAGES: u64 = 512;
    let dir = std::env::temp_dir().join(format!("vecycle-alloc-leg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();
    let vm = VmId::new(0);
    let mut guest = Guest::new(ByteMemory::with_distinct_content(PageCount::new(PAGES), 9));
    store
        .save(&Checkpoint::capture_bytes(
            vm,
            SimTime::EPOCH,
            guest.memory(),
        ))
        .unwrap();
    let (mut idle, mut reloc) = (IdleWorkload::new(1, 0.02), RelocationWorkload::new(2, 0.01));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());

    let ((), stats) = metered(|| {
        idle.advance(&mut guest, SimDuration::from_hours(1));
        reloc.advance(&mut guest, SimDuration::from_hours(1));
        let checkpoint = store.load(vm).unwrap().expect("seeded above");
        let strategy = Strategy::vecycle_from_checkpoint(&checkpoint);
        let (report, transcript) = engine
            .migrate_with_transcript(guest.memory(), strategy)
            .unwrap();
        assert!(report.pages_sent_full().as_u64() > 0 && report.pages_reused().as_u64() > 0);
        let rebuilt = apply_transcript(&checkpoint, &transcript).unwrap();
        assert!(rebuilt.content_equals(guest.memory()));
        let left_behind = Checkpoint::capture_bytes(vm, SimTime::EPOCH, guest.memory());
        store.save(&left_behind).unwrap();
    });
    let guest_bytes = PAGES * PAGE_SIZE;
    // The largest requests are per-page tables (16 bytes a page and
    // their growth steps), nowhere near 4096 bytes a page ...
    assert!(stats.largest < guest_bytes / 16, "{stats:?}");
    // ... and the sum is the one copy of the guest the load reads in,
    // plus the pages written, plus tables: well under two guests (the
    // staging copies this replaced made it nearly four).
    assert!(stats.requested < 2 * guest_bytes, "{stats:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A `fleet_aware` benchmark op — `Fleet::new` + `run` of 128 hosts ×
/// 1 280 VMs, checkpoint-aware placement, seed 7 — makes at most 16
/// allocations a placement. Every per-migration metric records through a
/// resolved handle; one series put back on the string-keyed path (an
/// owned key a call) costs about two more a placement and fails this.
#[test]
fn a_fleet_aware_op_stays_within_16_allocations_a_placement() {
    let spec = FleetSpec::new(128, 1280)
        .with_placement(PlacementMode::CheckpointAware)
        .with_seed(7);
    let (report, stats) = metered(|| Fleet::new(spec).unwrap().run().unwrap());
    assert_eq!(report.migrations, 3_840);
    assert!(stats.calls <= 16 * report.migrations, "{stats:?}");
}

/// A single-VM migration keeps a dedup cache only if its strategy reads
/// one, and allocates it once, sized to the guest. The same live
/// migration of a 4 096-page guest under `dedup` and under `full` (which
/// never reads the cache) differs by exactly that one request, the run's
/// largest: room for every page, no growth steps.
#[test]
fn a_dedup_live_migration_allocates_its_cache_once() {
    const PAGES: u64 = 4096;
    let run = |strategy: Strategy| {
        let mut guest = Guest::new(DigestMemory::with_distinct_content(
            PageCount::new(PAGES),
            5,
        ));
        let mut workload = IdleWorkload::new(3, 2.0);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        // A one-page migration first interns the strategy's name in the
        // engine's registry, so the metered runs differ by the cache alone.
        let page = DigestMemory::with_distinct_content(PageCount::new(1), 5);
        engine.migrate(&page, strategy.clone()).unwrap();
        let (report, stats) = metered(|| {
            engine
                .migrate_live(&mut guest, &mut workload, strategy)
                .unwrap()
        });
        assert_eq!(report.pages_sent_full().as_u64(), PAGES);
        stats
    };
    let (full, dedup) = (run(Strategy::full()), run(Strategy::dedup()));
    assert_eq!(
        dedup.calls,
        full.calls + 1,
        "dedup {dedup:?}, full {full:?}"
    );
    // 24 bytes a page is a `(PageDigest, PageIndex)` slot.
    assert!(
        dedup.largest >= PAGES * 24 && dedup.largest > full.largest,
        "dedup {dedup:?}, full {full:?}"
    );
}

/// Recording through resolved handles asks the allocator for nothing:
/// a handle is an `Arc` to its series' cell, and a record is a few
/// atomics on it.
#[test]
fn records_through_resolved_handles_allocate_nothing() {
    let m = MetricsRegistry::new();
    let wire = [("kind", "full_pages"), ("direction", "forward")];
    let counter = m.resolve_counter("engine_wire_bytes_total", &wire);
    let gauge = m.resolve_gauge("store_bytes", &[("host", "host-7")]);
    let histogram = m.resolve_histogram("engine_round_bytes", &[], layouts::BYTES);
    let ((), stats) = metered(|| {
        for i in 0..10_000 {
            counter.inc(4096);
            gauge.set(f64::from(i));
            histogram.observe(4096);
        }
    });
    assert_eq!(stats.requested, 0, "{stats:?}");
    assert_eq!(m.counter("engine_wire_bytes_total", &wire), 10_000 * 4096);
}

/// Spans over strings the registry has already seen store interned ids,
/// so 1 000 start/end pairs request only the amortised growth of the
/// timeline's arenas — never a string or a per-span label list.
#[test]
fn spans_over_seen_strings_request_only_arena_growth() {
    let m = MetricsRegistry::new();
    let pair = || {
        let span = m.span_start("round", &[("round", "1")]);
        m.span_end(span, &[("bytes", 131_072), ("sim_ns", 1_000)]);
    };
    pair();
    let ((), stats) = metered(|| (0..1_000).for_each(|_| pair()));
    // The bound is arena growth and nothing else. A pair appends two
    // 32-byte timeline entries, one 8-byte label pair and two 16-byte
    // attrs. A `Vec` that has doubled its way to capacity C has requested
    // under 2·C elements in all, and after 1 001 pairs the three arenas
    // sit at capacities 2 048, 1 024 and 2 048. (The owned-string
    // timeline this replaced requested 428 336 bytes here.)
    let growth = 2 * (2_048 * 32 + 1_024 * 8 + 2_048 * 16);
    assert!(stats.requested < growth, "{stats:?}");
}

/// One cold `full` job of `ram_mib` through the daemon's data plane, on
/// this thread: the engine into a [`SocketSink`] over a `Vec` sized for
/// the stream, then [`receive_stream`] from a [`SessionStream`] over
/// those bytes. Returns what each side asked the allocator for.
fn cold_full_job(ram_mib: u64) -> (AllocStats, AllocStats) {
    let mut spec = ScenarioSpec::golden(0xa110c);
    (spec.ram_mib, spec.warm) = (ram_mib, false);
    spec.strategy = "full".into();
    let initial = scenario::initial_memory(&spec).unwrap();
    let engine = scenario::engine_for(&spec);
    let kill = KillSwitch::inert();
    let stream = |bytes: &mut Vec<u8>| {
        let (mut guest, mut workload) = scenario::live_guest(&spec, &initial).unwrap();
        let strategy = scenario::wire_strategy(&spec, None).unwrap();
        metered(|| {
            let mut sink = SocketSink::new(&mut *bytes, &kill, |_| {});
            engine
                .migrate_live_into(&mut guest, &mut workload, strategy, &mut sink)
                .unwrap();
            sink.finish().unwrap();
        })
        .1
    };
    // A first run learns the stream's length (and interns the engine's
    // metric names), so the metered one writes into a buffer that never
    // grows.
    let mut sized = Vec::new();
    stream(&mut sized);
    let mut bytes = Vec::with_capacity(sized.len());
    let source = stream(&mut bytes);
    assert_eq!(bytes, sized, "the stream is a function of the spec");

    let mut state = SessionState::fresh(&spec, &initial);
    let ((), dest) = metered(|| {
        let mut s = SessionStream::new(bytes.as_slice());
        receive_stream(&mut s, None, &mut state, &kill, &mut ()).unwrap();
    });
    assert!(state.finished());
    (source, dest)
}

/// A full page crosses the daemon without touching the allocator. The
/// source encodes it straight into its one chunk and the destination's
/// decoder checks it on the stack, so a cold `full` job's only
/// page-sized requests are the session's fixed buffers — the sink chunk,
/// sized once for 64 full pages, and the read buffer — and doubling the
/// guest adds at most a few table growth steps, not two allocations a
/// page (each end's own copy of every page).
#[test]
fn a_cold_full_job_allocates_nothing_per_page() {
    let chunk = 64 * wire::full_page_msg().as_u64();
    let (source16, dest16) = cold_full_job(16);
    let (source32, dest32) = cold_full_job(32);
    for (source, dest) in [(source16, dest16), (source32, dest32)] {
        assert_eq!(
            (source.page_sized, source.largest),
            (1, chunk),
            "the sink chunk only: {source:?}"
        );
        assert_eq!(
            (dest.page_sized, dest.calls, dest.largest),
            (1, 1, SESSION_BUF as u64),
            "the read buffer only: {dest:?}"
        );
        assert_eq!(dest.requested, SESSION_BUF as u64, "{dest:?}");
    }
    let (calls16, calls32) = (source16.calls + dest16.calls, source32.calls + dest32.calls);
    assert!(
        calls32 <= calls16 + 8,
        "16 MiB: {calls16} calls, 32 MiB: {calls32}"
    );
}

/// The source adopts the bulk exchange it validated as its index: a
/// 32 768-digest exchange costs the probe map and no second digest list.
#[test]
fn the_source_index_adopts_the_exchange_list() {
    let digests: Vec<PageDigest> = (1..=32_768).map(PageDigest::from_content_id).collect();
    let mut sorted = digests.clone();
    sorted.sort_unstable();
    let (index, stats) = metered(|| ChecksumIndex::from_sorted(sorted).unwrap());
    assert_eq!(index.sorted().len(), digests.len());
    assert_eq!(stats.calls, 1, "the map alone: {stats:?}");
    assert!(
        stats.requested >= 32_768 * 24,
        "a slot per digest: {stats:?}"
    );
}
