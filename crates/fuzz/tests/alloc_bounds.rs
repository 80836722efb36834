//! Allocation bounds of the byte path, measured with the fuzzer's
//! counting allocator: what the hash batcher, the streaming checkpoint
//! reader, a whole ping-pong leg, a fleet run, the metrics registry and
//! the daemon's data plane ask the allocator for.

use std::alloc::{GlobalAlloc, Layout};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, DiskStore};
use vecycle_core::session::{VeCycleSession, VmInstance};
use vecycle_core::{apply_transcript, MigrationEngine, Strategy};
use vecycle_daemon::endpoint::{SessionStream, SESSION_BUF};
use vecycle_daemon::frame::{kind, write_frame};
use vecycle_daemon::session_state::SessionState;
use vecycle_daemon::{
    accept, proto, receive_exchange, receive_stream, scenario, Daemon, DaemonConfig, Endpoint,
    JobState, SocketSink,
};
use vecycle_faults::KillSwitch;
use vecycle_fleet::{Fleet, FleetSpec, PlacementMode};
use vecycle_fuzz::{alloc_budget, AllocMeter, AllocStats, CountingAlloc};
use vecycle_hash::ChecksumAlgorithm;
use vecycle_host::{Cluster, HostLocks};
use vecycle_mem::workload::{GuestWorkload, IdleWorkload, RelocationWorkload, SilentWorkload};
use vecycle_mem::{ByteMemory, DigestMemory, DirtyTracker, Guest, PageBuf, PageContent};
use vecycle_net::{wire, LinkSpec, WireMsg};
use vecycle_obs::{layouts, MetricsRegistry};
use vecycle_sim::ScenarioSpec;
use vecycle_types::{
    DigestMap, HostId, PageCount, PageDigest, PageIndex, SimDuration, SimTime, VmId, PAGE_SIZE,
};

/// The fuzzer's per-thread meter, plus process-wide counts of every
/// thread's requests: a daemon job allocates on threads no meter is
/// armed on.
struct Everywhere(CountingAlloc);

static EVERY_BYTES: AtomicU64 = AtomicU64::new(0);
static EVERY_CALLS: AtomicU64 = AtomicU64::new(0);
static SET_SHAPED: AtomicU64 = AtomicU64::new(0);
static EVERY_LARGEST: AtomicU64 = AtomicU64::new(0);

/// A session buffer set's write chunk: room for 64 full-page messages.
const SET_CHUNK: usize = 64 * 4124;

impl Everywhere {
    fn record(size: usize, zeroed: bool) {
        EVERY_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        EVERY_CALLS.fetch_add(1, Ordering::Relaxed);
        EVERY_LARGEST.fetch_max(size as u64, Ordering::Relaxed);
        if size == SET_CHUNK || (zeroed && size == SESSION_BUF) {
            SET_SHAPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(bytes, calls)` requested so far by every thread.
    fn counts() -> (u64, u64) {
        let bytes = EVERY_BYTES.load(Ordering::Relaxed);
        (bytes, EVERY_CALLS.load(Ordering::Relaxed))
    }

    /// The largest request any thread made since the last call.
    fn take_largest() -> u64 {
        EVERY_LARGEST.swap(0, Ordering::Relaxed)
    }

    /// Requests so far, by every thread, shaped like a session buffer
    /// set's: a write chunk, or a zeroed [`SESSION_BUF`] read buffer.
    fn set_shaped() -> u64 {
        SET_SHAPED.load(Ordering::Relaxed)
    }
}

// SAFETY: every operation is forwarded unchanged to `CountingAlloc`,
// which defers to `System`; the two counters never allocate.
unsafe impl GlobalAlloc for Everywhere {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Everywhere::record(layout.size(), false);
        self.0.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Everywhere::record(layout.size(), true);
        self.0.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Everywhere::record(new_size, false);
        self.0.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Everywhere = Everywhere(CountingAlloc::new());

fn metered<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    AllocMeter::start();
    let out = f();
    (out, AllocMeter::stop())
}

/// `digest_pages` gathers lane groups into a fixed array: whatever the
/// batch shape, the one thing it allocates is the vector it returns,
/// and `first_mismatch` and `for_each_digest`, which keep no digest,
/// allocate nothing.
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
            let (first, stats) = metered(|| algo.first_mismatch(&pages[..n], |i| digests[i]));
            assert_eq!((first, stats.calls), (None, 0), "{algo} x{n}: {stats:?}");
            let ((), stats) = metered(|| {
                algo.for_each_digest(&pages[..n], |i, d| assert_eq!(d, digests[i]));
            });
            assert_eq!(stats.calls, 0, "{algo} x{n}: {stats:?}");
        }
    }
}

/// A batch big enough to split across cores still asks for its output
/// vector as its largest request; what else the calling thread asks
/// for is the scope's and each spawned thread's bookkeeping, a few
/// small requests a thread. The meter counts the calling thread only,
/// and that is all there is to count: the workers allocate nothing,
/// because each writes its digests straight into its slice of the
/// caller's output vector. `first_mismatch` and `for_each_digest` over
/// the same batch ask for the bookkeeping alone.
#[test]
fn a_split_batch_allocates_its_output_and_per_thread_bookkeeping() {
    const N: usize = 1024;
    let pages: Vec<Vec<u8>> = (0..N).map(|i| vec![(i % 251) as u8; 4096]).collect();
    let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
    // The first split batch reads the core count once; keep it out of
    // the metered calls.
    let _ = ChecksumAlgorithm::Md5.digest_pages(&views);
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    for algo in ChecksumAlgorithm::ALL {
        let (digests, stats) = metered(|| algo.digest_pages(&views));
        assert_eq!(digests.len(), N);
        assert_eq!(stats.largest, 16 * N as u64, "{algo}: {stats:?}");
        assert!(stats.calls <= 1 + 6 * threads, "{algo}: {stats:?}");
        assert!(
            stats.requested <= 16 * N as u64 + 512 * threads,
            "{algo}: {stats:?}"
        );
        let (first, stats) = metered(|| algo.first_mismatch(&pages, |i| digests[i]));
        assert_eq!(first, None);
        assert!(stats.calls <= 6 * threads, "{algo}: {stats:?}");
        assert!(stats.requested <= 512 * threads, "{algo}: {stats:?}");
        let ((), stats) = metered(|| {
            algo.for_each_digest(&pages, |i, d| assert_eq!(d, digests[i]));
        });
        assert!(stats.calls <= 6 * threads, "{algo}: {stats:?}");
        assert!(stats.requested <= 512 * threads, "{algo}: {stats:?}");
    }
}

/// The decoder under the fuzz targets' own budget: a header claiming
/// 2⁴⁰ pages on a 100-byte input asks for no more memory than an honest
/// 100-byte input may.
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

/// A steady-state ping-pong leg recycles its page buffers: after one
/// warm-up leg, the load and the copy-on-write guest pages of the next
/// come off the free list that the previous leg's checkpoint, merge and
/// read-back filled when they dropped. The leg makes no fresh page
/// buffer, and what it does request is tables, each built once at its
/// final size: 248 bytes a guest page measured on two cores (246 on
/// one; x86-64, under `/tmp`), held to 252 — a margin of 2 KiB, about
/// 150 more characters of temporary directory in the leg's paths. A
/// second guest-sized digest table, such as collecting the merge's
/// digests before they go into the memory's cells, staging header and
/// table before a save, or an index over the whole checkpoint table in
/// the merge, adds 16 bytes a page or more and fails this.
#[test]
fn a_steady_state_ping_pong_leg_makes_no_fresh_page_buffer() {
    const PAGES: u64 = 512;
    let dirs = [0, 1].map(|k| {
        // The pid at a fixed width: the leg's path strings, and so its
        // byte count, do not move with the pid's digits.
        let dir = format!("vecycle-alloc-steady-{k}-{:010}", std::process::id());
        std::env::temp_dir().join(dir)
    });
    let stores = dirs.each_ref().map(|dir| {
        let _ = std::fs::remove_dir_all(dir);
        DiskStore::open(dir).unwrap()
    });
    let vm = VmId::new(0);
    // The guest runs on host 0; host 1 keeps what it left on a visit.
    let mut guest = Guest::new(ByteMemory::with_distinct_content(PageCount::new(PAGES), 9));
    let left_on_host_1 = Checkpoint::capture_bytes(vm, SimTime::EPOCH, guest.memory());
    stores[1].save(&left_on_host_1).unwrap();
    drop(left_on_host_1);
    // `local_bytes_pingpong`'s write rates, scaled to this guest.
    let scale = PAGES as f64 / 4096.0;
    let (mut idle, mut reloc) = (
        IdleWorkload::new(1, scale),
        RelocationWorkload::new(2, scale / 2.0),
    );
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let mut leg = |to: usize| {
        idle.advance(&mut guest, SimDuration::from_hours(1));
        reloc.advance(&mut guest, SimDuration::from_hours(1));
        let checkpoint = stores[to].load(vm).unwrap().expect("left on a visit");
        let strategy = Strategy::vecycle_from_checkpoint(&checkpoint);
        let (report, transcript) = engine
            .migrate_with_transcript(guest.memory(), strategy)
            .unwrap();
        assert!(report.pages_sent_full().as_u64() > 0 && report.pages_reused().as_u64() > 0);
        let rebuilt = apply_transcript(&checkpoint, &transcript).unwrap();
        assert!(rebuilt.content_equals(guest.memory()));
        let left_behind = Checkpoint::capture_bytes(vm, SimTime::EPOCH, guest.memory());
        stores[1 - to].save(&left_behind).unwrap();
        assert_eq!(stores[1 - to].load(vm).unwrap(), Some(left_behind));
    };
    leg(1);
    let fresh = PageBuf::allocated_fresh();
    let ((), stats) = metered(|| leg(0));
    assert_eq!(PageBuf::allocated_fresh() - fresh, 0, "{stats:?}");
    assert!(stats.requested <= 252 * PAGES, "{stats:?}");
    for dir in dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A `fleet_aware` benchmark op — `Fleet::new` + `run` of 128 hosts ×
/// 1 280 VMs, checkpoint-aware placement, seed 7 — makes at most 5.06
/// allocations a placement: 4.56 measured plus a margin of half a
/// request, so that one allocation a placement put back fails it. A
/// placement keeps its checkpoint (the `Arc` and its digest table) and
/// its one round report; the rest are the fleet's guests and tables,
/// its one request stream, the catalogs' growth and the timeline's
/// segments. Every per-migration metric and span records through
/// resolved handles and ids, the journal's labels are `&'static str`, a
/// host claim holds its ids inline, and a warm leg refills the session's
/// one index and the engine's one dedup table. An owned label `String`
/// a placement fails this, and so does a series put back on the
/// string-keyed path or a fresh index a warm leg. The op requests at
/// most 1 850 bytes a placement (1 772 measured): timeline arenas that
/// copy as they double, as a `Vec` does, request ≈ 2 250.
#[test]
fn a_fleet_aware_op_stays_within_5_06_allocations_a_placement() {
    let spec = FleetSpec::new(128, 1280)
        .with_placement(PlacementMode::CheckpointAware)
        .with_seed(7);
    let (report, stats) = metered(|| Fleet::new(spec).unwrap().run().unwrap());
    assert_eq!(report.migrations, 3_840);
    assert!(stats.calls * 100 <= 506 * report.migrations, "{stats:?}");
    assert!(stats.requested <= 1_850 * report.migrations, "{stats:?}");
}

/// Taking and dropping a host claim asks the allocator for nothing once
/// the lock table has room: a claim holds its one or two ids inline.
#[test]
fn a_host_claim_allocates_nothing() {
    let locks = HostLocks::new();
    drop(locks.claim(&[HostId::new(0), HostId::new(1)]));
    let ((), stats) = metered(|| {
        for i in 0..1_000 {
            let pair = [HostId::new(i % 3), HostId::new((i + 1) % 3)];
            let claim = locks.try_claim(&pair).expect("every host is free");
            drop(claim);
            drop(locks.claim(&pair));
            drop(locks.claim(&pair[..1]));
        }
    });
    assert_eq!(stats.calls, 0, "{stats:?}");
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

/// A warm vecycle+dedup migration sizes no cache to the guest: the index
/// answers every page its checkpoint holds before the dedup cache is
/// read, so a single VM's cache records full sends only and grows from
/// empty with them. A 32 768-page guest whose checkpoint lacks 2 % of
/// its pages, with the index built outside the meter, makes no request
/// as large as a slot per page.
#[test]
fn a_warm_dedup_live_migration_sizes_no_cache_to_the_guest() {
    const PAGES: u64 = 32_768;
    let mut guest = Guest::new(DigestMemory::with_distinct_content(
        PageCount::new(PAGES),
        5,
    ));
    let checkpoint = guest.memory().snapshot();
    for i in (0..PAGES).step_by(50) {
        guest.write_page(PageIndex::new(i), PageContent::ContentId((1 << 54) | i));
    }
    let strategy = Strategy::vecycle(&checkpoint).with_dedup();
    let mut workload = IdleWorkload::new(3, 2.0);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let (report, stats) = metered(|| {
        engine
            .migrate_live(&mut guest, &mut workload, strategy)
            .unwrap()
    });
    assert!(
        report.pages_reused().as_u64() > PAGES * 9 / 10,
        "{report:?}"
    );
    assert!(
        report.pages_sent_full().as_u64() >= PAGES / 50,
        "{report:?}"
    );
    // 24 bytes a page is a `(PageDigest, PageIndex)` slot.
    assert!(stats.largest < PAGES * 24, "{stats:?}");
}

/// A VM ping-ponging on one session reuses the session's index and the
/// engine's dedup table: once both have held a table for every page, a
/// warm vecycle+dedup leg refills them in place. Its guest rewritten
/// almost everywhere, the leg's dedup table must hold nearly every page
/// again, yet the leg makes no request as large as a table with room
/// for every page — neither index nor dedup table. What it still asks
/// for is the departing checkpoint's digest list (16 B a page) and
/// per-leg bookkeeping.
#[test]
fn a_warm_leg_on_one_session_refills_its_index_and_dedup_table() {
    const PAGES: u64 = 8_192;
    let session = VeCycleSession::new(Cluster::homogeneous(2, LinkSpec::lan_gigabit()));
    let memory = DigestMemory::with_distinct_content(PageCount::new(PAGES), 5);
    let mut vm = VmInstance::new(VmId::new(0), Guest::new(memory), HostId::new(0));
    let mut leg = |to: u32, rewrite: u64| {
        for i in (0..PAGES).filter(|i| i % 10 != 0) {
            let content = (rewrite << 40) | i;
            vm.guest_mut()
                .write_page(PageIndex::new(i), PageContent::ContentId(content));
        }
        metered(|| {
            let at = SimTime::EPOCH + SimDuration::from_hours(u64::from(to));
            session
                .migrate(&mut vm, HostId::new(to), at, &mut SilentWorkload)
                .unwrap()
        })
    };
    // A cold leg sizes the dedup table to the guest; the next two
    // recycle, the first of them building the index.
    let (cold, _) = leg(1, 1);
    assert_eq!(cold.strategy().to_string(), "dedup");
    leg(0, 2);
    leg(1, 3);
    let (report, stats) = leg(0, 4);
    assert_eq!(report.strategy().to_string(), "vecycle+dedup");
    assert!(
        report.pages_sent_full().as_u64() > PAGES * 8 / 10,
        "{report:?}"
    );
    let (_, table) = metered(|| {
        DigestMap::<PageIndex>::with_capacity_and_hasher(PAGES as usize, Default::default())
    });
    assert!(
        stats.largest < table.largest,
        "{stats:?} vs a table {table:?}"
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

/// Spans over interned strings store their ids, so 1 000 start/end
/// pairs request only the timeline's arenas — never a string or a
/// per-span label list — and the arenas grow without copying.
#[test]
fn spans_over_seen_strings_request_only_arena_growth() {
    let m = MetricsRegistry::new();
    let [round, one, bytes, sim_ns] = ["round", "1", "bytes", "sim_ns"].map(|s| m.intern(s));
    let pair = || {
        let span = m.span_start(round, &[(round, one)]);
        m.span_end(span, &[(bytes, 131_072), (sim_ns, 1_000)]);
    };
    pair();
    let ((), stats) = metered(|| (0..1_000).for_each(|_| pair()));
    // A pair appends two 32-byte timeline entries, one 8-byte label pair
    // and two 16-byte attrs: after 1 001 pairs the arenas hold 104 104
    // bytes. Grown in segments, they request at most that plus one
    // segment, the largest: 1 024 entries. (Arenas that double as a `Vec`
    // does request 212 544 bytes here; the owned-string timeline before
    // them requested 428 336.)
    let held = 2_002 * 32 + 1_001 * 8 + 2_002 * 16;
    assert!(stats.requested <= held + 1_024 * 32, "{stats:?}");
}

/// One cold `full` job of `ram_mib` through the daemon's data plane, on
/// this thread: the engine into a [`SocketSink`] over a `Vec` sized for
/// the stream, then [`receive_stream`] from a [`SessionStream`] over
/// those bytes, each end through buffers lent to it as a daemon's pool
/// lends them — allocated before the meter runs. Returns what each side
/// asked the allocator for.
fn cold_full_job(ram_mib: u64) -> (AllocStats, AllocStats) {
    let mut spec = ScenarioSpec::golden(0xa110c);
    (spec.ram_mib, spec.warm) = (ram_mib, false);
    spec.strategy = "full".into();
    let initial = scenario::initial_memory(&spec).unwrap();
    let engine = scenario::engine_for(&spec);
    let kill = KillSwitch::inert();
    let mut chunk = Vec::new();
    let mut stream = |bytes: &mut Vec<u8>| {
        let (mut guest, mut workload) = scenario::live_guest(&spec, &initial).unwrap();
        let strategy = scenario::wire_strategy(&spec, None).unwrap();
        metered(|| {
            let mut sink = SocketSink::new(&mut *bytes, &mut chunk, &kill, |_| {});
            engine
                .migrate_live_into(&mut guest, &mut workload, strategy, &mut sink)
                .unwrap();
            sink.finish().unwrap();
        })
        .1
    };
    // A first run learns the stream's length (interns the engine's
    // metric names and sizes the chunk), so the metered one writes into
    // buffers that never grow.
    let mut sized = Vec::new();
    stream(&mut sized);
    let mut bytes = Vec::with_capacity(sized.len());
    let source = stream(&mut bytes);
    assert_eq!(bytes, sized, "the stream is a function of the spec");

    let mut state = SessionState::fresh(&spec, &initial);
    let mut read = vec![0; SESSION_BUF];
    let ((), dest) = metered(|| {
        let mut s = SessionStream::new(bytes.as_slice(), &mut read);
        receive_stream(&mut s, None, &mut state, &kill, &mut ()).unwrap();
    });
    assert!(state.finished());
    (source, dest)
}

/// A full page crosses the daemon without touching the allocator. The
/// source encodes it straight into its lent chunk and the destination's
/// decoder checks it on the stack, so a cold `full` job through lent
/// buffers makes no page-sized request at either end — the destination
/// none at all — and doubling the guest adds at most a few table growth
/// steps, not two allocations a page (each end's own copy of every
/// page).
#[test]
fn a_cold_full_job_allocates_nothing_per_page() {
    let (source16, dest16) = cold_full_job(16);
    let (source32, dest32) = cold_full_job(32);
    for (source, dest) in [(source16, dest16), (source32, dest32)] {
        assert_eq!(source.page_sized, 0, "{source:?}");
        assert_eq!((dest.calls, dest.requested), (0, 0), "{dest:?}");
    }
    let (calls16, calls32) = (source16.calls + dest16.calls, source32.calls + dest32.calls);
    assert!(
        calls32 <= calls16 + 8,
        "16 MiB: {calls16} calls, 32 MiB: {calls32}"
    );
}

/// The source builds its guest in place: one digest table of 16 B a
/// page, then only the guest's dirty bitmap — no generation table, which
/// only Miyakodori reads — and no copy of the initial image beside it.
/// Built again over the table the first gave back, room already that
/// size, it asks for the trackers alone and holds the same guest.
#[test]
fn the_source_guest_is_one_digest_table_and_its_trackers() {
    let mut spec = ScenarioSpec::golden(0xa110c);
    spec.ram_mib = 16;
    let pages = PageCount::new(spec.pages());
    let (_, trackers) = metered(|| DirtyTracker::new(pages));
    let ((guest, _), stats) = metered(|| scenario::source_guest(&spec, Vec::new()).unwrap());
    assert_eq!(guest.memory().as_slice().len(), pages.as_usize());
    assert!(guest.generations().is_none());
    let table = 16 * pages.as_u64();
    assert_eq!(stats.largest, table.max(trackers.largest), "{stats:?}");
    assert_eq!(
        (stats.calls, stats.requested),
        (1 + trackers.calls, table + trackers.requested),
        "{stats:?}"
    );

    let fresh = guest.memory().clone();
    let room = guest.into_memory().into_digests();
    let ((again, _), refill) = metered(|| scenario::source_guest(&spec, room).unwrap());
    assert_eq!(again.memory(), &fresh);
    assert_eq!(refill, trackers, "the trackers alone");
}

/// A destination state holds each guest-sized table once: a warm state
/// takes the moved checkpoint image as its pages and adds one landed bit
/// a page; a cold state is one zero table and that bitset, whether
/// built over an empty table or through `fresh`. Over a table with room
/// for every page — a checkpoint image, which it zeroes whole — a cold
/// state asks for the bitset alone.
#[test]
fn a_session_state_adds_one_bit_a_page_to_its_pages() {
    let mut spec = ScenarioSpec::golden(0xa110c);
    spec.ram_mib = 128;
    let pages = spec.pages();
    let initial = scenario::initial_memory(&spec).unwrap();
    let image = initial.snapshot().into_digests();
    let (state, warm) = metered(|| SessionState::new(&spec, image));
    assert_eq!(state.mem(), initial.as_slice());
    assert!(
        warm.calls <= 1 && warm.requested <= pages / 8 + 64,
        "{warm:?}"
    );

    spec.warm = false;
    let bitset = pages.div_ceil(64) * 8;
    for way in 0..2 {
        let (state, cold) = metered(|| match way {
            1 => SessionState::fresh(&spec, &initial),
            _ => SessionState::new(&spec, Vec::new()),
        });
        assert!(state.mem().iter().all(|&d| d == PageDigest::ZERO_PAGE));
        assert_eq!(
            (cold.calls, cold.requested),
            (2, 16 * pages + bitset),
            "{cold:?}"
        );
    }
    let room = initial.snapshot().into_digests();
    let (state, cold) = metered(|| SessionState::new(&spec, room));
    assert_eq!(state.mem(), vec![PageDigest::ZERO_PAGE; pages as usize]);
    assert_eq!((cold.calls, cold.requested), (1, bitset), "{cold:?}");
}

/// However much a stream rewrites, a state's anchors cost one more
/// digest table at most, requested at the first rewrite: three rounds
/// that each rewrite every page of a 16 MiB cold state request 16 B a
/// page in one call.
#[test]
fn a_rewriting_stream_requests_one_table_of_first_digests() {
    let mut spec = ScenarioSpec::golden(0xa110c);
    (spec.ram_mib, spec.warm) = (16, false);
    let pages = spec.pages();
    let mut state = SessionState::new(&spec, Vec::new());
    let (_, rewrites) = metered(|| {
        for (round, idx) in (1..=3).flat_map(|round| (0..pages).map(move |idx| (round, idx))) {
            let digest = PageDigest::from_content_id(idx * 4 + round);
            state.apply(&WireMsg::Full { idx, digest }, None).unwrap();
        }
    });
    assert_eq!(
        (rewrites.calls, rewrites.requested),
        (1, 16 * pages),
        "{rewrites:?}"
    );
}

/// The source reads the bulk exchange straight into its index: a
/// streamed, ascending 32 768-digest exchange costs the index alone —
/// its sorted list and its directory — and no other list of the digests.
/// Read again into the index the first gave back, room already that
/// size, it asks for nothing and answers the same.
#[test]
fn a_streamed_exchange_costs_the_source_its_probe_map_alone() {
    let mut digests: Vec<PageDigest> = (1..=32_768).map(PageDigest::from_content_id).collect();
    digests.sort_unstable();
    let mut exchange = Vec::new();
    WireMsg::BulkExchange {
        digests: digests.clone(),
    }
    .encode(&mut exchange);
    let mut spec = ScenarioSpec::golden(1);
    spec.ram_mib = 128;
    let receive = |room| receive_exchange(&mut exchange.as_slice(), &spec, 0, room).unwrap();
    let (index, stats) = metered(|| receive(ChecksumIndex::default()));
    assert_eq!(index.distinct(), digests.len());
    assert!(digests.iter().all(|&d| index.contains(d)));
    let (_, built) = metered(|| ChecksumIndex::from_pages(&digests));
    assert_eq!(stats, built, "the index alone");

    let (again, refill) = metered(|| receive(index));
    assert_eq!(again.distinct(), digests.len());
    assert!(digests.iter().all(|&d| again.contains(d)));
    assert_eq!((refill.calls, refill.requested), (0, 0), "{refill:?}");
}

/// An index is a sorted list of 16-byte digests and a directory of one
/// 4-byte bucket start per two digests (and one end): built over 32 768
/// digests it asks for at most 18 bytes a digest, and the directory's
/// end, in two requests, and refilled in place for as many digests or
/// fewer it asks for nothing.
#[test]
fn an_index_costs_at_most_18_bytes_a_digest_and_refills_in_place() {
    const N: u64 = 32_768;
    let digests: Vec<PageDigest> = (1..=N).map(PageDigest::from_content_id).collect();
    let (mut index, stats) = metered(|| ChecksumIndex::from_pages(&digests));
    assert_eq!(index.distinct(), digests.len());
    assert!(stats.calls <= 2, "{stats:?}");
    assert!(stats.requested <= 18 * N + 4, "{stats:?}");
    for len in [32_768, 20_000, 3] {
        let ((), refill) = metered(|| index.refill(digests[..len].iter().copied()));
        assert_eq!(refill.calls, 0, "{len}: {refill:?}");
        assert_eq!(index.distinct(), len);
        let ((), ascending) = metered(|| index.refill_ascending(len));
        assert_eq!(ascending.calls, 0, "{len}: {ascending:?}");
    }
}

/// Every write a [`Write`](std::io::Write) saw, by length.
#[derive(Default)]
struct Writes(Vec<u8>, Vec<usize>);

impl std::io::Write for Writes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.extend_from_slice(buf);
        self.1.push(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The destination accepts a warm job through one chunk: HELLO_ACK and
/// an exchange of several hundred KiB go out through the connection's
/// lent chunk, at most 64 KiB a write, byte for byte what a
/// whole-message encode makes, and ask the allocator for nothing; so
/// does a job with no exchange, through the same chunk. The offer,
/// refilled into an index with room already that size, asks for nothing
/// either.
#[test]
fn a_warm_acceptance_goes_through_one_chunk() {
    let mut spec = ScenarioSpec::golden(1);
    spec.ram_mib = 128;
    let initial = scenario::initial_memory(&spec).unwrap();
    let mut room = ChecksumIndex::default();
    scenario::offer(&spec, initial.as_slice(), None, &mut room).unwrap();
    let (offered, stats) =
        metered(|| scenario::offer(&spec, initial.as_slice(), None, &mut room).is_some());
    assert!(offered);
    assert_eq!((stats.calls, stats.requested), (0, 0), "{stats:?}");
    let index = &room;
    let ack = proto::hello_payload(proto::VERSION, proto::ROLE_DEST);
    let mut whole = Vec::new();
    write_frame(&mut whole, kind::HELLO_ACK, &ack).unwrap();
    let hello_ack = whole.len();
    WireMsg::BulkExchange {
        digests: index.distinct_digests().collect(),
    }
    .encode(&mut whole);
    assert!(whole.len() > 8 * SESSION_BUF, "{} bytes", whole.len());

    let mut chunk = Vec::with_capacity(64 * wire::full_page_msg().as_u64() as usize);
    let mut sent = Writes(Vec::with_capacity(whole.len()), Vec::with_capacity(64));
    let ((), stats) = metered(|| accept(&mut sent, Some(index), &mut chunk).unwrap());
    assert_eq!(sent.0, whole);
    assert_eq!((stats.calls, stats.requested), (0, 0), "{stats:?}");
    assert!(sent.1.len() <= whole.len().div_ceil(SESSION_BUF) + 1);
    assert!(sent.1.iter().all(|&n| n <= SESSION_BUF), "{:?}", sent.1);

    let mut sent = Writes(Vec::with_capacity(hello_ack), Vec::with_capacity(1));
    let ((), stats) = metered(|| accept(&mut sent, None, &mut chunk).unwrap());
    assert_eq!(sent.0, whole[..hello_ack]);
    assert_eq!(sent.1, [hello_ack]);
    assert_eq!((stats.calls, stats.requested), (0, 0), "{stats:?}");
}

/// Both ends hash their final digest list in place: the content hash
/// over a 128 MiB guest's 32 768 digests makes no allocator call.
#[test]
fn the_content_hash_allocates_nothing() {
    let digests: Vec<PageDigest> = (1..=32_768).map(PageDigest::from_content_id).collect();
    let (hash, stats) = metered(|| scenario::content_hash(&digests));
    assert_eq!(hash, scenario::content_hash(&digests));
    assert_eq!((stats.calls, stats.requested), (0, 0), "{stats:?}");
}

/// A daemon pair's jobs allocate the same every time: a fresh pair of
/// in-memory daemons runs a warm and a cold job, twice, and each job asks
/// every thread's allocator for the same bytes in the same number of
/// requests as the same job of the next fresh pair, counted from submit
/// until the source's record is terminal — the window a benchmark op
/// times. The first pair pays the process's one-time setup, so five
/// pairs are compared after it. The pairs run in a child process of this
/// test binary, alone, so no other test's requests land in the counts.
#[test]
fn a_pair_job_allocates_the_same_every_time() {
    const NAME: &str = "a_pair_job_allocates_the_same_every_time";
    if std::env::var_os("VECYCLE_ALLOC_EXACT_CHILD").is_none() {
        let exe = std::env::current_exe().expect("the test binary");
        let child = Command::new(exe)
            .args(["--exact", NAME, "--test-threads=1"])
            .env("VECYCLE_ALLOC_EXACT_CHILD", "1")
            .output()
            .expect("the child runs");
        let out = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success() && out.contains("1 passed"), "{out}");
        return;
    }
    let warm = ScenarioSpec {
        ram_mib: 16,
        ..ScenarioSpec::golden(3)
    };
    let cold = ScenarioSpec {
        ram_mib: 8,
        strategy: "full".into(),
        warm: false,
        ..ScenarioSpec::golden(4)
    };
    let spawn = || Daemon::spawn(DaemonConfig::new(Endpoint::parse("127.0.0.1:0")).with_workers(1));
    let pairs: Vec<[(u64, u64); 4]> = (0..6)
        .map(|_| {
            let (a, b) = (spawn().unwrap(), spawn().unwrap());
            let counts = [&warm, &cold, &warm, &cold].map(|spec| {
                let (bytes, calls) = Everywhere::counts();
                let id = a.submit(spec.clone(), b.endpoint().clone()).unwrap();
                let rec = a.wait_job(id, Duration::from_secs(60));
                let (bytes1, calls1) = Everywhere::counts();
                let rec = rec.expect("terminal");
                assert_eq!(rec.state, JobState::Done, "{}", rec.detail);
                (bytes1 - bytes, calls1 - calls)
            });
            a.shutdown();
            b.shutdown();
            counts
        })
        .collect();
    assert!(pairs[2..].iter().all(|p| *p == pairs[1]), "{pairs:#?}");
}

/// A daemon's sessions reuse their I/O buffers. On one in-memory pair,
/// once a warm-up job has lent each daemon a set, a cold 16 MiB job and
/// a warm one make no request, on any thread, shaped like a set's
/// buffers — no sink chunk, no read buffer, no accept chunk — and the
/// pools count the reuse. A set dropped instead of returned fails this.
/// The jobs run in a child process of this test binary, alone, so no
/// other test's requests land in the count.
#[test]
fn steady_state_jobs_allocate_no_session_buffer() {
    const NAME: &str = "steady_state_jobs_allocate_no_session_buffer";
    if std::env::var_os("VECYCLE_ALLOC_EXACT_CHILD").is_none() {
        let exe = std::env::current_exe().expect("the test binary");
        let child = Command::new(exe)
            .args(["--exact", NAME, "--test-threads=1"])
            .env("VECYCLE_ALLOC_EXACT_CHILD", "1")
            .output()
            .expect("the child runs");
        let out = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success() && out.contains("1 passed"), "{out}");
        return;
    }
    assert_eq!(SET_CHUNK as u64, 64 * wire::full_page_msg().as_u64());
    let cold = ScenarioSpec {
        ram_mib: 16,
        strategy: "full".into(),
        warm: false,
        ..ScenarioSpec::golden(4)
    };
    let warm = ScenarioSpec {
        ram_mib: 16,
        ..ScenarioSpec::golden(3)
    };
    let spawn = || Daemon::spawn(DaemonConfig::new(Endpoint::parse("127.0.0.1:0")).with_workers(1));
    let (a, b) = (spawn().unwrap(), spawn().unwrap());
    let run = |spec: &ScenarioSpec| {
        let id = a.submit(spec.clone(), b.endpoint().clone()).unwrap();
        let rec = a.wait_job(id, Duration::from_secs(60)).expect("terminal");
        assert_eq!(rec.state, JobState::Done, "{}", rec.detail);
    };
    run(&warm);
    let before = Everywhere::set_shaped();
    run(&cold);
    run(&warm);
    let shaped = Everywhere::set_shaped() - before;
    let taken = |d: &vecycle_daemon::DaemonHandle, op| {
        d.metrics()
            .counter("daemon_session_buffers_total", &[("op", op)])
    };
    let counts = [&a, &b].map(|d| (taken(d, "allocated"), taken(d, "reused")));
    a.shutdown();
    b.shutdown();
    assert_eq!(shaped, 0, "set-shaped requests after the warm-up");
    assert_eq!(counts, [(1, 2), (1, 2)], "(allocated, reused) at each end");
}

/// A steady-state pair job allocates nothing guest-sized. On one
/// in-memory pair, warm-up jobs size each end's kept room (a warm 64 MiB
/// job, then a 16 MiB one); then a warm 16 MiB job and a warm 64 MiB job
/// make no request, on any thread, as large as their guest's digest
/// table, and the larger asks for at most 4 B a page more than the
/// smaller: the dirty and landed bitsets and the source's map of sent
/// digests, not a table or an index (16–18 B a page each) built again.
/// A cold job between the two offers no index and leaves the index room
/// the warm 64 MiB job refills.
/// The jobs run in a child process of this test binary, alone, so no
/// other test's requests land in the counts.
#[test]
fn a_warm_pair_job_grows_by_at_most_4_bytes_a_page() {
    const NAME: &str = "a_warm_pair_job_grows_by_at_most_4_bytes_a_page";
    if std::env::var_os("VECYCLE_ALLOC_EXACT_CHILD").is_none() {
        let exe = std::env::current_exe().expect("the test binary");
        let child = Command::new(exe)
            .args(["--exact", NAME, "--test-threads=1", "--nocapture"])
            .env("VECYCLE_ALLOC_EXACT_CHILD", "1")
            .output()
            .expect("the child runs");
        let out = String::from_utf8_lossy(&child.stdout);
        let err = String::from_utf8_lossy(&child.stderr);
        assert!(
            child.status.success() && out.contains("1 passed"),
            "{out}{err}"
        );
        return;
    }
    let warm = |ram_mib| ScenarioSpec {
        ram_mib,
        ..ScenarioSpec::golden(3)
    };
    let spawn = || Daemon::spawn(DaemonConfig::new(Endpoint::parse("127.0.0.1:0")).with_workers(1));
    let (a, b) = (spawn().unwrap(), spawn().unwrap());
    let run = |spec: &ScenarioSpec| {
        let (bytes, _) = Everywhere::counts();
        Everywhere::take_largest();
        let id = a.submit(spec.clone(), b.endpoint().clone()).unwrap();
        let rec = a.wait_job(id, Duration::from_secs(60)).expect("terminal");
        assert_eq!(rec.state, JobState::Done, "{}", rec.detail);
        (Everywhere::counts().0 - bytes, Everywhere::take_largest())
    };
    run(&warm(64));
    run(&warm(16));
    let (small, large) = (warm(16), warm(64));
    let (bytes16, largest16) = run(&small);
    run(&ScenarioSpec {
        strategy: "full".into(),
        warm: false,
        ..warm(64)
    });
    let (bytes64, largest64) = run(&large);
    a.shutdown();
    b.shutdown();
    for (spec, largest) in [(&small, largest16), (&large, largest64)] {
        assert!(
            largest < 16 * spec.pages(),
            "{} MiB: a {largest} B request",
            spec.ram_mib
        );
    }
    let grown = bytes64.saturating_sub(bytes16);
    eprintln!("16 MiB: {bytes16} B, 64 MiB: {bytes64} B, largest {largest16} / {largest64} B");
    assert!(
        grown <= 4 * (large.pages() - small.pages()),
        "16 MiB: {bytes16} B, 64 MiB: {bytes64} B"
    );
}
