//! Failure-injection around persisted checkpoints: a deployment keeps
//! checkpoints as files; corruption must degrade to a full/dedup
//! migration, never to a wrong restore — and under a byte quota the
//! durable directory must mirror the in-memory catalog through every
//! eviction, version supersession, and crash-interrupted save.

use std::sync::Arc;

use vecycle::checkpoint::{Checkpoint, DiskStore, EvictionPolicy, GoneReason};
use vecycle::core::{apply_transcript, MigrationEngine, Strategy};
use vecycle::hash::{Fnv1a64, Hasher};
use vecycle::host::Host;
use vecycle::mem::{ByteMemory, DigestMemory, MemoryImage, MutableMemory, PageBuf, PageContent};
use vecycle::net::LinkSpec;
use vecycle::types::{Bytes, HostId, PageCount, PageIndex, SimDuration, SimTime, VmId};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vecycle-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deployment loop a host daemon would run: try the stored
/// checkpoint; on corruption fall back to dedup and clear the file.
fn choose_strategy(store: &DiskStore, vm: VmId) -> (Strategy, Option<Checkpoint>) {
    match store.load(vm) {
        Ok(Some(cp)) => (Strategy::vecycle_from_checkpoint(&cp), Some(cp)),
        Ok(None) => (Strategy::dedup(), None),
        Err(_) => {
            store.remove(vm).expect("clear corrupt checkpoint");
            (Strategy::dedup(), None)
        }
    }
}

#[test]
fn corrupt_checkpoint_falls_back_to_dedup() {
    let dir = tmpdir("fallback");
    let store = DiskStore::open(&dir).unwrap();
    let vm_id = VmId::new(0);
    let mem = ByteMemory::with_distinct_content(PageCount::new(128), 4);
    let path = dir.join("vm-0.ckpt");

    // Bit rot strikes the stored file: once in the digest table, once
    // in the bytes of page 42 (32-byte header, 128 16-byte digests).
    let page_42 = 32 + 128 * 16 + 42 * 4096 + 7;
    for (at, names) in [(32 + 5, "trailer"), (page_42, "page 42 ")] {
        store
            .save(&Checkpoint::capture_bytes(vm_id, SimTime::EPOCH, &mem))
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let err = store.load(vm_id).unwrap_err().to_string();
        assert!(err.contains(names), "byte {at}: {err}");

        let (strategy, cp) = choose_strategy(&store, vm_id);
        assert!(cp.is_none(), "corrupt checkpoint must not be used");
        assert_eq!(strategy.name().to_string(), "dedup");
        // The corrupt file was cleared; the next save starts fresh.
        assert!(store.load(vm_id).unwrap().is_none());
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// What `tests/fixtures/vm-pages-v1.ckpt` and `vm-digests-v1.ckpt` hold:
/// the files the release before the digest table wrote for this guest
/// (8 pages; page 3 zero, page 1 a copy of page 6), three hours in.
fn fixture_guest() -> (ByteMemory, SimTime) {
    let mut mem = ByteMemory::with_distinct_content(PageCount::new(8), 0x17);
    mem.write_page(PageIndex::new(3), PageContent::Zero);
    mem.relocate_page(PageIndex::new(6), PageIndex::new(1));
    (mem, SimTime::EPOCH + SimDuration::from_hours(3))
}

/// A page file without a digest table (version 1, no longer read) is a
/// miss: the load names its version, the migration runs as dedup and
/// recycles nothing, and the file is cleared. The guest saved today is
/// the version-2 file of the same pages, byte for byte.
#[test]
fn previous_release_page_file_is_refused_and_the_migration_runs_unrecycled() {
    let dir = tmpdir("v1-pages");
    let store = DiskStore::open(&dir).unwrap();
    let vm_id = VmId::new(7);
    let path = dir.join("vm-7.ckpt");
    let v1 = include_bytes!("fixtures/vm-pages-v1.ckpt");
    std::fs::write(&path, v1).unwrap();

    let err = store.load(vm_id).unwrap_err().to_string();
    assert!(err.contains("version 1"), "{err}");
    let (mut mem, at) = fixture_guest();
    mem.write_page(PageIndex::new(0), PageContent::Bytes(b"moved on"));
    let (strategy, cp) = choose_strategy(&store, vm_id);
    assert!(cp.is_none());
    assert_eq!(strategy.name().to_string(), "dedup");
    let report = MigrationEngine::new(LinkSpec::lan_gigabit())
        .migrate(&mem, strategy)
        .unwrap();
    assert_eq!(report.pages_reused(), PageCount::new(0));
    assert!(!path.exists(), "the refused file is cleared");

    // Byte for byte the file the release that introduced version 2
    // wrote for this guest (its FNV-1a taken at commit 40814c7): the
    // v1 file's pages behind a digest table.
    let (mem, _) = fixture_guest();
    store
        .save(&Checkpoint::capture_bytes(vm_id, at, &mem))
        .unwrap();
    let v2 = std::fs::read(&path).unwrap();
    assert_eq!(v2[32 + 8 * 16..v2.len() - 8], v1[32..v1.len() - 8]);
    assert_eq!(
        u64::from_be_bytes(Fnv1a64::digest(&v2)),
        0x8b80_a87c_18bd_1056
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn digest_files_are_byte_identical_to_the_previous_release() {
    let dir = tmpdir("v1-digests");
    let store = DiskStore::open(&dir).unwrap();
    let (_, at) = fixture_guest();
    let mem = DigestMemory::with_distinct_content(PageCount::new(8), 0x17);
    store
        .save(&Checkpoint::capture(VmId::new(8), at, &mem))
        .unwrap();
    assert_eq!(
        std::fs::read(dir.join("vm-8.ckpt")).unwrap(),
        include_bytes!("fixtures/vm-digests-v1.ckpt")
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn intact_checkpoint_round_trips_through_the_store_and_migration() {
    let dir = tmpdir("intact");
    let store = DiskStore::open(&dir).unwrap();
    let vm_id = VmId::new(1);
    let mut mem = ByteMemory::with_distinct_content(PageCount::new(128), 5);
    store
        .save(&Checkpoint::capture_bytes(vm_id, SimTime::EPOCH, &mem))
        .unwrap();

    // The VM diverges, then migrates back.
    for i in 0..16u64 {
        mem.write_page(PageIndex::new(i), PageContent::Bytes(&i.to_le_bytes()));
    }
    let (strategy, cp) = choose_strategy(&store, vm_id);
    let cp = cp.expect("checkpoint is intact");
    assert_eq!(strategy.name().to_string(), "vecycle");

    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let (report, transcript) = engine.migrate_with_transcript(&mem, strategy).unwrap();
    assert_eq!(report.pages_reused(), PageCount::new(112));
    let rebuilt = apply_transcript(&cp, &transcript).unwrap();
    assert!(rebuilt.content_equals(&mem));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn interrupted_save_preserves_previous_checkpoint() {
    // A crash mid-save leaves the temp file; the named checkpoint must
    // still be the previous (valid) one.
    let dir = tmpdir("interrupted");
    let store = DiskStore::open(&dir).unwrap();
    let vm_id = VmId::new(2);
    let old = ByteMemory::with_distinct_content(PageCount::new(32), 6);
    store
        .save(&Checkpoint::capture_bytes(vm_id, SimTime::EPOCH, &old))
        .unwrap();
    // Simulate the crash: a half-written temp file appears.
    std::fs::write(dir.join(".vm-2.tmp"), b"partial garbage").unwrap();
    let loaded = store.load(vm_id).unwrap().unwrap();
    assert_eq!(loaded.page_count(), PageCount::new(32));
    assert!(loaded.restore_byte_memory().unwrap().content_equals(&old));
    std::fs::remove_dir_all(dir).unwrap();
}

/// An 8-page digest checkpoint (128 bytes on the wire index) for `vm`,
/// versioned by `taken_at` seconds after the epoch.
fn small_cp(vm: u32, seed: u64, taken_at: u64) -> Checkpoint {
    let mem = DigestMemory::with_distinct_content(PageCount::new(8), seed);
    Checkpoint::capture(
        VmId::new(vm),
        SimTime::EPOCH + SimDuration::from_secs(taken_at),
        &mem,
    )
}

/// A quota-governed host whose durable store lives under a fresh
/// directory; the caller removes `dir` when done.
fn quota_host(tag: &str, quota: u64) -> (Host, std::path::PathBuf) {
    let dir = tmpdir(tag);
    let host = Host::benchmark_default(HostId::new(0))
        .with_checkpoint_quota(Bytes::new(quota), EvictionPolicy::OldestFirst)
        .with_disk_store(Arc::new(DiskStore::open(&dir).unwrap()));
    (host, dir)
}

/// The durable directory and the in-memory catalog, both in id order —
/// these must agree after every lifecycle operation.
fn disk_vs_catalog(host: &Host) -> (Vec<VmId>, Vec<VmId>) {
    let on_disk = host.store().disk().unwrap().list().unwrap();
    (on_disk, host.store().vm_ids())
}

/// One input to the churn below: the store's four entry points, and the
/// two things the world does to a store between them.
#[derive(Clone, Copy)]
enum Step {
    /// `save` of (vm, taken_at); must be admitted.
    Save(u32, u64),
    /// `fetch`, and the label it must answer with.
    Fetch(u32, &'static str),
    /// `discard`, and whether there must have been anything to discard.
    Discard(u32, bool),
    /// `crash` + `restart`, and how many files the scrub must quarantine.
    CrashRestart(usize),
    /// The catalog loses one VM (a crash loses all): its file stays, and
    /// the VM is cold until a fetch re-admits it.
    Forget(u32),
    /// One byte of the VM's file flips.
    Rot(u32),
}

/// Regression for the eviction file leak, since grown to every entry
/// point of the one store: through saves mixing quota evictions with
/// version supersessions (the same VM re-saving a newer checkpoint),
/// fetches of a cold catalog under quota pressure, discards, rotted
/// files and crash + restart, the durable directory stays identical to
/// the in-memory catalog (plus the VMs the catalog was made to forget)
/// after *every* step — a superseded checkpoint's file is overwritten in
/// place, an evicted, discarded, corrupt or quarantined VM's file is
/// deleted. Both builder orders in use yield the same host.
#[test]
fn eviction_churn_keeps_disk_directory_equal_to_catalog() {
    use Step::*;
    // The 256-byte quota holds exactly two 128-byte checkpoints.
    const QUOTA: u64 = 256;
    let churn = [
        Save(1, 10),
        Save(2, 20),
        Save(1, 30), // version supersession: vm-1's file is rewritten
        Save(3, 40), // quota eviction: vm-2, the oldest resident, goes
        Fetch(2, "evicted"),
        Save(2, 50), // vm-2 returns; vm-1 is now the oldest
        Fetch(1, "evicted"),
        Forget(3),
        Save(4, 60),     // fits beside vm-2 only because vm-3 is cold
        Fetch(3, "hit"), // the re-admission has to push one of them out
        Fetch(2, "evicted"),
        Discard(4, true),
        Discard(4, false),
        Fetch(4, "miss"),
        Save(1, 80),
        Rot(1),
        CrashRestart(1),
        Fetch(1, "quarantined"),
        Save(5, 90),
        Rot(5),
        Forget(5),
        Fetch(5, "corrupt"), // the load finds the rot; the file goes
        Fetch(5, "miss"),
        CrashRestart(0),
        Fetch(3, "hit"),
    ];
    let quota_then_disk = quota_host("churn-qd", QUOTA);
    let dir = tmpdir("churn-dq");
    let disk_then_quota = vecycle::host::Cluster::homogeneous(1, LinkSpec::lan_gigabit())
        .attach_disk_stores(&dir)
        .unwrap()
        .with_checkpoint_quotas(Bytes::new(QUOTA), EvictionPolicy::OldestFirst)
        .hosts()[0]
        .clone();
    for (host, dir) in [quota_then_disk, (disk_then_quota, dir)] {
        assert_eq!(host.store().quota(), Some(Bytes::new(QUOTA)));
        let files = Arc::clone(
            host.store()
                .disk()
                .expect("both builder orders keep the mirror"),
        );
        let mut cold = std::collections::BTreeSet::new();
        for (step, &input) in churn.iter().enumerate() {
            match input {
                Save(vm, at) => {
                    let cp = small_cp(vm, u64::from(vm) * 100 + at, at);
                    assert!(host.save_checkpoint(cp).unwrap().stored, "step {step}");
                }
                Fetch(vm, label) => {
                    let (fetch, _) = host.store().fetch(VmId::new(vm)).unwrap();
                    assert_eq!(fetch.label(), label, "step {step}");
                    cold.remove(&VmId::new(vm));
                }
                Discard(vm, had) => {
                    assert_eq!(host.store().discard(VmId::new(vm)).unwrap(), had);
                }
                CrashRestart(quarantined) => {
                    host.crash();
                    let report = host.restart().unwrap();
                    assert_eq!(report.quarantined.len(), quarantined, "step {step}");
                    cold.clear();
                }
                Forget(vm) => {
                    assert!(host.store().remove(VmId::new(vm)), "step {step}");
                    cold.insert(VmId::new(vm));
                }
                Rot(vm) => {
                    let path = files.root().join(format!("vm-{vm}.ckpt"));
                    let mut bytes = std::fs::read(&path).unwrap();
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x20;
                    std::fs::write(&path, bytes).unwrap();
                }
            }
            // What `bench/soak.rs::check_cluster_invariants` asserts.
            let (on_disk, catalog) = disk_vs_catalog(&host);
            let mut expected = catalog.clone();
            expected.extend(cold.iter().copied());
            expected.sort();
            assert_eq!(
                on_disk, expected,
                "step {step}: durable directory diverged from the catalog"
            );
            // Hidden names too: eviction and quarantine free a VM's
            // spare with its checkpoint.
            for entry in std::fs::read_dir(files.root()).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                let owner = name
                    .strip_prefix(".vm-")
                    .and_then(|s| s.strip_suffix(".tmp"))
                    .or_else(|| name.strip_prefix("vm-")?.strip_suffix(".ckpt"))
                    .and_then(|id| id.parse().ok())
                    .map(VmId::new);
                assert!(
                    owner.is_some_and(|vm| expected.contains(&vm)),
                    "step {step}: {name} belongs to no catalogued VM"
                );
            }
            assert!(
                host.store().used().as_u64() <= QUOTA,
                "step {step}: quota overrun"
            );
            for vm in (1..=5).map(VmId::new) {
                assert!(
                    host.store().gone(vm).is_none() || host.store().latest(vm).is_none(),
                    "step {step}: {vm} is served despite its tombstone"
                );
            }
        }
        // The last save wins for every VM still resident: each surviving
        // file must load as the version the catalog serves.
        for vm in host.store().vm_ids() {
            let on_disk = files.load(vm).unwrap().unwrap();
            let in_mem = host.store().latest(vm).unwrap();
            assert_eq!(on_disk.taken_at(), in_mem.taken_at(), "{vm} version skew");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A crash in the middle of a quota-pressured save must be invisible:
/// the durable protocol stages into a temp file and renames, so the
/// half-written attempt leaves the previous resident set — including
/// the eviction victim the interrupted save *would* have chosen —
/// fully intact, and the retried save then performs the eviction on
/// both stores atomically.
#[test]
fn crash_during_save_under_quota_pressure_preserves_victim_and_agreement() {
    let (host, dir) = quota_host("crash-save", 256);
    host.save_checkpoint(small_cp(1, 11, 10)).unwrap();
    host.save_checkpoint(small_cp(2, 22, 20)).unwrap();

    // The writer dies after staging vm-3's temp file, before the rename
    // and before quota admission ran: no eviction happened.
    std::fs::write(dir.join(".vm-3.tmp"), b"half-written checkpoint").unwrap();
    let (on_disk, catalog) = disk_vs_catalog(&host);
    assert_eq!(
        on_disk, catalog,
        "temp files must not surface as checkpoints"
    );
    assert_eq!(catalog, vec![VmId::new(1), VmId::new(2)]);
    assert!(
        host.store().gone(VmId::new(1)).is_none(),
        "the would-be victim must not be tombstoned by a save that never landed"
    );
    assert!(
        host.store()
            .disk()
            .unwrap()
            .load(VmId::new(1))
            .unwrap()
            .is_some(),
        "the would-be victim's file must survive the interrupted save"
    );

    // The retry lands: vm-1 (oldest) is evicted from memory *and* disk,
    // and the stale temp file is gone with the completed rename.
    let outcome = host.save_checkpoint(small_cp(3, 33, 30)).unwrap();
    assert!(outcome.stored);
    assert_eq!(outcome.evicted.len(), 1);
    let (on_disk, catalog) = disk_vs_catalog(&host);
    assert_eq!(on_disk, catalog);
    assert_eq!(catalog, vec![VmId::new(2), VmId::new(3)]);
    assert_eq!(host.store().gone(VmId::new(1)), Some(GoneReason::Evicted));
    assert!(
        !dir.join(".vm-3.tmp").exists(),
        "the completed save must consume (or replace) the staged temp file"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn store_handles_many_vms() {
    let dir = tmpdir("many");
    let store = DiskStore::open(&dir).unwrap();
    for i in 0..20u32 {
        let mem = ByteMemory::with_distinct_content(PageCount::new(8), 100 + u64::from(i));
        store
            .save(&Checkpoint::capture_bytes(
                VmId::new(i),
                SimTime::EPOCH,
                &mem,
            ))
            .unwrap();
    }
    assert_eq!(store.list().unwrap().len(), 20);
    for i in (0..20u32).step_by(2) {
        store.remove(VmId::new(i)).unwrap();
    }
    let left = store.list().unwrap();
    assert_eq!(left.len(), 10);
    assert!(left.iter().all(|v| v.as_u32() % 2 == 1));
    // Remaining checkpoints are still valid and distinct.
    for v in left {
        let cp = store.load(v).unwrap().unwrap();
        assert_eq!(cp.vm(), v);
        assert!(!cp.digests().is_empty());
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// One leg of `examples/ping_pong.rs` over a disk store, counted at the
/// page-buffer constructor: the load allocates one buffer per page it
/// reads, a guest write at most one per page it changes, and the scan,
/// the merge, the capture and the save none — nothing on the leg holds
/// a second copy of the guest.
#[test]
fn a_ping_pong_leg_allocates_page_buffers_only_to_read_and_to_write() {
    use vecycle::mem::workload::{GuestWorkload, IdleWorkload, RelocationWorkload};
    use vecycle::mem::Guest;
    const PAGES: u64 = 256;
    let dir = tmpdir("leg-buffers");
    let store = DiskStore::open(&dir).unwrap();
    let vm_id = VmId::new(4);
    let mut guest = Guest::new(ByteMemory::with_distinct_content(PageCount::new(PAGES), 12));
    // The checkpoint the guest left on this host shares every page with
    // it, so the hour of writes below cannot go in place.
    let left_here = Checkpoint::capture_bytes(vm_id, SimTime::EPOCH, guest.memory());
    store.save(&left_here).unwrap();

    let at_start = PageBuf::allocated();
    IdleWorkload::new(1, 0.03).advance(&mut guest, SimDuration::from_hours(1));
    RelocationWorkload::new(2, 0.02).advance(&mut guest, SimDuration::from_hours(1));
    let changed = (0..PAGES)
        .map(PageIndex::new)
        .filter(|&i| {
            !guest
                .memory()
                .read_page(i)
                .shares_with(left_here.read_page(i).unwrap())
        })
        .count() as u64;
    let written = PageBuf::allocated() - at_start;
    assert!(
        0 < written && written <= changed && changed < PAGES,
        "{written} {changed}"
    );

    let checkpoint = store.load(vm_id).unwrap().expect("saved above");
    assert_eq!(PageBuf::allocated() - at_start, written + PAGES);
    let (report, transcript) = MigrationEngine::new(LinkSpec::lan_gigabit())
        .migrate_with_transcript(
            guest.memory(),
            Strategy::vecycle_from_checkpoint(&checkpoint),
        )
        .unwrap();
    assert!(report.pages_sent_full().as_u64() > 0);
    let rebuilt = apply_transcript(&checkpoint, &transcript).unwrap();
    assert!(rebuilt.content_equals(guest.memory()));
    store
        .save(&Checkpoint::capture_bytes(
            vm_id,
            SimTime::EPOCH,
            guest.memory(),
        ))
        .unwrap();
    assert_eq!(PageBuf::allocated() - at_start, written + PAGES);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A naive image: one owned `Vec<u8>` per page, nothing shared.
type Model = Vec<Vec<u8>>;

const MODEL_PAGES: u64 = 12;

fn model_of(mem: &ByteMemory) -> Model {
    mem.pages().iter().map(|p| p.to_vec()).collect()
}

/// Every handle still reads what its model says — so no write through
/// one handle showed through another.
fn check_bytes(mems: &[(ByteMemory, Model)], cps: &[(Checkpoint, Model)]) -> Result<(), String> {
    let pages = |i| PageIndex::new(i as u64);
    for (k, (mem, model)) in mems.iter().enumerate() {
        if let Some(i) = (0..model.len()).find(|&i| mem.read_page(pages(i))[..] != model[i][..]) {
            return Err(format!("memory {k} page {i} differs from its model"));
        }
    }
    for (k, (cp, model)) in cps.iter().enumerate() {
        let differs =
            |&i: &usize| cp.read_page(pages(i)).expect("page checkpoint")[..] != model[i][..];
        if let Some(i) = (0..model.len()).find(differs) {
            return Err(format!("checkpoint {k} page {i} differs from its model"));
        }
    }
    Ok(())
}

/// The digests an image reports are the MD5 of the bytes it holds.
fn check_digests(image: &impl MemoryImage, model: &Model) -> Result<(), String> {
    match (0..model.len()).find(|&i| {
        image.page_digest(PageIndex::new(i as u64)) != vecycle::hash::page_digest(&model[i])
    }) {
        Some(i) => Err(format!("page {i} reports a stale digest")),
        None => Ok(()),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Memories, snapshots, checkpoints and merged destinations share
    /// page buffers freely; against a model in which every image owns
    /// its bytes, no interleaving of writes, relocations, hand-overs,
    /// snapshots, captures, restores and transcript merges lets a write
    /// leak from one image into another or leaves a digest behind its
    /// bytes.
    #[test]
    fn shared_pages_behave_like_private_copies(
        ops in proptest::collection::vec(
            ((0u8..9, 0usize..4, 0usize..4), (0..MODEL_PAGES, 0..MODEL_PAGES, 0u64..5)),
            1..60,
        ),
    ) {
        let first = ByteMemory::with_distinct_content(PageCount::new(MODEL_PAGES), 21);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        let mut mems = vec![(first.snapshot(), model_of(&first))];
        let mut cps = vec![(Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &first), model_of(&first))];
        // A new image takes slot `at` if four already exist.
        fn put<T>(slots: &mut Vec<T>, at: usize, item: T) {
            if slots.len() < 4 { slots.push(item) } else { slots[at] = item }
        }
        for ((op, i, j), (a, b, id)) in ops {
            let (m, c) = (i % mems.len(), j % cps.len());
            let (pa, pb) = (PageIndex::new(a), PageIndex::new(b));
            match op {
                0 => {
                    let content = PageContent::ContentId(id); // id 0: the zero page
                    mems[m].0.write_page(pa, content);
                    mems[m].1[a as usize] = content.materialize();
                }
                1 => {
                    let text = [id as u8 + 1; 9];
                    mems[m].0.write_page(pa, PageContent::Bytes(&text));
                    mems[m].1[a as usize] = PageContent::Bytes(&text).materialize();
                }
                2 => {
                    mems[m].0.relocate_page(pa, pb);
                    mems[m].1[b as usize] = mems[m].1[a as usize].clone();
                }
                3 => {
                    // Hand a checkpoint's buffer over, digest and all.
                    let page: PageBuf = cps[c].0.read_page(pb).expect("page checkpoint").clone();
                    mems[m].0.write_page_with_digest(pa, page, cps[c].0.digest(pb));
                    mems[m].1[a as usize] = cps[c].1[b as usize].clone();
                }
                4 => {
                    let copy = (mems[m].0.snapshot(), mems[m].1.clone());
                    put(&mut mems, j, copy);
                }
                5 => {
                    let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, &mems[m].0);
                    let model = mems[m].1.clone();
                    put(&mut cps, j, (cp, model));
                }
                6 => {
                    let restored = cps[c].0.restore_byte_memory().expect("page checkpoint");
                    let model = cps[c].1.clone();
                    put(&mut mems, i, (restored, model));
                }
                _ => {
                    // Migrate memory `m` onto checkpoint `c`'s host.
                    let strategy = Strategy::vecycle_from_checkpoint(&cps[c].0);
                    let (_, transcript) = engine.migrate_with_transcript(&mems[m].0, strategy).unwrap();
                    let rebuilt = apply_transcript(&cps[c].0, &transcript).unwrap();
                    let model = mems[m].1.clone();
                    put(&mut mems, a as usize % 4, (rebuilt, model));
                }
            }
            // Bytes of every image after every step, digests of the
            // memory the step addressed; every image's once more below.
            let checked = check_bytes(&mems, &cps).and_then(|()| check_digests(&mems[m].0, &mems[m].1));
            if let Err(why) = checked {
                proptest::prop_assert!(false, "after op {}: {}", op, why);
            }
        }
        for (mem, model) in &mems {
            proptest::prop_assert_eq!(check_digests(mem, model), Ok(()));
        }
        for (cp, model) in &cps {
            let restored = cp.restore_byte_memory().expect("page checkpoint");
            proptest::prop_assert_eq!(check_digests(&restored, model), Ok(()));
        }
    }
}
