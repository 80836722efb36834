//! End-to-end integration: source engine → wire transcript → destination
//! merge, with real bytes and real MD5 throughout.

use vecycle::checkpoint::Checkpoint;
use vecycle::core::{apply_transcript, MigrationEngine, Strategy};
use vecycle::mem::workload::{GuestWorkload, IdleWorkload, RelocationWorkload};
use vecycle::mem::{ByteMemory, Guest, PageContent};
use vecycle::net::LinkSpec;
use vecycle::types::{PageCount, PageIndex, SimDuration, SimTime, VmId};

fn engine() -> MigrationEngine {
    MigrationEngine::new(LinkSpec::lan_gigabit())
}

fn aged_guest(pages: u64, seed: u64) -> (Guest<ByteMemory>, Checkpoint) {
    let mut guest = Guest::new(ByteMemory::with_distinct_content(
        PageCount::new(pages),
        seed,
    ));
    let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, guest.memory());
    // Rates are per second over a 30-minute window on a small guest:
    // ~90 daemon writes and ~36 relocations across 512 pages.
    let mut daemons = IdleWorkload::new(seed ^ 1, 0.05);
    let mut reloc = RelocationWorkload::new(seed ^ 2, 0.02);
    daemons.advance(&mut guest, SimDuration::from_mins(30));
    reloc.advance(&mut guest, SimDuration::from_mins(30));
    (guest, cp)
}

#[test]
fn vecycle_transcript_rebuilds_memory_byte_for_byte() {
    let (guest, cp) = aged_guest(512, 10);
    let (report, transcript) = engine()
        .migrate_with_transcript(guest.memory(), Strategy::vecycle_from_checkpoint(&cp))
        .unwrap();
    assert!(report.pages_reused().as_u64() > 0, "nothing was reused");
    let rebuilt = apply_transcript(&cp, &transcript).unwrap();
    assert!(rebuilt.content_equals(guest.memory()));
}

#[test]
fn vecycle_dedup_transcript_rebuilds_memory() {
    let (mut guest, cp) = aged_guest(512, 11);
    // Inject duplicates so dedup refs appear in the transcript.
    for i in 0..50u64 {
        guest.write_page(PageIndex::new(400 + i), PageContent::Bytes(b"same content"));
    }
    let (report, transcript) = engine()
        .migrate_with_transcript(
            guest.memory(),
            Strategy::vecycle_from_checkpoint(&cp).with_dedup(),
        )
        .unwrap();
    assert!(report.rounds()[0].dedup_refs.as_u64() >= 49);
    let rebuilt = apply_transcript(&cp, &transcript).unwrap();
    assert!(rebuilt.content_equals(guest.memory()));
}

#[test]
fn full_transcript_rebuilds_even_from_unrelated_checkpoint() {
    let (guest, _) = aged_guest(256, 12);
    // Destination holds a checkpoint of a *different* VM state; a full
    // migration must still reconstruct correctly because it never relies
    // on resident content.
    let unrelated = Checkpoint::capture_bytes(
        VmId::new(9),
        SimTime::EPOCH,
        &ByteMemory::with_distinct_content(PageCount::new(256), 999),
    );
    let (_, transcript) = engine()
        .migrate_with_transcript(guest.memory(), Strategy::full())
        .unwrap();
    let rebuilt = apply_transcript(&unrelated, &transcript).unwrap();
    assert!(rebuilt.content_equals(guest.memory()));
}

#[test]
fn checkpoint_survives_disk_round_trip_and_still_serves_migration() {
    let (guest, cp) = aged_guest(256, 13);
    let dir = std::env::temp_dir().join("vecycle-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("vm0.ckpt");
    let file = std::fs::File::create(&path).unwrap();
    cp.write_to(std::io::BufWriter::new(file)).unwrap();
    let loaded = Checkpoint::read_from(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(loaded, cp);

    let (_, transcript) = engine()
        .migrate_with_transcript(guest.memory(), Strategy::vecycle_from_checkpoint(&loaded))
        .unwrap();
    let rebuilt = apply_transcript(&loaded, &transcript).unwrap();
    assert!(rebuilt.content_equals(guest.memory()));
    std::fs::remove_file(path).unwrap();
}

#[test]
fn truncated_checkpoint_file_fails_loud_not_wrong() {
    let (_, cp) = aged_guest(64, 14);
    let mut bytes = Vec::new();
    cp.write_to(&mut bytes).unwrap();
    bytes.truncate(bytes.len() - 100);
    let err = Checkpoint::read_from(&bytes[..]).unwrap_err();
    assert!(matches!(err, vecycle::types::Error::Corrupt { .. }));
}

#[test]
fn traffic_accounting_is_conserved() {
    let (guest, cp) = aged_guest(512, 15);
    let (report, transcript) = engine()
        .migrate_with_transcript(guest.memory(), Strategy::vecycle_from_checkpoint(&cp))
        .unwrap();
    // Every page appears exactly once in the transcript.
    assert_eq!(transcript.len() as u64, guest.page_count().as_u64());
    // Ledger page counts equal transcript message counts by kind.
    let full = transcript
        .iter()
        .filter(|m| matches!(m, vecycle::core::PageMsg::Full { .. }))
        .count() as u64;
    let checksums = transcript
        .iter()
        .filter(|m| matches!(m, vecycle::core::PageMsg::Checksum { .. }))
        .count() as u64;
    assert_eq!(report.pages_sent_full().as_u64(), full);
    assert_eq!(report.pages_reused().as_u64(), checksums);
    // Bytes: full pages dominate; checksum messages are 28 bytes each.
    let expected_min = full * 4096;
    assert!(report.source_traffic().as_u64() >= expected_min);
    let expected_max = full * 4200 + checksums * 40 + 4096;
    assert!(report.source_traffic().as_u64() <= expected_max);
}

#[test]
fn relocation_heavy_guest_still_rebuilds_and_beats_dirty_tracking() {
    let mut guest =
        Guest::with_generations(ByteMemory::with_distinct_content(PageCount::new(256), 16));
    let gen_snapshot = guest.generations().expect("tracked").snapshot();
    let cp = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, guest.memory());
    let mut reloc = RelocationWorkload::new(17, 50.0);
    reloc.advance(&mut guest, SimDuration::from_secs(2));

    let eng = engine();
    let dirty = eng
        .migrate(
            guest.memory(),
            Strategy::miyakodori(guest.generations().expect("tracked"), &gen_snapshot),
        )
        .unwrap();
    let (hashes, transcript) = eng
        .migrate_with_transcript(guest.memory(), Strategy::vecycle_from_checkpoint(&cp))
        .unwrap();
    assert!(hashes.pages_sent_full() < dirty.pages_sent_full());
    let rebuilt = apply_transcript(&cp, &transcript).unwrap();
    assert!(rebuilt.content_equals(guest.memory()));
}
