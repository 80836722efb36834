//! Byte-exact ping-pong: prove the destination reconstructs memory.
//!
//! Uses real page bytes and real MD5 end to end: the source classifies
//! pages against the destination's checkpoint, the transcript crosses
//! the "wire", and the destination merge (the paper's Listing 1)
//! rebuilds guest memory — each full page checked once against its
//! attached checksum, the result verified byte for byte. Run:
//!
//! ```sh
//! cargo run --release --example ping_pong
//! ```

use vecycle::checkpoint::Checkpoint;
use vecycle::core::{apply_transcript, MigrationEngine, Strategy};
use vecycle::mem::workload::{GuestWorkload, IdleWorkload, RelocationWorkload};
use vecycle::mem::{ByteMemory, Guest, MemoryImage};
use vecycle::net::LinkSpec;
use vecycle::types::{PageCount, SimDuration, SimTime, VmId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small byte-backed guest (16 MiB): every page is really hashed —
    // once per content, in a batch when its digest is first asked for
    // (here: by the checkpoint capture, then by the scan for the pages
    // the hour of writes touched).
    let mut guest = Guest::new(ByteMemory::with_distinct_content(
        PageCount::new(4096),
        1234,
    ));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let vm = VmId::new(0);

    // Host B stores a checkpoint when the VM first arrives there.
    let checkpoint_b = Checkpoint::capture_bytes(vm, SimTime::EPOCH, guest.memory());

    // The VM runs on A for an hour: daemon writes plus page relocations.
    let mut daemons = IdleWorkload::new(1, 1.0);
    let mut reloc = RelocationWorkload::new(2, 0.5);
    daemons.advance(&mut guest, SimDuration::from_hours(1));
    reloc.advance(&mut guest, SimDuration::from_hours(1));

    // Migrate A -> B, recycling B's checkpoint.
    let (report, transcript) = engine.migrate_with_transcript(
        guest.memory(),
        Strategy::vecycle_from_checkpoint(&checkpoint_b),
    )?;
    println!("migration: {report}");
    println!(
        "transcript: {} messages ({} full pages, {} checksum-only)",
        transcript.len(),
        report.pages_sent_full().as_u64(),
        report.pages_reused().as_u64(),
    );

    // Destination side: Listing 1 merge from checkpoint + transcript.
    let rebuilt = apply_transcript(&checkpoint_b, &transcript)?;
    assert!(
        rebuilt.content_equals(guest.memory()),
        "destination memory must equal the source byte-for-byte"
    );
    println!(
        "destination rebuilt {} ({} pages) byte-for-byte ✓",
        rebuilt.ram_size(),
        rebuilt.page_count().as_u64(),
    );
    Ok(())
}
