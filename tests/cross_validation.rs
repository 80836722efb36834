//! Cross-validation: the paper derives Figure 5 from *trace analytics*
//! (PairStats over fingerprints) and Figures 6–7 from the *prototype*
//! (the engine). Both paths exist here, so they must agree: migrating a
//! memory image reconstructed from fingerprint `b` against a checkpoint
//! reconstructed from fingerprint `a` must transfer exactly the page
//! counts the analytics predict.

use vecycle::core::{MigrationEngine, Strategy};
use vecycle::mem::DigestMemory;
use vecycle::net::LinkSpec;
use vecycle::trace::{catalog, PairStats, TraceGenerator};
use vecycle::types::SimDuration;

fn engine_no_zero_suppression() -> MigrationEngine {
    // PairStats counts zero pages like any other content; disable the
    // engine's zero-marker shortcut so the two sides count identically.
    MigrationEngine::new(LinkSpec::lan_gigabit()).with_zero_page_suppression(false)
}

#[test]
fn engine_matches_pair_stats_on_generated_traces() {
    let machine = &catalog()[0]; // Server A
    let mut profile = machine.profile.clone();
    profile.trace_duration = SimDuration::from_hours(8);
    profile.reboot_interval = None; // keep the fingerprint count exact
    let trace = TraceGenerator::new(profile, 77)
        .scale_pages(1024)
        .generate()
        .unwrap();
    let fps = trace.fingerprints();
    let engine = engine_no_zero_suppression();

    for (i, j) in [(0usize, 4usize), (0, 16), (3, 10), (5, 6)] {
        let a = &fps[i];
        let b = &fps[j];
        let stats = PairStats::compute(a, b);

        let checkpoint = DigestMemory::from_digests(a.pages().to_vec());
        let vm = DigestMemory::from_digests(b.pages().to_vec());

        // VeCycle without dedup: full pages == "hashes".
        let r = engine.migrate(&vm, Strategy::vecycle(&checkpoint)).unwrap();
        assert_eq!(
            r.pages_sent_full().as_u64(),
            stats.hashes,
            "hashes mismatch for pair ({i},{j})"
        );

        // VeCycle + dedup: full pages == "hashes+dedup".
        let r = engine
            .migrate(&vm, Strategy::vecycle(&checkpoint).with_dedup())
            .unwrap();
        assert_eq!(
            r.pages_sent_full().as_u64(),
            stats.hashes_dedup,
            "hashes+dedup mismatch for pair ({i},{j})"
        );

        // Dedup alone: full pages == unique contents of b.
        let r = engine.migrate(&vm, Strategy::dedup()).unwrap();
        assert_eq!(
            r.pages_sent_full().as_u64(),
            stats.dedup,
            "dedup mismatch for pair ({i},{j})"
        );

        // Full: everything.
        let r = engine.migrate(&vm, Strategy::full()).unwrap();
        assert_eq!(r.pages_sent_full().as_u64(), stats.total);
    }
}

#[test]
fn miyakodori_engine_matches_dirty_analytics() {
    use vecycle::mem::{Guest, MemoryImage, PageContent};
    use vecycle::trace::Fingerprint;
    use vecycle::types::{PageCount, PageIndex, SimTime};

    // Drive a guest through tracked writes so the generation table and
    // the fingerprint diff describe the same history.
    let mem = DigestMemory::with_distinct_content(PageCount::new(512), 9);
    let fp_a = Fingerprint::new(SimTime::EPOCH, mem.digests());
    let mut guest = Guest::with_generations(mem);
    let snapshot = guest.generations().expect("tracked").snapshot();
    for i in 0..100u64 {
        guest.write_page(PageIndex::new(i * 5), PageContent::ContentId((1 << 57) | i));
    }
    let fp_b = Fingerprint::new(SimTime::EPOCH + SimDuration::from_mins(30), guest.digests());
    let stats = PairStats::compute(&fp_a, &fp_b);

    let engine = engine_no_zero_suppression();
    let strategy = Strategy::miyakodori(guest.generations().expect("tracked"), &snapshot);
    let r = engine.migrate(guest.memory(), strategy).unwrap();
    // Every write created fresh content, so generation-dirty equals
    // content-dirty equals the engine's full-page count.
    assert_eq!(r.pages_sent_full().as_u64(), stats.dirty);
    assert_eq!(stats.dirty, 100);
    assert_eq!(r.rounds()[0].skipped_pages.as_u64(), 512 - 100);
}

#[test]
fn traffic_fraction_matches_similarity_complement() {
    // The paper's headline identity: "the migration time and traffic is
    // reduced by a percentage equivalent to the similarity between the
    // VM's current state and its old checkpoint."
    let machine = &catalog()[1];
    let mut profile = machine.profile.clone();
    profile.trace_duration = SimDuration::from_hours(6);
    let trace = TraceGenerator::new(profile, 55)
        .scale_pages(2048)
        .generate()
        .unwrap();
    let fps = trace.fingerprints();
    let a = &fps[0];
    let b = &fps[8]; // 4 h apart

    let engine = engine_no_zero_suppression();
    let checkpoint = DigestMemory::from_digests(a.pages().to_vec());
    let vm = DigestMemory::from_digests(b.pages().to_vec());
    let r = engine.migrate(&vm, Strategy::vecycle(&checkpoint)).unwrap();

    let novel_fraction = r.pages_sent_full().as_u64() as f64 / 2048.0;
    let similarity = b.similarity(a).as_f64();
    // Novel-page fraction ≈ 1 − similarity (not exact: similarity is
    // set-based while transfers count page slots).
    assert!(
        (novel_fraction - (1.0 - similarity)).abs() < 0.12,
        "novel {novel_fraction:.3} vs 1-sim {:.3}",
        1.0 - similarity
    );
}
