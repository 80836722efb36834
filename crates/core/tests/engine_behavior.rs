//! Behavioral tests of the migration engine's public API: every driver
//! (static, gang, live, faulted) over the shared transfer pipeline.

use vecycle_core::{
    DeltaCompression, ExchangeProtocol, LiveOutcome, MigrationEngine, Strategy, Xbzrle,
};
use vecycle_faults::{AttemptFaults, DropPoint, FaultCause};
use vecycle_mem::workload::{GuestWorkload, IdleWorkload, SilentWorkload};
use vecycle_mem::{DigestMemory, Guest, MemoryImage, MutableMemory, PageContent};
use vecycle_net::{wire, LinkSpec};
use vecycle_types::{Bytes, PageCount, PageIndex, SimDuration};

fn mem(mib: u64, seed: u64) -> DigestMemory {
    DigestMemory::with_uniform_content(Bytes::from_mib(mib), seed).unwrap()
}

#[test]
fn full_migration_sends_whole_ram() {
    let vm = mem(16, 1);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let r = engine.migrate(&vm, Strategy::full()).unwrap();
    assert_eq!(r.pages_sent_full(), vm.page_count());
    // Traffic is RAM plus per-page framing.
    assert!(r.source_traffic() > vm.ram_size());
    let overhead = r.source_traffic().as_f64() / vm.ram_size().as_f64();
    assert!(overhead < 1.01, "framing overhead too large: {overhead}");
    assert_eq!(r.reverse_traffic(), Bytes::ZERO);
}

#[test]
fn identical_checkpoint_reduces_traffic_by_two_orders() {
    let vm = mem(16, 1);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let r = engine
        .migrate(&vm, Strategy::vecycle(&vm.snapshot()))
        .unwrap();
    assert_eq!(r.pages_sent_full(), PageCount::ZERO);
    assert_eq!(r.pages_reused(), vm.page_count());
    // 28 bytes replace 4124: ~99% reduction (paper: 1 GB -> 15 MB).
    let frac = r.traffic_fraction_of_ram().as_f64();
    assert!(frac < 0.01, "fraction = {frac}");
}

#[test]
fn lan_times_match_figure_6() {
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    // Full migration of 1 GiB: "around 10 seconds".
    let vm1 = mem(1024, 2);
    let full = engine.migrate(&vm1, Strategy::full()).unwrap();
    let t = full.total_time().as_secs_f64();
    assert!(t > 8.0 && t < 11.0, "full 1 GiB took {t}");
    // VeCycle on an idle VM: checksum-rate bound, ~3 s.
    let re = engine
        .migrate(&vm1, Strategy::vecycle(&vm1.snapshot()))
        .unwrap();
    let t = re.total_time().as_secs_f64();
    assert!(t > 2.5 && t < 3.5, "vecycle 1 GiB took {t}");
}

#[test]
fn wan_reduction_is_dramatic() {
    let engine = MigrationEngine::new(LinkSpec::wan_cloudnet());
    let vm = mem(1024, 3);
    let full = engine.migrate(&vm, Strategy::full()).unwrap();
    let re = engine
        .migrate(&vm, Strategy::vecycle(&vm.snapshot()))
        .unwrap();
    // Paper: 177 s -> 16 s for 1 GiB.
    let tf = full.total_time().as_secs_f64();
    let tr = re.total_time().as_secs_f64();
    assert!(tf > 150.0, "full WAN took {tf}");
    assert!(tr < 25.0, "vecycle WAN took {tr}");
}

#[test]
fn dedup_reduces_traffic_on_duplicated_memory() {
    // Half the pages duplicate the other half.
    let mut vm = mem(8, 4);
    let n = vm.page_count().as_u64();
    for i in 0..n / 2 {
        vm.relocate_page(PageIndex::new(i), PageIndex::new(i + n / 2));
    }
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let full = engine.migrate(&vm, Strategy::full()).unwrap();
    let dedup = engine.migrate(&vm, Strategy::dedup()).unwrap();
    assert!(dedup.source_traffic().as_f64() < full.source_traffic().as_f64() * 0.55);
    let r = dedup.rounds()[0].dedup_refs;
    assert_eq!(r, PageCount::new(n / 2));
}

#[test]
fn partial_overlap_scales_traffic() {
    // 25% of pages changed since checkpoint: traffic ≈ 25% of full.
    let vm0 = mem(16, 5);
    let mut vm = vm0.snapshot();
    let n = vm.page_count().as_u64();
    for i in 0..n / 4 {
        vm.write_page(PageIndex::new(i * 4), PageContent::ContentId(1 << 50 | i));
    }
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let r = engine.migrate(&vm, Strategy::vecycle(&vm0)).unwrap();
    let frac = r.traffic_fraction_of_ram().as_f64();
    assert!((frac - 0.25).abs() < 0.02, "fraction = {frac}");
}

#[test]
fn live_migration_with_idle_workload_converges() {
    let mut guest = Guest::new(mem(8, 6));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let mut wl = IdleWorkload::new(7, 50.0);
    let r = engine
        .migrate_live(&mut guest, &mut wl, Strategy::full())
        .unwrap();
    assert!(!r.rounds().is_empty());
    assert!(r.downtime() <= SimDuration::from_millis(400));
    // All of RAM went over plus the dirty residue.
    assert!(r.pages_sent_full() >= guest.page_count());
}

#[test]
fn live_migration_silent_workload_is_single_round() {
    let mut guest = Guest::new(mem(4, 8));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let r = engine
        .migrate_live(&mut guest, &mut SilentWorkload, Strategy::full())
        .unwrap();
    assert_eq!(r.rounds().len(), 1);
    assert_eq!(r.pages_sent_full(), guest.page_count());
}

#[test]
fn round_limit_bounds_busy_guests() {
    let mut guest = Guest::new(mem(4, 9));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit()).with_max_rounds(3);
    // Very hot workload that would never converge.
    let mut wl = IdleWorkload::new(10, 200_000.0);
    let r = engine
        .migrate_live(&mut guest, &mut wl, Strategy::full())
        .unwrap();
    assert!(r.rounds().len() <= 3);
    assert!(r.downtime() > SimDuration::ZERO);
}

#[test]
fn per_page_protocol_is_slower_but_skips_bulk_exchange() {
    let vm = mem(16, 11);
    let cp = vm.snapshot();
    let bulk = MigrationEngine::new(LinkSpec::wan_cloudnet());
    let perpage = MigrationEngine::new(LinkSpec::wan_cloudnet())
        .with_exchange(ExchangeProtocol::PerPage { pipeline_depth: 16 });
    let rb = bulk.migrate(&vm, Strategy::vecycle(&cp)).unwrap();
    let rp = perpage.migrate(&vm, Strategy::vecycle(&cp)).unwrap();
    assert!(rp.total_time() > rb.total_time() * 5);
    assert!(!rb.setup().exchange_bytes.is_zero());
    assert!(rp.setup().exchange_bytes.is_zero());
}

#[test]
fn xbzrle_shrinks_resend_rounds() {
    let run = |engine: MigrationEngine| {
        let mut guest = Guest::new(mem(8, 40));
        let mut wl = IdleWorkload::new(41, 30_000.0);
        engine
            .migrate_live(&mut guest, &mut wl, Strategy::full())
            .unwrap()
    };
    // A 1 ms downtime target forces genuine re-send rounds.
    let plain = run(MigrationEngine::new(LinkSpec::lan_gigabit())
        .with_max_rounds(4)
        .with_max_downtime(SimDuration::from_millis(1)));
    let xb = run(MigrationEngine::new(LinkSpec::lan_gigabit())
        .with_max_rounds(4)
        .with_max_downtime(SimDuration::from_millis(1))
        .with_xbzrle(Xbzrle::new(0.9, 0.1)));
    // Round 1 is identical; later rounds carry deltas instead of
    // full pages.
    assert!(xb.source_traffic() < plain.source_traffic());
    assert_eq!(xb.rounds()[0].bytes_sent, plain.rounds()[0].bytes_sent);
    if xb.rounds().len() > 1 && plain.rounds().len() > 1 {
        let per_page_xb =
            xb.rounds()[1].bytes_sent.as_f64() / xb.rounds()[1].full_pages.as_u64().max(1) as f64;
        let per_page_plain = plain.rounds()[1].bytes_sent.as_f64()
            / plain.rounds()[1].full_pages.as_u64().max(1) as f64;
        assert!(per_page_xb < per_page_plain * 0.3);
    }
}

#[test]
fn similarity_estimator_tracks_truth() {
    let base = mem(16, 42);
    let mut vm = base.snapshot();
    let n = vm.page_count().as_u64();
    for i in 0..n / 2 {
        vm.write_page(PageIndex::new(i * 2), PageContent::ContentId((1 << 59) | i));
    }
    let index = vecycle_checkpoint::ChecksumIndex::from_pages(&base.digests());
    let est = MigrationEngine::estimate_similarity(&vm, &index, 512).as_f64();
    assert!((est - 0.5).abs() < 0.1, "estimate = {est}");
    // Extremes.
    assert_eq!(
        MigrationEngine::estimate_similarity(&base, &index, 64).as_f64(),
        1.0
    );
}

#[test]
#[should_panic(expected = "xbzrle parameters")]
fn invalid_xbzrle_panics() {
    let _ = Xbzrle::new(1.5, 0.1);
}

#[test]
fn gang_migration_dedups_across_vms() {
    // Two VMs sharing most content (e.g. same guest OS image).
    let a = mem(8, 30);
    let mut b = a.snapshot();
    let n = b.page_count().as_u64();
    for i in 0..n / 10 {
        b.write_page(PageIndex::new(i), PageContent::ContentId((1 << 55) | i));
    }
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let gang = engine
        .migrate_gang(&[&a, &b], &[Strategy::dedup(), Strategy::dedup()])
        .unwrap();
    let solo_b = engine.migrate(&b, Strategy::dedup()).unwrap();
    // Solo, B sends nearly everything; in the gang, 90% of B's pages
    // were already sent by A and collapse to references.
    assert!(gang[1].source_traffic().as_f64() < solo_b.source_traffic().as_f64() * 0.2);
    // A itself pays full price either way.
    let solo_a = engine.migrate(&a, Strategy::dedup()).unwrap();
    assert_eq!(gang[0].source_traffic(), solo_a.source_traffic());
}

#[test]
fn gang_without_dedup_gains_nothing() {
    let a = mem(4, 31);
    let b = a.snapshot();
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let gang = engine
        .migrate_gang(&[&a, &b], &[Strategy::full(), Strategy::full()])
        .unwrap();
    let solo = engine.migrate(&b, Strategy::full()).unwrap();
    assert_eq!(gang[1].source_traffic(), solo.source_traffic());
}

#[test]
fn gang_combines_per_vm_checkpoints_with_shared_dedup() {
    // Each VM has its own checkpoint at the destination *and* the
    // gang shares a dedup cache: novel-but-shared content crosses
    // once.
    let a0 = mem(4, 33);
    let mut a1 = a0.snapshot();
    let b0 = mem(4, 34);
    let mut b1 = b0.snapshot();
    let n = a1.page_count().as_u64();
    // Both VMs gain the *same* novel content (e.g. a software
    // update applied to both).
    for i in 0..n / 4 {
        let content = PageContent::ContentId((1 << 53) | i);
        a1.write_page(PageIndex::new(i), content);
        b1.write_page(PageIndex::new(i), content);
    }
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let strategies = vec![
        Strategy::vecycle(&a0).with_dedup(),
        Strategy::vecycle(&b0).with_dedup(),
    ];
    let gang = engine.migrate_gang(&[&a1, &b1], &strategies).unwrap();
    // VM a pays for the novel quarter once...
    assert_eq!(gang[0].pages_sent_full(), PageCount::new(n / 4));
    // ...and VM b references it all: zero full pages.
    assert_eq!(gang[1].pages_sent_full(), PageCount::ZERO);
    assert_eq!(gang[1].rounds()[0].dedup_refs, PageCount::new(n / 4));
}

#[test]
fn gang_dedups_against_an_earlier_members_checksum_send() {
    // Member A's checkpoint holds content X, so A sends its X page as a
    // checksum. Member B's checkpoint lacks X; B dedups, so its X page
    // must reference A's page rather than cross in full. This is why a
    // gang's cache records checksum sends while a single VM's does not.
    let x = PageContent::ContentId(1 << 52);
    let mut a = mem(4, 35);
    a.write_page(PageIndex::new(3), x);
    let b0 = mem(4, 36);
    let mut b1 = b0.snapshot();
    b1.write_page(PageIndex::new(5), x);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let strategies = [
        Strategy::vecycle(&a.snapshot()),
        Strategy::vecycle(&b0).with_dedup(),
    ];
    let gang = engine.migrate_gang(&[&a, &b1], &strategies).unwrap();
    assert_eq!(gang[0].pages_sent_full(), PageCount::ZERO);
    assert_eq!(gang[1].pages_sent_full(), PageCount::ZERO);
    assert_eq!(gang[1].rounds()[0].dedup_refs, PageCount::new(1));
    // Alone, B has no earlier sender of X and pays the full page.
    let solo_b = engine.migrate(&b1, strategies[1].clone()).unwrap();
    assert_eq!(solo_b.pages_sent_full(), PageCount::new(1));
}

#[test]
fn gang_validates_inputs() {
    let a = mem(4, 32);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    assert!(engine.migrate_gang::<DigestMemory>(&[], &[]).is_err());
    assert!(engine.migrate_gang(&[&a], &[]).is_err());
}

#[test]
fn empty_image_is_rejected() {
    let vm = DigestMemory::zeroed(PageCount::ZERO);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    assert!(engine.migrate(&vm, Strategy::full()).is_err());
}

#[test]
fn zero_pages_are_suppressed_by_default() {
    // A freshly booted guest is mostly zeros; QEMU (and thus the
    // baseline) ships markers, not pages.
    let vm = DigestMemory::zeroed(PageCount::new(1024));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let r = engine.migrate(&vm, Strategy::full()).unwrap();
    assert_eq!(r.pages_sent_full(), PageCount::ZERO);
    assert_eq!(r.zero_pages(), PageCount::new(1024));
    assert!(r.source_traffic() < Bytes::from_kib(16));
}

#[test]
fn zero_suppression_can_be_disabled() {
    let vm = DigestMemory::zeroed(PageCount::new(256));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit()).with_zero_page_suppression(false);
    let r = engine.migrate(&vm, Strategy::full()).unwrap();
    assert_eq!(r.pages_sent_full(), PageCount::new(256));
    assert_eq!(r.zero_pages(), PageCount::ZERO);
}

#[test]
fn zero_marker_beats_checksum_message_under_vecycle() {
    // Zero pages present in the checkpoint could go as 28-byte
    // checksum messages; the 13-byte marker wins instead.
    let vm = DigestMemory::zeroed(PageCount::new(128));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let r = engine
        .migrate(&vm, Strategy::vecycle(&vm.snapshot()))
        .unwrap();
    assert_eq!(r.zero_pages(), PageCount::new(128));
    assert_eq!(r.pages_reused(), PageCount::ZERO);
}

#[test]
fn compression_shrinks_traffic() {
    let vm = mem(16, 20);
    let plain = MigrationEngine::new(LinkSpec::lan_gigabit());
    let compressed = MigrationEngine::new(LinkSpec::lan_gigabit()).with_compression(
        DeltaCompression::new(0.5, vecycle_types::BytesPerSec::from_mib_per_sec(800)),
    );
    let rp = plain.migrate(&vm, Strategy::full()).unwrap();
    let rc = compressed.migrate(&vm, Strategy::full()).unwrap();
    assert!(rc.source_traffic().as_f64() < rp.source_traffic().as_f64() * 0.55);
    assert_eq!(rc.pages_sent_full(), rp.pages_sent_full());
}

#[test]
fn slow_compressor_becomes_the_bottleneck() {
    let vm = mem(64, 21);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit()).with_compression(
        DeltaCompression::new(0.9, vecycle_types::BytesPerSec::from_mib_per_sec(30)),
    );
    let r = engine.migrate(&vm, Strategy::full()).unwrap();
    // 64 MiB at 30 MiB/s ≈ 2.1 s of compression vs ~0.5 s of wire.
    assert!(r.total_time().as_secs_f64() > 2.0);
}

#[test]
#[should_panic(expected = "compression ratio")]
fn invalid_compression_ratio_panics() {
    let _ = DeltaCompression::new(0.0, vecycle_types::BytesPerSec::from_mib_per_sec(100));
}

#[test]
fn setup_is_excluded_from_migration_time() {
    let vm = mem(64, 12);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let r = engine
        .migrate(&vm, Strategy::vecycle(&vm.snapshot()))
        .unwrap();
    assert!(r.setup().total() > SimDuration::ZERO);
    assert!(r.setup().checkpoint_read > SimDuration::ZERO);
    // total_time must not include the setup term.
    let rounds_plus_down: SimDuration =
        r.rounds().iter().map(|x| x.duration).sum::<SimDuration>() + r.downtime();
    assert_eq!(r.total_time(), rounds_plus_down);
}

/// Rewrites pages `0..k` with *fixed* content ids every advance: the
/// pages are dirtied, but their digests never change.
struct RewriteSameContent {
    k: u64,
}

impl<M: MutableMemory> GuestWorkload<M> for RewriteSameContent {
    fn advance(&mut self, guest: &mut Guest<M>, _dur: SimDuration) {
        for i in 0..self.k {
            let idx = PageIndex::new(i);
            guest.write_page(idx, PageContent::ContentId(1_000 + i));
        }
    }
}

#[test]
fn live_vecycle_resends_known_content_as_checksums() {
    // Pin pages 0..100 to known content, checkpoint, then keep
    // rewriting those pages with the *same* content during the
    // migration. The destination's checkpoint holds every re-dirtied
    // page, so rounds ≥ 2 must collapse to 28-byte checksum
    // messages — not full pages.
    let mut image = mem(8, 60);
    for i in 0..100 {
        image.write_page(PageIndex::new(i), PageContent::ContentId(1_000 + i));
    }
    let cp = image.snapshot();
    let mut guest = Guest::new(image);
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit())
        .with_max_rounds(3)
        .with_max_downtime(SimDuration::from_millis(1));
    let mut wl = RewriteSameContent { k: 100 };
    let r = engine
        .migrate_live(&mut guest, &mut wl, Strategy::vecycle(&cp))
        .unwrap();
    assert!(r.rounds().len() >= 2, "workload must force resend rounds");
    for round in &r.rounds()[1..] {
        assert_eq!(round.full_pages, PageCount::ZERO, "round {}", round.round);
        assert_eq!(
            round.checksum_pages,
            PageCount::new(100),
            "round {}",
            round.round
        );
        // 100 × 28-byte checksum messages, nothing else.
        assert_eq!(round.bytes_sent, wire::checksum_msg() * 100);
    }
}

/// Zeroes pages `0..k` on every advance.
struct ZeroingWorkload {
    k: u64,
}

impl<M: MutableMemory> GuestWorkload<M> for ZeroingWorkload {
    fn advance(&mut self, guest: &mut Guest<M>, _dur: SimDuration) {
        for i in 0..self.k {
            guest.write_page(PageIndex::new(i), PageContent::ContentId(0));
        }
    }
}

#[test]
fn stop_and_copy_suppresses_zero_residue() {
    // The guest zeroes 512 pages during round 1; with a single round
    // allowed, that residue goes through stop-and-copy. Suppressed,
    // it is 512 × 13-byte markers; unsuppressed it would be
    // 512 × 4 KiB pages — more than two milliseconds on gigabit.
    let run = |suppress: bool| {
        let mut guest = Guest::new(mem(8, 61));
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit())
            .with_max_rounds(1)
            .with_zero_page_suppression(suppress);
        engine
            .migrate_live(
                &mut guest,
                &mut ZeroingWorkload { k: 512 },
                Strategy::full(),
            )
            .unwrap()
    };
    let suppressed = run(true);
    let unsuppressed = run(false);
    assert!(suppressed.downtime() < unsuppressed.downtime());
    // Residue bytes: 512 markers ≪ one full page.
    let marker_bytes = wire::zero_page_msg() * 512;
    let budget = LinkSpec::lan_gigabit()
        .transfer_time(marker_bytes + wire::full_page_msg())
        .saturating_add(LinkSpec::lan_gigabit().round_trip());
    assert!(
        suppressed.downtime() <= budget,
        "downtime {:?} exceeds zero-marker budget {:?}",
        suppressed.downtime(),
        budget
    );
}

/// Dirties exactly `k` fresh-content pages per advance, independent
/// of round duration.
struct FixedDirtier {
    k: u64,
    next: u64,
}

impl<M: MutableMemory> GuestWorkload<M> for FixedDirtier {
    fn advance(&mut self, guest: &mut Guest<M>, _dur: SimDuration) {
        for i in 0..self.k {
            let idx = PageIndex::new(i);
            guest.write_page(idx, PageContent::ContentId((1 << 62) | self.next));
            self.next += 1;
        }
    }
}

#[test]
fn downtime_budget_uses_actual_resend_size() {
    // 1 ms on gigabit fits ~30 uncompressed full-page messages but
    // hundreds of XBZRLE deltas. A constant 100-page dirty set
    // therefore never converges with plain resends, yet fits the
    // final round immediately once deltas shrink the residue — the
    // budget division must use the active per-page wire size, not
    // the uncompressed one.
    let run = |engine: MigrationEngine| {
        let mut guest = Guest::new(mem(8, 62));
        let mut wl = FixedDirtier { k: 100, next: 0 };
        engine
            .migrate_live(&mut guest, &mut wl, Strategy::full())
            .unwrap()
    };
    let base = MigrationEngine::new(LinkSpec::lan_gigabit())
        .with_max_rounds(6)
        .with_max_downtime(SimDuration::from_millis(1));
    let plain = run(base.clone());
    let xb = run(base.with_xbzrle(Xbzrle::new(0.95, 0.02)));
    assert_eq!(plain.rounds().len(), 6, "plain resends can never fit 1 ms");
    assert_eq!(
        xb.rounds().len(),
        1,
        "100 deltas fit the downtime budget without extra rounds"
    );
    assert!(xb.downtime() <= SimDuration::from_millis(1));
}

// ---- fault injection ----

#[test]
fn clean_faulted_path_is_bit_identical_to_migrate_live() {
    // migrate_live delegates to the faulted path; a *separate* call
    // with AttemptFaults::none() must reproduce it exactly.
    let run = |faulted: bool| {
        let mut guest = Guest::new(mem(8, 70));
        let mut wl = IdleWorkload::new(71, 5_000.0);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
        if faulted {
            match engine
                .migrate_live_faulted(
                    &mut guest,
                    &mut wl,
                    Strategy::full(),
                    &AttemptFaults::none(),
                )
                .unwrap()
            {
                LiveOutcome::Completed(r) => r,
                LiveOutcome::Aborted(_) => panic!("clean attempt aborted"),
            }
        } else {
            engine
                .migrate_live(&mut guest, &mut wl, Strategy::full())
                .unwrap()
        }
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn link_cut_in_round_one_lands_a_strict_prefix() {
    let mut guest = Guest::new(mem(8, 72));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let faults = AttemptFaults {
        cut_after: Some(DropPoint::RamFraction(0.25)),
        ..AttemptFaults::none()
    };
    let outcome = engine
        .migrate_live_faulted(&mut guest, &mut SilentWorkload, Strategy::full(), &faults)
        .unwrap();
    let aborted = match outcome {
        LiveOutcome::Aborted(a) => a,
        LiveOutcome::Completed(_) => panic!("cut at 25% of RAM must abort"),
    };
    assert_eq!(aborted.cause, FaultCause::LinkFailure);
    let landed = aborted.landed_pages().as_u64();
    let total = guest.page_count().as_u64();
    assert!(landed > 0 && landed < total, "landed {landed}/{total}");
    // Landed pages form the prefix the wire walk reached.
    for (i, d) in aborted.landed.iter().enumerate() {
        assert_eq!(d.is_some(), (i as u64) < landed, "page {i}");
    }
    // The aborted attempt cost real traffic and time, but less than
    // a completed full migration would have.
    let clean = engine
        .migrate_live(
            &mut Guest::new(mem(8, 72)),
            &mut SilentWorkload,
            Strategy::full(),
        )
        .unwrap();
    assert!(aborted.traffic > Bytes::ZERO);
    assert!(aborted.traffic < clean.source_traffic());
    assert!(aborted.elapsed > SimDuration::ZERO);
    assert!(aborted.elapsed < clean.total_time());
}

#[test]
fn landed_digests_match_guest_content() {
    let mut guest = Guest::new(mem(4, 73));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let faults = AttemptFaults {
        cut_after: Some(DropPoint::RamFraction(0.5)),
        ..AttemptFaults::none()
    };
    let outcome = engine
        .migrate_live_faulted(&mut guest, &mut SilentWorkload, Strategy::full(), &faults)
        .unwrap();
    let LiveOutcome::Aborted(aborted) = outcome else {
        panic!("expected abort");
    };
    for (i, d) in aborted.landed.iter().enumerate() {
        if let Some(d) = d {
            assert_eq!(*d, guest.page_digest(PageIndex::new(i as u64)));
        }
    }
}

#[test]
fn cut_past_total_traffic_lets_the_migration_complete() {
    let mut guest = Guest::new(mem(4, 74));
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    // RamFraction clamps at 1.0, and framing pushes traffic past
    // RAM — pick an absolute byte cut far beyond any transfer.
    let faults = AttemptFaults {
        cut_after: Some(DropPoint::Bytes(Bytes::from_mib(64))),
        ..AttemptFaults::none()
    };
    let outcome = engine
        .migrate_live_faulted(&mut guest, &mut SilentWorkload, Strategy::full(), &faults)
        .unwrap();
    let LiveOutcome::Completed(with_cut) = outcome else {
        panic!("cut beyond total traffic must not trigger");
    };
    // And the surviving run is bit-identical to the clean one.
    let clean = engine
        .migrate_live(
            &mut Guest::new(mem(4, 74)),
            &mut SilentWorkload,
            Strategy::full(),
        )
        .unwrap();
    assert_eq!(with_cut, clean);
}

#[test]
fn link_degrade_slows_later_rounds_only() {
    let run = |degrade: Option<(f64, u32)>| {
        let mut guest = Guest::new(mem(8, 75));
        let mut wl = IdleWorkload::new(76, 30_000.0);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit())
            .with_max_rounds(4)
            .with_max_downtime(SimDuration::from_millis(1));
        let faults = AttemptFaults {
            degrade,
            ..AttemptFaults::none()
        };
        match engine
            .migrate_live_faulted(&mut guest, &mut wl, Strategy::full(), &faults)
            .unwrap()
        {
            LiveOutcome::Completed(r) => r,
            LiveOutcome::Aborted(_) => panic!("degrade never aborts"),
        }
    };
    let clean = run(None);
    let degraded = run(Some((0.25, 2)));
    // Round 1 ran at full speed either way.
    assert_eq!(degraded.rounds()[0], clean.rounds()[0]);
    // The degraded run took longer overall.
    assert!(degraded.total_time() > clean.total_time());
}

#[test]
fn dirty_spike_increases_resent_traffic() {
    let run = |spike: Option<(f64, u32)>| {
        let mut guest = Guest::new(mem(8, 77));
        let mut wl = IdleWorkload::new(78, 20_000.0);
        let engine = MigrationEngine::new(LinkSpec::lan_gigabit())
            .with_max_rounds(5)
            .with_max_downtime(SimDuration::from_millis(1));
        let faults = AttemptFaults {
            dirty_spike: spike,
            ..AttemptFaults::none()
        };
        match engine
            .migrate_live_faulted(&mut guest, &mut wl, Strategy::full(), &faults)
            .unwrap()
        {
            LiveOutcome::Completed(r) => r,
            LiveOutcome::Aborted(_) => panic!("spike never aborts"),
        }
    };
    let clean = run(None);
    let spiked = run(Some((8.0, 2)));
    assert!(spiked.source_traffic() > clean.source_traffic());
}

#[test]
fn converged_run_reports_convergence() {
    let mut guest = Guest::new(mem(4, 81));
    let r = MigrationEngine::new(LinkSpec::lan_gigabit())
        .migrate_live(&mut guest, &mut SilentWorkload, Strategy::full())
        .unwrap();
    assert!(r.converged());
    assert_eq!(r.outcome(), vecycle_core::MigrationOutcome::Completed);
}
