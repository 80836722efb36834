//! Extension experiments beyond the paper's evaluation:
//!
//! 1. **Post-copy × VeCycle** — recycled checkpoints shrink post-copy's
//!    degradation window and remote-fault count (related work \[13\]).
//! 2. **Gang migration** — cluster-wide dedup across co-migrating VMs
//!    (related work: VMFlock, Shrinker).
//! 3. **Delta compression** — compression stacked on each strategy
//!    (related work \[24\]).

use vecycle_analysis::{ExperimentLog, Table};
use vecycle_bench::Options;
use vecycle_checkpoint::ChecksumIndex;
use vecycle_core::estimate::break_even_similarity;
use vecycle_core::{DeltaCompression, MigrationEngine, Strategy, Xbzrle};
use vecycle_hash::ChecksumAlgorithm::{Md5, Sha256};
use vecycle_host::CpuSpec;
use vecycle_mem::{DigestMemory, MemoryImage, MutableMemory, PageContent};
use vecycle_net::LinkSpec;
use vecycle_types::{Bytes, BytesPerSec, PageIndex, Ratio};

fn diverged(base: &DigestMemory, frac: f64, salt: u64) -> DigestMemory {
    let mut now = base.snapshot();
    let n = now.page_count().as_u64();
    for i in 0..((n as f64 * frac) as u64) {
        now.write_page(PageIndex::new(i), PageContent::ContentId((salt << 48) | i));
    }
    now
}

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    let base =
        DigestMemory::with_uniform_content(Bytes::from_gib(1), opts.seed).expect("page-aligned");

    // --- 1. Post-copy × VeCycle over the WAN -----------------------------
    println!("Extension 1 — post-copy with and without a recycled checkpoint (WAN, 1 GiB)\n");
    let engine = MigrationEngine::new(LinkSpec::wan_cloudnet());
    let vm = diverged(&base, 0.25, 2);
    let working_set: Vec<PageIndex> = (0..base.page_count().as_u64())
        .step_by(8)
        .map(PageIndex::new)
        .collect();
    let mut t = Table::new(vec![
        "variant",
        "downtime",
        "degradation window [s]",
        "remote faults",
        "stall [s]",
    ]);
    for (name, strategy) in [
        ("post-copy (cold)", Strategy::full()),
        ("post-copy + vecycle", Strategy::vecycle(&base)),
    ] {
        let r = engine
            .migrate_postcopy(&vm, strategy, &working_set)
            .unwrap();
        t.row(vec![
            name.into(),
            format!("{}", r.downtime),
            format!("{:.1}", r.completion_time.as_secs_f64()),
            format!("{}", r.demand_faults),
            format!("{:.1}", r.stall_time.as_secs_f64()),
        ]);
        log.record("ext1", name, "window_s", r.completion_time.as_secs_f64());
        log.record("ext1", name, "faults", r.demand_faults as f64);
    }
    let pre = engine.migrate(&vm, Strategy::vecycle(&base)).unwrap();
    t.row(vec![
        "pre-copy + vecycle".into(),
        format!("{}", pre.downtime()),
        format!("{:.1}", pre.total_time().as_secs_f64()),
        "0".into(),
        "0.0".into(),
    ]);
    print!("{}", t.render());
    println!(
        "A recycled checkpoint shrinks post-copy's degradation window and\n\
         fault count by the similarity fraction — the two techniques\n\
         compose.\n"
    );

    // --- 2. Gang migration ------------------------------------------------
    println!("Extension 2 — gang migration of 4 sibling VMs (LAN, 1 GiB each)\n");
    let engine = MigrationEngine::new(LinkSpec::lan_gigabit());
    let siblings: Vec<DigestMemory> = (0..4).map(|i| diverged(&base, 0.10, 10 + i)).collect();
    let refs: Vec<&DigestMemory> = siblings.iter().collect();
    let strategies = vec![Strategy::dedup(); 4];
    let gang = engine.migrate_gang(&refs, &strategies).unwrap();
    let mut t = Table::new(vec!["vm", "solo dedup", "gang dedup"]);
    let mut solo_total = 0.0;
    let mut gang_total = 0.0;
    for (i, vm) in siblings.iter().enumerate() {
        let solo = engine.migrate(vm, Strategy::dedup()).unwrap();
        solo_total += solo.source_traffic().as_f64();
        gang_total += gang[i].source_traffic().as_f64();
        t.row(vec![
            format!("vm-{i}"),
            format!("{}", solo.source_traffic()),
            format!("{}", gang[i].source_traffic()),
        ]);
    }
    print!("{}", t.render());
    println!(
        "gang total: {:.2} GiB vs solo total {:.2} GiB ({:.0}%)\n",
        gang_total / (1u64 << 30) as f64,
        solo_total / (1u64 << 30) as f64,
        gang_total / solo_total * 100.0
    );
    log.record("ext2", "gang_vs_solo", "fraction", gang_total / solo_total);

    // --- 3. Compression stacking ------------------------------------------
    println!(
        "Extension 3 — delta compression stacked on each strategy (WAN, 1 GiB, 25% diverged)\n"
    );
    let compression = DeltaCompression::new(0.55, BytesPerSec::from_mib_per_sec(400));
    let plain = MigrationEngine::new(LinkSpec::wan_cloudnet());
    let squeezed = MigrationEngine::new(LinkSpec::wan_cloudnet()).with_compression(compression);
    let mut t = Table::new(vec!["strategy", "plain", "compressed", "saving"]);
    for (name, strategy) in [
        ("full", Strategy::full()),
        ("vecycle", Strategy::vecycle(&base)),
    ] {
        let a = plain.migrate(&vm, strategy.clone()).unwrap();
        let b = squeezed.migrate(&vm, strategy).unwrap();
        t.row(vec![
            name.into(),
            format!("{}", a.source_traffic()),
            format!("{}", b.source_traffic()),
            format!(
                "-{:.0}%",
                (1.0 - b.source_traffic().as_f64() / a.source_traffic().as_f64()) * 100.0
            ),
        ]);
        log.record(
            "ext3",
            name,
            "compressed_gib",
            b.source_traffic().as_gib_f64(),
        );
    }
    print!("{}", t.render());
    println!(
        "Compression and checkpoint reuse stack: \"all the insights from\n\
         these works are still valid and can be combined with VeCycle\" (§5).\n"
    );

    // --- 4. Adaptive recycling --------------------------------------------
    println!("Extension 4 — adaptive strategy selection (sampled similarity)\n");
    let index = ChecksumIndex::from_pages(&base.digests());
    // The session's rule: recycle at or past the link's break-even.
    let ram = base.page_count().bytes();
    let fat = LinkSpec::lan_gigabit().with_bandwidth(BytesPerSec::from_mib_per_sec(4800));
    let [gbe, hash_bound] = [(LinkSpec::lan_gigabit(), Md5), (fat, Sha256)]
        .map(|(link, alg)| break_even_similarity(ram, link, &CpuSpec::phenom_ii(), alg));
    let mut t = Table::new(vec![
        "true divergence",
        "estimated similarity",
        "GbE, MD5",
        "4800 MiB/s, SHA-256",
    ]);
    for frac in [0.05, 0.3, 0.6, 0.95] {
        let vm = diverged(&base, frac, 20 + (frac * 100.0) as u64);
        let est = MigrationEngine::estimate_similarity(&vm, &index, 256);
        let decision = |gate: Option<Ratio>| match gate.is_some_and(|g| est >= g) {
            true => "vecycle".into(),
            false => "dedup".into(),
        };
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            format!("{est}"),
            decision(gbe),
            decision(hash_bound),
        ]);
        log.record("ext4", format!("div-{frac}"), "estimate", est.as_f64());
    }
    print!("{}", t.render());
    println!(
        "Each decision recycles when the probe reaches its link's break-even\n\
         similarity: one reused page on GbE, where the link is the\n\
         bottleneck; none at 4800 MiB/s, where SHA-256 is (§2.3, §3.4).\n"
    );

    // --- 5. XBZRLE on re-send rounds ---------------------------------------
    println!("Extension 5 — XBZRLE delta encoding of re-sent pages (hot guest, LAN)\n");
    use vecycle_mem::{workload::IdleWorkload, Guest};
    let run = |xbzrle: Option<Xbzrle>| {
        let mut engine = MigrationEngine::new(LinkSpec::lan_gigabit())
            .with_max_downtime(vecycle_types::SimDuration::from_millis(5))
            .with_max_rounds(8);
        if let Some(x) = xbzrle {
            engine = engine.with_xbzrle(x);
        }
        let mut guest = Guest::new(
            DigestMemory::with_uniform_content(Bytes::from_mib(256), opts.seed ^ 77)
                .expect("page-aligned"),
        );
        let mut wl = IdleWorkload::new(opts.seed ^ 78, 80_000.0);
        engine
            .migrate_live(&mut guest, &mut wl, Strategy::full())
            .unwrap()
    };
    let plain = run(None);
    let xb = run(Some(Xbzrle::new(0.85, 0.12)));
    let mut t = Table::new(vec![
        "variant",
        "rounds",
        "traffic",
        "time [s]",
        "downtime [ms]",
    ]);
    for (name, r) in [("plain", &plain), ("xbzrle", &xb)] {
        t.row(vec![
            name.into(),
            format!("{}", r.rounds().len()),
            format!("{}", r.source_traffic()),
            format!("{:.2}", r.total_time().as_secs_f64()),
            format!("{:.0}", r.downtime().as_secs_f64() * 1e3),
        ]);
        log.record("ext5", name, "traffic_gib", r.source_traffic().as_gib_f64());
    }
    print!("{}", t.render());
    println!(
        "Delta-encoding re-sent pages shrinks every round after the first\n\
         — QEMU's XBZRLE, composable with checkpoint recycling."
    );
    opts.finish(&log);
}
