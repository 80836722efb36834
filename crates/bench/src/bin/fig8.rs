//! Figure 8: the virtual-desktop-infrastructure scenario (§4.6).
//!
//! A 6 GiB desktop is consolidated onto a server outside office hours:
//! 26 migrations across 13 weekdays (9 am out, 5 pm back). Following the
//! paper's methodology, the benefit is derived analytically from the
//! fingerprint trace: the checkpoint available at each destination is
//! the fingerprint taken when the VM last left that host.

use vecycle_analysis::{ExperimentLog, Table};
use vecycle_bench::{machine, Options};
use vecycle_host::MigrationRequest;
use vecycle_trace::PairStats;
use vecycle_types::{Bytes, HostId, SimTime, VmId};

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    let desktop = machine("Desktop");
    let trace = opts.trace_for(&desktop);
    let fps = trace.fingerprints();
    let ram = desktop.ram();

    let workstation = HostId::new(0);
    let server = HostId::new(1);
    let schedule = MigrationRequest::vdi(VmId::new(0), workstation, server, 19);
    assert_eq!(schedule.len(), 26, "schedule must match the paper");

    // The fingerprint nearest to a schedule instant.
    let fp_at = |t: SimTime| {
        fps.iter()
            .min_by_key(|f| {
                let a = f.taken_at().since_epoch().as_nanos();
                let b = t.since_epoch().as_nanos();
                a.abs_diff(b)
            })
            .expect("trace is non-empty")
    };

    // Checkpoint state per host: the fingerprint index when the VM last
    // left that host.
    let mut checkpoint_at: [Option<&vecycle_trace::Fingerprint>; 2] = [None, None];
    let mut total_full = Bytes::ZERO;
    let mut total_dedup = Bytes::ZERO;
    let mut total_vecycle = Bytes::ZERO;
    let mut total_dirty_dedup_pages = 0u64;
    let mut total_vecycle_pages = 0u64;

    println!("Figure 8 — VDI scenario, per-migration traffic [% of RAM]\n");
    let mut t = Table::new(vec!["#", "when", "direction", "dedup [%]", "vecycle [%]"]);
    let mut location = server;
    for (i, request) in schedule.iter().enumerate() {
        let to = request.pinned_to.expect("a VDI schedule is pinned");
        let now = fp_at(request.at);
        let n = now.page_count().as_u64();
        let page_frac = |pages: u64| pages as f64 / n as f64;

        // Sender-side dedup always applies; VeCycle additionally uses the
        // destination's checkpoint when one exists.
        let dedup_pages = now.unique_count().as_u64();
        let dest_slot = to.as_usize();
        let (vecycle_pages, dirty_dedup_pages) = match checkpoint_at[dest_slot] {
            Some(cp) => {
                let stats = PairStats::compute(cp, now);
                (stats.hashes_dedup, stats.dirty_dedup)
            }
            None => (dedup_pages, dedup_pages),
        };

        let full_b = Bytes::new((page_frac(n) * ram.as_f64()) as u64);
        let dedup_b = Bytes::new((page_frac(dedup_pages) * ram.as_f64()) as u64);
        let vecycle_b = Bytes::new((page_frac(vecycle_pages) * ram.as_f64()) as u64);
        total_full += full_b;
        total_dedup += dedup_b;
        total_vecycle += vecycle_b;
        total_dirty_dedup_pages += dirty_dedup_pages;
        total_vecycle_pages += vecycle_pages;

        let hours = request.at.since_epoch().as_hours_f64();
        let dir = if to == workstation {
            "→ desk"
        } else {
            "→ server"
        };
        t.row(vec![
            format!("{}", i + 1),
            format!("day {} {:02}:00", hours as u64 / 24 + 1, hours as u64 % 24),
            dir.into(),
            format!("{:.0}", page_frac(dedup_pages) * 100.0),
            format!("{:.0}", page_frac(vecycle_pages) * 100.0),
        ]);
        log.record(
            "fig8",
            format!("migration-{}", i + 1),
            "vecycle_traffic_pct",
            page_frac(vecycle_pages) * 100.0,
        );
        log.record(
            "fig8",
            format!("migration-{}", i + 1),
            "dedup_traffic_pct",
            page_frac(dedup_pages) * 100.0,
        );

        // The source host keeps a checkpoint of the departing state.
        checkpoint_at[location.as_usize()] = Some(now);
        location = to;
    }
    print!("{}", t.render());

    let gb = |b: Bytes| b.as_f64() / 1e9;
    println!("\nAggregate traffic over 26 migrations:");
    let mut t = Table::new(vec!["method", "total [GB]", "% of baseline"]);
    for (name, total) in [
        ("full migration", total_full),
        ("sender-side dedup", total_dedup),
        ("vecycle", total_vecycle),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.0}", gb(total)),
            format!("{:.0}%", total.as_f64() / total_full.as_f64() * 100.0),
        ]);
        log.record("fig8", name, "total_gb", gb(total));
    }
    print!("{}", t.render());

    let vs_dirty = (1.0 - total_vecycle_pages as f64 / total_dirty_dedup_pages as f64) * 100.0;
    println!(
        "\nVeCycle transfers {vs_dirty:.0}% fewer pages than dirty tracking\n\
         combined with dedup (paper: 9%)."
    );
    log.record("fig8", "vs_dirty_dedup", "fewer_pages_pct", vs_dirty);

    println!(
        "\nPaper targets: 26 full migrations ≈ 159 GB; dedup ≈ 138 GB (86%);\n\
         VeCycle ≈ 40 GB (25%); first migration is the most expensive\n\
         (no checkpoint to recycle)."
    );
    opts.finish(&log);
}
