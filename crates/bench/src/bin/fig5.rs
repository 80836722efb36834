//! Figure 5: traffic-reduction techniques compared on the traces.
//!
//! Left panel: mean fraction-of-baseline bars per method (Server A and
//! Server C, as in the paper). Center/right: CDFs of the additional
//! reduction of `hashes+dedup` over `dirty+dedup` for servers and
//! laptops.

use vecycle_analysis::{Cdf, ExperimentLog, Table};
use vecycle_bench::{machine, Options};
use vecycle_core::analytic::summarize_methods;

fn main() {
    let opts = Options::from_args();
    let mut log = ExperimentLog::new();
    // Full pair enumeration is exact but O(n²·pages); stride 7 keeps the
    // default run under a minute while sampling ~8k pairs per machine.
    let stride = 7;

    println!("Figure 5 (left) — mean fraction of baseline traffic\n");
    for name in ["Server A", "Server C"] {
        let m = machine(name);
        let trace = opts.trace_for(&m);
        let s = summarize_methods(trace.fingerprints(), stride);
        let mm = s.means;
        println!("{name} ({} pairs sampled):", mm.pairs);
        let mut t = Table::new(vec!["method", "fraction of baseline"]);
        for (label, v) in [
            ("dedup", mm.dedup),
            ("hashes", mm.hashes),
            ("dirty+dedup", mm.dirty_dedup),
            ("dirty", mm.dirty),
            ("hashes+dedup", mm.hashes_dedup),
        ] {
            t.row(vec![label.into(), format!("{:.2}", v.as_f64())]);
            log.record("fig5", format!("{name}/{label}"), "fraction", v.as_f64());
        }
        println!("{}", t.render());
    }
    println!(
        "Paper bars — Server A: dedup 0.92, hashes 0.65, dirty+dedup 0.77,\n\
         dirty 0.80, hashes+dedup 0.64. Server C: 0.85 / 0.59 / 0.69 /\n\
         0.78 / 0.53.\n"
    );

    let groups: [(&str, &[&str]); 2] = [
        ("servers", &["Server A", "Server B", "Server C"]),
        ("laptops", &["Laptop A", "Laptop B", "Laptop C", "Laptop D"]),
    ];
    for (group, names) in groups {
        // One analysis thread per machine: the pair enumeration is the
        // dominant cost and machines are independent.
        let all: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .map(|name| {
                    let opts = opts.clone();
                    scope.spawn(move || {
                        let m = machine(name);
                        let trace = opts.trace_for(&m);
                        summarize_methods(trace.fingerprints(), stride)
                            .reduction_over_dirty_dedup_pct
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("analysis thread"))
                .collect()
        });
        let cdf = Cdf::from_values(all);
        println!("Figure 5 ({group} CDF) — reduction of hashes+dedup over dirty+dedup [%]");
        let mut t = Table::new(vec!["percentile", "reduction [%]"]);
        for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
            let v = cdf.percentile(p);
            t.row(vec![format!("p{p:.0}"), format!("{v:.1}")]);
            log.record("fig5", format!("{group}/p{p:.0}"), "reduction_pct", v);
        }
        let at10 = 1.0 - cdf.fraction_at_or_below(10.0);
        t.row(vec![
            "share with ≥10% reduction".into(),
            format!("{:.0}%", at10 * 100.0),
        ]);
        log.record("fig5", format!("{group}/ge10pct"), "share", at10);
        println!("{}", t.render());
    }
    println!(
        "Paper targets: for Server B, ≥10% additional reduction in ~90% of\n\
         cases; for laptops, ≥5% in about half the cases."
    );
    opts.finish(&log);
}
