//! Merges the JSON logs written by the `fig*`/`ablation`/`extensions`
//! binaries (via `--json`) into one Markdown report.
//!
//! ```sh
//! for b in fig1 fig2 fig4 fig5 fig6 fig7 fig8 ablation extensions; do
//!   cargo run --release -p vecycle-bench --bin $b -- --json results/$b.json
//! done
//! cargo run --release -p vecycle-bench --bin report -- results/*.json > REPORT.md.tmp
//! mv REPORT.md.tmp REPORT.md
//! ```

use vecycle_analysis::ExperimentLog;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: report <log.json>...");
        std::process::exit(1);
    }
    let mut merged = ExperimentLog::new();
    let mut logs = 0;
    for path in &paths {
        let json =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        // `results/*.json` also matches metric dumps: skip them.
        let parsed = ExperimentLog::from_json(&json);
        let Ok(log) = parsed.inspect_err(|e| eprintln!("report: skipping {path}: {e}")) else {
            continue;
        };
        logs += 1;
        for r in log.records() {
            merged.record(
                r.experiment.clone(),
                r.label.clone(),
                r.metric.clone(),
                r.value,
            );
        }
    }
    println!("# VeCycle experiment report\n");
    println!(
        "Merged from {logs} log file(s), {} records.\n",
        merged.records().len()
    );
    print!("{}", merged.render_markdown());
}
