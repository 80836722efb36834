//! The performance trajectory: the `BENCH_<pr>.json` files at the repo
//! root, one record per measured parent/change comparison.
//!
//! A record is `{pr, commit, workload, metric, seed, pairs, parent,
//! change, exact}`: PR `pr` measured `metric` on `workload` at `seed`
//! over `pairs` alternating runs of `commit` (the parent it was measured
//! against) and itself, with the medians `parent` and `change`; `exact`
//! marks a metric that is bit-stable between runs. Each PR that measures
//! appends its own file. This test pins the schema, that `pr` ascends
//! through the files in order, and that every workload and metric is one
//! `BENCHMARK.json` declares.

use serde::{Deserialize, Serialize};

#[derive(Debug, Serialize, Deserialize)]
struct Record {
    pr: u64,
    commit: String,
    workload: String,
    metric: String,
    seed: u64,
    pairs: u64,
    parent: f64,
    change: f64,
    exact: bool,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[test]
fn the_trajectory_files_hold_ascending_records_of_declared_names() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |name: &str| std::fs::read_to_string(root.join(name)).expect("readable");
    let bench: Benchmark = serde_json::from_str(&read("BENCHMARK.json")).expect("it parses");
    let names = |list: &[Named]| list.iter().map(|n| n.name.clone()).collect::<Vec<_>>();
    let workloads = names(&bench.workloads);
    let metrics = [names(&bench.end_to_end), names(&bench.per_layer)].concat();

    // Every `BENCH_<pr>.json` at the root, by ascending `<pr>`.
    let mut files: Vec<(u64, String)> = (std::fs::read_dir(root).expect("root lists"))
        .filter_map(|entry| {
            let name = entry.expect("dir entry").file_name().into_string().ok()?;
            let pr = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some((pr.parse().ok()?, name))
        })
        .collect();
    files.sort();
    assert!(
        files.iter().any(|(pr, _)| *pr == 35),
        "the backfill is there"
    );
    let mut last = 0;
    for (file_pr, name) in &files {
        let text = read(name);
        let records: Vec<Record> =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!records.is_empty(), "{name} is empty");
        // The schema, exactly: one record a line, its fields in order and
        // nothing else.
        let lines: Vec<String> = records
            .iter()
            .map(|r| format!("  {}", serde_json::to_string(r).expect("renders")))
            .collect();
        let canonical = format!("[\n{}\n]\n", lines.join(",\n"));
        assert_eq!(text, canonical, "{name} is not one schema record a line");
        for r in &records {
            let at = format!("{name}, PR {} {} {}", r.pr, r.workload, r.metric);
            assert!(r.pr >= last && r.pr <= *file_pr, "{at}: pr must ascend");
            last = r.pr;
            assert!(workloads.contains(&r.workload), "{at}: unknown workload");
            assert!(metrics.contains(&r.metric), "{at}: unknown metric");
            let hex = r.commit.len() >= 7 && r.commit.chars().all(|c| c.is_ascii_hexdigit());
            assert!(hex, "{at}: commit {:?} is not a hash", r.commit);
            let finite = r.parent.is_finite() && r.change.is_finite();
            assert!(
                r.pairs > 0 && finite,
                "{at}: no pairs or a non-finite median"
            );
        }
    }
}
