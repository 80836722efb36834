//! Regenerates the golden metrics transcripts under `tests/golden/`.
//!
//! Run after an *intentional* change to metric names, label schemas or
//! instrumentation sites:
//!
//! ```text
//! cargo run --bin regen_golden
//! ```

use vecycle::golden;

type Scenario = fn() -> vecycle::obs::MetricsSnapshot;

fn main() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    std::fs::create_dir_all(&dir).expect("creating tests/golden");

    let scenarios: [(&str, Scenario); 4] = [
        ("idle_vm", golden::idle_vm),
        ("update_rate_sweep", golden::update_rate_sweep),
        ("failure_sweep", golden::failure_sweep),
        ("lifecycle", golden::lifecycle),
    ];
    for (name, run) in scenarios {
        let path = dir.join(format!("{name}.json"));
        let json = run().to_canonical_json();
        let changed = std::fs::read_to_string(&path)
            .map(|old| old != json)
            .unwrap_or(true);
        std::fs::write(&path, &json).expect("writing golden file");
        println!(
            "{} {} ({} bytes)",
            if changed { "rewrote " } else { "unchanged" },
            path.display(),
            json.len(),
        );
    }
}
