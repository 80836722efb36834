//! Metric definitions, and the arithmetic that turns round results
//! into them. `BENCHMARK.json` lists exactly the names defined here
//! (`check.sh` compares the two).

use serde::Value;

use crate::util::{
    as_f64, fnv, get_f64, get_nums, get_str, mean, median, obj, quantile, s, sorted, FNV_INIT,
};
use crate::workloads::Kind;

/// An end-to-end metric: what a user of the system would see.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the baseline by which the metric may worsen before a
    /// change counts as a regression; also what two sets of runs of the
    /// same code, on different seeds, must agree within.
    pub bound: f64,
    /// A count that repeats bit for bit when code and seed are equal:
    /// `repeat` accepts no difference at all.
    pub exact_per_seed: bool,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact_per_seed: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact_per_seed,
    }
}

/// The gated metrics, the same eight on every workload.
///
/// Timings are low-tail statistics because on a shared 2-vCPU VM the
/// median and the mean describe the neighbours, not the program
/// (README, "Why p10"). Their bounds are the widest the pipeline
/// allows: sets of runs of identical code disagreed by up to 12.7 %
/// here, and ten differently seeded runs spread by up to 8.3 %
/// (quartile distance over median), which the pipeline wants below a
/// third of the bound. The counts are exact for one seed; their bounds
/// only absorb the difference between seeds. `peak_rss_mib` is wide
/// because container capacities double: a 16 MiB process steps by
/// 2 MiB from one seed to the next.
pub const END_TO_END: [MetricDef; 8] = [
    metric("setup_s", "s", "lower", 0.25, false),
    metric("op_ms_p10", "ms", "lower", 0.25, false),
    metric("cpu_ms_per_op", "ms", "lower", 0.25, false),
    metric("peak_rss_mib", "MiB", "lower", 0.25, false),
    metric("alloc_kib_per_guest_mib", "KiB/MiB", "lower", 0.01, false),
    metric("wire_kib_per_guest_mib", "KiB/MiB", "lower", 0.03, true),
    metric("sim_migration_ms_mean", "sim_ms", "lower", 0.03, true),
    metric("verified_ops_share", "ratio", "higher", 0.001, true),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`. The
/// first block comes from `layers` (fixed inputs, one row per public
/// function timed), the second from the traced workload itself.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("hash.md5_pages_s", "pages/s", "higher"),
    ("hash.sha1_pages_s", "pages/s", "higher"),
    ("hash.sha256_pages_s", "pages/s", "higher"),
    ("hash.fnv_pages_s", "pages/s", "higher"),
    ("mem.byte_write_pages_s", "pages/s", "higher"),
    ("mem.workload_advance_ms", "ms", "lower"),
    ("mem.digest_advance_ms", "ms", "lower"),
    ("checkpoint.disk_save_mib_s", "MiB/s", "higher"),
    ("checkpoint.disk_load_mib_s", "MiB/s", "higher"),
    ("checkpoint.capture_bytes_ms", "ms", "lower"),
    ("checkpoint.pages_digest_ms", "ms", "lower"),
    ("checkpoint.index_build_ms", "ms", "lower"),
    ("checkpoint.index_probe_ns", "ns", "lower"),
    ("core.migrate_live_ms", "ms", "lower"),
    ("core.transcript_record_ms", "ms", "lower"),
    ("core.pages_s", "pages/s", "higher"),
    ("core.apply_transcript_ms", "ms", "lower"),
    ("net.encode_full_mib_s", "MiB/s", "higher"),
    ("net.decode_full_mib_s", "MiB/s", "higher"),
    ("net.encode_small_msgs_s", "msgs/s", "higher"),
    ("net.decode_small_msgs_s", "msgs/s", "higher"),
    ("net.allocs_per_msg", "count", "lower"),
    ("daemon.job_ms", "ms", "lower"),
    ("daemon.state_apply_msgs_s", "msgs/s", "higher"),
    ("daemon.frame_rtt_us", "us", "lower"),
    ("daemon.socket_mib_s", "MiB/s", "higher"),
    ("daemon.unexplained_ms", "ms", "lower"),
    ("daemon.wal_append_us", "us", "lower"),
    ("daemon.wal_appends_per_job", "count", "lower"),
    ("daemon.partial_encode_mib_s", "MiB/s", "higher"),
    ("daemon.partial_save_ms", "ms", "lower"),
    ("fleet.assemble_ms", "ms", "lower"),
    ("fleet.run_ms", "ms", "lower"),
    ("fleet.placements_s", "1/s", "higher"),
    ("fleet.score_us_per_placement", "us", "lower"),
    ("fleet.warm_hit_rate", "ratio", "higher"),
    ("fleet.sweep_1024x10240_ms", "ms", "lower"),
    ("host.claim_ns", "ns", "lower"),
    ("obs.inc_ns", "ns", "lower"),
    ("obs.snapshot_ms", "ms", "lower"),
    ("workload.sys_cpu_share", "ratio", "lower"),
    ("workload.allocs_per_op", "count", "lower"),
    ("workload.unexplained_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("share.hash", "ratio", "lower"),
    ("share.mem", "ratio", "lower"),
    ("share.checkpoint", "ratio", "lower"),
    ("share.core", "ratio", "lower"),
    ("share.net", "ratio", "lower"),
    ("share.daemon", "ratio", "lower"),
    ("share.fleet", "ratio", "lower"),
    ("share.unexplained", "ratio", "lower"),
];

/// The layer groups of the share table: the crates a span can name.
const LAYER_GROUPS: [&str; 7] = [
    "hash",
    "mem",
    "checkpoint",
    "core",
    "net",
    "daemon",
    "fleet",
];

/// Prints every name the binary can report, one per line, in the form
/// `check.sh` compares against `BENCHMARK.json`.
pub fn print_names() {
    for kind in Kind::ALL {
        println!("workload {}", kind.name());
    }
    for m in &END_TO_END {
        println!("end_to_end {} {} {} {}", m.name, m.unit, m.better, m.bound);
    }
    for (name, unit, better) in PER_LAYER {
        println!("per_layer {name} {unit} {better}");
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Reading {
    pub fn new(name: &str, unit: &str, value: f64) -> Reading {
        Reading {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// One workload's pooled result over its rounds.
pub struct Summary {
    pub kind: Kind,
    /// In [`END_TO_END`] order.
    pub end_to_end: Vec<Reading>,
    /// Ungated `bench.*` diagnostics.
    pub bench: Vec<Reading>,
    /// FNV over every op's report(s), all rounds: must be identical
    /// across sets and across runs with equal `--seed`.
    pub sim_fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    /// The rounds as the children reported them.
    pub rounds: Vec<Value>,
}

fn field_sum(rounds: &[Value], key: &str) -> f64 {
    rounds.iter().filter_map(|r| get_f64(r, key)).sum()
}

fn pooled(rounds: &[Value], key: &str) -> Vec<f64> {
    rounds.iter().flat_map(|r| get_nums(r, key)).collect()
}

/// Pools the rounds of one workload into its metrics.
pub fn summarize(kind: Kind, rounds: Vec<Value>) -> Summary {
    let wall = sorted(&pooled(&rounds, "wall_ms"));
    let cpu = sorted(&pooled(&rounds, "cpu_ms"));
    let n = wall.len();
    let guest_mib = field_sum(&rounds, "guest_mib");
    let attempted = field_sum(&rounds, "attempted") as u64;
    let failed = field_sum(&rounds, "failed") as u64;
    let setups: Vec<f64> = rounds
        .iter()
        .filter_map(|r| get_f64(r, "setup_s"))
        .collect();
    let rss: Vec<f64> = rounds
        .iter()
        .filter_map(|r| get_f64(r, "peak_rss_kib"))
        .map(|kib| kib / 1024.0)
        .collect();
    let op_ms_p10 = quantile(&wall, 0.10);
    let values = [
        sorted(&setups)[0],
        op_ms_p10,
        quantile(&cpu, 0.10),
        median(&rss),
        pooled(&rounds, "alloc_bytes").iter().sum::<f64>() / 1024.0 / guest_mib,
        field_sum(&rounds, "wire_bytes") / 1024.0 / guest_mib,
        field_sum(&rounds, "sim_ns") / field_sum(&rounds, "migrations") / 1e6,
        1.0 - failed as f64 / attempted as f64,
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Reading::new(def.name, def.unit, value))
        .collect();

    // The highest percentile that still has ten samples beyond it.
    let tail_pct = (100.0 * (1.0 - 10.0 / n as f64)).floor().max(50.0);
    // Drift inside a round: last third of its ops against the first.
    let drift: Vec<f64> = rounds
        .iter()
        .map(|r| get_nums(r, "wall_ms"))
        .filter(|w| w.len() >= 6)
        .map(|w| {
            let third = w.len() / 3;
            median(&w[w.len() - third..]) / median(&w[..third]) - 1.0
        })
        .collect();
    let steal = field_sum(&rounds, "steal_ticks") / field_sum(&rounds, "total_ticks").max(1.0);
    let bench = vec![
        Reading::new("bench.samples", "count", n as f64),
        Reading::new("bench.op_ms_p50", "ms", quantile(&wall, 0.50)),
        Reading::new("bench.op_ms_mean", "ms", mean(&wall)),
        Reading::new("bench.op_ms_tail", "ms", quantile(&wall, tail_pct / 100.0)),
        Reading::new("bench.op_ms_tail_pct", "%", tail_pct),
        Reading::new(
            "bench.op_ms_iqr",
            "ms",
            quantile(&wall, 0.75) - quantile(&wall, 0.25),
        ),
        Reading::new(
            "bench.drift_pct",
            "%",
            if drift.is_empty() {
                0.0
            } else {
                100.0 * mean(&drift)
            },
        ),
        Reading::new(
            "bench.guest_mib_s",
            "MiB/s",
            guest_mib / n as f64 / (op_ms_p10 / 1e3),
        ),
        Reading::new("bench.setup_s_median", "s", median(&setups)),
        Reading::new("bench.steal_pct", "%", 100.0 * steal),
    ];

    let fingerprint = rounds
        .iter()
        .filter_map(|r| get_str(r, "fingerprint"))
        .fold(FNV_INIT, |h, fp| fnv(h, fp.as_bytes()));
    Summary {
        kind,
        end_to_end,
        bench,
        sim_fingerprint: format!("{fingerprint:016x}"),
        attempted,
        failed,
        rounds,
    }
}

impl Summary {
    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "\n{}  ({} ops attempted, {} failed, sim_fingerprint {})",
            self.kind.name(),
            self.attempted,
            self.failed,
            self.sim_fingerprint
        );
        for (r, def) in self.end_to_end.iter().zip(&END_TO_END) {
            println!(
                "  {:<28} {:>14.4} {:<8} (better: {}, bound {}%)",
                r.name,
                r.value,
                r.unit,
                def.better,
                def.bound * 100.0
            );
        }
        for r in &self.bench {
            println!("  {:<28} {:>14.4} {:<8} (ungated)", r.name, r.value, r.unit);
        }
    }

    /// The workload's entry in a result file; rounds keep their raw
    /// per-op samples so spread can be re-analysed later.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("end_to_end", readings_json(&self.end_to_end)),
            ("bench", readings_json(&self.bench)),
            ("sim_fingerprint", s(&self.sim_fingerprint)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("rounds", Value::Array(self.rounds.clone())),
        ])
    }
}

/// `{name: {value, unit}}`, the shape the pipeline reads metrics in.
fn readings_json(readings: &[Reading]) -> Value {
    Value::Object(
        readings
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    obj(vec![("value", Value::F64(r.value)), ("unit", s(&r.unit))]),
                )
            })
            .collect(),
    )
}

/// The last stdout line of the pipeline form.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reading]) -> Value {
    obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", readings_json(metrics)),
    ])
}

/// Self time per span name, summed over traced rounds.
pub fn merged_self_ns(traced: &[Value]) -> Vec<(String, f64)> {
    let mut merged: Vec<(String, f64)> = Vec::new();
    for round in traced {
        let Some(Value::Object(fields)) = round.get("self_ns") else {
            continue;
        };
        for (name, ns) in fields {
            let ns = as_f64(ns).unwrap_or(0.0);
            match merged.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += ns,
                None => merged.push((name.clone(), ns)),
            }
        }
    }
    merged
}

/// The per-layer metrics only a traced workload can give: where its op
/// time went, by layer, and what tracing cost. Both sides are pooled
/// over their rounds.
pub fn trace_metrics(untraced: &[Value], traced: &[Value]) -> Vec<Reading> {
    let p10 = |rounds: &[Value]| quantile(&sorted(&pooled(rounds, "wall_ms")), 0.10);
    let ops = field_sum(traced, "ops");
    let op_ns = field_sum(traced, "op_ns").max(1.0);
    let self_ns = merged_self_ns(traced);
    let group_ns = |group: &str| -> f64 {
        self_ns
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(group))
            // Not `sum()`: an empty f64 sum is -0.0, which prints as "-0".
            .fold(0.0, |total, (_, ns)| total + ns)
    };
    let explained: f64 = LAYER_GROUPS.iter().map(|g| group_ns(g)).sum();
    let (user, system) = (
        field_sum(untraced, "utime_ticks"),
        field_sum(untraced, "stime_ticks"),
    );
    let mut out = vec![
        Reading::new(
            "workload.sys_cpu_share",
            "ratio",
            system / (user + system).max(1.0),
        ),
        Reading::new(
            "workload.allocs_per_op",
            "count",
            mean(&pooled(untraced, "allocs")),
        ),
        Reading::new(
            "workload.unexplained_ms",
            "ms",
            (op_ns - explained) / ops / 1e6,
        ),
        Reading::new(
            "trace.overhead_pct",
            "%",
            100.0 * (p10(traced) / p10(untraced) - 1.0),
        ),
    ];
    for group in LAYER_GROUPS {
        out.push(Reading::new(
            &format!("share.{group}"),
            "ratio",
            group_ns(group) / op_ns,
        ));
    }
    out.push(Reading::new(
        "share.unexplained",
        "ratio",
        (op_ns - explained) / op_ns,
    ));
    out
}
