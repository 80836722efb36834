//! The parent side: spawns round children, pools what they report,
//! prints it, and writes the result files.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

use crate::report::{self, Reading, Summary, END_TO_END, PER_LAYER};
use crate::sys;
use crate::util::{as_f64, get_f64, obj, parse_json, render_json, s};
use crate::workloads::{Kind, ROUNDS};

/// What every subcommand takes.
pub struct Options {
    pub seed: u64,
    /// Run length the op counts are scaled to (ops, not seconds, are
    /// what is fixed: see `Kind::ops_per_round`).
    pub seconds: u64,
    pub workloads: Vec<Kind>,
}

/// Environment variables that change what the repo's code does; a
/// child must never inherit them.
const STRIPPED_ENV: [&str; 3] = [
    "VECYCLE_THREADS",
    "VECYCLE_KILL_AT",
    "VECYCLED_WAIT_POLL_MS",
];

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The commit of the repo this crate sits in.
fn commit() -> String {
    sys::commit(bench_dir().parent().unwrap_or(bench_dir()))
}

/// A scratch directory under `benchmark/target/tmp/<pid>/` — on the
/// repo's filesystem, so journals and checkpoint stores hit a real
/// disk — removed when the session ends.
struct Session {
    tmp: PathBuf,
    exe: PathBuf,
    children: u64,
}

impl Session {
    fn open() -> Result<Session, String> {
        let tmp = bench_dir()
            .join("target/tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        Ok(Session {
            tmp,
            exe,
            children: 0,
        })
    }

    /// Runs one child to completion in a fresh directory and returns
    /// the JSON it wrote there.
    fn child(&mut self, args: &[String]) -> Result<Value, String> {
        self.children += 1;
        let dir = self.tmp.join(self.children.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut command = Command::new(&self.exe);
        command
            .args(args)
            .args(["--out", "out.json", "--spawned-at-ns"])
            .current_dir(&dir);
        for name in STRIPPED_ENV {
            command.env_remove(name);
        }
        sys::flush_filesystem();
        let status = command
            .arg(sys::monotonic_ns().to_string())
            .status()
            .map_err(|e| format!("spawning child: {e}"))?;
        let text = std::fs::read_to_string(dir.join("out.json"));
        let _ = std::fs::remove_dir_all(&dir);
        if !status.success() {
            return Err(format!("child {args:?} ended with {status}"));
        }
        parse_json(&text.map_err(|e| format!("child {args:?} left no result: {e}"))?)
    }

    fn round(
        &mut self,
        kind: Kind,
        opts: &Options,
        round: u64,
        ops: u64,
        trace: bool,
    ) -> Result<Value, String> {
        self.child(&[
            "round".into(),
            "--workload".into(),
            kind.name().into(),
            "--seed".into(),
            opts.seed.to_string(),
            "--round".into(),
            round.to_string(),
            "--ops".into(),
            ops.to_string(),
            "--trace".into(),
            u8::from(trace).to_string(),
        ])
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// Where and by what a result was produced.
fn provenance(session: &Session, opts: &Options) -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    vec![
        ("schema", s("vecycle-benchmark/1")),
        ("commit", s(commit())),
        ("nproc", Value::U64(nproc)),
        ("rustc", s(env!("BENCH_RUSTC"))),
        ("target_features", s(env!("BENCH_TARGET_FEATURES"))),
        ("tmp_fs_type", s(sys::fs_type(&session.tmp))),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::U64(opts.seconds)),
    ]
}

fn write_result(opts: &Options, kind: &str, value: &Value, pretty: bool) -> Result<(), String> {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let commit = commit();
    let scope = match opts.workloads.as_slice() {
        [one] => format!(".{}", one.name()),
        _ => String::new(),
    };
    let path = dir.join(format!("{commit}-{}{scope}.{kind}.json", opts.seed));
    std::fs::write(&path, render_json(value, pretty) + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("[{} written]", path.display());
    Ok(())
}

/// Runs every round of every requested workload, interleaved
/// (A B C, A B C, ...), and pools each workload's rounds.
fn collect(session: &mut Session, opts: &Options) -> Result<Vec<Summary>, String> {
    let mut rounds: Vec<Vec<Value>> = vec![Vec::new(); opts.workloads.len()];
    for round in 0..ROUNDS {
        for (slot, kind) in opts.workloads.iter().enumerate() {
            let ops = kind.ops_per_round(opts.seconds);
            rounds[slot].push(session.round(*kind, opts, round, ops, false)?);
        }
    }
    Ok(opts
        .workloads
        .iter()
        .zip(rounds)
        .map(|(kind, rounds)| report::summarize(*kind, rounds))
        .collect())
}

/// `run`: the end-to-end metrics, always untraced. `Ok(false)` when an
/// op failed or failed verification.
pub fn run(opts: &Options, contract: bool) -> Result<bool, String> {
    let mut session = Session::open()?;
    let summaries = collect(&mut session, opts)?;
    for summary in &summaries {
        summary.print();
    }
    let correct = summaries.iter().all(|sm| sm.failed == 0);
    if contract {
        let only = &summaries[0];
        let line = report::contract_line(correct, only.attempted, only.failed, &only.end_to_end);
        println!("{}", render_json(&line, false));
        return Ok(true);
    }
    let mut fields = provenance(&session, opts);
    fields.push((
        "workloads",
        Value::Object(
            summaries
                .iter()
                .map(|sm| (sm.kind.name().to_string(), sm.to_json()))
                .collect(),
        ),
    ));
    write_result(opts, "run", &obj(fields), false)?;
    Ok(correct)
}

/// `trace`: the per-layer metrics. One child times every layer's
/// public functions on fixed inputs; then each workload runs two short
/// rounds untraced and the same two with spans on (and, for `pair_*`,
/// a staged replay after every op).
pub fn trace(opts: &Options, contract: bool) -> Result<bool, String> {
    let mut session = Session::open()?;
    let layers = session.child(&["layers".into(), "--seed".into(), opts.seed.to_string()])?;
    let mut layer_readings = Vec::new();
    for (name, unit, _) in PER_LAYER {
        if let Some(value) = layers.get(name).and_then(as_f64) {
            layer_readings.push(Reading::new(name, unit, value));
        }
    }
    println!("\nlayers (fixed inputs)");
    for r in &layer_readings {
        println!("  {:<30} {:>16.4} {}", r.name, r.value, r.unit);
    }

    let mut spans = Vec::new();
    let mut per_workload = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // The pipeline form traces one workload; its line carries that
    // workload's rows after the layer rows.
    let mut workload_readings = Vec::new();
    for kind in &opts.workloads {
        // Half a round's ops per child: a traced round replays every
        // op, which roughly doubles its length.
        let ops = (kind.ops_per_round(opts.seconds) / 2).max(2);
        // Untraced, traced, traced, untraced: both sides sample the
        // same stretch of this machine's time, and a linear drift
        // cancels — two rounds minutes apart would measure the
        // neighbours, not the tracer.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for (round, trace) in [(0, false), (0, true), (1, true), (1, false)] {
            let mut result = session.round(*kind, opts, round, ops, trace)?;
            attempted += get_f64(&result, "attempted").unwrap_or(0.0) as u64;
            failed += get_f64(&result, "failed").unwrap_or(0.0) as u64;
            if let Value::Object(fields) = &mut result {
                if let Some(at) = fields.iter().position(|(k, _)| k == "spans") {
                    spans.push((format!("{}.round{round}", kind.name()), fields.remove(at).1));
                }
            }
            if trace { &mut traced } else { &mut untraced }.push(result);
        }
        let readings = report::trace_metrics(&untraced, &traced);
        println!(
            "\n{} (2 traced rounds against 2 untraced, {ops} ops each)",
            kind.name()
        );
        for r in &readings {
            println!("  {:<30} {:>16.4} {}", r.name, r.value, r.unit);
        }
        let self_ns = report::merged_self_ns(&traced)
            .into_iter()
            .map(|(name, ns)| (name, Value::F64(ns)))
            .collect();
        per_workload.push((
            kind.name().to_string(),
            obj(vec![
                (
                    "metrics",
                    Value::Object(
                        readings
                            .iter()
                            .map(|r| (r.name.clone(), Value::F64(r.value)))
                            .collect(),
                    ),
                ),
                ("ops_per_round", Value::U64(ops)),
                ("self_ns", Value::Object(self_ns)),
            ]),
        ));
        workload_readings = readings;
    }

    let mut fields = provenance(&session, opts);
    fields.push(("layers", layers.clone()));
    fields.push(("budget", Value::Object(per_workload)));
    write_result(opts, "layers", &obj(fields), true)?;
    write_result(opts, "spans", &Value::Object(spans), false)?;

    if contract {
        layer_readings.extend(workload_readings);
        let line = report::contract_line(failed == 0, attempted.max(1), failed, &layer_readings);
        println!("{}", render_json(&line, false));
        return Ok(true);
    }
    Ok(failed == 0)
}

/// `repeat`: runs `run`'s measurement `sets` times on this build and
/// checks that every pair of sets agrees within each metric's bound,
/// and that the fingerprints do not differ at all.
pub fn repeat(opts: &Options, sets: u64) -> Result<bool, String> {
    let mut session = Session::open()?;
    let mut all = Vec::new();
    for set in 0..sets.max(2) {
        println!("\n=== set {} of {} ===", set + 1, sets.max(2));
        let summaries = collect(&mut session, opts)?;
        for summary in &summaries {
            summary.print();
        }
        all.push(summaries);
    }

    let mut agree = true;
    println!("\n=== agreement over {} sets ===", all.len());
    for (slot, kind) in opts.workloads.iter().enumerate() {
        println!("\n{}", kind.name());
        let fingerprints: Vec<&str> = all
            .iter()
            .map(|set| set[slot].sim_fingerprint.as_str())
            .collect();
        let same = fingerprints.windows(2).all(|w| w[0] == w[1]);
        agree &= same;
        println!(
            "  {:<28} {} {}",
            "sim_fingerprint",
            fingerprints[0],
            if same { "identical" } else { "DIFFERS" }
        );
        for (i, def) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = all
                .iter()
                .map(|set| set[slot].end_to_end[i].value)
                .collect();
            // Every set ran the same seed, so a count may not move.
            let bound = if def.exact_per_seed { 0.0 } else { def.bound };
            agree &= print_spread(def.name, def.unit, &values, Some(bound));
        }
        for i in 0..all[0][slot].bench.len() {
            let r = &all[0][slot].bench[i];
            let values: Vec<f64> = all.iter().map(|set| set[slot].bench[i].value).collect();
            print_spread(&r.name, &r.unit, &values, None);
        }
        agree &= all.iter().all(|set| set[slot].failed == 0);
    }
    println!(
        "\n{}",
        if agree {
            "all sets agree within bounds"
        } else {
            "DISAGREEMENT beyond bounds"
        }
    );
    Ok(agree)
}

/// Prints one metric's values over the sets with their worst pairwise
/// spread; `false` if the spread exceeds `bound`.
fn print_spread(name: &str, unit: &str, values: &[f64], bound: Option<f64>) -> bool {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let spread = if min.abs() > 0.0 {
        (max - min) / min.abs()
    } else {
        max - min
    };
    let within = bound.is_none_or(|b| spread <= b);
    let rendered: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!(
        "  {:<28} spread {:>6.2}%  {}  [{}] {unit}",
        name,
        spread * 100.0,
        match bound {
            Some(b) if within => format!("within {}%", b * 100.0),
            Some(b) => format!("EXCEEDS {}%", b * 100.0),
            None => "ungated".to_string(),
        },
        rendered.join(", ")
    );
    within
}
