//! The deterministic fuzz driver.
//!
//! ```text
//! cargo run -p vecycle-fuzz --release -- --seed 7 --iters 50000
//! ```
//!
//! Everything printed is a pure function of the flags and the on-disk
//! corpus: no wall-clock, no iteration order dependence. Two runs with
//! the same seed produce byte-identical stdout and a byte-identical
//! corpus, which is what lets CI diff them.
//!
//! Exit status: 0 when every target completes with no panics, no
//! allocation-guard trips and no oracle disagreements; 1 when there are
//! findings (each offending input is saved under
//! `target/fuzz-artifacts/`); 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use vecycle_fuzz::{
    corpus, fuzz_target, replay_corpus, targets, AllocMeter, CountingAlloc, Finding, FindingKind,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Options {
    seed: u64,
    iters: u64,
    filter: Vec<String>,
    corpus_root: PathBuf,
    list: bool,
}

fn usage() -> &'static str {
    "usage: vecycle-fuzz [--seed N] [--iters N] [--target NAME]... [--corpus DIR] [--list]\n\
     \n\
     --seed N       PRNG seed; the whole run is a function of it (default 7)\n\
     --iters N      mutants per target (default 50000)\n\
     --target NAME  fuzz only the named target(s); repeatable\n\
     --corpus DIR   corpus root (default: the checked-in fuzz/corpus/)\n\
     --list         list registered targets and exit"
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 7,
        iters: 50_000,
        filter: Vec::new(),
        corpus_root: corpus::corpus_root(),
        list: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--iters" => {
                let v = value("--iters")?;
                opts.iters = v
                    .parse()
                    .map_err(|_| format!("bad iteration count {v:?}"))?;
            }
            "--target" => {
                let v = value("--target")?;
                if targets::find_target(&v).is_none() {
                    return Err(format!("unknown target {v:?} (try --list)"));
                }
                opts.filter.push(v);
            }
            "--corpus" => opts.corpus_root = PathBuf::from(value("--corpus")?),
            "--list" => opts.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn class_line(classes: &std::collections::BTreeMap<&'static str, u64>) -> String {
    classes
        .iter()
        .map(|(c, n)| format!("{c}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn save_artifacts(findings: &[Finding]) -> Vec<String> {
    let dir = PathBuf::from("target/fuzz-artifacts");
    let mut paths = Vec::new();
    if std::fs::create_dir_all(&dir).is_err() {
        return paths;
    }
    for f in findings {
        let kind = match f.kind {
            FindingKind::Panic => "panic",
            FindingKind::AllocGuard => "alloc",
            FindingKind::Oracle => "oracle",
        };
        let name = format!("{}-{kind}-{}", f.target, corpus::entry_name(&f.input));
        let path = dir.join(&name);
        if std::fs::write(&path, &f.input).is_ok() {
            paths.push(path.display().to_string());
        }
    }
    paths
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("vecycle-fuzz: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let selected: Vec<targets::Target> = targets::all_targets()
        .into_iter()
        .filter(|t| opts.filter.is_empty() || opts.filter.iter().any(|f| f == t.name))
        .collect();

    if opts.list {
        for t in &selected {
            println!("{}", t.name);
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "vecycle-fuzz seed={} iters={} targets={} alloc-guard={}",
        opts.seed,
        opts.iters,
        selected.len(),
        if AllocMeter::is_live() {
            "live"
        } else {
            "INERT"
        },
    );

    let mut findings: Vec<Finding> = Vec::new();

    // Phase 1: fuzz every target and fold each discovery into the
    // permanent corpus (content-addressed, so this is idempotent).
    for target in &selected {
        let report = fuzz_target(target, opts.seed, opts.iters);
        for (_class, input) in &report.discovered {
            if let Err(e) = corpus::write_entry(&opts.corpus_root, target.name, input) {
                eprintln!("vecycle-fuzz: cannot write corpus for {}: {e}", target.name);
                return ExitCode::from(2);
            }
        }
        let entries = corpus::load_entries(&opts.corpus_root, target.name)
            .map(|e| e.len())
            .unwrap_or(0);
        println!(
            "fuzz {}: execs={} stream={:016x} corpus={} findings={}",
            report.name,
            report.executions,
            report.stream_digest,
            entries,
            report.findings.len(),
        );
        println!("  {}", class_line(&report.classes));
        findings.extend(report.findings);
    }

    // Phase 2: replay the corpus (pre-existing entries plus everything
    // phase 1 just wrote) through the harness and the oracles.
    for target in &selected {
        match replay_corpus(target, &opts.corpus_root) {
            Ok(report) => {
                println!(
                    "replay {}: entries={} oracle-checked={} oracle-skipped={} stream={:016x} findings={}",
                    report.name,
                    report.entries,
                    report.oracle_checked,
                    report.oracle_skipped,
                    report.stream_digest,
                    report.findings.len(),
                );
                findings.extend(report.findings);
            }
            Err(e) => {
                eprintln!(
                    "vecycle-fuzz: cannot replay corpus for {}: {e}",
                    target.name
                );
                return ExitCode::from(2);
            }
        }
    }

    if findings.is_empty() {
        println!("findings: 0");
        return ExitCode::SUCCESS;
    }
    println!("findings: {}", findings.len());
    let paths = save_artifacts(&findings);
    for (f, path) in findings.iter().zip(&paths) {
        println!("  {} {:?}: {} [{}]", f.target, f.kind, f.detail, path);
    }
    ExitCode::FAILURE
}
