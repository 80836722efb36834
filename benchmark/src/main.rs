//! `vecycle-benchmark`: the repo benchmark.
//!
//! ```text
//! vecycle-benchmark --workload W --seed N --seconds S --trace 0|1   pipeline contract: one
//!                                                  workload, result as the last stdout line
//! vecycle-benchmark run    [--workload W] [--seed N] [--seconds S]   end-to-end metrics
//! vecycle-benchmark trace  [--workload W] [--seed N] [--seconds S]   per-layer metrics + spans
//! vecycle-benchmark repeat [--sets N]     [--seed N] [--seconds S]   same-code agreement check
//! vecycle-benchmark names                          metric and workload names, for check.sh
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod layers;
mod replay;
mod report;
mod round;
mod run;
mod spans;
mod sys;
mod util;
mod workloads;

use std::process::ExitCode;

use workloads::{Kind, REFERENCE_SECONDS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} wants a whole number, got {v:?}"))
        })
    }

    fn workload(&self) -> Result<Option<Kind>, String> {
        self.get("workload")
            .map(|name| Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}")))
            .transpose()
    }

    fn options(&self) -> Result<run::Options, String> {
        let seconds = self.u64_or("seconds", REFERENCE_SECONDS)?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(run::Options {
            seed: self.u64_or("seed", 1)?,
            seconds,
            workloads: self
                .workload()?
                .map_or_else(|| Kind::ALL.to_vec(), |k| vec![k]),
        })
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("contract", args),
    };
    let flags = Flags::parse(rest)?;
    match command {
        "contract" => {
            let opts = flags.options()?;
            if flags.get("workload").is_none() {
                return Err("the pipeline form needs --workload (or use a subcommand)".into());
            }
            match flags.get("trace") {
                Some("1") => run::trace(&opts, true),
                Some("0") | None => run::run(&opts, true),
                Some(other) => Err(format!("--trace wants 0 or 1, got {other:?}")),
            }
        }
        "run" => run::run(&flags.options()?, false),
        "trace" => run::trace(&flags.options()?, false),
        "repeat" => run::repeat(&flags.options()?, flags.u64_or("sets", 2)?),
        "names" => {
            report::print_names();
            Ok(true)
        }
        "round" => {
            let need = |name: &str| {
                flags
                    .get(name)
                    .ok_or_else(|| format!("round needs --{name}"))
            };
            round::run(&round::RoundArgs {
                kind: flags.workload()?.ok_or("round needs --workload")?,
                seed: flags.u64_or("seed", 1)?,
                round: flags.u64_or("round", 0)?,
                ops: flags.u64_or("ops", 1)?,
                trace: need("trace")? == "1",
                spawned_at_ns: flags.u64_or("spawned-at-ns", sys::monotonic_ns())?,
                out: need("out")?.into(),
            })?;
            Ok(true)
        }
        "layers" => {
            let out = flags.get("out").ok_or("layers needs --out")?;
            layers::run(flags.u64_or("seed", 1)?, out.as_ref())?;
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vecycle-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
