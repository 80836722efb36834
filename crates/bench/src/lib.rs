//! Shared plumbing for the experiment binaries (`fig1` … `fig8`,
//! `table1`, `ablation`).
//!
//! Every binary accepts:
//!
//! * `--scale <pages-per-GiB>` — trace resolution (default 1024, i.e.
//!   1/256 of real page density; all reported metrics are fractions, so
//!   scale changes noise, not shape);
//! * `--seed <u64>` — generator seed (default 0x7ec);
//! * `--json <path>` — also write an [`ExperimentLog`] JSON file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vecycle_analysis::ExperimentLog;
use vecycle_trace::{catalog, Trace, TraceGenerator, TracedMachine};
use vecycle_types::Bytes;

pub use vecycle_analysis as analysis;

pub mod soak;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Fingerprint pages per GiB of nominal RAM.
    pub pages_per_gib: u64,
    /// Generator seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            pages_per_gib: 1024,
            seed: 0x7ec,
            json: None,
        }
    }
}

impl Options {
    /// Parses `--scale`, `--seed` and `--json` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments — these are
    /// developer-facing experiment binaries.
    pub fn from_args() -> Self {
        let mut opts = Options::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut grab = |what: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{what} requires a value"))
            };
            match arg.as_str() {
                "--scale" => {
                    opts.pages_per_gib = grab("--scale").parse().expect("--scale: integer")
                }
                "--seed" => opts.seed = grab("--seed").parse().expect("--seed: integer"),
                "--json" => opts.json = Some(grab("--json").into()),
                other => panic!("unknown argument {other}; known: --scale --seed --json"),
            }
        }
        assert!(opts.pages_per_gib > 0, "--scale must be positive");
        opts
    }

    /// The scaled page count for a machine with `ram` of nominal RAM.
    pub fn scaled_pages(&self, ram: Bytes) -> u64 {
        (ram.as_gib_f64() * self.pages_per_gib as f64)
            .round()
            .max(64.0) as u64
    }

    /// Generates the trace for one cataloged machine at this scale.
    ///
    /// # Panics
    ///
    /// Panics if the calibrated profile fails validation (a bug).
    pub fn trace_for(&self, machine: &TracedMachine) -> Trace {
        TraceGenerator::new(
            machine.profile.clone(),
            self.seed ^ u64::from(machine.id.as_u32()),
        )
        .scale_pages(self.scaled_pages(machine.ram()))
        .generate()
        .expect("catalog profiles validate")
    }

    /// Writes the log if `--json` was given, reporting the path.
    pub fn finish(&self, log: &ExperimentLog) {
        if let Some(path) = &self.json {
            log.write_json_file(path).expect("writing experiment log");
            println!("\n[experiment log written to {}]", path.display());
        }
    }
}

/// Looks up a machine by its figure name ("Server A", ...).
///
/// # Panics
///
/// Panics if the name is not in the catalog.
pub fn machine(name: &str) -> TracedMachine {
    catalog()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no machine named {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_pages_tracks_ram() {
        let o = Options::default();
        assert_eq!(o.scaled_pages(Bytes::from_gib(1)), 1024);
        assert_eq!(o.scaled_pages(Bytes::from_gib(8)), 8192);
        // Floors at 64 pages for tiny scales.
        let small = Options {
            pages_per_gib: 1,
            ..Options::default()
        };
        assert_eq!(small.scaled_pages(Bytes::from_gib(1)), 64);
    }

    #[test]
    fn machine_lookup() {
        assert_eq!(machine("Server C").ram(), Bytes::from_gib(8));
    }

    #[test]
    #[should_panic(expected = "no machine named")]
    fn unknown_machine_panics() {
        let _ = machine("Server Z");
    }
}
