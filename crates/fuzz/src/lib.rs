//! Deterministic fuzzing harness and differential oracles for every
//! VeCycle grammar that parses untrusted bytes.
//!
//! The workspace builds offline, so there is no cargo-fuzz and no
//! libFuzzer here; instead the crate hand-rolls a mutation fuzzer on
//! the workspace's deterministic ChaCha8 PRNG
//! ([`vecycle_types::rng::ChaCha8`]). That buys a property
//! coverage-guided fuzzers give up: the whole run is a pure function
//! of `(seed, iters)`. The same seed produces the same mutant stream,
//! the same outcome-class discoveries, the same corpus files and the
//! same stats block, on any machine. A finding is reproducible from two
//! integers.
//!
//! The moving parts:
//!
//! * [`targets`] — one [`targets::Target`] per parser surface
//!   (checkpoint wire format, trace wire format, the daemon's socket
//!   decoders, partial log and WAL, chaos/fault/eviction/size/link/
//!   duration grammars), each
//!   with seed inputs, a mutation
//!   dictionary and an outcome classifier;
//! * [`mutate`] — the seeded mutator and the trailer-fixing fixup that
//!   lets mutants of checksummed formats reach the inner field parsers;
//! * [`guard`] — the no-panic + bounded-allocation harness: a counting
//!   global allocator that fails a target when parsing an N-byte input
//!   requests far more than N bytes;
//! * [`corpus`] — the permanent, content-addressed corpus under
//!   `fuzz/corpus/`, replayed by tests and CI;
//! * [`oracle`] — differential replay of clean-parsing corpus entries:
//!   closed-form estimates vs the real transfer pipeline. The daemon's
//!   decoders carry their own per-input oracles (reader equivalence,
//!   growing-file loads, compaction as a fixed point) as
//!   [`targets::Target::differential`].

#![warn(missing_docs)]

pub mod corpus;
pub mod guard;
pub mod mutate;
pub mod oracle;
pub mod targets;

pub use guard::{alloc_budget, AllocMeter, AllocStats, CountingAlloc};

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Once, OnceLock};

use mutate::{fnv64, fnv64_chain, Mutator};
use targets::Target;

/// Why an input counts as a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The parser panicked instead of returning an error.
    Panic,
    /// Parsing requested more memory than [`alloc_budget`] allows.
    AllocGuard,
    /// A differential oracle disagreed on a clean-parsing input.
    Oracle,
}

/// One input that violated the harness contract.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The target that produced it.
    pub target: &'static str,
    /// What went wrong.
    pub kind: FindingKind,
    /// Panic message, allocation stats or oracle disagreement.
    pub detail: String,
    /// The offending bytes, verbatim.
    pub input: Vec<u8>,
}

/// The deterministic outcome of fuzzing one target.
#[derive(Debug)]
pub struct TargetReport {
    /// Target name.
    pub name: &'static str,
    /// Inputs executed (seeds + mutants).
    pub executions: u64,
    /// Executions per outcome class, in class-name order.
    pub classes: BTreeMap<&'static str, u64>,
    /// First input to reach each class, in discovery order — the
    /// corpus candidates.
    pub discovered: Vec<(&'static str, Vec<u8>)>,
    /// Harness violations.
    pub findings: Vec<Finding>,
    /// Rolling FNV over every executed input, length-framed: two runs
    /// agree on this iff they executed the identical byte streams.
    pub stream_digest: u64,
}

/// The deterministic outcome of replaying one target's corpus.
#[derive(Debug)]
pub struct ReplayReport {
    /// Target name.
    pub name: &'static str,
    /// Corpus entries replayed.
    pub entries: u64,
    /// Entries that parsed cleanly and passed both oracles.
    pub oracle_checked: u64,
    /// Entries the oracles skipped (empty or oversized images).
    pub oracle_skipped: u64,
    /// Harness or oracle violations.
    pub findings: Vec<Finding>,
    /// Rolling FNV over the replayed entries, in replay order.
    pub stream_digest: u64,
}

thread_local! {
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send>;

static PREV_HOOK: OnceLock<PanicHook> = OnceLock::new();

/// Installs (once, process-wide) a panic hook that stays silent while a
/// harness execution is in flight on the current thread, so a fuzz run
/// that catches thousands of panics does not flood stderr with
/// backtraces; panics outside the harness keep the default behaviour.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        let _ = PREV_HOOK.set(prev);
        panic::set_hook(Box::new(|info| {
            if !QUIET.with(std::cell::Cell::get) {
                if let Some(prev) = PREV_HOOK.get() {
                    prev(info);
                }
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One harness execution: what the classifier said (or how the parser
/// died) plus what the parse requested from the allocator.
struct Exec {
    class: Result<&'static str, String>,
    alloc: AllocStats,
}

/// Runs `f` with panics caught and the panic hook silenced, returning
/// the panic message on unwind.
fn catch_quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let caught = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    caught.map_err(panic_message)
}

/// Runs one input through a target under the no-panic +
/// bounded-allocation harness.
fn execute(target: &Target, input: &[u8]) -> Exec {
    let class = catch_quietly(|| {
        AllocMeter::start();
        (target.run)(input)
    });
    Exec {
        class,
        alloc: AllocMeter::stop(),
    }
}

/// Checks one execution against the harness contract, appending any
/// violation to `findings`.
fn check_contract(target: &Target, input: &[u8], exec: &Exec, findings: &mut Vec<Finding>) {
    if let Err(msg) = &exec.class {
        findings.push(Finding {
            target: target.name,
            kind: FindingKind::Panic,
            detail: msg.clone(),
            input: input.to_vec(),
        });
    }
    if exec.alloc.requested > alloc_budget(input.len()) {
        findings.push(Finding {
            target: target.name,
            kind: FindingKind::AllocGuard,
            detail: format!(
                "parse of {} bytes requested {} bytes (largest single request {}, budget {})",
                input.len(),
                exec.alloc.requested,
                exec.alloc.largest,
                alloc_budget(input.len()),
            ),
            input: input.to_vec(),
        });
    }
}

/// Runs the target's differential oracle, if it has one, appending a
/// disagreement (or a panic inside it) to `findings`.
fn check_differential(target: &Target, input: &[u8], findings: &mut Vec<Finding>) {
    let Some(differential) = target.differential else {
        return;
    };
    let verdict = catch_quietly(|| differential(input))
        .unwrap_or_else(|msg| Err(format!("oracle panicked: {msg}")));
    if let Err(detail) = verdict {
        findings.push(Finding {
            target: target.name,
            kind: FindingKind::Oracle,
            detail,
            input: input.to_vec(),
        });
    }
}

/// Fuzzes one target for `iters` mutants.
///
/// The mutation pool starts from the target's built-in seeds and grows
/// with each input that reaches a new outcome class; it never reads the
/// on-disk corpus, so two runs with the same `(seed, iters)` make
/// identical discoveries even when the first run has already written
/// its corpus out.
pub fn fuzz_target(target: &Target, seed: u64, iters: u64) -> TargetReport {
    let mut mutator = Mutator::new(seed ^ fnv64(target.name.as_bytes()));
    let mut pool: Vec<Vec<u8>> = (target.seeds)();
    let mut classes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut discovered: Vec<(&'static str, Vec<u8>)> = Vec::new();
    let mut findings = Vec::new();
    let mut executions = 0u64;
    let mut stream_digest = 0u64;

    let run_input = |input: &[u8],
                     classes: &mut BTreeMap<&'static str, u64>,
                     discovered: &mut Vec<(&'static str, Vec<u8>)>,
                     findings: &mut Vec<Finding>,
                     executions: &mut u64,
                     stream_digest: &mut u64|
     -> Option<&'static str> {
        *executions += 1;
        *stream_digest = fnv64_chain(*stream_digest, input);
        let exec = execute(target, input);
        check_contract(target, input, &exec, findings);
        check_differential(target, input, findings);
        if let Ok(class) = exec.class {
            *classes.entry(class).or_insert(0) += 1;
            if classes[class] == 1 {
                discovered.push((class, input.to_vec()));
                return Some(class);
            }
        }
        None
    };

    // Seeds first: they define the known classes before mutation starts.
    for s in pool.clone() {
        run_input(
            &s,
            &mut classes,
            &mut discovered,
            &mut findings,
            &mut executions,
            &mut stream_digest,
        );
    }

    for _ in 0..iters {
        let base = pool[mutator.pick(pool.len())].clone();
        let mut input = mutator.mutate(&base, target.dict, target.max_len);
        if let Some(post) = target.post {
            post(&mut input);
        }
        let new_class = run_input(
            &input,
            &mut classes,
            &mut discovered,
            &mut findings,
            &mut executions,
            &mut stream_digest,
        );
        // A class-opening input joins the pool: mutants of a mutant that
        // got past the magic check reach deeper than mutants of a seed.
        if new_class.is_some() {
            pool.push(input);
        }
    }

    TargetReport {
        name: target.name,
        executions,
        classes,
        discovered,
        findings,
        stream_digest,
    }
}

/// Replays a target's on-disk corpus through the harness and — for the
/// checkpoint and trace targets — through both differential oracles.
pub fn replay_corpus(target: &Target, root: &Path) -> std::io::Result<ReplayReport> {
    let mut report = ReplayReport {
        name: target.name,
        entries: 0,
        oracle_checked: 0,
        oracle_skipped: 0,
        findings: Vec::new(),
        stream_digest: 0,
    };
    for (_name, bytes) in corpus::load_entries(root, target.name)? {
        report.entries += 1;
        report.stream_digest = fnv64_chain(report.stream_digest, &bytes);
        let exec = execute(target, &bytes);
        check_contract(target, &bytes, &exec, &mut report.findings);
        check_differential(target, &bytes, &mut report.findings);
        if exec.class.is_err() {
            continue;
        }
        let verdict = if target.name.starts_with("ckpt") {
            vecycle_checkpoint::Checkpoint::read_from(bytes.as_slice())
                .ok()
                .map(|cp| oracle::checkpoint_oracle(&cp))
        } else if target.name.starts_with("trace") {
            vecycle_trace::Trace::read_from(bytes.as_slice())
                .ok()
                .map(|tr| oracle::trace_oracle(&tr))
        } else {
            None
        };
        match verdict {
            Some(Ok(oracle::OracleOutcome::Checked)) => report.oracle_checked += 1,
            Some(Ok(oracle::OracleOutcome::Skipped)) => report.oracle_skipped += 1,
            Some(Err(detail)) => report.findings.push(Finding {
                target: target.name,
                kind: FindingKind::Oracle,
                detail,
                input: bytes,
            }),
            None => {}
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzing_is_deterministic() {
        let target = targets::find_target("chaos_cfg").expect("registered");
        let a = fuzz_target(&target, 7, 300);
        let target = targets::find_target("chaos_cfg").expect("registered");
        let b = fuzz_target(&target, 7, 300);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.stream_digest, b.stream_digest);
        assert_eq!(a.classes, b.classes);
        assert_eq!(
            a.discovered
                .iter()
                .map(|(c, i)| (*c, i.clone()))
                .collect::<Vec<_>>(),
            b.discovered
                .iter()
                .map(|(c, i)| (*c, i.clone()))
                .collect::<Vec<_>>(),
        );
        assert!(a.findings.is_empty(), "chaos grammar must not panic");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let t = targets::find_target("cli_faults").expect("registered");
        let a = fuzz_target(&t, 1, 200);
        let t = targets::find_target("cli_faults").expect("registered");
        let b = fuzz_target(&t, 2, 200);
        assert_ne!(a.stream_digest, b.stream_digest);
    }

    #[test]
    fn trailer_fixing_target_reaches_inner_parsers() {
        // With the trailer refixed, mutants get past the integrity check
        // and exercise field validation: the run must discover more than
        // just the ok/trailer/short classes.
        let t = targets::find_target("ckpt_fix").expect("registered");
        let report = fuzz_target(&t, 7, 2000);
        assert!(
            report.findings.is_empty(),
            "findings: {:?}",
            report.findings
        );
        let inner: Vec<_> = report
            .classes
            .keys()
            .filter(|c| !matches!(**c, "ok_digests" | "ok_pages" | "err_trailer" | "err_short"))
            .collect();
        assert!(
            !inner.is_empty(),
            "no inner classes reached; classes = {:?}",
            report.classes
        );
        // Tabled page files are re-sealed over header + table, so
        // mutants reach the length check and the table-vs-pages check.
        for class in ["err_payload_len", "err_page_digest"] {
            assert!(
                report.classes.contains_key(class),
                "{class} not reached; classes = {:?}",
                report.classes
            );
        }
    }

    #[test]
    fn a_panicking_target_is_reported_not_fatal() {
        fn boom(input: &[u8]) -> &'static str {
            if input.first() == Some(&0xff) {
                panic!("synthetic parser bug");
            }
            "ok"
        }
        let t = Target {
            name: "synthetic_panic",
            seeds: || vec![vec![0xff, 1, 2]],
            dict: &[],
            post: None,
            run: boom,
            differential: None,
            max_len: 64,
        };
        let report = fuzz_target(&t, 3, 50);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::Panic && f.detail.contains("synthetic")),
            "panic finding missing: {:?}",
            report.findings
        );
    }

    #[test]
    fn replay_of_missing_corpus_is_empty() {
        let t = targets::find_target("bytes_size").expect("registered");
        let dir = std::env::temp_dir().join("vecycle-fuzz-no-such-corpus");
        let report = replay_corpus(&t, &dir).expect("empty replay");
        assert_eq!(report.entries, 0);
        assert!(report.findings.is_empty());
    }
}
