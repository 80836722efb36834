//! One round of one workload, run in a child process of its own:
//! set-up → warm-up ops → a fixed number of timed ops → a result file.
//!
//! A fresh process per round gives every round its own set-up time,
//! peak RSS and allocator history, and lets `run` interleave rounds of
//! different workloads so a disturbed half-minute of this shared
//! machine lands on at most a fifth of any workload's samples.

use std::path::PathBuf;
use std::time::Instant;

use serde::Value;

use crate::spans::Tracer;
use crate::sys;
use crate::util::{fnv, nums, obj, render_json, s, FNV_INIT};
use crate::workloads::{Kind, OpRecord, Workload, WARMUP_OPS};

/// The child's command line, as the parent wrote it.
pub struct RoundArgs {
    pub kind: Kind,
    pub seed: u64,
    pub round: u64,
    pub ops: u64,
    pub trace: bool,
    /// `sys::monotonic_ns()` in the parent just before the spawn.
    pub spawned_at_ns: u64,
    pub out: PathBuf,
}

/// Runs the round in the current directory and writes `args.out`.
pub fn run(args: &RoundArgs) -> Result<(), String> {
    let mut workload = Workload::setup(args.kind, args.seed, args.round, args.ops)?;
    let (mut attempted, mut failed, mut fingerprint) = (0u64, 0u64, FNV_INIT);
    let mut tally = |op: &OpRecord| {
        attempted += 1;
        failed += u64::from(!op.ok);
        fingerprint = fnv(fingerprint, &op.fingerprint.to_be_bytes());
    };
    let mut untraced = Tracer::new(false);
    for i in 0..WARMUP_OPS {
        tally(&workload.op(i, &mut untraced));
    }

    let setup_ns = sys::monotonic_ns() - args.spawned_at_ns;
    let mut tracer = Tracer::new(args.trace);
    let (utime0, stime0) = sys::cpu_ticks();
    let (steal0, total0) = sys::steal_ticks();
    let phase = Instant::now();
    let (mut wall_ms, mut cpu_ms, mut alloc_bytes, mut allocs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut guest_mib, mut wire_bytes, mut sim_ns, mut migrations) = (0.0, 0u64, 0u64, 0u64);
    for i in WARMUP_OPS..WARMUP_OPS + args.ops {
        tracer.set_op(i);
        let op = workload.op(i, &mut tracer);
        tally(&op);
        wall_ms.push(op.sample.wall_ns as f64 / 1e6);
        cpu_ms.push(op.sample.cpu_ns as f64 / 1e6);
        alloc_bytes.push(op.sample.alloc_bytes as f64);
        allocs.push(op.sample.allocs as f64);
        guest_mib += op.guest_mib;
        wire_bytes += op.wire_bytes;
        sim_ns += op.sim_ns;
        migrations += op.migrations;
    }
    let phase_s = phase.elapsed().as_secs_f64();
    let (utime1, stime1) = sys::cpu_ticks();
    let (steal1, total1) = sys::steal_ticks();
    workload.teardown();

    let mut fields = vec![
        ("workload", s(args.kind.name())),
        ("round", Value::U64(args.round)),
        ("ops", Value::U64(args.ops)),
        ("setup_s", Value::F64(setup_ns as f64 / 1e9)),
        ("phase_s", Value::F64(phase_s)),
        ("wall_ms", nums(&wall_ms)),
        ("cpu_ms", nums(&cpu_ms)),
        ("alloc_bytes", nums(&alloc_bytes)),
        ("allocs", nums(&allocs)),
        ("guest_mib", Value::F64(guest_mib)),
        ("wire_bytes", Value::U64(wire_bytes)),
        ("sim_ns", Value::U64(sim_ns)),
        ("migrations", Value::U64(migrations)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("fingerprint", s(format!("{fingerprint:016x}"))),
        ("peak_rss_kib", Value::U64(sys::peak_rss_kib())),
        ("utime_ticks", Value::U64(utime1 - utime0)),
        ("stime_ticks", Value::U64(stime1 - stime0)),
        ("steal_ticks", Value::U64(steal1 - steal0)),
        ("total_ticks", Value::U64(total1 - total0)),
    ];
    if args.trace {
        let self_ns = tracer
            .self_ns_by_name()
            .into_iter()
            .map(|(name, ns)| (name.to_string(), Value::U64(ns)))
            .collect();
        let op_ns: u64 = tracer
            .spans()
            .iter()
            .filter(|sp| sp.name == "bench.op")
            .map(|sp| sp.end_ns - sp.start_ns)
            .sum();
        fields.push(("self_ns", Value::Object(self_ns)));
        fields.push(("op_ns", Value::U64(op_ns)));
        fields.push(("spans", tracer.to_json()));
    }
    std::fs::write(&args.out, render_json(&obj(fields), false))
        .map_err(|e| format!("writing {}: {e}", args.out.display()))
}
