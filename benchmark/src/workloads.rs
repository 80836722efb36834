//! The five closed-loop, single-client workloads. Each drives the repo
//! through public functions only, times the op itself, and verifies
//! every op's output outside the timed window.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, DiskStore};
use vecycle_core::{apply_transcript, MigrationEngine, MigrationReport, Strategy};
use vecycle_daemon::queue::JobRecord;
use vecycle_daemon::{scenario, Daemon, DaemonConfig, DaemonHandle, Endpoint, JobState};
use vecycle_fleet::{Fleet, FleetReport, FleetSpec, PlacementMode};
use vecycle_mem::workload::{GuestWorkload, IdleWorkload, RelocationWorkload};
use vecycle_mem::{ByteMemory, Guest};
use vecycle_net::LinkSpec;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{PageCount, SimDuration, SimTime, VmId, PAGE_SIZE};

use crate::replay;
use crate::spans::Tracer;
use crate::sys;
use crate::util::{fnv, mix, FNV_INIT};

/// How long one daemon job may take before the op counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Rounds per workload per run; each is a fresh child process. Five,
/// because `setup_s` is sampled once per round and the fastest of five
/// set-ups repeats about twice as well as the fastest of three.
pub const ROUNDS: u64 = 5;
/// Untimed ops at the start of every round.
pub const WARMUP_OPS: u64 = 2;

/// The five workloads, in the order `run` interleaves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PairColdFull,
    PairWarmRecycle,
    PairDurablePingpong,
    LocalBytesPingpong,
    FleetAware,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::PairColdFull,
        Kind::PairWarmRecycle,
        Kind::PairDurablePingpong,
        Kind::LocalBytesPingpong,
        Kind::FleetAware,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PairColdFull => "pair_cold_full",
            Kind::PairWarmRecycle => "pair_warm_recycle",
            Kind::PairDurablePingpong => "pair_durable_pingpong",
            Kind::LocalBytesPingpong => "local_bytes_pingpong",
            Kind::FleetAware => "fleet_aware",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Timed ops per round at the reference run length
    /// ([`REFERENCE_SECONDS`]). Calibrated once on the 2-vCPU reference
    /// VM so the timed phases of all rounds fill the run, then
    /// frozen: the work of a run is a function of `--seconds` alone,
    /// never of how fast this machine happens to be.
    fn reference_ops_per_round(self) -> u64 {
        match self {
            Kind::PairColdFull => 26,
            Kind::PairWarmRecycle => 24,
            Kind::PairDurablePingpong => 25,
            Kind::LocalBytesPingpong => 21,
            Kind::FleetAware => 27,
        }
    }

    /// Timed ops per round for a run of `seconds`.
    pub fn ops_per_round(self, seconds: u64) -> u64 {
        (self.reference_ops_per_round() * seconds / REFERENCE_SECONDS).max(2)
    }
}

/// The run length the frozen op counts were calibrated for, and the
/// `run_seconds` of `BENCHMARK.json`.
pub const REFERENCE_SECONDS: u64 = 15;

/// What the timed window of one op cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

/// Runs `f` and measures it: wall clock, process CPU (every thread —
/// daemon jobs run on daemon threads), allocator requests.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let (bytes0, calls0) = sys::alloc_counters();
    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    let out = f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let (bytes1, calls1) = sys::alloc_counters();
    (
        out,
        Sample {
            wall_ns,
            cpu_ns,
            alloc_bytes: bytes1 - bytes0,
            allocs: calls1 - calls0,
        },
    )
}

/// Everything one op produced.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub sample: Sample,
    /// Guest memory migrated by the op, in MiB.
    pub guest_mib: f64,
    /// Bytes on the wire: measured socket tx+rx for daemon workloads,
    /// ledger bytes otherwise.
    pub wire_bytes: u64,
    /// Simulated migration time summed over the op's migrations.
    pub sim_ns: u64,
    /// Migrations the op performed.
    pub migrations: u64,
    /// The op completed and its output passed verification.
    pub ok: bool,
    /// FNV-1a 64 over the op's report(s).
    pub fingerprint: u64,
}

/// The verified outputs of one migration.
struct Checked {
    ok: bool,
    wire_bytes: u64,
    sim_ns: u64,
    fingerprint: u64,
}

impl Checked {
    const FAILED: Checked = Checked {
        ok: false,
        wire_bytes: 0,
        sim_ns: 0,
        fingerprint: 0,
    };
}

fn report_fingerprint(report: &impl std::fmt::Debug) -> u64 {
    fnv(FNV_INIT, format!("{report:?}").as_bytes())
}

/// A live workload: set up once per round, then driven op by op.
pub enum Workload {
    Pair(Pair),
    Local(Box<Local>),
    Fleet(FleetLoop),
}

impl Workload {
    /// Builds round `round` of `kind`. The process's working directory
    /// must be the round's private scratch directory: sockets, journals
    /// and checkpoint stores are created relative to it (which also
    /// keeps Unix socket paths far below the 108-byte limit).
    pub fn setup(kind: Kind, seed: u64, round: u64, ops: u64) -> Result<Workload, String> {
        // Ops are numbered across rounds, so no two ops of a run share
        // an input seed.
        let first_op = round * (WARMUP_OPS + ops);
        match kind {
            Kind::PairColdFull | Kind::PairWarmRecycle | Kind::PairDurablePingpong => {
                Pair::setup(kind, seed, first_op).map(Workload::Pair)
            }
            Kind::LocalBytesPingpong => {
                Local::setup(mix(seed, first_op)).map(|l| Workload::Local(Box::new(l)))
            }
            Kind::FleetAware => Ok(Workload::Fleet(FleetLoop::setup(seed))),
        }
    }

    /// Runs op `i` of this round (warm-ups included in the numbering).
    pub fn op(&mut self, i: u64, tracer: &mut Tracer) -> OpRecord {
        match self {
            Workload::Pair(p) => p.op(i, tracer),
            Workload::Local(l) => l.op(tracer),
            Workload::Fleet(f) => f.op(tracer),
        }
    }

    /// Stops daemons and joins their threads.
    pub fn teardown(self) {
        if let Workload::Pair(p) = self {
            p.a.shutdown();
            p.b.shutdown();
        }
    }
}

/// Two daemons in this process and the jobs between them.
pub struct Pair {
    kind: Kind,
    seed: u64,
    first_op: u64,
    a: DaemonHandle,
    b: DaemonHandle,
    replay: Option<replay::Scratch>,
}

impl Pair {
    fn setup(kind: Kind, seed: u64, first_op: u64) -> Result<Pair, String> {
        let durable = kind == Kind::PairDurablePingpong;
        let spawn = |name: &str| {
            let config = if durable {
                DaemonConfig::new(Endpoint::parse(&format!("unix:{name}.sock")))
                    .with_journal_dir(Path::new(&format!("wal-{name}")).to_path_buf())
            } else {
                DaemonConfig::new(Endpoint::parse("127.0.0.1:0"))
            };
            Daemon::spawn(config.with_workers(1)).map_err(|e| format!("daemon {name}: {e}"))
        };
        Ok(Pair {
            kind,
            seed,
            first_op,
            a: spawn("a")?,
            b: spawn("b")?,
            replay: None,
        })
    }

    /// The scenario(s) of op `i`: one job, or the two legs of a cycle.
    fn specs(&self, i: u64) -> Vec<ScenarioSpec> {
        let op = self.first_op + i;
        let base = ScenarioSpec {
            vm: op as u32,
            seed: mix(self.seed, op),
            ..ScenarioSpec::golden(0)
        };
        match self.kind {
            Kind::PairColdFull => vec![ScenarioSpec {
                ram_mib: 64,
                strategy: "full".into(),
                warm: false,
                ..base
            }],
            Kind::PairWarmRecycle => vec![ScenarioSpec {
                ram_mib: 128,
                ..base
            }],
            _ => vec![
                ScenarioSpec {
                    ram_mib: 16,
                    strategy: "full".into(),
                    warm: false,
                    ..base.clone()
                },
                ScenarioSpec {
                    ram_mib: 16,
                    source_host: 1,
                    dest_host: 0,
                    ..base
                },
            ],
        }
    }

    fn op(&mut self, i: u64, tracer: &mut Tracer) -> OpRecord {
        let specs = self.specs(i);
        let (a, b) = (&self.a, &self.b);
        // Leg 0 runs A→B, leg 1 (the return of a cycle) B→A.
        let (records, sample) = tracer.span("bench.op", |t| {
            timed(|| {
                specs
                    .iter()
                    .enumerate()
                    .map(|(leg, spec)| {
                        let (src, dst) = if leg == 0 { (a, b) } else { (b, a) };
                        let id = t.span("bench.submit", |_| {
                            src.submit(spec.clone(), dst.endpoint().clone())
                        });
                        t.span("bench.wait_job", |_| {
                            id.ok().and_then(|id| src.wait_job(id, JOB_TIMEOUT))
                        })
                    })
                    .collect::<Vec<Option<JobRecord>>>()
            })
        });

        let mut out = OpRecord {
            sample,
            guest_mib: 0.0,
            wire_bytes: 0,
            sim_ns: 0,
            migrations: specs.len() as u64,
            ok: true,
            fingerprint: FNV_INIT,
        };
        for (spec, record) in specs.iter().zip(&records) {
            let checked = tracer.span("bench.verify", |_| check_job(spec, record.as_ref()));
            out.guest_mib += spec.ram_mib as f64;
            out.wire_bytes += checked.wire_bytes;
            out.sim_ns += checked.sim_ns;
            out.ok &= checked.ok;
            out.fingerprint = fnv(out.fingerprint, &checked.fingerprint.to_be_bytes());
        }
        if tracer.enabled() {
            let durable = self.kind == Kind::PairDurablePingpong;
            let scratch = self
                .replay
                .get_or_insert_with(|| replay::Scratch::open(durable));
            for spec in &specs {
                replay::staged(spec, scratch, tracer);
            }
        }
        out
    }
}

/// A daemon job passes when it is `Done`, its report equals the
/// in-process reference run of the same spec, and the socket bytes the
/// source measured equal what the ledger predicted, both directions.
fn check_job(spec: &ScenarioSpec, record: Option<&JobRecord>) -> Checked {
    let Some(record) = record else {
        return Checked::FAILED;
    };
    let (Some(report), Some(measured)) = (&record.report, &record.measured) else {
        return Checked::FAILED;
    };
    let reference = scenario::reference_run(spec);
    let ok = record.state == JobState::Done
        && reference.is_ok_and(|r| r.report == *report)
        && measured.tx == measured.expected_tx
        && measured.rx == measured.expected_rx;
    Checked {
        ok,
        wire_bytes: measured.tx + measured.rx,
        sim_ns: report.total_time().as_nanos(),
        fingerprint: report_fingerprint(report),
    }
}

/// Guest size of `local_bytes_pingpong`: 8 MiB of real, distinct bytes.
const LOCAL_PAGES: u64 = 2048;

/// The guest of `local_bytes_pingpong` and the two workloads that age
/// it, at the per-page rates of `examples/ping_pong.rs` (1.0 and 0.5
/// writes/s on 4096 pages) scaled to this guest.
pub fn byte_guest(seed: u64) -> (Guest<ByteMemory>, IdleWorkload, RelocationWorkload) {
    let scale = LOCAL_PAGES as f64 / 4096.0;
    (
        Guest::new(ByteMemory::with_distinct_content(
            PageCount::new(LOCAL_PAGES),
            // `with_distinct_content` shifts the seed left by 40 bits.
            seed & 0xff_ffff,
        )),
        IdleWorkload::new(mix(seed, 1), 1.0 * scale),
        RelocationWorkload::new(mix(seed, 2), 0.5 * scale),
    )
}

/// A byte-backed guest ping-ponging between two on-disk checkpoint
/// stores, assembled the way `examples/ping_pong.rs` is.
pub struct Local {
    guest: Guest<ByteMemory>,
    idle: IdleWorkload,
    reloc: RelocationWorkload,
    stores: [DiskStore; 2],
    /// The host the guest currently runs on.
    at: usize,
    engine: MigrationEngine,
    vm: VmId,
}

impl Local {
    fn setup(seed: u64) -> Result<Local, String> {
        let (guest, idle, reloc) = byte_guest(seed);
        let vm = VmId::new(0);
        let open = |name: &str| DiskStore::open(name).map_err(|e| format!("store {name}: {e}"));
        let stores = [open("store-a")?, open("store-b")?];
        // The guest starts on host 0; host 1 holds the checkpoint it
        // left behind on an earlier visit.
        stores[1]
            .save(&Checkpoint::capture_bytes(
                vm,
                SimTime::EPOCH,
                guest.memory(),
            ))
            .map_err(|e| format!("seeding store-b: {e}"))?;
        Ok(Local {
            guest,
            idle,
            reloc,
            stores,
            at: 0,
            engine: MigrationEngine::new(LinkSpec::lan_gigabit()).with_threads(1),
            vm,
        })
    }

    /// One leg: the guest runs an hour, migrates to the other host
    /// recycling that host's checkpoint, and leaves a fresh checkpoint
    /// behind.
    fn leg(&mut self, t: &mut Tracer) -> vecycle_types::Result<(MigrationReport, Checkpoint)> {
        let dst = 1 - self.at;
        t.span("mem.workload_advance", |_| {
            self.idle
                .advance(&mut self.guest, SimDuration::from_hours(1));
            self.reloc
                .advance(&mut self.guest, SimDuration::from_hours(1));
        });
        let checkpoint = t
            .span("checkpoint.disk_load", |_| self.stores[dst].load(self.vm))?
            .ok_or(vecycle_types::Error::Corrupt {
                detail: "destination store holds no checkpoint".into(),
            })?;
        // `Strategy::vecycle_from_checkpoint`, taken apart so that the
        // MD5 over every checkpoint page and the index build each get
        // their own span.
        let digests = t.span("hash.checkpoint_digests", |_| checkpoint.digests());
        let index = t.span("checkpoint.index_build", |_| ChecksumIndex::build(digests));
        let strategy = Strategy::vecycle_with_index(Arc::new(index));
        let (report, transcript) = t.span("core.migrate_with_transcript", |_| {
            self.engine
                .migrate_with_transcript(self.guest.memory(), strategy)
        })?;
        let rebuilt = t.span("core.apply_transcript", |_| {
            apply_transcript(&checkpoint, &transcript)
        })?;
        if !t.span("mem.content_equals", |_| {
            rebuilt.content_equals(self.guest.memory())
        }) {
            return Err(vecycle_types::Error::Corrupt {
                detail: "rebuilt memory differs from the source".into(),
            });
        }
        let left_behind = t.span("checkpoint.capture_bytes", |_| {
            Checkpoint::capture_bytes(self.vm, SimTime::EPOCH, self.guest.memory())
        });
        t.span("checkpoint.disk_save", |_| {
            self.stores[self.at].save(&left_behind)
        })?;
        self.at = dst;
        Ok((report, left_behind))
    }

    fn op(&mut self, tracer: &mut Tracer) -> OpRecord {
        let vacated = self.at;
        let (result, sample) = tracer.span("bench.op", |t| timed(|| self.leg(t)));
        let checked = tracer.span("bench.verify", |_| match result {
            // `leg` already compared rebuilt and source memory; what is
            // left is that the checkpoint on disk reads back unchanged.
            Ok((report, left_behind)) => Checked {
                ok: self.stores[vacated]
                    .load(self.vm)
                    .is_ok_and(|back| back.as_ref() == Some(&left_behind)),
                wire_bytes: report.source_traffic().as_u64() + report.reverse_traffic().as_u64(),
                sim_ns: report.total_time().as_nanos(),
                fingerprint: report_fingerprint(&report),
            },
            Err(_) => Checked::FAILED,
        });
        OpRecord {
            sample,
            guest_mib: (LOCAL_PAGES * PAGE_SIZE) as f64 / (1 << 20) as f64,
            wire_bytes: checked.wire_bytes,
            sim_ns: checked.sim_ns,
            migrations: 1,
            ok: checked.ok,
            fingerprint: checked.fingerprint,
        }
    }
}

/// Checkpoint-aware placement over a 128-host, 1 280-VM fleet.
pub struct FleetLoop {
    spec: FleetSpec,
    /// The first report of this round; every later op must reproduce it.
    first: Option<FleetReport>,
}

impl FleetLoop {
    fn setup(seed: u64) -> FleetLoop {
        FleetLoop {
            // One spec for the whole run: the fleet has no independent
            // reference implementation, so its oracle is determinism —
            // every op must return the seed's first report.
            spec: FleetSpec::new(128, 1280)
                .with_placement(PlacementMode::CheckpointAware)
                .with_seed(seed)
                .with_threads(1),
            first: None,
        }
    }

    fn op(&mut self, tracer: &mut Tracer) -> OpRecord {
        let spec = &self.spec;
        let (result, sample) = tracer.span("bench.op", |t| {
            timed(|| {
                let mut fleet = t.span("fleet.assemble", |_| Fleet::new(spec.clone()))?;
                t.span("fleet.run", |_| fleet.run())
            })
        });
        let mut out = OpRecord {
            sample,
            guest_mib: 0.0,
            wire_bytes: 0,
            sim_ns: 0,
            migrations: 0,
            ok: false,
            fingerprint: 0,
        };
        let Ok(report) = result else {
            return out;
        };
        out.guest_mib =
            (report.migrations * spec.pages_per_vm * PAGE_SIZE) as f64 / (1 << 20) as f64;
        out.wire_bytes = report.total_traffic.as_u64();
        out.sim_ns = report.total_duration.as_nanos();
        out.migrations = report.migrations;
        out.fingerprint = report_fingerprint(&report);
        let first = self.first.get_or_insert_with(|| report.clone());
        out.ok = *first == report
            && report.hit_rate() > 0.0
            && report.migrations == report.decisions.len() as u64;
        out
    }
}
