//! Per-layer rows: every layer's public functions timed from outside,
//! on fixed inputs, in one child process.
//!
//! Each row is the fastest of a few repetitions (the machine's quiet
//! mode; see the README on noise) unless it says otherwise. The rows
//! are the ceiling for later claims: a faster layer saves at most its
//! share of a workload's serial path, and the share table of the
//! traced workloads says what that share is.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::Value;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex, DiskStore, PageLookup};
use vecycle_core::{apply_transcript, MigrationEngine, Strategy};
use vecycle_daemon::frame::{kind, read_frame, write_frame, MAX_PAYLOAD};
use vecycle_daemon::journal::{decode_records, rec, Journal, WalRecord};
use vecycle_daemon::session_state::{self, spec_fingerprint, SessionState};
use vecycle_daemon::{scenario, Daemon, DaemonConfig, Endpoint, JobState};
use vecycle_fleet::{Fleet, FleetSpec, PlacementMode};
use vecycle_hash::ChecksumAlgorithm;
use vecycle_host::HostLocks;
use vecycle_mem::workload::GuestWorkload;
use vecycle_mem::{ByteMemory, MutableMemory, PageContent};
use vecycle_net::{LinkSpec, WireMsg};
use vecycle_obs::MetricsRegistry;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{
    HostId, PageCount, PageDigest, PageIndex, SimDuration, SimTime, VmId, PAGE_SIZE,
};

use crate::replay;
use crate::spans::Tracer;
use crate::sys;
use crate::util::{median, mix, render_json};
use crate::workloads::byte_guest;

const MIB: f64 = (1 << 20) as f64;

/// Fastest of `reps` runs of `f`, in seconds.
fn best_s(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The rows, in the order they were measured.
struct Rows(Vec<(String, Value)>);

impl Rows {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), Value::F64(value)));
    }
}

fn hash_rows(rows: &mut Rows, seed: u64) {
    const PAGES: usize = 4096;
    let bytes: Vec<u8> = (0..PAGES * PAGE_SIZE as usize / 8)
        .flat_map(|i| mix(seed, i as u64).to_le_bytes())
        .collect();
    let views: Vec<&[u8]> = bytes.chunks_exact(PAGE_SIZE as usize).collect();
    for (name, algorithm) in [
        ("hash.md5_pages_s", ChecksumAlgorithm::Md5),
        ("hash.sha1_pages_s", ChecksumAlgorithm::Sha1),
        ("hash.sha256_pages_s", ChecksumAlgorithm::Sha256),
        ("hash.fnv_pages_s", ChecksumAlgorithm::Fnv1a),
    ] {
        let s = best_s(3, || {
            black_box(algorithm.digest_pages(black_box(&views)));
        });
        rows.put(name, PAGES as f64 / s);
    }
}

fn mem_rows(rows: &mut Rows, seed: u64) {
    const PAGES: u64 = 4096;
    let mut mem = ByteMemory::zeroed(PageCount::new(PAGES));
    let mut content = 0u64;
    let s = best_s(3, || {
        for i in 0..PAGES {
            content += 1;
            mem.write_page(PageIndex::new(i), PageContent::ContentId(content));
        }
    });
    black_box(&mem);
    rows.put("mem.byte_write_pages_s", PAGES as f64 / s);

    let (mut guest, mut idle, mut reloc) = byte_guest(seed);
    let s = best_s(3, || {
        idle.advance(&mut guest, SimDuration::from_hours(1));
        reloc.advance(&mut guest, SimDuration::from_hours(1));
    });
    rows.put("mem.workload_advance_ms", s * 1e3);

    // A digest-level guest an hour at the paper's idle rate: what every
    // `live_guest` and every fleet VM pays before a migration.
    let spec = warm_spec(seed);
    let initial = scenario::initial_memory(&spec).expect("spec validates");
    let s = best_s(3, || {
        black_box(scenario::live_guest(&spec, &initial).expect("spec validates"));
    });
    rows.put("mem.digest_advance_ms", s * 1e3);
}

fn checkpoint_rows(rows: &mut Rows, seed: u64) {
    let (guest, _, _) = byte_guest(seed);
    let vm = VmId::new(0);
    let mib = guest.ram_size().as_u64() as f64 / MIB;
    let s = best_s(5, || {
        black_box(Checkpoint::capture_bytes(
            vm,
            SimTime::EPOCH,
            guest.memory(),
        ));
    });
    rows.put("checkpoint.capture_bytes_ms", s * 1e3);
    let checkpoint = Checkpoint::capture_bytes(vm, SimTime::EPOCH, guest.memory());
    let store = DiskStore::open("layer-store").expect("store opens");
    let s = best_s(5, || store.save(&checkpoint).expect("checkpoint saves"));
    rows.put("checkpoint.disk_save_mib_s", mib / s);
    let s = best_s(5, || {
        black_box(store.load(vm).expect("checkpoint loads"));
    });
    rows.put("checkpoint.disk_load_mib_s", mib / s);
    let s = best_s(3, || {
        black_box(checkpoint.digests());
    });
    rows.put("checkpoint.pages_digest_ms", s * 1e3);

    // The index of a 128 MiB guest: built once per warm job, probed
    // once per page.
    let digests: Vec<PageDigest> = (0..32_768)
        .map(|i| PageDigest::from_content_id(mix(seed, i)))
        .collect();
    let s = best_s(5, || {
        black_box(ChecksumIndex::build(black_box(digests.clone())));
    });
    rows.put("checkpoint.index_build_ms", s * 1e3);
    let index = ChecksumIndex::build(digests.clone());
    let s = best_s(5, || {
        let hits = digests.iter().rev().filter(|d| index.contains(**d)).count();
        assert_eq!(black_box(hits), digests.len());
    });
    rows.put("checkpoint.index_probe_ns", s * 1e9 / digests.len() as f64);
}

/// The `pair_warm_recycle` job shape.
fn warm_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        ram_mib: 128,
        seed,
        ..ScenarioSpec::golden(0)
    }
}

/// A cold full job of `ram_mib` MiB.
fn cold_spec(seed: u64, ram_mib: u64) -> ScenarioSpec {
    ScenarioSpec {
        ram_mib,
        seed,
        strategy: "full".into(),
        warm: false,
        ..ScenarioSpec::golden(0)
    }
}

fn core_rows(rows: &mut Rows, seed: u64) {
    let spec = warm_spec(seed);
    let s = best_s(3, || {
        black_box(scenario::reference_run(&spec).expect("reference run"));
    });
    rows.put("core.migrate_live_ms", s * 1e3);

    // The engine call alone, with and without the recorder.
    let initial = scenario::initial_memory(&spec).expect("spec validates");
    let checkpoint = Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial);
    let strategy = scenario::local_strategy(&spec, &checkpoint).expect("strategy is known");
    let engine = scenario::engine_for(&spec);
    let engine_s = |record: bool| {
        (0..3)
            .map(|_| {
                let (mut guest, mut workload) =
                    scenario::live_guest(&spec, &initial).expect("spec validates");
                let start = Instant::now();
                if record {
                    black_box(
                        engine
                            .migrate_live_with_transcript(
                                &mut guest,
                                &mut workload,
                                strategy.clone(),
                            )
                            .expect("migration completes"),
                    );
                } else {
                    black_box(
                        engine
                            .migrate_live(&mut guest, &mut workload, strategy.clone())
                            .expect("migration completes"),
                    );
                }
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain = engine_s(false);
    let recorded = engine_s(true);
    rows.put("core.transcript_record_ms", (recorded - plain) * 1e3);
    rows.put("core.pages_s", spec.pages() as f64 / plain);

    // The byte-level destination merge of `local_bytes_pingpong`.
    let (mut guest, mut idle, mut reloc) = byte_guest(seed);
    let checkpoint = Checkpoint::capture_bytes(VmId::new(0), SimTime::EPOCH, guest.memory());
    idle.advance(&mut guest, SimDuration::from_hours(1));
    reloc.advance(&mut guest, SimDuration::from_hours(1));
    let (_, transcript) = MigrationEngine::new(LinkSpec::lan_gigabit())
        .with_threads(1)
        .migrate_with_transcript(
            guest.memory(),
            Strategy::vecycle_from_checkpoint(&checkpoint),
        )
        .expect("migration completes");
    let s = best_s(3, || {
        black_box(apply_transcript(&checkpoint, &transcript).expect("transcript applies"));
    });
    rows.put("core.apply_transcript_ms", s * 1e3);
}

fn net_rows(rows: &mut Rows, seed: u64) {
    let digest = |i: u64| PageDigest::from_content_id(mix(seed, i));
    let full: Vec<WireMsg> = (0..4096)
        .map(|i| WireMsg::full_filler(i, digest(i)))
        .collect();
    let small: Vec<WireMsg> = (0..32_768)
        .map(|i| WireMsg::Checksum {
            idx: i,
            digest: digest(i),
        })
        .collect();
    let encode = |msgs: &[WireMsg], buf: &mut Vec<u8>| {
        buf.clear();
        for msg in msgs {
            msg.encode(buf);
        }
    };
    let decode = |mut bytes: &[u8], count: usize| {
        for _ in 0..count {
            black_box(WireMsg::read_from(&mut bytes).expect("own encoding decodes"));
        }
    };

    let mut buf = Vec::new();
    let s = best_s(5, || encode(&full, &mut buf));
    rows.put("net.encode_full_mib_s", buf.len() as f64 / MIB / s);
    let s = best_s(5, || decode(&buf, full.len()));
    rows.put("net.decode_full_mib_s", buf.len() as f64 / MIB / s);
    let (_, calls0) = sys::alloc_counters();
    encode(&full, &mut buf);
    decode(&buf, full.len());
    let (_, calls1) = sys::alloc_counters();
    rows.put(
        "net.allocs_per_msg",
        (calls1 - calls0) as f64 / full.len() as f64,
    );

    let s = best_s(5, || encode(&small, &mut buf));
    rows.put("net.encode_small_msgs_s", small.len() as f64 / s);
    let s = best_s(5, || decode(&buf, small.len()));
    rows.put("net.decode_small_msgs_s", small.len() as f64 / s);
}

fn daemon_rows(rows: &mut Rows, seed: u64) -> Result<(), String> {
    let spawn = |config: DaemonConfig| {
        Daemon::spawn(config.with_workers(1)).map_err(|e| format!("layer daemon: {e}"))
    };
    let tcp = || DaemonConfig::new(Endpoint::parse("127.0.0.1:0"));
    let (src, dst) = (spawn(tcp())?, spawn(tcp())?);

    // One cold full job, the byte-bound shape, against its own replay.
    let spec = cold_spec(seed, 32);
    let mut tx = 0;
    let mut job = |spec: &ScenarioSpec| -> Result<f64, String> {
        let start = Instant::now();
        let id = src
            .submit(spec.clone(), dst.endpoint().clone())
            .map_err(|e| format!("layer job: {e}"))?;
        let record = src
            .wait_job(id, Duration::from_secs(60))
            .filter(|r| r.state == JobState::Done)
            .ok_or("layer job did not finish")?;
        let s = start.elapsed().as_secs_f64();
        tx = record.measured.map_or(0, |m| m.tx);
        Ok(s)
    };
    job(&spec)?;
    let mut job_s = f64::INFINITY;
    for _ in 0..5 {
        job_s = job_s.min(job(&spec)?);
    }
    rows.put("daemon.job_ms", job_s * 1e3);
    rows.put("daemon.socket_mib_s", tx as f64 / MIB / job_s);
    let scratch = replay::Scratch::open(false);
    let staged_s = best_s(3, || {
        let mut tracer = Tracer::new(true);
        replay::staged(&spec, &scratch, &mut tracer);
    });
    rows.put("daemon.unexplained_ms", (job_s - staged_s) * 1e3);

    // Control-frame round trips on one open connection: the floor under
    // every handshake step of a session.
    let mut stream = dst
        .endpoint()
        .connect()
        .map_err(|e| format!("control connection: {e}"))?;
    let mut rtts = Vec::new();
    for _ in 0..300 {
        let start = Instant::now();
        write_frame(
            &mut stream,
            kind::CTRL,
            br#"{"cmd":"ping","spec":"","peer":"","job":0}"#,
        )
        .map_err(|e| format!("ping: {e}"))?;
        read_frame(&mut stream, MAX_PAYLOAD).map_err(|e| format!("ping reply: {e}"))?;
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(stream);
    rows.put("daemon.frame_rtt_us", median(&rtts));
    src.shutdown();
    dst.shutdown();

    // The destination state machine over a 16 MiB cold stream, and the
    // partial checkpoint the durable path writes every 64 messages.
    let spec = cold_spec(seed, 16);
    let initial = scenario::initial_memory(&spec).expect("spec validates");
    let (mut guest, mut workload) = scenario::live_guest(&spec, &initial).expect("spec validates");
    let (_, transcript) = scenario::engine_for(&spec)
        .migrate_live_with_transcript(&mut guest, &mut workload, Strategy::full())
        .expect("migration completes");
    let msgs = replay::wire_messages(&transcript);
    let mut state = SessionState::fresh(&spec, &initial);
    let s = best_s(3, || {
        state = SessionState::fresh(&spec, &initial);
        for msg in &msgs {
            state.apply(msg, None).expect("own stream applies");
        }
    });
    rows.put("daemon.state_apply_msgs_s", msgs.len() as f64 / s);
    let fingerprint = spec_fingerprint(&spec);
    let mut encoded = 0;
    let s = best_s(5, || {
        encoded = black_box(state.encode(1, fingerprint)).len()
    });
    rows.put("daemon.partial_encode_mib_s", encoded as f64 / MIB / s);
    let dir = Path::new("layer-partials");
    let s = best_s(5, || {
        session_state::save_partial(dir, 1, fingerprint, &state).expect("partial saves");
    });
    rows.put("daemon.partial_save_ms", s * 1e3);

    // The WAL: append latency with its fdatasync (a median — a sync has
    // no quiet mode), and the appends one durable job costs.
    let (journal, _) = Journal::open(Path::new("layer-wal")).map_err(|e| format!("wal: {e}"))?;
    let appends: Vec<f64> = (0..64)
        .map(|_| {
            let start = Instant::now();
            journal
                .append(&WalRecord::bare(rec::TRANSFERRING, 1))
                .expect("wal append");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rows.put("daemon.wal_append_us", median(&appends));
    let unix = |name: &str| {
        DaemonConfig::new(Endpoint::parse(&format!("unix:layer-{name}.sock")))
            .with_journal_dir(format!("layer-wal-{name}").into())
    };
    let (a, b) = (spawn(unix("a"))?, spawn(unix("b"))?);
    let id = a
        .submit(cold_spec(seed, 4), b.endpoint().clone())
        .map_err(|e| format!("durable layer job: {e}"))?;
    a.wait_job(id, Duration::from_secs(60))
        .filter(|r| r.state == JobState::Done)
        .ok_or("durable layer job did not finish")?;
    let wal = a.wal_path().ok_or("journal-backed daemon has no wal")?;
    let records = decode_records(&std::fs::read(wal).map_err(|e| format!("wal: {e}"))?).0;
    rows.put("daemon.wal_appends_per_job", records.len() as f64);
    a.shutdown();
    b.shutdown();
    Ok(())
}

fn fleet_rows(rows: &mut Rows, seed: u64) {
    let spec = |hosts, vms, mode| {
        FleetSpec::new(hosts, vms)
            .with_placement(mode)
            .with_seed(seed)
            .with_threads(1)
    };
    let aware = spec(128, 1280, PlacementMode::CheckpointAware);
    let s = best_s(3, || {
        black_box(Fleet::new(aware.clone()).expect("spec validates"));
    });
    rows.put("fleet.assemble_ms", s * 1e3);

    let mut report = None;
    let mut run_s = |spec: &FleetSpec| {
        (0..3)
            .map(|_| {
                let mut fleet = Fleet::new(spec.clone()).expect("spec validates");
                let start = Instant::now();
                report = Some(fleet.run().expect("fault-free fleet run"));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let aware_s = run_s(&aware);
    let blind_s = run_s(&spec(128, 1280, PlacementMode::CheckpointBlind));
    let aware_report = {
        let mut fleet = Fleet::new(aware).expect("spec validates");
        fleet.run().expect("fault-free fleet run")
    };
    let placements = aware_report.migrations as f64;
    rows.put("fleet.run_ms", aware_s * 1e3);
    rows.put("fleet.placements_s", placements / aware_s);
    // `placement::choose` is private: scoring cost is what an aware run
    // costs beyond a blind run of the same requests.
    rows.put(
        "fleet.score_us_per_placement",
        (aware_s - blind_s) * 1e6 / placements,
    );
    rows.put("fleet.warm_hit_rate", aware_report.hit_rate());

    // One run at the scale of `fleet_sweep`: a working set far beyond
    // the caches the small fleet fits in.
    let s = best_s(1, || {
        let mut fleet =
            Fleet::new(spec(1024, 10_240, PlacementMode::CheckpointAware)).expect("spec validates");
        black_box(fleet.run().expect("fault-free fleet run"));
    });
    rows.put("fleet.sweep_1024x10240_ms", s * 1e3);
}

fn guard_rail_rows(rows: &mut Rows) {
    const CALLS: usize = 100_000;
    let locks = HostLocks::new();
    let hosts = [HostId::new(0), HostId::new(1)];
    let s = best_s(3, || {
        for _ in 0..CALLS {
            drop(black_box(locks.try_claim(&hosts)));
        }
    });
    rows.put("host.claim_ns", s * 1e9 / CALLS as f64);

    let registry = MetricsRegistry::new();
    let s = best_s(3, || {
        for _ in 0..CALLS {
            registry.inc("bench_ops_total", &[("layer", "obs")], 1);
        }
    });
    rows.put("obs.inc_ns", s * 1e9 / CALLS as f64);
    for i in 0..1000 {
        registry.inc("bench_series_total", &[("series", &i.to_string())], 1);
    }
    let s = best_s(5, || {
        black_box(registry.snapshot());
    });
    rows.put("obs.snapshot_ms", s * 1e3);
}

/// Measures every row and writes them to `out` as one JSON object. The
/// working directory must be a scratch directory of this process's own.
pub fn run(seed: u64, out: &Path) -> Result<(), String> {
    let mut rows = Rows(Vec::new());
    hash_rows(&mut rows, seed);
    mem_rows(&mut rows, seed);
    checkpoint_rows(&mut rows, seed);
    core_rows(&mut rows, seed);
    net_rows(&mut rows, seed);
    daemon_rows(&mut rows, seed)?;
    fleet_rows(&mut rows, seed);
    guard_rail_rows(&mut rows);
    std::fs::write(out, render_json(&Value::Object(rows.0), false))
        .map_err(|e| format!("writing {}: {e}", out.display()))
}
