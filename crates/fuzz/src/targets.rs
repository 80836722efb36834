//! The structured fuzz targets: every parser that will ever see bytes
//! from a disk or a socket.
//!
//! Each target couples a parser entry point with deterministic seed
//! inputs, a grammar dictionary for the mutator, and an outcome
//! classifier. The classifier maps every parse result onto a small
//! fixed set of *outcome classes* (one per distinct accept/reject
//! path); the driver keeps the first input to reach each class as a
//! corpus entry, which is how the corpus stays tiny, meaningful and
//! deterministic — a poor man's coverage signal that needs no
//! instrumentation.

use std::io::Read;
use std::sync::OnceLock;
use vecycle_checkpoint::{Checkpoint, CheckpointData, ChecksumIndex, EvictionPolicy};

use vecycle_cli::args::{parse_duration, parse_faults, parse_link, parse_size};
use vecycle_daemon::control::CtrlRequest;
use vecycle_daemon::endpoint::{SessionStream, SESSION_BUF};
use vecycle_daemon::journal::{self, Replay, WalRecord};
use vecycle_daemon::proto::{self, JobMsg};
use vecycle_daemon::queue::{JobRecord, Queue};
use vecycle_daemon::session_state::{spec_fingerprint, SessionState};
use vecycle_daemon::{frame, partial_log, record, scenario, DaemonError, JobState};
use vecycle_mem::ByteMemory;
use vecycle_net::wiremsg::{self, WireMsg};
use vecycle_sim::chaos::ChaosConfig;
use vecycle_sim::ScenarioSpec;
use vecycle_trace::{Fingerprint, Trace};
use vecycle_types::{Bytes, Error, PageCount, PageDigest, SimDuration, SimTime, VmId};

use crate::mutate;

/// A per-input differential oracle: `Err` describes the disagreement.
pub type Differential = fn(&[u8]) -> Result<(), String>;

/// One fuzzable parser surface.
#[derive(Clone, Copy)]
pub struct Target {
    /// Stable name: corpus subdirectory, stats label, `--target` filter.
    pub name: &'static str,
    /// Deterministic seed inputs (valid and near-valid by construction).
    pub seeds: fn() -> Vec<Vec<u8>>,
    /// Grammar tokens for dictionary splices.
    pub dict: &'static [&'static [u8]],
    /// Post-mutation fixup (the trailer-fixing mutator).
    pub post: Option<fn(&mut [u8])>,
    /// Runs the parser, returning the outcome class.
    pub run: fn(&[u8]) -> &'static str,
    /// Differential oracle over the same input, run outside the
    /// allocation meter: `Err` is an oracle finding.
    pub differential: Option<Differential>,
    /// Mutant length cap (large enough for one full page where the
    /// format carries page payloads).
    pub max_len: usize,
}

impl Target {
    /// A target with no fixup and no differential oracle.
    pub(crate) fn new(
        name: &'static str,
        seeds: fn() -> Vec<Vec<u8>>,
        dict: &'static [&'static [u8]],
        run: fn(&[u8]) -> &'static str,
        max_len: usize,
    ) -> Target {
        Target {
            name,
            seeds,
            dict,
            post: None,
            run,
            differential: None,
            max_len,
        }
    }

    /// This target under `name`, each mutant fixed up by `post`.
    fn fixed(self, name: &'static str, post: fn(&mut [u8])) -> Target {
        Target {
            name,
            post: Some(post),
            ..self
        }
    }

    /// This target with a differential oracle.
    fn checked(self, differential: Differential) -> Target {
        Target {
            differential: Some(differential),
            ..self
        }
    }
}

/// All registered targets, in fixed order (the order is part of the
/// deterministic run: stats print in it, and each target's mutator is
/// seeded from its name, not its position). One row a target: name,
/// seeds, dictionary, parser and mutant length cap.
#[rustfmt::skip]
pub fn all_targets() -> Vec<Target> {
    let t = Target::new;
    let ckpt = t("ckpt_raw", checkpoint_seeds, BINARY_DICT, run_checkpoint, 8192);
    let trace = t("trace_raw", trace_seeds, BINARY_DICT, run_trace, 8192);
    let log = t("partial_log", partial_log_seeds, PARTIAL_LOG_DICT, run_partial_log, 8192)
        .checked(partial_log_grows_as_it_loads);
    let wal = t("wal", wal_seeds, WAL_DICT, run_wal, 8192).checked(compaction_is_a_fixed_point);
    let wire = |input: &[u8]| drain_slice(input, next_wire_msg).class();
    let ctrl = |input: &[u8]| drain_slice(input, next_ctrl_frame).class();
    vec![
        ckpt,
        ckpt.fixed("ckpt_fix", mutate::fix_trailer),
        trace,
        trace.fixed("trace_fix", mutate::fix_trailer),
        t("chaos_cfg", || text_seeds(CHAOS_SEEDS), CHAOS_DICT, run_chaos, 512),
        t("evict_policy", || text_seeds(EVICT_SEEDS), EVICT_DICT, run_evict, 128),
        t("bytes_size", || text_seeds(SIZE_SEEDS), SIZE_DICT, run_bytes, 128),
        t("cli_size", || text_seeds(CLI_SIZE_SEEDS), SIZE_DICT, run_cli_size, 128),
        t("cli_link", || text_seeds(LINK_SEEDS), LINK_DICT, run_cli_link, 128),
        t("cli_duration", || text_seeds(DURATION_SEEDS), DURATION_DICT, run_cli_duration, 128),
        t("cli_faults", || text_seeds(FAULT_SEEDS), FAULT_DICT, run_cli_faults, 512),
        t("wire_msg", wire_msg_seeds, WIRE_DICT, wire, 8192)
            .checked(|input| readers_agree(input, next_wire_msg).and_then(|()| streamed_agrees(input))),
        t("ctrl_frame", ctrl_frame_seeds, FRAME_DICT, ctrl, 8192)
            .checked(|input| readers_agree(input, next_ctrl_frame)),
        log,
        log.fixed("partial_log_fix", reseal_records),
        wal,
        wal.fixed("wal_fix", reseal_records),
        t("handshake", handshake_seeds, HANDSHAKE_DICT, |input| handshake(input).0, 1024)
            .checked(|input| handshake(input).1),
    ]
}

/// Looks a target up by name.
pub fn find_target(name: &str) -> Option<Target> {
    all_targets().into_iter().find(|t| t.name == name)
}

// ---------------------------------------------------------------- seeds

fn checkpoint_seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    // Digest checkpoint with a mix of distinct, repeated and zero pages
    // (exercises every classifier arm downstream).
    let mut digests: Vec<PageDigest> = (0..48u64)
        .map(|i| PageDigest::from_content_id(1 + i % 19))
        .collect();
    digests[7] = PageDigest::ZERO_PAGE;
    digests[23] = PageDigest::ZERO_PAGE;
    let cp = Checkpoint::from_parts(
        VmId::new(3),
        SimTime::EPOCH + SimDuration::from_hours(2),
        CheckpointData::Digests(digests),
    )
    .expect("digest payload is valid");
    let mut buf = Vec::new();
    cp.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    // Zero-page-count digest checkpoint: the smallest valid file.
    let empty = Checkpoint::from_parts(
        VmId::new(0),
        SimTime::EPOCH,
        CheckpointData::Digests(Vec::new()),
    )
    .expect("empty payload is valid");
    let mut buf = Vec::new();
    empty.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    // Single-page full-byte checkpoint: header, one table entry, the
    // page, trailer over header + table.
    let mem = ByteMemory::with_distinct_content(PageCount::new(1), 11);
    let pages = Checkpoint::capture_bytes(VmId::new(9), SimTime::EPOCH, &mem);
    let mut tabled = Vec::new();
    pages.write_to(&mut tabled).expect("vec write cannot fail");

    // The same checkpoint as the release before the table wrote it:
    // version 1, no table, whole-file trailer. Refused by its version.
    let mut v1 = tabled.clone();
    v1[9] = 1;
    v1.drain(32..32 + 16);
    mutate::fix_trailer(&mut v1);
    seeds.push(tabled);
    seeds.push(v1);

    seeds
}

fn trace_seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    let fp = |at_hours: u64, ids: &[u64]| {
        Fingerprint::new(
            SimTime::EPOCH + SimDuration::from_hours(at_hours),
            ids.iter()
                .map(|&i| PageDigest::from_content_id(i))
                .collect(),
        )
    };
    let trace = Trace::from_parts(
        Bytes::from_pages(8),
        vec![
            fp(0, &[1, 2, 3, 4, 5, 6, 7, 8]),
            fp(6, &[1, 2, 3, 4, 0, 6, 7, 99]),
            fp(12, &[1, 2, 3, 4, 0, 0, 77, 99]),
        ],
    );
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    // Empty trace (zero fingerprints).
    let empty = Trace::from_parts(Bytes::from_pages(4), Vec::new());
    let mut buf = Vec::new();
    empty.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    seeds
}

/// Every `WireMsg` variant (the net crate's round-trip set), each
/// alone and all back to back, plus the largest bulk-exchange header
/// the length field can carry over a body that stops early.
fn wire_msg_seeds() -> Vec<Vec<u8>> {
    let digest = PageDigest::from_content_id;
    let msgs = [
        WireMsg::Full {
            idx: 7,
            digest: digest(1),
        },
        WireMsg::Checksum {
            idx: 8,
            digest: digest(2),
        },
        WireMsg::DedupRef { idx: 9, source: 3 },
        WireMsg::Zero { idx: 10 },
        WireMsg::RoundEnd { round: 4 },
        WireMsg::StopEnd,
        WireMsg::BulkExchange {
            digests: (0..100).map(digest).collect(),
        },
    ];
    let mut seeds = Vec::new();
    let mut all = Vec::new();
    for msg in &msgs {
        let mut one = Vec::new();
        msg.encode(&mut one);
        all.extend_from_slice(&one);
        seeds.push(one);
    }
    seeds.push(all);
    let count = (wiremsg::MAX_PAYLOAD / 16) as u64;
    let mut short = count.to_be_bytes().to_vec();
    short.push(wiremsg::kind::BULK_EXCHANGE);
    short.extend_from_slice(&((count * 16) as u32).to_be_bytes()[1..4]);
    short.extend_from_slice(&[0xAB; 40]);
    seeds.push(short);
    seeds
}

/// Session-shaped frame sequences: a handshake, a job announcement, the
/// closing exchange, and an empty-payload frame.
fn ctrl_frame_seeds() -> Vec<Vec<u8>> {
    let frames = |list: &[(u8, &[u8])]| {
        let mut buf = Vec::new();
        for (kind, payload) in list {
            frame::write_frame(&mut buf, *kind, payload).expect("vec write cannot fail");
        }
        buf
    };
    vec![
        frames(&[(frame::kind::HELLO, b"VECYCLD1\x00\x01\x01")]),
        frames(&[
            (frame::kind::JOB, br#"{"job":1,"resume":0,"spec":{}}"#),
            (0x05, &[1]), // protocol version 2's WANT
        ]),
        frames(&[
            (frame::kind::COMPLETE, &[7; 8]),
            (frame::kind::DONE, &[0; 9]),
        ]),
        frames(&[(frame::kind::CTRL, b"")]),
    ]
}

/// The job the `partial_log` target loads files for: a warm 1 MiB
/// guest, whose logged pages may come from checksum hits as well as
/// full pages.
struct LogFixture {
    fingerprint: u64,
    pages: u64,
    fresh: SessionState,
    index: ChecksumIndex,
    /// A short stream every message of which applies, delimiters last.
    msgs: Vec<WireMsg>,
}

const LOG_JOB: u64 = 7;

/// Built once, by the first call — [`partial_log_seeds`], before any
/// metered execution.
fn log_fixture() -> &'static LogFixture {
    static FIXTURE: OnceLock<LogFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut spec = ScenarioSpec::golden(0x106);
        spec.ram_mib = 1;
        let initial = scenario::initial_memory(&spec).expect("1 MiB is a valid guest");
        let held = initial.snapshot().into_digests();
        let digest = PageDigest::from_content_id;
        let mut msgs: Vec<WireMsg> = (0..6u64)
            .map(|idx| WireMsg::Checksum {
                idx,
                digest: held[idx as usize + 10],
            })
            .collect();
        let full = |idx, digest| WireMsg::Full { idx, digest };
        msgs.extend((6..10).map(|idx| full(idx, digest(idx))));
        msgs.push(WireMsg::DedupRef { idx: 10, source: 7 });
        msgs.push(WireMsg::Zero { idx: 11 });
        msgs.push(WireMsg::RoundEnd { round: 1 });
        msgs.push(full(7, digest(70)));
        msgs.push(WireMsg::StopEnd);
        LogFixture {
            fingerprint: spec_fingerprint(&spec),
            pages: spec.pages(),
            fresh: SessionState::fresh(&spec, &initial),
            index: Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial).build_index(),
            msgs,
        }
    })
}

/// A fresh log, the chunks of one behind an older release's snapshot
/// (no file), a log two epochs appended behind one another, and the two
/// ways a crash damages one: a torn tail and a flipped trailer byte.
fn partial_log_seeds() -> Vec<Vec<u8>> {
    let fx = log_fixture();
    // The state `msgs` leave and the pages they land, each as it ends.
    let landed = |msgs: &[WireMsg]| {
        let mut st = fx.fresh.clone();
        for msg in msgs {
            st.apply(msg, Some(&fx.index)).expect("fixture applies");
        }
        let pages: Vec<_> = st.landed().collect();
        (st, pages)
    };
    // Chunk records as the destination appends them, four pages each.
    let chunks = |entries: &[(u64, PageDigest)], out: &mut Vec<u8>| {
        for chunk in entries.chunks(4) {
            let mark = record::begin(out);
            for (idx, digest) in chunk {
                out.extend_from_slice(&idx.to_be_bytes());
                out.extend_from_slice(digest.as_bytes());
            }
            record::seal(out, mark);
        }
    };
    let mut fresh = Vec::new();
    let mut header = partial_log::LOG_MAGIC.to_vec();
    header.extend_from_slice(&LOG_JOB.to_be_bytes());
    header.extend_from_slice(&fx.fingerprint.to_be_bytes());
    record::push(&mut fresh, &header);
    let mut two_epochs = fresh.clone();
    chunks(&landed(&fx.msgs).1, &mut fresh);

    let (base, _) = landed(&fx.msgs[..5]);
    // The snapshot older daemons wrote, which only the benchmark-only
    // writer makes now: not a header record, so the file is no file.
    #[allow(deprecated)]
    let mut behind_snapshot = base.encode(LOG_JOB, fx.fingerprint);
    chunks(&landed(&fx.msgs).1[5..], &mut behind_snapshot);

    // Epoch 1 lands seven pages; epoch 2 rewrites two of them and lands
    // one more.
    chunks(&landed(&fx.msgs[..7]).1, &mut two_epochs);
    let digest = PageDigest::from_content_id;
    let epoch_two = [(3, digest(33)), (6, digest(66)), (8, digest(8))];
    chunks(&epoch_two, &mut two_epochs);

    let torn = fresh[..fresh.len() - 11].to_vec();
    let mut flipped = fresh.clone();
    *flipped.last_mut().expect("non-empty") ^= 0x10;
    vec![fresh, behind_snapshot, two_epochs, torn, flipped]
}

/// WAL files: a live daemon's (one job done, one cancelled, one failed,
/// one interrupted when the daemon died), and one with what boot
/// compaction writes and what replay cannot rebuild.
fn wal_seeds() -> Vec<Vec<u8>> {
    let kv = ScenarioSpec::golden(7).to_kv();
    let wal = |records: &[(u64, &str, &str, u64, &str)]| {
        let mut buf = Vec::new();
        for (seq, &(job, kind, spec, landed, detail)) in (1..).zip(records) {
            let json = format!(
                r#"{{"seq":{seq},"job":{job},"kind":"{kind}","spec":"{spec}","peer":"unix:/p","pages_landed":{landed},"detail":"{detail}"}}"#
            );
            record::push(&mut buf, json.as_bytes());
        }
        buf
    };
    let live = wal(&[
        (1, "submitted", &kv, 0, ""),
        (1, "claimed", "", 0, ""),
        (1, "transferring", "", 1025, ""),
        (1, "done", "", 0, ""),
        (2, "submitted", &kv, 0, ""),
        (2, "cancelled", "", 0, ""),
        (3, "submitted", &kv, 0, ""),
        (3, "failed", "", 0, "i/o: Connection refused (os error 111)"),
        (4, "submitted", &kv, 0, ""),
        (4, "transferring", "", 0, "retrying at epoch 1"),
    ]);
    let odd = wal(&[
        (5, "submitted", &kv, 300, "recovered: resuming"),
        (6, "claimed", "", 0, ""),
        (7, "submitted", "strategy=??,ram=-3", 0, ""),
        (8, "submitted", &kv, 0, ""),
        (8, "admitted", "", 0, ""),
    ]);
    vec![live, odd]
}

/// One valid payload per handshake decoder, behind its selector byte.
fn handshake_seeds() -> Vec<Vec<u8>> {
    let with = |selector: u8, payload: &[u8]| [&[selector][..], payload].concat();
    let job = JobMsg {
        job: 1,
        resume: 1,
        spec: ScenarioSpec::golden(7),
    };
    vec![
        with(0, &proto::hello_payload(proto::VERSION, proto::ROLE_SOURCE)),
        with(
            1,
            &scenario::content_hash(&[PageDigest::from_content_id(1)]),
        ),
        with(2, job.encode().as_bytes()),
        with(3, CtrlRequest::bare("status").encode().as_bytes()),
    ]
}

fn text_seeds(strs: &[&str]) -> Vec<Vec<u8>> {
    strs.iter().map(|s| s.as_bytes().to_vec()).collect()
}

const CHAOS_SEEDS: &[&str] = &[
    "seed=7,legs=50,crash=0.1,pressure=0.2",
    "seed=42,legs=200,hosts=4,crash=0.15,pressure=0.4,corrupt=0.1,drop=0.1,loss=0.05",
    "",
];

const EVICT_SEEDS: &[&str] = &["oldest", "lru", "largest_first", "staleness_score", ""];
const SIZE_SEEDS: &[&str] = &["4GiB", "512MiB", "64KiB", "100B", "4096", "0"];
const CLI_SIZE_SEEDS: &[&str] = &["4GiB", "512MiB", "18446744073709551615", "1B"];
const LINK_SEEDS: &[&str] = &["lan", "wan", "wan:0.5%", "wan:10"];
const DURATION_SEEDS: &[&str] = &["16h", "2d", "0h", "100000d"];

const FAULT_SEEDS: &[&str] = &[
    "seed=7,drop=0.3,corrupt=0.1",
    "crash=1,spike=0.5,degrade=0.25,hostcrash=0.2",
    "",
];

// ----------------------------------------------------------- dictionaries

const BINARY_DICT: &[&[u8]] = &[
    b"VECYCHK1",
    b"VECYTRC1",
    &[0, 0, 0, 0, 0, 0, 0, 0],
    &[0xff; 8],
    &[0, 0, 0, 0, 0, 0, 16, 0],
];

const CHAOS_DICT: &[&[u8]] = &[
    b"seed",
    b"legs",
    b"hosts",
    b"crash",
    b"pressure",
    b"corrupt",
    b"drop",
    b"loss",
    b"=",
    b",",
    b"0.5",
    b"1e300",
    b"-1",
    b"NaN",
    b"inf",
    b"0",
    b"18446744073709551616",
];

const EVICT_DICT: &[&[u8]] = &[
    b"oldest",
    b"lru",
    b"largest",
    b"staleness",
    b"_first",
    b"_by_recycle",
    b"_score",
];

const SIZE_DICT: &[&[u8]] = &[
    b"GiB",
    b"MiB",
    b"KiB",
    b"B",
    b"0",
    b"9",
    b"18446744073709551615",
    b"-",
    b" ",
    b"GB",
];

const LINK_DICT: &[&[u8]] = &[b"lan", b"wan", b"wan:", b"%", b"0.5", b"100", b"-1", b"NaN"];

const DURATION_DICT: &[&[u8]] = &[b"h", b"d", b"0", b"9", b"18446744073709551615", b"-1", b" "];

const FAULT_DICT: &[&[u8]] = &[
    b"seed",
    b"drop",
    b"degrade",
    b"corrupt",
    b"spike",
    b"crash",
    b"hostcrash",
    b"=",
    b",",
    b"0.5",
    b"2.0",
    b"-0.0",
    b"NaN",
    b"1e-300",
];

const WIRE_DICT: &[&[u8]] = &[
    // kind byte + 3-byte length, per variant
    &[1, 0, 0x10, 0x10],
    &[2, 0, 0, 16],
    &[3, 0, 0, 8],
    &[4, 0, 0, 1],
    &[5, 0, 0, 0],
    &[6, 0, 0, 0],
    &[7, 0xff, 0xff, 0xf0],
    &[0, 0, 0, 0, 0, 0, 0, 0],
    &[0, 0, 0, 0, 0, 0x0f, 0xff, 0xff],
    &[0xff; 8],
];

const FRAME_DICT: &[&[u8]] = &[
    &[0x01, 0, 0, 0, 11],
    &[0x06, 0, 0, 0, 8],
    &[0x07, 0, 0, 0, 9],
    &[0x10, 0, 0, 0, 0],
    &[0x0e, 0, 0, 0x40, 0],
    &[0, 0x10, 0, 1],
    &[0xff; 4],
    b"VECYCLD1",
];

const PARTIAL_LOG_DICT: &[&[u8]] = &[
    b"VECYPLG2",
    b"VECYPLG1",
    b"VECYPAR1",
    // page indexes: the first, the last and one past a 1 MiB guest
    &[0, 0, 0, 0, 0, 0, 0, 0],
    &[0, 0, 0, 0, 0, 0, 0, 0xff],
    &[0, 0, 0, 0, 0, 0, 1, 0],
    // record length prefixes: a header record or one entry, two
    // entries, an empty chunk, a ragged one
    &[0, 0, 0, 24],
    &[0, 0, 0, 48],
    &[0, 0, 0, 0],
    &[0, 0, 0, 20],
    &[0, 0, 0, 0, 0, 0, 0, LOG_JOB as u8],
    &[0xff; 8],
];

const HANDSHAKE_DICT: &[&[u8]] = &[
    b"VECYCLD1",
    &[0, 1],
    &[0xff; 8],
    br#""spec":{"#,
    b"18446744073709551616",
    b"\\u0000",
];

const WAL_DICT: &[&[u8]] = &[
    br#","kind":""#,
    br#","detail":""#,
    b"submitted",
    b"claimed",
    b"done",
    b"ram=",
    b"18446744073709551615",
    &[0, 0, 0, 0x60], // a record length prefix
];

// ------------------------------------------------------------ classifiers

fn corrupt_class(detail: &str, table: &[(&str, &'static str)]) -> &'static str {
    let hit = table.iter().find(|(needle, _)| detail.contains(needle));
    hit.map_or("err_other", |&(_, class)| class)
}

fn run_checkpoint(input: &[u8]) -> &'static str {
    match Checkpoint::read_from(input) {
        Ok(cp) => match cp.data() {
            Some(CheckpointData::Digests(_)) => "ok_digests",
            _ => "ok_pages",
        },
        Err(Error::Corrupt { detail }) => corrupt_class(
            &detail,
            &[
                ("too short", "err_short"),
                ("trailer checksum", "err_trailer"),
                ("magic", "err_magic"),
                ("version", "err_version"),
                ("kind", "err_kind"),
                ("overflows", "err_overflow"),
                ("payload length", "err_payload_len"),
                ("stored digest", "err_page_digest"),
                ("page-aligned", "err_align"),
            ],
        ),
        Err(_) => "err_io",
    }
}

fn run_trace(input: &[u8]) -> &'static str {
    match Trace::read_from(input) {
        Ok(_) => "ok",
        Err(Error::Corrupt { detail }) => corrupt_class(
            &detail,
            &[
                ("too short", "err_short"),
                ("trailer checksum", "err_trailer"),
                ("magic", "err_magic"),
                ("fingerprint count", "err_count"),
                ("overflows", "err_overflow"),
                ("truncated mid-record", "err_truncated"),
                ("length overflow", "err_pos_overflow"),
                ("trailing bytes", "err_trailing"),
            ],
        ),
        Err(_) => "err_io",
    }
}

fn run_chaos(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match ChaosConfig::parse(&s) {
        Ok(_) => "ok",
        Err(Error::InvalidConfig { reason }) => corrupt_class(
            &reason,
            &[
                ("given twice", "err_dup"),
                ("is not key=value", "err_pair"),
                ("outside [0, 1]", "err_rate_range"),
                ("is not a number", "err_rate_nan"),
                ("seed", "err_seed"),
                ("legs must be", "err_legs_zero"),
                ("legs", "err_legs"),
                ("at least 2 hosts", "err_hosts_few"),
                ("hosts", "err_hosts"),
                ("unknown chaos key", "err_unknown"),
            ],
        ),
        Err(_) => "err_other",
    }
}

fn run_evict(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match EvictionPolicy::parse(&s) {
        Some(EvictionPolicy::OldestFirst) => "ok_oldest",
        Some(EvictionPolicy::LruByRecycle) => "ok_lru",
        Some(EvictionPolicy::LargestFirst) => "ok_largest",
        Some(EvictionPolicy::StalenessScore) => "ok_staleness",
        None => "err_unknown",
    }
}

fn run_bytes(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match Bytes::parse(&s) {
        Ok(_) => "ok",
        Err(Error::InvalidConfig { reason }) => corrupt_class(
            &reason,
            &[
                ("overflows", "err_overflow"),
                ("cannot parse size", "err_parse"),
            ],
        ),
        Err(_) => "err_other",
    }
}

fn run_cli_size(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_size(&s) {
        Ok(_) => "ok",
        Err(e) if e.contains("overflows") => "err_overflow",
        Err(_) => "err_parse",
    }
}

fn run_cli_link(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_link(&s) {
        Ok(_) if s.starts_with("wan:") => "ok_lossy",
        Ok(_) => "ok_named",
        Err(e) if e.contains("cannot parse loss") => "err_loss_nan",
        Err(e) if e.contains("out of range") => "err_loss_range",
        Err(_) => "err_unknown",
    }
}

fn run_cli_duration(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_duration(&s) {
        Ok(_) if s.ends_with('s') => "ok_secs",
        Ok(_) if s.ends_with('m') => "ok_mins",
        Ok(_) if s.ends_with('h') => "ok_hours",
        Ok(_) => "ok_days",
        Err(e) if e.contains("seconds") => "err_secs",
        Err(e) if e.contains("minutes") => "err_mins",
        Err(e) if e.contains("hours") => "err_hours",
        Err(e) if e.contains("days") => "err_days",
        Err(_) => "err_suffix",
    }
}

fn run_cli_faults(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_faults(&s) {
        Ok(_) => "ok",
        Err(e) if e.contains("given twice") => "err_dup",
        Err(e) if e.contains("is not key=value") => "err_pair",
        Err(e) if e.contains("out of [0, 1]") => "err_rate_range",
        Err(e) if e.contains("fault rate") => "err_rate_nan",
        Err(e) if e.contains("fault seed") => "err_seed",
        Err(e) if e.contains("unknown fault") => "err_unknown",
        Err(_) => "err_other",
    }
}

/// The record-level [`mutate::fix_trailer`]: recomputes the checksum of
/// every record frame a mutant still delimits, so mutated chunk
/// payloads reach the decoder behind them instead of dying as torn
/// tails.
fn reseal_records(input: &mut [u8]) {
    let mut off = 0;
    while let Some(len) = input.get(off..).and_then(|rest| rest.first_chunk::<4>()) {
        let payload_end = off + 4 + u32::from_be_bytes(*len) as usize;
        if input.len() < payload_end + 8 {
            return;
        }
        let sum = mutate::fnv64(&input[off + 4..payload_end]).to_be_bytes();
        input[payload_end..payload_end + 8].copy_from_slice(&sum);
        off = payload_end + 8;
    }
}

fn load_log(input: &[u8]) -> Option<(partial_log::Landed, usize)> {
    let fx = log_fixture();
    partial_log::replay(input, LOG_JOB, fx.fingerprint, fx.pages)
}

fn run_partial_log(input: &[u8]) -> &'static str {
    let fx = log_fixture();
    let Some((landed, valid)) = load_log(input) else {
        // The header was ours: an intact record behind it was not.
        let ours = partial_log::replay_base(input, LOG_JOB, fx.fingerprint).is_some();
        return if ours { "rej_condemned" } else { "rej_log" };
    };
    let nothing = landed.iter().all(Option::is_none);
    match (nothing, valid == input.len()) {
        (true, _) => "ok_log_empty",
        (false, true) => "ok_log_whole",
        (false, false) => "ok_log_torn",
    }
}

/// The growing-file oracle: a reader that is handed the file one more
/// byte at a time — finding the base once enough of it has arrived,
/// then replaying each chunk record as it completes — must end where one
/// load of the whole file ends, and whatever loaded must load again
/// from exactly its intact prefix (what truncating a torn tail relies
/// on).
fn partial_log_grows_as_it_loads(input: &[u8]) -> Result<(), String> {
    let fx = log_fixture();
    let whole = load_log(input);
    let base = |bytes| partial_log::replay_base(bytes, LOG_JOB, fx.fingerprint);
    let grown = match base(input) {
        // A base is self-delimiting: it appears when its last byte does.
        Some(len) if base(&input[..len - 1]).is_some() => {
            return Err(format!("a {len}-byte base loads from {} bytes", len - 1));
        }
        Some(base_len) => {
            let mut landed = vec![None; fx.pages as usize];
            let mut valid = base_len;
            let mut condemned = false;
            for end in base_len..=input.len() {
                let arrived = &input[valid..end];
                match partial_log::replay_chunks(&mut landed, arrived) {
                    None => {
                        condemned = true;
                        break;
                    }
                    Some(0) => {
                        // A record that has wholly arrived and does not
                        // load never will: the file ends here.
                        let declared = arrived
                            .first_chunk::<4>()
                            .map(|len| u32::from_be_bytes(*len) as usize + record::OVERHEAD);
                        if declared.is_some_and(|frame| frame <= arrived.len()) {
                            break;
                        }
                    }
                    Some(used) => valid += used,
                }
            }
            (!condemned).then_some((landed, valid))
        }
        None => None,
    };
    if grown != whole {
        let show = |r: &Option<(partial_log::Landed, usize)>| {
            (r.as_ref()).map(|(landed, valid)| (landed.iter().flatten().count(), *valid))
        };
        return Err(format!(
            "grown byte by byte: {:?} (pages landed, valid); loaded whole: {:?}",
            show(&grown),
            show(&whole)
        ));
    }
    if let Some((_, valid)) = &whole {
        if load_log(&input[..*valid]) != whole {
            return Err(format!("the intact {valid}-byte prefix loads differently"));
        }
    }
    Ok(())
}

/// What booting over WAL records leaves: each job's id, state, detail
/// and resume epoch, and the compacted records.
type Booted = (Vec<(u64, JobState, String, u64)>, Vec<WalRecord>);

fn boot(records: Vec<WalRecord>, torn_bytes: u64) -> Booted {
    let queue = Queue::open(None, Default::default()).expect("no journal to open");
    let compacted = queue.replay(&Replay {
        records,
        torn_bytes,
    });
    let view = |(id, j): (u64, JobRecord)| (id, j.state, j.detail, j.resume_epoch);
    (queue.jobs().into_iter().map(view).collect(), compacted)
}

/// Decodes the WAL file `input` and boots over it; `true` when a torn
/// tail was dropped.
fn boot_file(input: &[u8]) -> (Booted, bool) {
    let (records, valid) = journal::decode_records(input);
    let torn = input.len() as u64 - valid;
    (boot(records, torn), torn > 0)
}

/// Classes by the deepest recovery path any job took, whole file or
/// torn tail.
fn run_wal(input: &[u8]) -> &'static str {
    const CLASSES: [[&str; 2]; 6] = [
        ["ok_empty", "torn_empty"],
        ["ok_terminal", "torn_terminal"],
        ["ok_requeued", "torn_requeued"],
        ["ok_resumed", "torn_resumed"],
        ["ok_orphan", "torn_orphan"],
        ["ok_bad_spec", "torn_bad_spec"],
    ];
    let ((jobs, _), torn) = boot_file(input);
    let path = |(_, state, detail, epoch): &(u64, JobState, String, u64)| match (state, epoch) {
        (JobState::Queued, 0) => 2,
        (JobState::Queued, _) => 3,
        _ if detail.contains("no intact submitted") => 4,
        _ if detail.contains("spec unparsable") => 5,
        _ => 1,
    };
    CLASSES[jobs.iter().map(path).max().unwrap_or(0)][usize::from(torn)]
}

/// The compaction oracle: booting again over the compacted records must
/// rebuild the same jobs and compact to the same records.
fn compaction_is_a_fixed_point(input: &[u8]) -> Result<(), String> {
    let ((jobs, compacted), _) = boot_file(input);
    let (again, recompacted) = boot(compacted.clone(), 0);
    if (&again, &recompacted) == (&jobs, &compacted) {
        return Ok(());
    }
    Err(format!(
        "booted {jobs:?} compacting to {compacted:?}; rebooted {again:?} compacting to {recompacted:?}"
    ))
}

// ----------------------------------------------------- handshake payloads

/// Decodes the payload behind the selector byte with the decoder the
/// byte (mod 4) selects — HELLO (an empty input's too), the 8-byte
/// content hash COMPLETE and DONE carry, JOB, or a CTRL request as the
/// daemon reads it — and returns
/// the verdict's class and the re-encoding oracle's: an accepted
/// fixed-length payload re-encodes to its own bytes, an accepted JSON
/// payload re-decodes equal.
fn handshake(input: &[u8]) -> (&'static str, Result<(), String>) {
    let (&selector, payload) = input.split_first().unwrap_or((&0, &[]));
    let same = |again: &[u8]| match again == payload {
        true => Ok(()),
        false => Err(format!("{payload:02x?} re-encodes as {again:02x?}")),
    };
    let rejected = |class| (class, Ok(()));
    match selector % 4 {
        0 => match proto::parse_hello(payload) {
            Ok((version, role)) => ("hello_ok", same(&proto::hello_payload(version, role))),
            Err(DaemonError::VersionMismatch { .. }) => rejected("hello_version"),
            Err(_) => rejected("hello_magic"),
        },
        1 => match proto::fixed::<{ proto::DONE_LEN as usize }>(payload, "hash") {
            Ok(hash) => ("hash_ok", same(&hash)),
            Err(_) => rejected("hash_len"),
        },
        2 => match JobMsg::decode(payload) {
            Ok(job) => (
                "job_ok",
                decodes_equal(&job, JobMsg::decode(job.encode().as_bytes())),
            ),
            Err(DaemonError::Corrupt(d)) if d.contains("UTF-8") => rejected("job_utf8"),
            Err(_) => rejected("job_json"),
        },
        _ => match CtrlRequest::decode(payload) {
            Ok(req) => (
                "ctrl_ok",
                decodes_equal(&req, CtrlRequest::decode(req.encode().as_bytes())),
            ),
            Err(_) => rejected("ctrl_json"),
        },
    }
}

fn decodes_equal<T: PartialEq + std::fmt::Debug, E>(
    decoded: &T,
    again: Result<T, E>,
) -> Result<(), String> {
    match again.ok() {
        Some(again) if again == *decoded => Ok(()),
        other => Err(format!("{decoded:?} re-decodes as {other:?}")),
    }
}

// ------------------------------------------------- socket-stream decoders

/// One decode step over any reader: the item, or the error's class.
type Step<T> = fn(&mut dyn Read) -> Result<T, &'static str>;

/// What decoding a byte stream to its first error observed.
#[derive(Debug, PartialEq)]
struct Drained<T> {
    items: Vec<T>,
    /// The terminal error's class.
    end: &'static str,
    /// Input bytes the decoder took, the failed step's included.
    consumed: usize,
    /// The failed step took nothing: the stream ended between items.
    clean: bool,
}

impl<T> Drained<T> {
    /// The outcome class: how the stream ended.
    fn class(&self) -> &'static str {
        match self.end {
            "err_io" if !self.clean => "err_truncated",
            "err_io" if self.items.is_empty() => "eof_empty",
            "err_io" => "eof_clean",
            verdict => verdict,
        }
    }
}

/// Decodes items from `r` until the first error; `taken` reports how
/// many input bytes the decoder has consumed through `r` so far.
fn drain<R: Read, T>(
    r: &mut R,
    taken: impl Fn(&R) -> usize,
    mut next: impl FnMut(&mut dyn Read) -> Result<T, &'static str>,
) -> Drained<T> {
    let mut items = Vec::new();
    loop {
        let before = taken(r);
        match next(r) {
            Ok(item) => items.push(item),
            Err(end) => {
                let consumed = taken(r);
                return Drained {
                    items,
                    end,
                    consumed,
                    clean: consumed == before,
                };
            }
        }
    }
}

fn drain_slice<T>(
    input: &[u8],
    next: impl FnMut(&mut dyn Read) -> Result<T, &'static str>,
) -> Drained<T> {
    drain(&mut &*input, |rest| input.len() - rest.len(), next)
}

/// A reader that returns one byte per `read` — the worst fragmentation
/// a socket can produce.
struct OneByte<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = usize::from(self.pos < self.data.len() && !buf.is_empty());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The reader-equivalence oracle: a slice, a one-byte-per-read reader
/// and the daemon's session reader must decode the same items, stop on
/// the same error class and have consumed the same bytes.
fn readers_agree<T: PartialEq + std::fmt::Debug>(
    input: &[u8],
    next: Step<T>,
) -> Result<(), String> {
    let slice = drain_slice(input, next);
    let one_byte = drain(
        &mut OneByte {
            data: input,
            pos: 0,
        },
        |r| r.pos,
        next,
    );
    let mut buf = vec![0; SESSION_BUF];
    let session = drain(
        &mut SessionStream::new(input, &mut buf),
        |s| s.rx() as usize - s.buffered(),
        next,
    );
    for (reader, other) in [("one-byte", &one_byte), ("session", &session)] {
        if *other != slice {
            return Err(format!(
                "{reader} reader decoded {} items, ended {} after {} bytes (clean: {}); \
                 slice reader {} items, {} after {} bytes (clean: {})",
                other.items.len(),
                other.end,
                other.consumed,
                other.clean,
                slice.items.len(),
                slice.end,
                slice.consumed,
                slice.clean,
            ));
        }
    }
    Ok(())
}

/// The streamed exchange reader against the whole-message one: at every
/// message start `read_from` reaches where a bulk exchange begins, or
/// the input ends inside a header, [`wiremsg::read_bulk_exchange`] reads
/// the same digests, or fails with the same detail after the same bytes.
fn streamed_agrees(input: &[u8]) -> Result<(), String> {
    let mut rest = input;
    loop {
        let (mut whole, mut streamed) = (rest, rest);
        let decoded = WireMsg::read_from(&mut whole);
        if rest.len() < wiremsg::HEADER || rest[8] == wiremsg::kind::BULK_EXCHANGE {
            let want = match &decoded {
                Ok(WireMsg::BulkExchange { digests }) => Ok(digests.clone()),
                Ok(other) => return Err(format!("a bulk-exchange header decoded as {other:?}")),
                Err(e) => Err(e.to_string()),
            };
            let got = wiremsg::read_bulk_exchange(
                &mut streamed,
                |_| Ok(Vec::new()),
                |digests, d| {
                    digests.push(d);
                    Ok(())
                },
            )
            .map_err(|e| e.to_string());
            if (&got, streamed.len()) != (&want, whole.len()) {
                return Err(format!(
                    "at byte {}: streamed {:?} with {} bytes left, read_from {:?} with {}",
                    input.len() - rest.len(),
                    got.as_ref().map(Vec::len),
                    streamed.len(),
                    want.as_ref().map(Vec::len),
                    whole.len(),
                ));
            }
        }
        match decoded {
            Ok(_) => rest = whole,
            Err(_) => return Ok(()),
        }
    }
}

fn next_wire_msg(mut r: &mut dyn Read) -> Result<WireMsg, &'static str> {
    WireMsg::read_from(&mut r).map_err(wire_class)
}

fn wire_class(e: Error) -> &'static str {
    match e {
        Error::Corrupt { detail } => corrupt_class(
            &detail,
            &[
                ("unknown wire message kind", "err_kind"),
                ("overflows payload size", "err_bulk_overflow"),
                ("!= 16 x count", "err_bulk_len"),
                ("pad byte", "err_zero_pad"),
                ("payload length", "err_payload_len"),
                ("digest filler", "err_filler"),
            ],
        ),
        _ => "err_io",
    }
}

/// The frame-size limit the `ctrl_frame` target reads under. The
/// decoder's contract is "never allocate past the limit the caller
/// passed"; this limit fits the harness's fixed slack the way the
/// daemon's 1 MiB fits a connection.
const FUZZ_FRAME_LIMIT: u64 = 16 * 1024;

fn next_ctrl_frame(mut r: &mut dyn Read) -> Result<frame::Frame, &'static str> {
    frame::read_frame(&mut r, FUZZ_FRAME_LIMIT).map_err(|e| match e {
        DaemonError::OversizedFrame { .. } => "err_oversized",
        DaemonError::Io(_) => "err_io",
        _ => "err_other",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_hit_their_ok_classes() {
        let checkpoints = checkpoint_seeds();
        let (v1, live) = checkpoints.split_last().expect("seeds");
        for seed in live {
            assert!(
                run_checkpoint(seed).starts_with("ok_"),
                "checkpoint seed rejected"
            );
        }
        assert_eq!(run_checkpoint(v1), "err_version");
        for seed in trace_seeds() {
            assert_eq!(run_trace(&seed), "ok");
        }
        for seed in CHAOS_SEEDS {
            assert_eq!(run_chaos(seed.as_bytes()), "ok");
        }
        for seed in FAULT_SEEDS {
            assert_eq!(run_cli_faults(seed.as_bytes()), "ok");
        }
        let wire = wire_msg_seeds();
        for seed in &wire[..wire.len() - 1] {
            assert_eq!(drain_slice(seed, next_wire_msg).class(), "eof_clean");
            readers_agree(seed, next_wire_msg).expect("readers agree on a seed");
        }
        // A full page one byte off its filler: the decoder refuses it
        // through every reader, after the same bytes.
        let mut unfilled = wire[0].clone();
        *unfilled.last_mut().expect("a full page") ^= 1;
        assert_eq!(drain_slice(&unfilled, next_wire_msg).class(), "err_filler");
        readers_agree(&unfilled, next_wire_msg).expect("readers agree on the verdict");
        for seed in &wire {
            streamed_agrees(seed).expect("the streamed reader agrees on a seed");
        }
        let short_bulk = wire.last().expect("short-body seed");
        assert_eq!(
            drain_slice(short_bulk, next_wire_msg).class(),
            "err_truncated"
        );
        for seed in ctrl_frame_seeds() {
            assert_eq!(drain_slice(&seed, next_ctrl_frame).class(), "eof_clean");
            readers_agree(&seed, next_ctrl_frame).expect("readers agree on a seed");
        }
        let decoders = ["hello", "hash", "job", "ctrl"];
        for (seed, decoder) in handshake_seeds().iter().zip(decoders) {
            let (class, oracle) = handshake(seed);
            assert_eq!((class.strip_suffix("_ok"), oracle), (Some(decoder), Ok(())));
        }
    }

    #[test]
    fn partial_log_seeds_load_as_labelled() {
        let seeds = partial_log_seeds();
        let classes: Vec<_> = seeds.iter().map(|s| run_partial_log(s)).collect();
        assert_eq!(
            classes,
            [
                "ok_log_whole",
                "rej_log",
                "ok_log_whole",
                "ok_log_torn",
                "ok_log_torn"
            ]
        );
        let whole = load_log(&seeds[0]).expect("fresh log loads");
        let pages = |landed: &partial_log::Landed| {
            let landed = landed.iter().enumerate();
            landed
                .filter_map(|(idx, d)| d.map(|_| idx))
                .collect::<Vec<_>>()
        };
        assert_eq!(pages(&whole.0), (0..12).collect::<Vec<_>>());
        // The later epoch wins per page.
        let (two, _) = load_log(&seeds[2]).expect("two epochs load");
        assert_eq!(pages(&two), [0, 1, 2, 3, 4, 5, 6, 8]);
        let digest = PageDigest::from_content_id;
        assert_eq!(
            [two[3], two[6], two[8]],
            [33, 66, 8].map(|id| Some(digest(id)))
        );
        for seed in &seeds {
            partial_log_grows_as_it_loads(seed).expect("oracle holds on a seed");
        }
        assert_eq!(run_partial_log(b""), "rej_log");
        // A record that is intact but not whole entries condemns the
        // file, grown or whole.
        let mut gap = seeds[0].clone();
        let first_chunk = 24 + record::OVERHEAD;
        gap.truncate(first_chunk);
        record::push(&mut gap, &9u64.to_be_bytes());
        assert_eq!(run_partial_log(&gap), "rej_condemned");
        partial_log_grows_as_it_loads(&gap).expect("both readers condemn it");
        // Resealing lets a mutated payload past its checksum.
        let mut mutant = seeds[0].clone();
        mutant[first_chunk + 4 + 6] ^= 1; // page 0 becomes page 256
        assert_eq!(
            run_partial_log(&mutant),
            "ok_log_empty",
            "a torn first chunk"
        );
        reseal_records(&mut mutant);
        assert_eq!(run_partial_log(&mutant), "rej_condemned");
    }

    #[test]
    fn wal_seeds_boot_as_labelled_and_compact_to_a_fixed_point() {
        let seeds = wal_seeds();
        let classes: Vec<_> = seeds.iter().map(|s| run_wal(s)).collect();
        assert_eq!(classes, ["ok_resumed", "ok_bad_spec"]);
        for seed in &seeds {
            compaction_is_a_fixed_point(seed).expect("oracle holds on a seed");
        }
        assert_eq!(run_wal(b""), "ok_empty");
        assert_eq!(run_wal(&seeds[0][..5]), "torn_empty");
    }

    #[test]
    fn stream_classes_name_how_the_stream_ended() {
        assert_eq!(drain_slice(b"", next_wire_msg).class(), "eof_empty");
        assert_eq!(drain_slice(b"", next_ctrl_frame).class(), "eof_empty");
        let all = &wire_msg_seeds()[7];
        assert_eq!(drain_slice(all, next_wire_msg).items.len(), 7);
        assert_eq!(
            drain_slice(&all[..all.len() - 1], next_wire_msg).class(),
            "err_truncated"
        );
        let mut bad_kind = all.clone();
        bad_kind[8] = 0xEE;
        assert_eq!(drain_slice(&bad_kind, next_wire_msg).class(), "err_kind");
        let huge = [frame::kind::CTRL, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(drain_slice(&huge, next_ctrl_frame).class(), "err_oversized");
    }

    #[test]
    fn a_disagreeing_reader_is_an_oracle_error() {
        // A step that decodes differently once it has seen a short read
        // — what a decoder mishandling partial `read`s would do.
        fn fragile(r: &mut dyn Read) -> Result<u8, &'static str> {
            let mut two = [0u8; 2];
            match r.read(&mut two) {
                Ok(2) => Ok(two[0]),
                Ok(1) => Ok(0xff),
                _ => Err("err_io"),
            }
        }
        assert!(readers_agree(&[1, 2, 3, 4], fragile).is_err());
    }

    #[test]
    fn target_names_are_unique() {
        let targets = all_targets();
        let mut names: Vec<_> = targets.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), targets.len());
    }

    #[test]
    fn classifier_covers_handcrafted_rejects() {
        assert_eq!(run_checkpoint(b""), "err_short");
        assert_eq!(run_trace(b""), "err_short");
        assert_eq!(run_chaos(b"crash=0.1,crash=0.2"), "err_dup");
        assert_eq!(run_chaos(b"meteor=1"), "err_unknown");
        assert_eq!(run_evict(b"mru"), "err_unknown");
        assert_eq!(run_bytes(b"4GB"), "err_parse");
        assert_eq!(run_cli_link(b"wan:150%"), "err_loss_range");
        assert_eq!(run_cli_duration(b"90m"), "ok_mins");
        assert_eq!(run_cli_duration(b"30s"), "ok_secs");
        assert_eq!(run_cli_duration(b"zzm"), "err_mins");
        assert_eq!(run_cli_duration(b"1w"), "err_suffix");
        assert_eq!(run_cli_faults(b"drop=0.1,drop=0.2"), "err_dup");
    }

    #[test]
    fn find_target_by_name() {
        assert!(find_target("ckpt_fix").is_some());
        assert!(find_target("nope").is_none());
    }
}
