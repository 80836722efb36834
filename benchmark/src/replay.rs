//! Staged replay: one daemon job's work, redone stage by stage on the
//! bench thread so each layer can be timed from outside.
//!
//! A daemon job runs inside daemon threads, where the benchmark cannot
//! place spans. After a traced `pair_*` op the same spec is therefore
//! replayed here through the public functions both ends of a session
//! call, in session order: the destination derives its state and index,
//! the bulk exchange crosses, the source computes the whole migration,
//! converts and encodes it, and the destination decodes and applies it,
//! checkpointing its partial state on the daemon's cadence. What the
//! replay cannot reach — socket copies, thread hand-offs, the control
//! handshake, the accept poll — is what `unexplained_ms` reports.

use std::path::Path;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_core::{LiveTranscript, PageMsg};
use vecycle_daemon::journal::{rec, Journal, WalRecord};
use vecycle_daemon::scenario;
use vecycle_daemon::session_state::{self, spec_fingerprint, SessionState};
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{SimTime, VmId};

use crate::spans::Tracer;

/// Messages per buffered socket write and per destination partial
/// checkpoint — `vecycle_daemon`'s private `STREAM_CHUNK`.
const STREAM_CHUNK: usize = 64;

/// Where a replay puts the durable side effects of a journal-backed
/// job: its own WAL and partial-state directory, beside the daemons'.
pub struct Scratch {
    journal: Option<Journal>,
}

const SCRATCH_DIR: &str = "replay-journal";

impl Scratch {
    pub fn open(durable: bool) -> Scratch {
        Scratch {
            journal: durable.then(|| {
                Journal::open(Path::new(SCRATCH_DIR))
                    .expect("replay journal opens")
                    .0
            }),
        }
    }
}

/// The engine's message stream in wire form, round delimiters included.
pub fn wire_messages(transcript: &LiveTranscript) -> Vec<WireMsg> {
    let convert = |msg: &PageMsg| match msg {
        PageMsg::Full { idx, digest, .. } => WireMsg::full_filler(idx.as_u64(), *digest),
        PageMsg::Checksum { idx, digest } => WireMsg::Checksum {
            idx: idx.as_u64(),
            digest: *digest,
        },
        PageMsg::DedupRef { idx, source } => WireMsg::DedupRef {
            idx: idx.as_u64(),
            source: source.as_u64(),
        },
        PageMsg::Zero { idx } => WireMsg::Zero { idx: idx.as_u64() },
    };
    let mut msgs = Vec::with_capacity(transcript.message_count() + transcript.rounds.len() + 1);
    for (i, round) in transcript.rounds.iter().enumerate() {
        msgs.extend(round.iter().map(convert));
        msgs.push(WireMsg::RoundEnd {
            round: i as u64 + 1,
        });
    }
    msgs.extend(transcript.stop_copy.iter().map(convert));
    msgs.push(WireMsg::StopEnd);
    msgs
}

/// Replays `spec` under spans. Panics if the replayed destination does
/// not end up with the source's memory: that would mean the replay no
/// longer mirrors the daemon, and its timings would be fiction.
pub fn staged(spec: &ScenarioSpec, scratch: &Scratch, t: &mut Tracer) {
    t.span("bench.replay", |t| {
        // Destination: deterministic state, checkpoint index, bulk offer.
        let dst_initial = t
            .span("mem.initial_memory", |_| scenario::initial_memory(spec))
            .expect("spec was validated by the daemon");
        let dst_index = spec.warm.then(|| {
            t.span("checkpoint.capture_and_index", |_| {
                Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &dst_initial).build_index()
            })
        });
        let want = spec.strategy == "vecycle";
        let src_index = dst_index.as_ref().filter(|_| want).map(|ix| {
            let bytes = t.span("net.bulk_encode", |_| {
                let mut buf = Vec::new();
                WireMsg::BulkExchange {
                    digests: ix.digests().collect(),
                }
                .encode(&mut buf);
                buf
            });
            let msg = t.span("net.bulk_decode", |_| {
                WireMsg::read_from(&mut bytes.as_slice()).expect("bulk exchange decodes")
            });
            let WireMsg::BulkExchange { digests } = msg else {
                unreachable!("encoded a bulk exchange")
            };
            t.span("checkpoint.index_build", |_| ChecksumIndex::build(digests))
        });

        // Source: the whole migration, computed before the first byte.
        let src_initial = t
            .span("mem.initial_memory", |_| scenario::initial_memory(spec))
            .expect("spec was validated by the daemon");
        let (mut guest, mut workload) = t
            .span("mem.live_guest", |_| {
                scenario::live_guest(spec, &src_initial)
            })
            .expect("spec was validated by the daemon");
        let strategy = scenario::wire_strategy(spec, src_index).expect("strategy is known");
        let (_, transcript) = t
            .span("core.migrate_live_with_transcript", |_| {
                scenario::engine_for(spec).migrate_live_with_transcript(
                    &mut guest,
                    &mut workload,
                    strategy,
                )
            })
            .expect("fault-free migration completes");
        let msgs = t.span("net.to_wire", |_| wire_messages(&transcript));
        let rounds = transcript.rounds.len() as u64;
        if let Some(journal) = &scratch.journal {
            // submitted, claimed, transferring, one per round, done.
            t.span("daemon.wal_append", |_| {
                for kind in [rec::SUBMITTED, rec::CLAIMED, rec::DONE] {
                    journal
                        .append(&WalRecord::bare(kind, 1))
                        .expect("wal append");
                }
                for _ in 0..=rounds {
                    journal
                        .append(&WalRecord::bare(rec::TRANSFERRING, 1))
                        .expect("wal append");
                }
            });
        }
        let stream = t.span("net.encode", |_| {
            let mut buf = Vec::new();
            for msg in &msgs {
                msg.encode(&mut buf);
            }
            buf
        });

        // Destination: decode, apply, checkpoint the partial state.
        let mut state = SessionState::fresh(spec, &dst_initial);
        let fingerprint = spec_fingerprint(spec);
        let mut reader = stream.as_slice();
        while !state.finished() {
            // One span per checkpoint interval, not per message: the
            // daemon checkpoints after STREAM_CHUNK messages or a
            // delimiter, whichever comes first.
            let chunk = t.span("net.decode", |_| {
                let mut chunk = Vec::with_capacity(STREAM_CHUNK);
                while chunk.len() < STREAM_CHUNK {
                    let msg = WireMsg::read_from(&mut reader).expect("own encoding decodes");
                    let delimiter = matches!(msg, WireMsg::RoundEnd { .. } | WireMsg::StopEnd);
                    chunk.push(msg);
                    if delimiter {
                        break;
                    }
                }
                chunk
            });
            t.span("daemon.state_apply", |_| {
                for msg in &chunk {
                    state
                        .apply(msg, dst_index.as_ref())
                        .expect("own stream applies");
                }
            });
            // The daemon keeps a clone in memory for a peer's death
            // and, journal-backed, a file for its own.
            let kept = t.span("daemon.partial_clone", |_| state.clone());
            if scratch.journal.is_some() {
                t.span("daemon.partial_save", |_| {
                    session_state::save_partial(Path::new(SCRATCH_DIR), 1, fingerprint, &kept)
                        .expect("partial saves");
                });
            }
        }
        let agree = t.span("daemon.content_hash", |_| {
            scenario::content_hash(state.mem()) == scenario::content_hash(guest.memory().as_slice())
        });
        assert!(agree, "staged replay diverged from the daemon's session");
        session_state::drop_partial(Path::new(SCRATCH_DIR), 1, fingerprint);
    });
}
