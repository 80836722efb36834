//! Oracle: the daemon's socket sink changes *when* data-plane bytes are
//! produced and nothing else.
//!
//! The source streams each message the moment the engine emits it; the
//! recorded [`LiveTranscript`] is the same stream kept for later. For
//! every daemon strategy, cold and warm, the bytes the sink writes must
//! equal the recorded transcript flattened and encoded, byte for byte,
//! with the same [`MigrationReport`](vecycle_core::MigrationReport) —
//! which also keeps a replay of the transcript (the benchmark's staged
//! trace) an honest mirror of what a daemon puts on the socket.

mod common;

use vecycle_checkpoint::ChecksumIndex;
use vecycle_core::{LiveOutcome, LiveTranscript};
use vecycle_daemon::session_state::SessionState;
use vecycle_daemon::{scenario, SocketSink};
use vecycle_faults::KillSwitch;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;

/// The recorded stream in wire form: per-round messages + RoundEnd,
/// then the stop-and-copy flush + StopEnd.
fn encode_transcript(t: &LiveTranscript) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, round) in t.rounds.iter().enumerate() {
        for msg in round {
            msg.to_wire().encode(&mut bytes);
        }
        WireMsg::RoundEnd {
            round: i as u64 + 1,
        }
        .encode(&mut bytes);
    }
    for msg in &t.stop_copy {
        msg.to_wire().encode(&mut bytes);
    }
    WireMsg::StopEnd.encode(&mut bytes);
    bytes
}

/// The index as the source holds it: rebuilt from the digests the bulk
/// exchange carries.
fn wire_index(spec: &ScenarioSpec) -> Option<ChecksumIndex> {
    (spec.strategy == "vecycle").then(|| {
        let initial = scenario::initial_memory(spec).expect("initial memory");
        let mut room = ChecksumIndex::default();
        let offered = scenario::offer(spec, initial.as_slice(), None, &mut room)
            .expect("a vecycle job offers");
        ChecksumIndex::from_pages(&offered.distinct_digests().collect::<Vec<_>>())
    })
}

fn assert_streamed_equals_recorded(spec: &ScenarioSpec) -> LiveTranscript {
    let tag = spec.to_kv();
    spec.validate().expect("spec is one the daemon accepts");
    let initial = scenario::initial_memory(spec).expect("initial memory");
    let index = wire_index(spec);
    let engine = scenario::engine_for(spec);

    let (mut guest, mut workload) = scenario::live_guest(spec, &initial).expect("guest");
    let strategy = scenario::wire_strategy(spec, index.clone()).expect("strategy");
    let (recorded_report, transcript) = engine
        .migrate_live_with_transcript(&mut guest, &mut workload, strategy)
        .expect("recorded run");
    let recorded = encode_transcript(&transcript);

    let (mut guest, mut workload) = scenario::live_guest(spec, &initial).expect("guest");
    let strategy = scenario::wire_strategy(spec, index.clone()).expect("strategy");
    let kill = KillSwitch::inert();
    let mut streamed = Vec::new();
    let mut journaled = Vec::new();
    let mut chunk = Vec::new();
    let mut sink = SocketSink::new(&mut streamed, &mut chunk, &kill, |at| journaled.push(at));
    let outcome = engine
        .migrate_live_into(&mut guest, &mut workload, strategy, &mut sink)
        .expect("streamed run");
    sink.finish().expect("a Vec never fails a write");
    drop(sink);
    let LiveOutcome::Completed(streamed_report) = outcome else {
        panic!("{tag}: the socket sink lands every message");
    };

    assert_eq!(
        streamed, recorded,
        "{tag}: streamed bytes differ from the replay"
    );
    assert_eq!(
        streamed_report, recorded_report,
        "{tag}: streaming perturbed the report"
    );
    assert_eq!(
        streamed.len() as u64,
        streamed_report.source_traffic().as_u64(),
        "{tag}: the forward ledger is the data-plane byte count"
    );
    // Progress is journaled when streaming starts and at every round
    // delimiter, as cumulative message counts.
    let mut at = 0u64;
    let mut expected = vec![0];
    for round in &transcript.rounds {
        at += round.len() as u64 + 1;
        expected.push(at);
    }
    assert_eq!(journaled, expected, "{tag}: journaled progress");

    // The bytes are a well-formed stream: a destination decoding and
    // applying them rebuilds exactly the migrated guest.
    let mut dest = SessionState::fresh(spec, &initial);
    let mut rest = streamed.as_slice();
    while !dest.finished() {
        let msg = WireMsg::read_from(&mut rest).expect("stream decodes");
        dest.apply(&msg, index.as_ref()).expect("stream applies");
    }
    assert!(rest.is_empty(), "{tag}: bytes after the stop delimiter");
    assert_eq!(
        scenario::content_hash(dest.mem()),
        scenario::content_hash(guest.memory().as_slice()),
        "{tag}: destination rebuilt different content"
    );
    transcript
}

#[test]
fn streamed_bytes_equal_the_replayed_transcript() {
    for (strategy, warm) in [
        ("full", false),
        ("full", true),
        ("dedup", false),
        ("dedup", true),
        // Cold vecycle is refused at validation: no checkpoint to recycle.
        ("vecycle", true),
    ] {
        let mut spec = ScenarioSpec::golden(0x57e4);
        spec.strategy = strategy.to_string();
        spec.warm = warm;
        assert_streamed_equals_recorded(&spec);
    }
}

/// A busy guest over the WAN link: the stream has resend rounds and a
/// non-empty stop-and-copy flush, so every round kind crosses the sink.
#[test]
fn streamed_bytes_equal_the_replay_across_resend_rounds() {
    let mut spec = ScenarioSpec::golden(0xb057);
    spec.ram_mib = 32;
    spec.link = "wan".to_string();
    spec.dirty_frac_per_hour = 50.0;
    let transcript = assert_streamed_equals_recorded(&spec);
    assert!(transcript.rounds.len() > 1, "want resend rounds");
    assert!(!transcript.stop_copy.is_empty(), "want a non-empty flush");
}

/// The session reader buffers *above* the byte counters, so reading
/// ahead changes neither side's socket totals: at session end the
/// destination has read exactly what the source wrote, and written
/// exactly what the source read, on both transports.
#[test]
fn destination_socket_totals_mirror_the_sources_on_both_transports() {
    use common::{tcp_endpoint, unix_endpoint};
    use vecycle_daemon::{Daemon, DaemonConfig, JobState};

    for (transport, src_ep, dst_ep) in [
        ("tcp", tcp_endpoint(), tcp_endpoint()),
        ("unix", unix_endpoint("src"), unix_endpoint("dst")),
    ] {
        let src = Daemon::spawn(DaemonConfig::new(src_ep)).expect("source daemon binds");
        let dst = Daemon::spawn(DaemonConfig::new(dst_ep)).expect("dest daemon binds");
        let id = src
            .submit(ScenarioSpec::golden(0x57e5), dst.endpoint().clone())
            .expect("submit");
        let rec = src
            .wait_job(id, std::time::Duration::from_secs(60))
            .expect("job reaches a terminal state");
        assert_eq!(rec.state, JobState::Done, "{transport}: {}", rec.detail);
        let m = rec.measured.expect("done job has byte accounting");

        // The destination counts its totals before it closes the socket,
        // and the source's job ends on reading that close.
        let metrics = dst.metrics();
        let dest_bytes = |dir| metrics.counter("daemon_dest_bytes_total", &[("dir", dir)]);
        assert_eq!(
            [dest_bytes("rx"), dest_bytes("tx")],
            [m.tx, m.rx],
            "{transport}: destination totals"
        );
        src.shutdown();
        dst.shutdown();
    }
}
