//! Concurrency: the engine is `&self` and checkpoint stores are
//! internally synchronized, so migrations of different VMs can proceed
//! in parallel — this suite drives them from real threads.

use std::sync::Arc;

use vecycle::checkpoint::{Checkpoint, CheckpointStore};
use vecycle::core::{MigrationEngine, Strategy};
use vecycle::mem::{DigestMemory, MemoryImage};
use vecycle::net::LinkSpec;
use vecycle::types::{Bytes, SimTime, VmId};

#[test]
fn parallel_migrations_share_one_store() {
    let store = Arc::new(CheckpointStore::new());
    let engine = Arc::new(MigrationEngine::new(LinkSpec::lan_gigabit()));
    const THREADS: u32 = 8;

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let vm_id = VmId::new(t);
                let mem = DigestMemory::with_uniform_content(Bytes::from_mib(8), u64::from(t) + 1)
                    .expect("page-aligned");
                // First hop: store a checkpoint, migrate cold.
                store
                    .save(Checkpoint::capture(vm_id, SimTime::EPOCH, &mem))
                    .expect("no mirror, no I/O");
                let cold = engine.migrate(&mem, Strategy::dedup()).expect("cold");
                // Second hop: recycle the stored checkpoint.
                let cp = store.latest(vm_id).expect("checkpoint saved");
                let warm = engine
                    .migrate(&mem, Strategy::vecycle_from_checkpoint(&cp))
                    .expect("warm");
                assert!(warm.source_traffic() < cold.source_traffic());
                assert_eq!(warm.pages_reused(), mem.page_count());
            });
        }
    });

    assert_eq!(store.vm_count(), THREADS as usize);
}

#[test]
fn concurrent_saves_to_same_vm_keep_a_consistent_latest() {
    let store = Arc::new(CheckpointStore::new());
    let vm = VmId::new(0);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for round in 0..20u64 {
                    let mem = DigestMemory::with_distinct_content(
                        vecycle::types::PageCount::new(16),
                        t * 100 + round,
                    );
                    store
                        .save(Checkpoint::capture(
                            vm,
                            SimTime::EPOCH + vecycle::types::SimDuration::from_secs(round),
                            &mem,
                        ))
                        .expect("no mirror, no I/O");
                    // Reads interleave with writes; latest must always
                    // be a complete checkpoint of the right VM.
                    let latest = store.latest(vm).expect("non-empty after save");
                    assert_eq!(latest.vm(), vm);
                    assert_eq!(latest.page_count().as_u64(), 16);
                }
            });
        }
    });
    // 160 saves of one VM: usage reflects exactly the one that is kept.
    assert_eq!(store.used(), vecycle::types::Bytes::new(16 * 16));
}

#[test]
fn parallel_trace_analysis_on_scoped_threads() {
    // The fig5 harness fans machine analyses out across threads; verify
    // the analysis stack is thread-safe and deterministic under
    // parallelism.
    use vecycle::core::analytic::summarize_methods;
    use vecycle::trace::{catalog, TraceGenerator};

    let machines: Vec<_> = catalog().into_iter().take(3).collect();
    let serial: Vec<u64> = machines
        .iter()
        .map(|m| {
            let mut p = m.profile.clone();
            p.trace_duration = vecycle::types::SimDuration::from_hours(12);
            let trace = TraceGenerator::new(p, 1)
                .scale_pages(256)
                .generate()
                .unwrap();
            summarize_methods(trace.fingerprints(), 1).means.pairs
        })
        .collect();

    let parallel: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = machines
            .iter()
            .map(|m| {
                let profile = m.profile.clone();
                scope.spawn(move || {
                    let mut p = profile;
                    p.trace_duration = vecycle::types::SimDuration::from_hours(12);
                    let trace = TraceGenerator::new(p, 1)
                        .scale_pages(256)
                        .generate()
                        .unwrap();
                    summarize_methods(trace.fingerprints(), 1).means.pairs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, parallel);
}

#[test]
fn handles_and_string_calls_share_series_across_threads() {
    // Four threads record into the same series at once: two through
    // shared handles (no lock), two through the string-keyed calls
    // (under the registry's lock). No add may be lost, and a
    // histogram's count must equal the sum of its buckets.
    use vecycle::obs::{layouts, MetricsRegistry};

    const THREADS: u64 = 4;
    const ROUNDS: u64 = 100_000;
    let m = MetricsRegistry::new();
    let counter = m.resolve_counter("ops_total", &[("path", "shared")]);
    let histogram = m.resolve_histogram("op_bytes", &[], layouts::BYTES);
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (m, start) = (&m, &start);
            let (counter, histogram) = (counter.clone(), histogram.clone());
            scope.spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    if t % 2 == 0 {
                        counter.inc(t + 1);
                        histogram.observe(i * 1_000);
                    } else {
                        m.inc("ops_total", &[("path", "shared")], t + 1);
                        m.observe("op_bytes", &[], layouts::BYTES, i * 1_000);
                    }
                }
            });
        }
    });
    let adds: u64 = (1..=THREADS).sum::<u64>() * ROUNDS;
    assert_eq!((counter.get(), m.counter_total("ops_total")), (adds, adds));
    let snap = m.snapshot();
    let h = &snap.histograms[0];
    assert_eq!(h.count, THREADS * ROUNDS);
    assert_eq!(h.counts.iter().sum::<u64>(), h.count);
    assert_eq!(h.sum, THREADS * (0..ROUNDS).sum::<u64>() * 1_000);
}
