//! Property tests: the simulator is a stable priority queue.

use vecycle_sim::Simulator;
use vecycle_types::rng::{split, Xorshift};
use vecycle_types::{SimDuration, SimTime};

/// `len` draws from `0..bound`.
fn draws(rng: &mut Xorshift, len: u64, bound: u64) -> Vec<u64> {
    (0..len).map(|_| rng.below(bound)).collect()
}

/// Events pop in timestamp order; ties pop in insertion order.
#[test]
fn pop_order_is_stable_sort() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(1, case));
        let len = 1 + rng.below(199);
        let times = draws(&mut rng, len, 500);
        let mut sim = Simulator::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::EPOCH + SimDuration::from_secs(t), i);
        }
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        let mut popped = Vec::new();
        while let Some(ev) = sim.pop() {
            popped.push((ev.time.since_epoch().as_nanos() / 1_000_000_000, ev.payload));
        }
        assert_eq!(popped, expected);
    }
}

/// The clock is monotone under any interleaving of schedule/pop.
#[test]
fn clock_is_monotone() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(2, case));
        let mut sim = Simulator::new();
        let mut last = SimTime::EPOCH;
        for _ in 0..1 + rng.below(99) {
            let (do_pop, delay) = (rng.next() & 1 == 1, rng.below(100));
            if do_pop {
                if let Some(ev) = sim.pop() {
                    assert!(ev.time >= last);
                    last = ev.time;
                }
            } else {
                sim.schedule_after(SimDuration::from_secs(delay), ());
            }
            assert!(sim.now() >= last);
            last = sim.now();
        }
    }
}

/// **The fleet determinism contract, pinned.** Same-timestamp events
/// pop strictly in insertion (FIFO) order, for any multiset of
/// timestamps and any amount of duplication. The fleet's placement
/// engine admits migrations in pop order, so a tie-break regression
/// here would silently reshuffle placement decisions at scale —
/// this property is the regression fence.
#[test]
fn same_timestamp_events_pop_fifo() {
    for case in 0..128 {
        let mut rng = Xorshift::new(split(3, case));
        // A tiny timestamp range forces heavy collision: with up to 300
        // events over 8 instants, every instant hosts a long FIFO run.
        let len = 1 + rng.below(299);
        let times = draws(&mut rng, len, 8);
        let mut sim = Simulator::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::EPOCH + SimDuration::from_secs(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = sim.pop() {
            if let Some((t, i)) = last {
                assert!(ev.time >= t);
                if ev.time == t {
                    assert!(
                        ev.payload > i,
                        "FIFO violated at {}: {} popped after {}",
                        ev.time,
                        ev.payload,
                        i
                    );
                }
            }
            last = Some((ev.time, ev.payload));
        }
    }
}

/// FIFO also holds for events scheduled *from inside a handler* at
/// the current instant: a cascade landing on `now` runs after every
/// already-queued event at `now`, in the order the handlers pushed
/// it. The fleet leans on this when a completion handler re-admits
/// queued migrations at the completion instant.
#[test]
fn cascades_at_now_append_in_fifo_order() {
    for case in 0..128 {
        let n = 1 + Xorshift::new(split(4, case)).below(39);
        let mut sim = Simulator::new();
        let t = SimTime::EPOCH + SimDuration::from_secs(5);
        for i in 0..n {
            sim.schedule_at(t, i);
        }
        let mut order = Vec::new();
        sim.run(|sim, ev| {
            order.push(ev.payload);
            // Each original event (payload < n) spawns one child at the
            // same instant, tagged n + payload.
            if ev.payload < n && ev.time == t {
                sim.schedule_at(t, n + ev.payload);
            }
        });
        // All originals first (they were queued first), then all
        // children in the order their parents ran.
        let expected: Vec<u64> = (0..n).chain(n..2 * n).collect();
        assert_eq!(order, expected);
    }
}
