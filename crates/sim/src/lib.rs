//! A minimal deterministic discrete-event simulator.
//!
//! Multi-day scenarios — the VDI consolidation schedule of §4.6, ping-pong
//! migration patterns — are driven by this engine: events are scheduled at
//! simulated instants and handlers run in timestamp order. Within a single
//! migration, time is computed analytically by the network/CPU models, so
//! the event granularity here is "one migration", not "one packet".
//!
//! Determinism: ties at the same timestamp are broken by insertion order
//! (FIFO), so a given scenario always replays identically.
//!
//! # Examples
//!
//! ```
//! use vecycle_sim::Simulator;
//! use vecycle_types::{SimDuration, SimTime};
//!
//! let mut sim: Simulator<&str> = Simulator::new();
//! sim.schedule_at(SimTime::EPOCH + SimDuration::from_hours(9), "morning");
//! sim.schedule_at(SimTime::EPOCH + SimDuration::from_hours(17), "evening");
//!
//! let mut order = Vec::new();
//! while let Some(ev) = sim.pop() {
//!     order.push((ev.time, ev.payload));
//! }
//! assert_eq!(order[0].1, "morning");
//! assert_eq!(order[1].1, "evening");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod scenario;

pub use scenario::ScenarioSpec;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use vecycle_types::{SimDuration, SimTime};

/// An event popped from the simulator: when it fired and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// The simulated instant the event fires.
    pub time: SimTime,
    /// The caller-defined payload.
    pub payload: T,
}

#[derive(Debug)]
struct QueueEntry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for QueueEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for QueueEntry<T> {}

impl<T> PartialOrd for QueueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for QueueEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time (then lowest
        // sequence number) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue with a simulated clock.
///
/// The clock never moves backwards: popping an event advances `now` to the
/// event's timestamp, and scheduling in the past is rejected.
#[derive(Debug)]
pub struct Simulator<T> {
    queue: BinaryHeap<QueueEntry<T>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<T> Simulator<T> {
    /// Creates an empty simulator at the epoch.
    pub fn new() -> Self {
        Simulator::with_capacity(0)
    }

    /// Creates an empty simulator at the epoch with room for `events`
    /// queued events.
    pub fn with_capacity(events: usize) -> Self {
        Simulator {
            queue: BinaryHeap::with_capacity(events),
            now: SimTime::EPOCH,
            next_seq: 0,
            processed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current simulated time; scheduling
    /// into the past would silently reorder history.
    pub fn schedule_at(&mut self, time: SimTime, payload: T) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueueEntry { time, seq, payload });
    }

    /// Schedules `payload` at `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: T) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let entry = self.queue.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.processed += 1;
        Some(Event {
            time: entry.time,
            payload: entry.payload,
        })
    }

    /// Runs the simulation to completion, calling `handler` for each event.
    ///
    /// The handler may schedule further events through the `&mut Simulator`
    /// it receives. Returns the number of events processed by this call.
    pub fn run<F>(&mut self, mut handler: F) -> u64
    where
        F: FnMut(&mut Simulator<T>, Event<T>),
    {
        let before = self.processed;
        while let Some(ev) = self.pop() {
            handler(self, ev);
        }
        self.processed - before
    }
}

impl<T> Default for Simulator<T> {
    fn default() -> Self {
        Simulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(hours: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_hours(hours)
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule_at(at(5), "c");
        sim.schedule_at(at(1), "a");
        sim.schedule_at(at(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| sim.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Simulator::new();
        for i in 0..10 {
            sim.schedule_at(at(2), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| sim.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut sim = Simulator::new();
        sim.schedule_at(at(2), ());
        assert_eq!(sim.now(), SimTime::EPOCH);
        sim.pop();
        assert_eq!(sim.now(), at(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(at(2), ());
        sim.pop();
        sim.schedule_at(at(1), ());
    }

    #[test]
    fn handlers_can_schedule_cascades() {
        let mut sim = Simulator::new();
        sim.schedule_at(at(1), 3u32);
        let mut seen = Vec::new();
        sim.run(|sim, ev| {
            seen.push(ev.payload);
            if ev.payload > 0 {
                sim.schedule_after(SimDuration::from_hours(1), ev.payload - 1);
            }
        });
        assert_eq!(seen, vec![3, 2, 1, 0]);
        assert_eq!(sim.now(), at(4));
        assert_eq!(sim.processed, 4);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut sim = Simulator::new();
        sim.schedule_at(at(3), "first");
        sim.pop();
        sim.schedule_after(SimDuration::from_hours(2), "second");
        let ev = sim.pop().unwrap();
        assert_eq!(ev.time, at(5));
    }
}
