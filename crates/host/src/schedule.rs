//! Migration requests: who moves where, when.
//!
//! One vocabulary serves the single-VM session and the fleet. A
//! [`MigrationRequest`] names *when* a VM wants to move, plus an
//! optional deadline and an optional pinned destination; the source is
//! always implicit (the VM's actual location). A *schedule* is a
//! time-ordered `Vec<MigrationRequest>` whose every request is pinned —
//! what [`MigrationRequest::vdi`] and [`MigrationRequest::ping_pong`]
//! return, and what `VeCycleSession::run_schedule` and
//! `Fleet::with_request_stream` both consume. Unpinned requests leave
//! the destination to a placement engine. Many per-VM streams compose,
//! appended into one `Vec`, through a deterministic sort whose
//! tie-break is documented on [`MigrationRequest::merge`].

use vecycle_types::rng::Xorshift;
use vecycle_types::{HostId, SimDuration, SimTime, VmId};

/// A migration request: the VM wants to move at `at`, to `pinned_to`
/// when the operator fixed the destination, else wherever the placement
/// engine decides. The source is always implicit — wherever the VM
/// actually is when the request is admitted, which may differ from any
/// precomputed plan once earlier migrations fail or queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRequest {
    /// When the VM asks to move.
    pub at: SimTime,
    /// The VM asking.
    pub vm: VmId,
    /// Latest acceptable start: a timing policy may defer the start past
    /// `at` (waiting for a low-dirty window) but never past `deadline`.
    pub deadline: Option<SimTime>,
    /// A destination fixed by the operator; `None` lets the placement
    /// engine choose.
    pub pinned_to: Option<HostId>,
}

impl MigrationRequest {
    /// An unpinned request with no deadline.
    pub fn open(at: SimTime, vm: VmId) -> Self {
        MigrationRequest {
            at,
            vm,
            deadline: None,
            pinned_to: None,
        }
    }

    /// Pins the destination.
    #[must_use]
    pub fn pinned(mut self, to: HostId) -> Self {
        self.pinned_to = Some(to);
        self
    }

    /// The §4.6 VDI schedule: the desktop VM moves from the consolidation
    /// server to the workstation at 9 am and back at 5 pm, every weekday,
    /// for `days` days starting from a Monday-00:00 epoch. "There are no
    /// migrations over the weekend."
    ///
    /// With `days = 19` (the paper's trace span, Wed 5 Nov – Sun 23 Nov
    /// 2014 mapped onto our Monday-based calendar) this yields 13
    /// weekdays and 26 migrations, matching §4.6.
    pub fn vdi(
        vm: VmId,
        workstation: HostId,
        consolidation_server: HostId,
        days: u64,
    ) -> Vec<MigrationRequest> {
        // 19 calendar days starting Monday contain 15 weekdays; the
        // paper's window has 13. Keep the first 13 for fidelity.
        (0..days)
            .filter(|day| day % 7 < 5)
            .take(13)
            .flat_map(|day| {
                let day_start = SimTime::EPOCH + SimDuration::from_days(day);
                [(9, workstation), (17, consolidation_server)].map(|(hour, to)| {
                    MigrationRequest::open(day_start + SimDuration::from_hours(hour), vm).pinned(to)
                })
            })
            .collect()
    }

    /// A ping-pong pattern: `vm`, starting on `a`, alternates between
    /// hosts `a` and `b` every `interval`, starting at `start`, for
    /// `count` migrations — the dominant pattern in the IBM study
    /// ("often just two hosts").
    pub fn ping_pong(
        vm: VmId,
        a: HostId,
        b: HostId,
        start: SimTime,
        interval: SimDuration,
        count: u64,
    ) -> Vec<MigrationRequest> {
        (0..count)
            .map(|i| {
                let to = if i % 2 == 0 { b } else { a };
                MigrationRequest::open(start + interval * i, vm).pinned(to)
            })
            .collect()
    }

    /// Merges per-VM request streams, appended one after another into
    /// `requests`, in place, into the documented fleet tie-break
    /// **`(at, VmId)`**: earlier requests first, and among requests
    /// stamped at the same instant the lower `VmId` goes first. Requests
    /// of the *same* VM at the same instant keep their input order (the
    /// sort is stable), so a generator that emits duplicates stays
    /// deterministic too.
    pub fn merge(requests: &mut [MigrationRequest]) {
        requests.sort_by_key(|r| (r.at, r.vm));
    }

    /// The IBM-study request generator: `count` requests at jittered
    /// intervals around `mean_interval`, starting after the epoch, for
    /// the caller to append to its stream. The
    /// destination is left open for the placement engine; each request's
    /// deadline is `at + deadline_slack` when given.
    ///
    /// The jitter is uniform in `[0.5, 1.5)` × `mean_interval`, drawn
    /// without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn small_host_set_stream(
        vm: VmId,
        mean_interval: SimDuration,
        count: u64,
        seed: u64,
        deadline_slack: Option<SimDuration>,
    ) -> impl Iterator<Item = MigrationRequest> {
        assert!(count > 0, "need at least one request");
        let mut draw = Xorshift::new(seed);
        let mut at = SimTime::EPOCH;
        (0..count).map(move |_| {
            let jitter = 0.5 + draw.unit_f64();
            at += SimDuration::from_secs_f64(mean_interval.as_secs_f64() * jitter);
            MigrationRequest {
                deadline: deadline_slack.map(|s| at + s),
                ..MigrationRequest::open(at, vm)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdi_schedule_has_26_migrations() {
        let s = MigrationRequest::vdi(VmId::new(0), HostId::new(0), HostId::new(1), 19);
        assert_eq!(s.len(), 26);
    }

    #[test]
    fn vdi_alternates_directions_and_skips_weekends() {
        let s = MigrationRequest::vdi(VmId::new(0), HostId::new(0), HostId::new(1), 19);
        for pair in s.chunks(2) {
            // Morning: server -> workstation. Evening: back.
            assert_eq!(pair[0].pinned_to, Some(HostId::new(0)));
            assert_eq!(pair[1].pinned_to, Some(HostId::new(1)));
        }
        for leg in &s {
            let hours = leg.at.since_epoch().as_hours_f64();
            let day = (hours / 24.0) as u64 % 7;
            assert!(day < 5, "migration on weekend day {day}");
            let hod = hours % 24.0;
            assert!(hod == 9.0 || hod == 17.0, "odd hour {hod}");
        }
    }

    #[test]
    fn vdi_legs_are_time_ordered() {
        let s = MigrationRequest::vdi(VmId::new(0), HostId::new(0), HostId::new(1), 19);
        assert!(s.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn ping_pong_alternates() {
        let s = MigrationRequest::ping_pong(
            VmId::new(1),
            HostId::new(0),
            HostId::new(1),
            SimTime::EPOCH,
            SimDuration::from_hours(2),
            4,
        );
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].pinned_to, Some(HostId::new(1)));
        assert_eq!(s[1].pinned_to, Some(HostId::new(0)));
        assert_eq!(s[2].pinned_to, Some(HostId::new(1)));
        assert_eq!(s[3].at.since_epoch(), SimDuration::from_hours(6));
    }

    #[test]
    fn request_merge_tie_break_and_stream_shape() {
        let mk = |vm: u32, seed: u64| {
            MigrationRequest::small_host_set_stream(
                VmId::new(vm),
                SimDuration::from_hours(1),
                8,
                seed,
                Some(SimDuration::from_mins(30)),
            )
            .collect::<Vec<_>>()
        };
        let (a, b) = (mk(7, 1), mk(3, 1));
        // Identical seeds give identical instants: every pair ties on
        // `at`, so VmId 3 must always precede VmId 7.
        let mut merged = [a.clone(), b].concat();
        MigrationRequest::merge(&mut merged);
        assert_eq!(merged.len(), 16);
        for pair in merged.chunks(2) {
            assert_eq!(pair[0].at, pair[1].at);
            assert_eq!(pair[0].vm, VmId::new(3));
            assert_eq!(pair[1].vm, VmId::new(7));
        }
        for r in &a {
            assert_eq!(r.deadline, Some(r.at + SimDuration::from_mins(30)));
            assert!(r.pinned_to.is_none());
        }
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
    }
}
