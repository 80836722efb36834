//! Simulated time: instants and durations with nanosecond resolution.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A span of simulated time.
///
/// # Examples
///
/// ```
/// use vecycle_types::SimDuration;
///
/// let d = SimDuration::from_mins(90);
/// assert_eq!(d.as_hours_f64(), 1.5);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest representable duration (used for "never").
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * NANOS_PER_SEC)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600 * NANOS_PER_SEC)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 24 * 3600 * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        let ns = secs * NANOS_PER_SEC as f64;
        assert!(ns <= u64::MAX as f64, "duration overflow: {secs}s");
        SimDuration(ns as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.min(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
    }

    /// True if this duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 3600.0 {
            write!(f, "{:.2} h", s / 3600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2} min", s / 60.0)
        } else if s >= 1.0 {
            write!(f, "{s:.2} s")
        } else {
            write!(f, "{:.2} ms", s * 1e3)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// An instant on the simulated clock, measured from the simulation epoch.
///
/// # Examples
///
/// ```
/// use vecycle_types::{SimDuration, SimTime};
///
/// let t = SimTime::EPOCH + SimDuration::from_hours(9);
/// assert_eq!(t.since_epoch().as_hours_f64(), 9.0);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates an instant `d` after the epoch.
    pub const fn from_epoch(d: SimDuration) -> Self {
        SimTime(d.as_nanos())
    }

    /// The elapsed time since the epoch.
    pub const fn since_epoch(self) -> SimDuration {
        SimDuration::from_nanos(self.0)
    }

    /// The duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier.0 <= self.0, "duration_since: earlier is later");
        SimDuration(self.0 - earlier.0)
    }

    /// Checked version of [`SimTime::duration_since`].
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", self.since_epoch())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn duration_float_round_trip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d, SimDuration::from_millis(1500));
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_unit_views() {
        let d = SimDuration::from_mins(90);
        assert_eq!(d.as_hours_f64(), 1.5);
    }

    #[test]
    fn duration_saturation() {
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_secs(1)),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_display_scales() {
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.00 ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.00 s");
        assert_eq!(format!("{}", SimDuration::from_mins(5)), "5.00 min");
        assert_eq!(format!("{}", SimDuration::from_hours(5)), "5.00 h");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn duration_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-0.1);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::EPOCH + SimDuration::from_hours(2);
        let t1 = t0 + SimDuration::from_mins(30);
        assert_eq!(t1.duration_since(t0), SimDuration::from_mins(30));
        assert_eq!(t1 - SimDuration::from_mins(30), t0);
        assert_eq!(t0.checked_duration_since(t1), None);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn time_duration_since_panics_when_reversed() {
        let t0 = SimTime::EPOCH;
        let t1 = t0 + SimDuration::from_secs(1);
        let _ = t0.duration_since(t1);
    }

    #[test]
    fn time_ordering() {
        let a = SimTime::EPOCH + SimDuration::from_secs(1);
        let b = SimTime::EPOCH + SimDuration::from_secs(2);
        assert!(a < b);
        let mut t = a;
        t += SimDuration::from_secs(1);
        assert_eq!(t, b);
    }
}
