//! [`ActivitySchedule`]: diurnal/weekly activity modulation.

use vecycle_types::SimTime;

/// How active a machine is as a function of wall-clock time.
///
/// Activity scales the per-page update rates of the synthetic model:
/// an activity of 1.0 means the profile's full update rates apply, 0.0
/// means the machine writes nothing. The paper's minimum/average/maximum
/// similarity spread (Figure 1) "likely stems from different activity
/// levels" — this schedule is what produces that spread.
///
/// The simulation epoch is taken to be **Monday 00:00**.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivitySchedule {
    /// Constant activity, e.g. an always-busy web crawler.
    Constant(f64),
    /// Office-hours pattern: `busy` during [start_hour, end_hour) on
    /// weekdays, `quiet` otherwise (nights and weekends).
    OfficeHours {
        /// Activity during working hours.
        busy: f64,
        /// Activity outside working hours.
        quiet: f64,
        /// First busy hour of the day (0-23).
        start_hour: u8,
        /// First quiet hour after work (0-23, exclusive end).
        end_hour: u8,
    },
    /// A server's mild diurnal wave: `base` plus `swing` · sin(day phase),
    /// peaking mid-day. Never negative.
    Diurnal {
        /// Mean activity.
        base: f64,
        /// Amplitude of the daily wave.
        swing: f64,
    },
}

impl ActivitySchedule {
    /// The activity multiplier at instant `t`.
    pub fn activity(&self, t: SimTime) -> f64 {
        let hours = t.since_epoch().as_hours_f64();
        match *self {
            ActivitySchedule::Constant(a) => a,
            ActivitySchedule::OfficeHours {
                busy,
                quiet,
                start_hour,
                end_hour,
            } => {
                if Self::is_weekend(hours) {
                    return quiet;
                }
                let hour_of_day = hours.rem_euclid(24.0);
                if (f64::from(start_hour)..f64::from(end_hour)).contains(&hour_of_day) {
                    busy
                } else {
                    quiet
                }
            }
            ActivitySchedule::Diurnal { base, swing } => {
                let phase = hours.rem_euclid(24.0) / 24.0 * std::f64::consts::TAU;
                // Peak at 14:00: shift so sin crests there.
                let shifted = phase - std::f64::consts::TAU * (14.0 / 24.0 - 0.25);
                (base + swing * shifted.sin()).max(0.0)
            }
        }
    }

    /// True if `hours` since the Monday-00:00 epoch falls on a weekend.
    fn is_weekend(hours: f64) -> bool {
        let day = (hours.rem_euclid(7.0 * 24.0) / 24.0) as u32;
        day >= 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_types::SimDuration;

    fn at(hours: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_hours(hours)
    }

    #[test]
    fn constant_is_constant() {
        let s = ActivitySchedule::Constant(0.7);
        assert_eq!(s.activity(at(0)), 0.7);
        assert_eq!(s.activity(at(1000)), 0.7);
    }

    #[test]
    fn office_hours_distinguish_day_and_night() {
        let s = ActivitySchedule::OfficeHours {
            busy: 1.0,
            quiet: 0.05,
            start_hour: 9,
            end_hour: 17,
        };
        assert_eq!(s.activity(at(10)), 1.0); // Monday 10:00
        assert_eq!(s.activity(at(3)), 0.05); // Monday 03:00
        assert_eq!(s.activity(at(17)), 0.05); // Monday 17:00 (exclusive)
        assert_eq!(s.activity(at(24 + 9)), 1.0); // Tuesday 09:00
    }

    #[test]
    fn office_hours_idle_on_weekends() {
        let s = ActivitySchedule::OfficeHours {
            busy: 1.0,
            quiet: 0.1,
            start_hour: 9,
            end_hour: 17,
        };
        // Saturday 12:00 = 5*24 + 12 hours after Monday 00:00.
        assert_eq!(s.activity(at(5 * 24 + 12)), 0.1);
        // Sunday 12:00.
        assert_eq!(s.activity(at(6 * 24 + 12)), 0.1);
        // Next Monday 12:00 is busy again.
        assert_eq!(s.activity(at(7 * 24 + 12)), 1.0);
    }

    #[test]
    fn diurnal_peaks_mid_day_and_never_negative() {
        let s = ActivitySchedule::Diurnal {
            base: 0.3,
            swing: 0.5,
        };
        let afternoon = s.activity(at(14));
        let night = s.activity(at(2));
        assert!(afternoon > night);
        for h in 0..48 {
            assert!(s.activity(at(h)) >= 0.0, "hour {h}");
        }
    }

    #[test]
    fn weekend_detection() {
        assert!(!ActivitySchedule::is_weekend(0.0)); // Monday
        assert!(!ActivitySchedule::is_weekend(4.0 * 24.0 + 23.0)); // Friday night
        assert!(ActivitySchedule::is_weekend(5.0 * 24.0)); // Saturday 00:00
        assert!(ActivitySchedule::is_weekend(6.0 * 24.0 + 12.0)); // Sunday noon
        assert!(!ActivitySchedule::is_weekend(7.0 * 24.0)); // Monday again
    }
}
