//! Migration reports: what happened, how long it took, what it cost.

use vecycle_faults::FaultCause;
use vecycle_net::TrafficLedger;
use vecycle_types::{Bytes, PageCount, Ratio, SimDuration};

use crate::StrategyName;

/// How a migration concluded, once the session's retry loop settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationOutcome {
    /// First attempt, no degradation: the happy path.
    Completed,
    /// Succeeded, but only after `attempts` total attempts.
    CompletedAfterRetries {
        /// Total attempts including the successful one (≥ 2).
        attempts: u32,
    },
    /// Completed without recycling: the checkpoint was unusable and the
    /// session degraded to a dedup-only full migration.
    FellBackToFull {
        /// Why the checkpoint could not be recycled.
        cause: FaultCause,
    },
    /// Every attempt aborted; the VM stayed at the source.
    Failed {
        /// The fault that killed the final attempt.
        cause: FaultCause,
    },
}

impl MigrationOutcome {
    /// Every [`MigrationOutcome::label`], in declaration order.
    pub const LABELS: [&'static str; 4] = [
        "completed",
        "completed_after_retries",
        "fell_back_to_full",
        "failed",
    ];

    /// Stable snake_case label for metrics (`…{outcome=…}`).
    pub fn label(&self) -> &'static str {
        match self {
            MigrationOutcome::Completed => "completed",
            MigrationOutcome::CompletedAfterRetries { .. } => "completed_after_retries",
            MigrationOutcome::FellBackToFull { .. } => "fell_back_to_full",
            MigrationOutcome::Failed { .. } => "failed",
        }
    }
}

impl std::fmt::Display for MigrationOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationOutcome::Completed => f.write_str("completed"),
            MigrationOutcome::CompletedAfterRetries { attempts } => {
                write!(f, "completed after {attempts} attempts")
            }
            MigrationOutcome::FellBackToFull { cause } => {
                write!(f, "fell back to full ({cause})")
            }
            MigrationOutcome::Failed { cause } => write!(f, "failed ({cause})"),
        }
    }
}

/// Timing and traffic of one pre-copy round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// Round number (1-based; the final stop-and-copy is not a round).
    pub round: u32,
    /// Pages transferred in full.
    pub full_pages: PageCount,
    /// Checksum-only messages (content reused from the checkpoint).
    pub checksum_pages: PageCount,
    /// Dedup back-references.
    pub dedup_refs: PageCount,
    /// Pages skipped outright (dirty tracking).
    pub skipped_pages: PageCount,
    /// Zero pages replaced by 13-byte markers (QEMU zero suppression).
    pub zero_pages: PageCount,
    /// Bytes the source sent this round.
    pub bytes_sent: Bytes,
    /// Wall-clock duration of the round.
    pub duration: SimDuration,
}

/// The pre-migration setup phase, which the paper's timing excludes
/// ("we explicitly do not capture the setup phase at the destination").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetupReport {
    /// Destination: sequential read of the checkpoint file into RAM.
    pub checkpoint_read: SimDuration,
    /// Source: sequential write of the outgoing checkpoint — performed
    /// after handover, so also outside the measured migration time
    /// ("we discount ... writing the checkpoint at the source").
    pub checkpoint_write: SimDuration,
    /// Destination: building the checksum index while reading.
    pub index_build: SimDuration,
    /// Bytes of the destination→source checksum exchange.
    pub exchange_bytes: Bytes,
    /// Time of the checksum exchange.
    pub exchange_time: SimDuration,
}

impl SetupReport {
    /// Total out-of-band duration (destination setup plus the source's
    /// deferred checkpoint write).
    pub fn total(&self) -> SimDuration {
        self.checkpoint_read + self.checkpoint_write + self.index_build + self.exchange_time
    }
}

/// The full record of one migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    strategy: StrategyName,
    ram: Bytes,
    rounds: Vec<RoundReport>,
    downtime: SimDuration,
    setup: SetupReport,
    forward: TrafficLedger,
    reverse: TrafficLedger,
    outcome: MigrationOutcome,
    converged: bool,
    wasted_traffic: Bytes,
    wasted_time: SimDuration,
}

impl MigrationReport {
    pub(crate) fn new(
        strategy: StrategyName,
        ram: Bytes,
        rounds: Vec<RoundReport>,
        downtime: SimDuration,
        setup: SetupReport,
        forward: TrafficLedger,
        reverse: TrafficLedger,
    ) -> Self {
        MigrationReport {
            strategy,
            ram,
            rounds,
            downtime,
            setup,
            forward,
            reverse,
            outcome: MigrationOutcome::Completed,
            converged: true,
            wasted_traffic: Bytes::ZERO,
            wasted_time: SimDuration::ZERO,
        }
    }

    pub(crate) fn set_outcome(&mut self, outcome: MigrationOutcome) {
        self.outcome = outcome;
    }

    pub(crate) fn set_converged(&mut self, converged: bool) {
        self.converged = converged;
    }

    pub(crate) fn add_waste(&mut self, traffic: Bytes, time: SimDuration) {
        self.wasted_traffic += traffic;
        self.wasted_time = self.wasted_time.saturating_add(time);
    }

    /// How the migration concluded after any retries.
    pub fn outcome(&self) -> MigrationOutcome {
        self.outcome
    }

    /// False if the round limit cut pre-copy short and forced the final
    /// stop-and-copy.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Source traffic spent on earlier, *failed* attempts of this
    /// migration — not included in [`MigrationReport::source_traffic`],
    /// which covers the successful attempt only.
    pub fn wasted_traffic(&self) -> Bytes {
        self.wasted_traffic
    }

    /// Time spent on failed attempts plus retry backoff — not included
    /// in [`MigrationReport::total_time`].
    pub fn wasted_time(&self) -> SimDuration {
        self.wasted_time
    }

    /// End-to-end duration including failed attempts and backoff.
    pub fn total_time_with_retries(&self) -> SimDuration {
        self.total_time().saturating_add(self.wasted_time)
    }

    /// The strategy that ran.
    pub fn strategy(&self) -> StrategyName {
        self.strategy
    }

    /// The VM's RAM size.
    pub fn ram(&self) -> Bytes {
        self.ram
    }

    /// Per-round detail.
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// The stop-and-copy pause experienced by the guest.
    pub fn downtime(&self) -> SimDuration {
        self.downtime
    }

    /// The setup phase (excluded from [`MigrationReport::total_time`]).
    pub fn setup(&self) -> &SetupReport {
        &self.setup
    }

    pub(crate) fn setup_mut(&mut self) -> &mut SetupReport {
        &mut self.setup
    }

    /// Zero pages suppressed into markers, across all rounds.
    pub fn zero_pages(&self) -> PageCount {
        self.rounds.iter().map(|r| r.zero_pages).sum()
    }

    /// Migration time as the paper measures it: "from initiating the
    /// migration at the source until the VM runs at the destination",
    /// excluding destination setup and source checkpoint writing.
    pub fn total_time(&self) -> SimDuration {
        self.rounds.iter().map(|r| r.duration).sum::<SimDuration>() + self.downtime
    }

    /// Bytes the source sent to the destination (Figure 6 right,
    /// "source send traffic").
    pub fn source_traffic(&self) -> Bytes {
        self.forward.total()
    }

    /// Bytes the destination sent to the source (checksum exchange,
    /// acknowledgements).
    pub fn reverse_traffic(&self) -> Bytes {
        self.reverse.total()
    }

    /// The forward (source→destination) ledger.
    pub(crate) fn forward_ledger(&self) -> &TrafficLedger {
        &self.forward
    }

    /// The reverse (destination→source) ledger.
    pub(crate) fn reverse_ledger(&self) -> &TrafficLedger {
        &self.reverse
    }

    /// Pages whose content was reused from the destination checkpoint.
    pub fn pages_reused(&self) -> PageCount {
        self.rounds
            .iter()
            .map(|r| r.checksum_pages + r.skipped_pages)
            .sum()
    }

    /// Pages transferred in full, across all rounds.
    pub fn pages_sent_full(&self) -> PageCount {
        self.rounds.iter().map(|r| r.full_pages).sum()
    }

    /// Source traffic as a fraction of the VM's RAM — the y-axis of
    /// Figure 8.
    pub fn traffic_fraction_of_ram(&self) -> Ratio {
        self.source_traffic().fraction_of(self.ram)
    }
}

impl std::fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} migration of {}: {} in {} ({} rounds, downtime {})",
            self.strategy,
            self.ram,
            self.source_traffic(),
            self.total_time(),
            self.rounds.len(),
            self.downtime,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_net::TrafficCategory;

    fn sample() -> MigrationReport {
        let rounds = vec![
            RoundReport {
                round: 1,
                full_pages: PageCount::new(100),
                checksum_pages: PageCount::new(50),
                dedup_refs: PageCount::new(10),
                skipped_pages: PageCount::ZERO,
                zero_pages: PageCount::ZERO,
                bytes_sent: Bytes::from_kib(500),
                duration: SimDuration::from_secs(2),
            },
            RoundReport {
                round: 2,
                full_pages: PageCount::new(5),
                checksum_pages: PageCount::ZERO,
                dedup_refs: PageCount::ZERO,
                skipped_pages: PageCount::ZERO,
                zero_pages: PageCount::ZERO,
                bytes_sent: Bytes::from_kib(20),
                duration: SimDuration::from_millis(200),
            },
        ];
        let mut fwd = TrafficLedger::new();
        fwd.record(TrafficCategory::FullPages, Bytes::from_kib(520));
        let mut rev = TrafficLedger::new();
        rev.record(TrafficCategory::BulkExchange, Bytes::from_kib(16));
        MigrationReport::new(
            StrategyName::VeCycle,
            Bytes::from_mib(1),
            rounds,
            SimDuration::from_millis(30),
            SetupReport::default(),
            fwd,
            rev,
        )
    }

    #[test]
    fn total_time_sums_rounds_and_downtime() {
        let r = sample();
        assert_eq!(r.total_time(), SimDuration::from_millis(2000 + 200 + 30));
    }

    #[test]
    fn aggregates() {
        let r = sample();
        assert_eq!(r.pages_sent_full(), PageCount::new(105));
        assert_eq!(r.pages_reused(), PageCount::new(50));
        assert_eq!(r.source_traffic(), Bytes::from_kib(520));
        assert_eq!(r.reverse_traffic(), Bytes::from_kib(16));
        let frac = r.traffic_fraction_of_ram().as_f64();
        assert!((frac - 520.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_strategy() {
        assert!(sample().to_string().contains("vecycle"));
    }
}
