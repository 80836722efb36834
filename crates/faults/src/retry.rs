//! [`RetryPolicy`]: how the session retries failed migration attempts.

use vecycle_types::SimDuration;

/// Retry behaviour for failed migration attempts: a bounded number of
/// attempts with capped exponential backoff in *simulated* time, and a
/// switch controlling whether retries resume from the partial checkpoint
/// an aborted transfer left at the destination (the paper's recycling
/// idea turned inward) or start from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` = never retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on any single backoff.
    pub max_backoff: SimDuration,
    /// Recycle the aborted transfer's landed pages on retry.
    pub resume_from_partial: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(60),
            resume_from_partial: true,
        }
    }
}

impl RetryPolicy {
    /// Default policy but restarting every retry from scratch — the
    /// baseline the failure-sweep experiment compares resume against.
    pub fn from_scratch() -> Self {
        RetryPolicy {
            resume_from_partial: false,
            ..RetryPolicy::default()
        }
    }

    /// A copy with a different attempt budget.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// The backoff to wait before attempt `attempt` (1-based). The first
    /// attempt starts immediately; attempt `n ≥ 2` waits
    /// `min(base · 2^(n-2), max)`.
    pub fn backoff_before(&self, attempt: u32) -> SimDuration {
        if attempt <= 1 {
            return SimDuration::ZERO;
        }
        let exp = (attempt - 2).min(u32::BITS - 1);
        let factor = 1u64.checked_shl(exp).unwrap_or(u64::MAX);
        let ns = self.base_backoff.as_nanos().saturating_mul(factor);
        SimDuration::from_nanos(ns).min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_has_no_backoff() {
        assert_eq!(RetryPolicy::default().backoff_before(1), SimDuration::ZERO);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(5),
            resume_from_partial: true,
        };
        assert_eq!(p.backoff_before(2), SimDuration::from_secs(1));
        assert_eq!(p.backoff_before(3), SimDuration::from_secs(2));
        assert_eq!(p.backoff_before(4), SimDuration::from_secs(4));
        assert_eq!(p.backoff_before(5), SimDuration::from_secs(5)); // capped
        assert_eq!(p.backoff_before(60), SimDuration::from_secs(5)); // shift-safe
    }

    #[test]
    fn no_retry_is_single_attempt() {
        assert!(!RetryPolicy::from_scratch().resume_from_partial);
    }

    #[test]
    fn with_max_attempts_floors_at_one() {
        assert_eq!(RetryPolicy::default().with_max_attempts(0).max_attempts, 1);
    }
}
