//! Bounded retry/backoff bookkeeping for guard recoveries.

use crate::LR_BACKOFF;

/// What the trainer should do for one retry attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPlan {
    /// 1-based attempt number.
    pub attempt: usize,
    /// Cumulative learning-rate scale for this attempt relative to the
    /// original configuration (e.g. 0.25 on the second retry at backoff 0.5).
    pub lr_scale: f64,
    /// Salt for the deterministic RNG reseed; distinct per attempt so a
    /// retry does not replay the exact stochastic trajectory that diverged.
    pub reseed_salt: u64,
}

/// Counts rollback/retry attempts against a bound and prices each one.
///
/// The policy is pure bookkeeping — the trainer owns the actual rollback
/// (via `crates/ckpt`) and the LR/RNG mutations.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    max_retries: usize,
    attempts: usize,
}

impl RecoveryPolicy {
    /// A fresh policy allowing `max_retries` attempts, scaling the learning
    /// rate by [`LR_BACKOFF`] on each.
    pub fn new(max_retries: usize) -> Self {
        RecoveryPolicy {
            max_retries,
            attempts: 0,
        }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Cumulative learning-rate scale after the attempts consumed so far.
    pub fn lr_scale(&self) -> f64 {
        LR_BACKOFF.powi(self.attempts as i32)
    }

    /// Consume one retry. `None` once the bound is exhausted — the trainer
    /// then finishes on last-good parameters and marks the run degraded.
    pub fn next_retry(&mut self) -> Option<RetryPlan> {
        if self.attempts >= self.max_retries {
            return None;
        }
        self.attempts += 1;
        Some(RetryPlan {
            attempt: self.attempts,
            lr_scale: LR_BACKOFF,
            reseed_salt: (self.attempts as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_are_bounded_and_backoff_compounds() {
        let mut p = RecoveryPolicy::new(2);
        let a = p.next_retry().unwrap();
        assert_eq!(a.attempt, 1);
        assert_eq!(a.lr_scale, 0.5);
        let b = p.next_retry().unwrap();
        assert_eq!(b.attempt, 2);
        assert_eq!(b.lr_scale, 0.5);
        assert_eq!(p.lr_scale(), 0.25, "cumulative scale compounds");
        assert_eq!(p.next_retry(), None, "third attempt exceeds the bound");
        assert_eq!(p.attempts(), 2);
    }

    #[test]
    fn zero_retries_degrades_immediately() {
        let mut p = RecoveryPolicy::new(0);
        assert_eq!(p.next_retry(), None);
        assert_eq!(p.lr_scale(), 1.0);
    }

    #[test]
    fn reseed_salts_are_distinct_and_deterministic() {
        let mut p = RecoveryPolicy::new(3);
        let s1 = p.next_retry().unwrap().reseed_salt;
        let s2 = p.next_retry().unwrap().reseed_salt;
        assert_ne!(s1, s2);
        let mut q = RecoveryPolicy::new(3);
        assert_eq!(q.next_retry().unwrap().reseed_salt, s1);
    }
}
