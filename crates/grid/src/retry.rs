//! Capped exponential backoff with deterministic jitter.
//!
//! The executor retries failed store writes under a [`RetryPolicy`] (a
//! simulation is deterministic and never retried). The schedule is a pure
//! function of the policy and a caller-supplied token (the cell's content
//! hash folded to a `u64`), so tests can assert the exact delays without a
//! clock and two machines retrying the same cell spread their attempts
//! identically — but cells with different hashes decorrelate, which keeps
//! a shared store from being hammered in lockstep after a common-mode
//! failure.

use crate::hash::unit01;

/// How (and how often) a failed operation is retried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Ceiling the exponential schedule saturates at, in milliseconds.
    pub cap_ms: u64,
    /// Jitter fraction in `[0, 1]`: each delay lands in
    /// `[raw·(1−j), raw·(1+j))`, deterministically per (token, retry).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_ms: 250,
            cap_ms: 10_000,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Total attempts this policy allows.
    pub fn attempts(&self) -> u32 {
        self.max_retries + 1
    }

    /// The un-jittered delay before retry number `retry` (0-based):
    /// `min(base · 2^retry, cap)`.
    pub fn raw_delay_ms(&self, retry: u32) -> u64 {
        let factor = 1u64.checked_shl(retry).unwrap_or(u64::MAX);
        self.base_ms.saturating_mul(factor).min(self.cap_ms)
    }

    /// The jittered delay before retry number `retry`, deterministic in
    /// `(self, retry, token)`.
    pub fn delay_ms(&self, retry: u32, token: u64) -> u64 {
        let raw = self.raw_delay_ms(retry) as f64;
        let u = unit01(format!("retry|{token}|{retry}").as_bytes());
        let scaled = raw * (1.0 - self.jitter + 2.0 * self.jitter * u);
        scaled.round() as u64
    }

    /// The whole delay schedule for one operation: `max_retries` entries,
    /// `schedule_ms(t)[i]` being the pause before retry `i`.
    pub fn schedule_ms(&self, token: u64) -> Vec<u64> {
        (0..self.max_retries)
            .map(|r| self.delay_ms(r, token))
            .collect()
    }

    /// Sleeps for the delay before retry `retry`. The schedule itself stays
    /// testable without a clock through [`Self::delay_ms`].
    pub fn sleep_before_retry(&self, retry: u32, token: u64) {
        let ms = self.delay_ms(retry, token);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_schedule_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 6,
            base_ms: 100,
            cap_ms: 1_600,
            jitter: 0.0,
        };
        let raw: Vec<u64> = (0..6).map(|r| p.raw_delay_ms(r)).collect();
        assert_eq!(raw, vec![100, 200, 400, 800, 1_600, 1_600]);
        // Zero jitter: the jittered schedule equals the raw one.
        assert_eq!(p.schedule_ms(7), raw);
    }

    #[test]
    fn huge_retry_counts_saturate_instead_of_overflowing() {
        let p = RetryPolicy {
            max_retries: 80,
            base_ms: 100,
            cap_ms: 5_000,
            jitter: 0.0,
        };
        assert_eq!(p.raw_delay_ms(63), 5_000);
        assert_eq!(p.raw_delay_ms(64), 5_000);
        assert_eq!(p.raw_delay_ms(79), 5_000);
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let p = RetryPolicy {
            max_retries: 8,
            base_ms: 200,
            cap_ms: 4_000,
            jitter: 0.25,
        };
        for token in [0u64, 1, 42, u64::MAX] {
            let schedule = p.schedule_ms(token);
            assert_eq!(schedule, p.schedule_ms(token), "schedule must be pure");
            for (retry, &ms) in schedule.iter().enumerate() {
                let raw = p.raw_delay_ms(retry as u32) as f64;
                assert!(
                    (ms as f64) >= (raw * 0.75).floor() && (ms as f64) <= (raw * 1.25).ceil(),
                    "retry {retry} delay {ms} outside ±25% of {raw}"
                );
            }
        }
        // Different tokens decorrelate.
        assert_ne!(p.schedule_ms(1), p.schedule_ms(2));
    }

    #[test]
    fn none_means_single_attempt() {
        let p = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.attempts(), 1);
        assert!(p.schedule_ms(9).is_empty());
    }
}
