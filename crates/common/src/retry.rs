//! Deterministic retry with exponential backoff.
//!
//! The self-healing layer (dfs block pipeline, kvstore WAL/flush, DualTable
//! compaction) retries operations that fail with a
//! [transient](crate::error::ErrorClass::Transient) error. Two properties
//! matter for a reproduction that must be testable under a seeded fault
//! plan:
//!
//! * **No wall-clock randomness.** Backoff delays are *logical ticks*
//!   derived purely from the policy's jitter seed and the attempt number.
//!   Nothing sleeps; the ticks are recorded in
//!   [`RetryCounters::backoff_ticks`] so
//!   tests (and `SHOW HEALTH`) can observe how much delay a production
//!   deployment would have paid. A real HDFS/HBase client would sleep the
//!   same schedule (`dfs.client.retry.*`, `hbase.client.pause`).
//! * **Bounded.** Permanent and corrupt errors are never retried — a
//!   crashed process stays crashed and bad bytes stay bad; those take the
//!   recovery and failover paths instead.

use crate::error::{ErrorClass, Result};

crate::counters! {
    /// What a tier's retry loops did — the one counter group every
    /// retrying tier (dfs, kv, table) embeds.
    pub struct RetryCounters => RetrySnapshot {
        /// Retries issued after transient failures.
        retries,
        /// Operations that succeeded only after retrying.
        retry_successes,
        /// Operations whose retries ran out while still failing transiently.
        retry_exhausted,
        /// Total logical backoff delay paid across all retries.
        backoff_ticks,
    }
}

/// A deterministic retry/backoff policy.
///
/// `Copy` so it can live inside `Copy` config structs (e.g. `DfsConfig`).
/// The default policy makes four attempts — one more than the longest
/// outage [`FaultPlan::seeded`](crate::fault::FaultPlan::seeded) schedules
/// (three consecutive failures), so under transient-only chaos a retried
/// operation always eventually succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` disables retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in logical ticks.
    pub base_backoff_ticks: u64,
    /// Ceiling on the per-retry backoff after exponential growth.
    pub max_backoff_ticks: u64,
    /// Seed for the deterministic jitter mixed into each backoff.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ticks: 10,
            max_backoff_ticks: 1000,
            jitter_seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every error surfaces immediately.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// `true` iff this policy will retry at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The logical backoff before retry number `retry` (1-based):
    /// exponential growth from the base, capped, plus deterministic jitter
    /// of up to 25% derived from the seed and the retry number.
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        debug_assert!(retry >= 1);
        let exp = self
            .base_backoff_ticks
            .saturating_mul(1u64 << (retry - 1).min(32))
            .min(self.max_backoff_ticks);
        // splitmix64 of (seed, retry): stateless, so concurrent retry
        // loops sharing one policy never contend or diverge.
        let mut z = self
            .jitter_seed
            .wrapping_add(retry as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        exp + z % (exp / 4).max(1)
    }

    /// Runs `op`, retrying while it fails with a
    /// [transient](ErrorClass::Transient) error and attempts remain.
    /// Outcomes are recorded in `counters`; the final error (transient or
    /// not) is returned unchanged so callers can still classify it.
    pub fn run<T>(&self, counters: &RetryCounters, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 1;
        loop {
            match op() {
                Ok(v) => {
                    if attempt > 1 {
                        counters.retry_successes.inc();
                    }
                    return Ok(v);
                }
                Err(e) if e.class() == ErrorClass::Transient && attempt < self.max_attempts => {
                    counters.retries.inc();
                    counters.backoff_ticks.add(self.backoff_ticks(attempt));
                    attempt += 1;
                }
                Err(e) => {
                    if e.class() == ErrorClass::Transient && self.enabled() {
                        counters.retry_exhausted.inc();
                    }
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn retries_transient_until_success() {
        let health = RetryCounters::default();
        let policy = RetryPolicy::default();
        let mut fails = 3;
        let out = policy.run(&health, || {
            if fails > 0 {
                fails -= 1;
                Err(Error::unavailable("blip"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        let snap = health.snapshot();
        assert_eq!(snap.retries, 3);
        assert_eq!(snap.retry_successes, 1);
        assert_eq!(snap.retry_exhausted, 0);
        assert!(snap.backoff_ticks > 0);
    }

    #[test]
    fn does_not_retry_permanent_errors() {
        let health = RetryCounters::default();
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = policy.run(&health, || {
            calls += 1;
            Err(Error::injected("WriteError"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        assert_eq!(health.snapshot().retries, 0);
    }

    #[test]
    fn exhaustion_surfaces_last_transient_error() {
        let health = RetryCounters::default();
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = policy.run(&health, || {
            calls += 1;
            Err(Error::unavailable("down hard"))
        });
        assert!(matches!(out, Err(Error::Unavailable(_))));
        assert_eq!(calls, policy.max_attempts);
        let snap = health.snapshot();
        assert_eq!(snap.retries, (policy.max_attempts - 1) as u64);
        assert_eq!(snap.retry_exhausted, 1);
    }

    #[test]
    fn disabled_policy_never_retries() {
        let health = RetryCounters::default();
        let policy = RetryPolicy::disabled();
        let mut calls = 0;
        let out: Result<()> = policy.run(&health, || {
            calls += 1;
            Err(Error::unavailable("blip"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        let snap = health.snapshot();
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.retry_exhausted, 0);
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let policy = RetryPolicy::default();
        let a: Vec<u64> = (1..=3).map(|r| policy.backoff_ticks(r)).collect();
        let b: Vec<u64> = (1..=3).map(|r| policy.backoff_ticks(r)).collect();
        assert_eq!(a, b);
        assert!(a[0] < a[1] && a[1] < a[2]);
        let capped = policy.backoff_ticks(30);
        assert!(capped <= policy.max_backoff_ticks + policy.max_backoff_ticks / 4);
    }
}
