//! Shared driver for crash-point simulation matrices.
//!
//! The pattern (borrowed from how LSM engines validate recovery): run a
//! seeded workload once with [`crate::FaultPlan`] trace recording on to
//! learn the total I/O-operation count, then re-run the same workload once
//! per operation index `k`, injecting a crash at operation `k`, reopening
//! from the surviving persistent state and checking invariants.
//!
//! This module owns the workload-agnostic piece: the *runner* that spreads
//! the points over the machine's cores and folds per-point results into a
//! [`CrashMatrixReport`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of one crash-matrix run.
#[derive(Debug, Default)]
pub struct CrashMatrixReport {
    /// Crash points attempted.
    pub points: usize,
    /// Points where the scheduled fault actually fired (the workload
    /// reached operation `k` and died there).
    pub crashes_injected: usize,
    /// Points where the workload finished before operation `k` — the
    /// crash never fired, the run degenerates to a clean end-to-end check.
    pub clean_runs: usize,
    /// Human-readable invariant violations, one per failed point, in point
    /// order.
    pub violations: Vec<String>,
}

impl CrashMatrixReport {
    /// `true` iff every point upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `run` once per crash point, folding results into a report.
///
/// `run(k)` must execute the workload with a crash scheduled at operation
/// `k`, recover, and check invariants. It returns `Ok(true)` if the crash
/// fired, `Ok(false)` if the workload completed before reaching `k`, and
/// `Err(description)` on an invariant violation (the description is
/// recorded; the matrix keeps going so one report lists every failure).
/// Each run must build its own stack: the points run on one thread per
/// core, each taking the next point as it finishes one.
pub fn run_crash_matrix(
    points: &[u64],
    run: impl Fn(u64) -> std::result::Result<bool, String> + Sync,
) -> CrashMatrixReport {
    // Hands out point indices and publishes nothing else: `Relaxed`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut outcomes = Vec::new();
        while let Some(&k) = points.get(next.fetch_add(1, Ordering::Relaxed)) {
            outcomes.push((k, run(k)));
        }
        outcomes
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    outcomes.sort_by_key(|&(k, _)| k);
    let mut report = CrashMatrixReport {
        points: points.len(),
        ..CrashMatrixReport::default()
    };
    for (k, outcome) in outcomes {
        match outcome {
            Ok(true) => report.crashes_injected += 1,
            Ok(false) => report.clean_runs += 1,
            Err(violation) => report
                .violations
                .push(format!("crash point {k}: {violation}")),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_folds_outcomes_and_keeps_going_after_violations() {
        let pts = [1, 2, 3, 4, 5];
        let report = run_crash_matrix(&pts, |k| match k {
            1 | 3 => Ok(true),
            2 => Ok(false),
            _ => Err("oracle divergence".into()),
        });
        assert_eq!(report.points, 5);
        assert_eq!(report.crashes_injected, 2);
        assert_eq!(report.clean_runs, 1);
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].contains("crash point 4"));
        assert!(report.violations[1].contains("crash point 5"));
        assert!(!report.ok());
    }
}
