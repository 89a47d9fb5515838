//! The ladder's own latency recorder.
//!
//! Rules it keeps (and `server_load.rs` does not): a percentile is given
//! only when at least ten samples lie beyond it; every figure carries its
//! sample count; a failed or refused statement stays in the denominator
//! and counts as slower than any latency limit; an open-loop latency runs
//! from the instant the statement was due, not from when it was sent.

use std::collections::BTreeMap;
use std::time::Duration;

/// Samples that must lie beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// What a statement is, for the purpose of the metric it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Q1,
    /// The DML cycle's other two Q1s — after the first 1 % of edits, and
    /// on the freshly compacted table. Timed and checked; they feed the
    /// scan rate and the UNION READ overhead, not `q1_p50_ms`.
    Q1Light,
    Q1Clean,
    Count,
    Select,
    Edit,
    /// The 5 % UPDATE of the DML cycle: an EDIT-plan statement that is
    /// timed and checked but feeds no metric of its own.
    Edit5,
    Delete,
    Insert,
    Overwrite,
    Compact,
    /// `BEGIN; UPDATE; COMMIT` as one unit.
    Txn,
}

impl Kind {
    pub fn is_full_scan_read(self) -> bool {
        matches!(self, Kind::Q1 | Kind::Q1Light | Kind::Q1Clean | Kind::Count)
    }
}

/// Latencies of one statement kind, in milliseconds. A failure is stored
/// as infinity: it sorts past every real latency.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, latency: Duration) {
        self.ms.push(latency.as_secs_f64() * 1e3);
    }

    pub fn push_failed(&mut self) {
        self.ms.push(f64::INFINITY);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn failed(&self) -> usize {
        self.ms.iter().filter(|x| x.is_infinite()).count()
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().filter(|x| x.is_finite()).sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median; `None` without samples.
    pub fn p50(&self) -> Option<f64> {
        percentile(&self.sorted(), 0.50, 0)
    }

    /// The `q` quantile, or `None` when fewer than [`BEYOND`] samples lie
    /// beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        percentile(&self.sorted(), q, BEYOND)
    }
}

/// Nearest-rank percentile of an ascending slice, refused unless `beyond`
/// samples sort after the chosen one.
pub fn percentile(sorted: &[f64], q: f64, beyond: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= beyond).then(|| sorted[rank - 1])
}

/// Median of values that are already figures (round times, set-up times).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5, 0)
}

/// Everything one thread of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub by_kind: BTreeMap<Kind, Samples>,
    /// Oracle mismatches (the statement ran, its answer was wrong).
    pub mismatches: u64,
    /// Rows covered by full-scan reads, and the time spent in them.
    pub scan_rows: u64,
    pub scan_busy: Duration,
    /// Seconds of each completed round.
    pub rounds: Vec<f64>,
    /// Plans the cost model chose: (EDIT, OVERWRITE).
    pub plans: (u64, u64),
}

impl Recorder {
    pub fn ok(&mut self, kind: Kind, latency: Duration) {
        self.by_kind.entry(kind).or_default().push(latency);
    }

    pub fn failed(&mut self, kind: Kind) {
        self.by_kind.entry(kind).or_default().push_failed();
    }

    pub fn scanned(&mut self, rows: u64, latency: Duration) {
        self.scan_rows += rows;
        self.scan_busy += latency;
    }

    pub fn merge(&mut self, other: &Recorder) {
        for (kind, samples) in &other.by_kind {
            self.by_kind.entry(*kind).or_default().extend(samples);
        }
        self.mismatches += other.mismatches;
        self.scan_rows += other.scan_rows;
        self.scan_busy += other.scan_busy;
        self.rounds.extend_from_slice(&other.rounds);
        self.plans.0 += other.plans.0;
        self.plans.1 += other.plans.1;
    }

    pub fn attempted(&self) -> u64 {
        self.by_kind.values().map(|s| s.len() as u64).sum()
    }

    /// Statements that failed or were refused, plus wrong answers.
    pub fn failures(&self) -> u64 {
        self.by_kind
            .values()
            .map(|s| s.failed() as u64)
            .sum::<u64>()
            + self.mismatches
    }

    pub fn samples(&self, kind: Kind) -> Samples {
        self.by_kind.get(&kind).cloned().unwrap_or_default()
    }

    /// Time spent inside statements, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.by_kind.values().map(Samples::sum_ms).sum::<f64>() / 1e3
    }
}

/// Send instants of an open loop: `rate` statements per second for
/// `seconds`, evenly spaced from zero. Latency is timed from these.
pub fn open_loop_schedule(rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).floor() as usize;
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(Duration::from_millis(i as u64));
        }
        s
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 199 samples is rank 190: nine beyond. Of 200: rank 190, ten.
        assert_eq!(samples(199).tail(0.95), None);
        assert_eq!(samples(200).tail(0.95), Some(190.0));
        assert_eq!(samples(192).tail(0.999), None);
        assert_eq!(samples(3).p50(), Some(2.0));
        assert_eq!(Samples::default().p50(), None);
    }

    #[test]
    fn failures_sort_past_every_latency_and_stay_counted() {
        let mut s = samples(20);
        for _ in 0..15 {
            s.push_failed();
        }
        assert_eq!(s.len(), 35);
        assert_eq!(s.failed(), 15);
        // Rank 18 of 35 is still a real latency; rank 21 and up is not.
        assert_eq!(s.p50(), Some(18.0));
        assert_eq!(s.tail(0.60), Some(f64::INFINITY));
    }

    #[test]
    fn the_open_loop_schedule_is_fixed_by_rate_alone() {
        let s = open_loop_schedule(200.0, 0.05);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], Duration::ZERO);
        assert_eq!(s[9], Duration::from_millis(45));
        assert_eq!(open_loop_schedule(800.0, 10.0).len(), 8000);
    }
}
