//! Op accounting and percentiles.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank, so a tail figure never rests on a handful
/// of ops.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `sorted` (ascending).
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond the
/// rank: with `n` samples the rank is `ceil(p/100 · n)` and the samples
/// beyond it number `n - rank`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Ops per throughput slice: `ops_per_s` is the median over consecutive
/// slices of this many ops, so a burst of host noise shorter than half
/// the run moves it little.
pub const RATE_SLICE: usize = 50;

/// Ops per latency slice: `op_p50_ms` and `op_p95_ms` are medians over
/// consecutive slices of this many ops, each slice large enough that
/// its p95 has [`MIN_BEYOND`] samples beyond it.
pub const LATENCY_SLICE: usize = 200;

/// Median by nearest rank, without the tail rule (for deterministic
/// summaries such as simulated latency).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (n > 0).then(|| sorted[n.div_ceil(2) - 1])
}

/// Wall-clock record of the ops of one timed phase.
///
/// A failed op counts as attempted and failed, and its latency sample is
/// `+inf`: it misses every latency limit, so it can only push the
/// percentiles up.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    samples_ms: Vec<f64>,
    failed: usize,
    busy_s: f64,
    txs: u64,
}

impl OpLog {
    /// Records a completed op that took `ms` and committed `txs`
    /// transactions.
    pub fn ok(&mut self, ms: f64, txs: u64) {
        self.samples_ms.push(ms);
        self.busy_s += ms / 1_000.0;
        self.txs += txs;
    }

    /// Records an op that errored or failed a check after `ms`.
    pub fn fail(&mut self, ms: f64) {
        self.samples_ms.push(f64::INFINITY);
        self.busy_s += ms / 1_000.0;
        self.failed += 1;
    }

    /// Ops attempted.
    pub fn attempted(&self) -> usize {
        self.samples_ms.len()
    }

    /// Ops that failed.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Failed ops over attempted ops (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.samples_ms.is_empty() {
            0.0
        } else {
            self.failed as f64 / self.samples_ms.len() as f64
        }
    }

    /// Seconds spent inside ops.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Completed ops per second of op time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.busy_s
    }

    /// Median over consecutive `slice`-op slices of each slice's ops per
    /// second; a trailing partial slice is dropped. `None` with fewer
    /// than `slice` ops.
    pub fn sliced_ops_per_s(&self, slice: usize) -> Option<f64> {
        let rates: Vec<f64> = self
            .samples_ms
            .chunks_exact(slice)
            .map(|s| slice as f64 * 1_000.0 / s.iter().sum::<f64>())
            .collect();
        median(&rates)
    }

    /// Median over consecutive `slice`-op slices of each slice's
    /// nearest-rank percentile `p` (see [`percentile`]); a trailing
    /// partial slice is dropped. `None` unless every slice supports `p`.
    pub fn sliced_percentile_ms(&self, slice: usize, p: f64) -> Option<f64> {
        let per_slice: Option<Vec<f64>> = self
            .samples_ms
            .chunks_exact(slice)
            .map(|s| {
                let mut sorted = s.to_vec();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, p)
            })
            .collect();
        per_slice.and_then(|v| median(&v))
    }

    /// Committed transactions per second of op time.
    pub fn txs_per_s(&self) -> f64 {
        self.txs as f64 / self.busy_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs = ramp(200);
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        assert_eq!(percentile(&ramp(201), 95.0), Some(191.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_rank() {
        // 200 samples: rank 190 leaves exactly 10 beyond it.
        assert!(percentile(&ramp(200), 95.0).is_some());
        // 199 samples: rank ceil(189.05) = 190 leaves 9.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_ops_count_against_attempts_and_miss_latency() {
        let mut log = OpLog::default();
        for _ in 0..190 {
            log.ok(1.0, 40);
        }
        for _ in 0..10 {
            log.fail(2.0);
        }
        assert_eq!(log.attempted(), 200);
        assert_eq!(log.failed(), 10);
        assert_eq!(log.failed_ratio(), 0.05);
        // Failures are slower than any success, so p95 stays a success
        // but nothing beyond it is.
        assert_eq!(log.sliced_percentile_ms(200, 95.0), Some(1.0));
        assert_eq!(log.sliced_percentile_ms(200, 96.0), None);
        // Only completed ops count as throughput; all op time counts.
        assert!((log.busy_s() - 0.21).abs() < 1e-12);
        assert!((log.ops_per_s() - 190.0 / 0.21).abs() < 1e-9);
        assert!((log.txs_per_s() - 190.0 * 40.0 / 0.21).abs() < 1e-6);
        // A slice holding a failure has no finite rate.
        assert_eq!(log.sliced_ops_per_s(200), Some(0.0));
    }

    #[test]
    fn slices_take_the_median_and_drop_the_remainder() {
        let mut log = OpLog::default();
        // Three 4-op slices at 1, 2 and 4 ms per op, then 2 spare ops.
        for ms in [1.0, 2.0, 4.0] {
            for _ in 0..4 {
                log.ok(ms, 0);
            }
        }
        log.ok(100.0, 0);
        log.ok(100.0, 0);
        assert_eq!(log.sliced_ops_per_s(4), Some(500.0));
        assert_eq!(log.sliced_ops_per_s(20), None);

        let mut log = OpLog::default();
        for slice in 0..3 {
            for i in 1..=200 {
                log.ok(f64::from(i) + f64::from(slice) * 1_000.0, 0);
            }
        }
        assert_eq!(log.sliced_percentile_ms(200, 95.0), Some(1_190.0));
        assert_eq!(log.sliced_percentile_ms(200, 50.0), Some(1_100.0));
        assert_eq!(
            log.sliced_percentile_ms(100, 95.0),
            None,
            "9 beyond p95 of 100"
        );
    }

    #[test]
    fn failures_reach_the_median_when_they_are_common() {
        let mut log = OpLog::default();
        for _ in 0..50 {
            log.ok(1.0, 0);
            log.fail(1.0);
            log.fail(1.0);
        }
        assert_eq!(log.sliced_percentile_ms(150, 50.0), Some(f64::INFINITY));
        assert_eq!(log.failed_ratio(), 100.0 / 150.0);
    }
}
