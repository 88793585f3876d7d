//! Latency sample accumulation and percentile extraction.
//!
//! The [`Recorder`](crate::Recorder) histograms keep only running moments
//! (count/sum/min/max) — cheap, but no percentiles. Load generators and
//! service benchmarks need p50/p95/p99, so they collect raw samples in a
//! [`SampleSeries`] and summarize at the end. Samples are kept exactly
//! (one `f64` each); at load-test scales (≤ millions of requests) that is
//! a few megabytes, and exact order statistics beat sketch error bars.

use serde::{Deserialize, Serialize};

/// An accumulating series of numeric samples (e.g. latencies in seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSeries {
    samples: Vec<f64>,
}

/// Summary statistics of a [`SampleSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleSummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl SampleSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty series with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        SampleSeries { samples: Vec::with_capacity(capacity) }
    }

    /// Records one sample. Non-finite values are dropped (a poisoned
    /// timing measurement must not corrupt every percentile).
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Absorbs all samples from `other`.
    pub fn merge(&mut self, other: &SampleSeries) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) by the nearest-rank method, or
    /// `None` for an empty series.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite samples are never recorded"));
        Some(nearest_rank(&sorted, q))
    }

    /// Summarizes the series, or `None` if it is empty.
    ///
    /// Sorts once and reads every percentile off the sorted copy, so it is
    /// cheaper than repeated [`quantile`](Self::quantile) calls.
    pub fn summary(&self) -> Option<SampleSummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite samples are never recorded"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        Some(SampleSummary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean: sum / count as f64,
            p50: nearest_rank(&sorted, 0.50),
            p95: nearest_rank(&sorted, 0.95),
            p99: nearest_rank(&sorted, 0.99),
        })
    }
}

impl Extend<f64> for SampleSeries {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// Nearest-rank percentile on an already-sorted non-empty slice:
/// the smallest value with at least `⌈q·n⌉` samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_has_no_summary() {
        let series = SampleSeries::new();
        assert!(series.is_empty());
        assert_eq!(series.summary(), None);
        assert_eq!(series.quantile(0.5), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut series = SampleSeries::new();
        series.record(3.25);
        let s = series.summary().unwrap();
        assert_eq!((s.count, s.min, s.max, s.mean), (1, 3.25, 3.25, 3.25));
        assert_eq!((s.p50, s.p95, s.p99), (3.25, 3.25, 3.25));
    }

    #[test]
    fn percentiles_match_nearest_rank_on_1_to_100() {
        let mut series = SampleSeries::new();
        // shuffled insertion order must not matter
        for i in (1..=100).rev() {
            series.record(i as f64);
        }
        let s = series.summary().unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(series.quantile(0.0), Some(1.0));
        assert_eq!(series.quantile(1.0), Some(100.0));
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut series = SampleSeries::new();
        series.extend([1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]);
        assert_eq!(series.len(), 3);
        assert_eq!(series.summary().unwrap().max, 3.0);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = SampleSeries::new();
        a.extend((1..=50).map(f64::from));
        let mut b = SampleSeries::new();
        b.extend((51..=100).map(f64::from));
        a.merge(&b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.summary().unwrap().p95, 95.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn out_of_range_quantile_panics() {
        let mut series = SampleSeries::new();
        series.record(1.0);
        let _ = series.quantile(1.5);
    }
}
