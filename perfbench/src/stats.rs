//! Order statistics over raw samples and the failure tally every
//! workload reports.
//!
//! Percentiles come from the sorted samples themselves, never from
//! histogram buckets, so a change smaller than a bucket width still moves
//! them.

/// Samples a tail percentile is taken from once the run is this large:
/// at 1,000 samples, p99 has exactly ten samples beyond it.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The reported tail of `samples` and the percentile it stands for.
///
/// This is p99 (nearest rank) when at least ten samples lie beyond it,
/// which holds from 1,000 samples on. Smaller runs report the highest
/// percentile that still has ten samples beyond it; a run of at most
/// eleven samples reports its minimum, the sample with the most beyond
/// it, so the reported rank never jumps as the run grows. `None` when
/// empty.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    let index = p99.min(n.saturating_sub(TAIL_SAMPLES_BEYOND + 1));
    Some((sorted[index], 100.0 * (index + 1) as f64 / n as f64))
}

/// Completion rates (per second) over consecutive blocks of `block`
/// completions, from completion times in seconds: block `j` spans the
/// completions `j·block` to `(j+1)·block`. Blocks of equal work keep the
/// rates continuous, unlike counts per fixed window.
pub fn block_rates(completions: &[f64], block: usize) -> Vec<f64> {
    let sorted = sorted(completions);
    sorted
        .iter()
        .step_by(block.max(1))
        .zip(sorted.iter().skip(block.max(1)).step_by(block.max(1)))
        .filter(|(start, end)| end > start)
        .map(|(start, end)| block as f64 / (end - start))
        .collect()
}

/// The median over consecutive blocks of `block` samples, in the order
/// given, of each block's [`tail`], with the percentile the blocks'
/// tails stand for; the plain [`tail`] for runs shorter than two blocks.
/// One burst of host noise moves one block's tail, not the median.
/// Leftover samples past the last whole block are not used.
pub fn blocked_tail(samples: &[f64], block: usize) -> Option<(f64, f64)> {
    if samples.len() < 2 * block.max(1) {
        return tail(samples);
    }
    let tails: Vec<(f64, f64)> = samples.chunks_exact(block).filter_map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|&(value, _)| value).collect();
    Some((median(&values)?, tails[0].1))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Operations attempted and failed in one run. Every check a workload
/// makes counts as an attempt, so `failed / attempted` is the run's
/// failure fraction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Attempts that errored or failed their check.
    pub failed: u64,
}

/// Failures described on standard error per run; the rest are only counted.
const FAILURES_DESCRIBED: u64 = 8;

impl Tally {
    /// Counts one attempt that succeeded iff `ok`; the first few failures
    /// are described on standard error with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            if self.failed < FAILURES_DESCRIBED {
                eprintln!("perfbench: failed: {}", what());
            }
            self.failed += 1;
        }
    }

    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; 0 for an empty tally.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled so the functions must sort
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        // 1..=1000: p99 is the 990th value, with exactly ten beyond it
        assert_eq!(tail(&ramp(1000)), Some((990.0, 99.0)));
        // 1..=5000: p99 is the 4950th value, fifty beyond it
        assert_eq!(tail(&ramp(5000)), Some((4950.0, 99.0)));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_in_small_runs() {
        for n in [11, 12, 50, 500, 999] {
            let (value, percentile) = tail(&ramp(n)).unwrap();
            let beyond = ramp(n).iter().filter(|&&x| x > value).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert_eq!(value, (n - 10) as f64, "n = {n}");
            assert!((percentile - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
        // the rule tightens toward p99 as the run grows
        assert!(tail(&ramp(999)).unwrap().1 < 99.0);
    }

    #[test]
    fn tail_of_tiny_runs_is_the_minimum() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[5.0]), Some((5.0, 100.0)));
        assert_eq!(tail(&ramp(10)), Some((1.0, 10.0)));
        assert_eq!(tail(&ramp(11)).unwrap().0, 1.0);
        assert_eq!(tail(&ramp(12)).unwrap().0, 2.0);
    }

    #[test]
    fn blocked_tail_takes_the_median_block() {
        // short runs fall back to the plain rule
        assert_eq!(blocked_tail(&ramp(1500), 1000), tail(&ramp(1500)));
        // three blocks of 1..=1000, one of them with a burst of slow
        // samples: the burst moves its own block only
        let mut samples: Vec<f64> = (0..3).flat_map(|_| ramp(1000)).collect();
        for slow in &mut samples[1000..1100] {
            *slow += 1e6;
        }
        samples.push(1e9); // a partial block is left out
        assert_eq!(blocked_tail(&samples, 1000), Some((990.0, 99.0)));
        assert!(tail(&samples).unwrap().0 > 1e6, "the plain tail sees the burst");
    }

    #[test]
    fn block_rates_span_equal_work() {
        assert!(block_rates(&[], 2).is_empty());
        // blocks of two completions: 0.0..0.5 and 0.5..1.5; the last
        // completion starts a block that never ends
        let times = [0.5, 0.0, 0.25, 1.5, 0.75, 2.0];
        assert_eq!(block_rates(&times, 2), vec![4.0, 2.0]);
        assert_eq!(block_rates(&times, 3), vec![4.0]);
        assert_eq!(block_rates(&times, 6), Vec::<f64>::new());
    }

    #[test]
    fn tally_counts_every_check_and_failure() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        for i in 0..8 {
            tally.check(i % 4 != 0, || format!("check {i}"));
        }
        assert_eq!(tally, Tally { attempted: 8, failed: 2 });
        assert_eq!(tally.failed_frac(), 0.25);
        tally.absorb(Tally { attempted: 2, failed: 0 });
        assert_eq!(tally, Tally { attempted: 10, failed: 2 });
        assert_eq!(tally.failed_frac(), 0.2);
    }
}
