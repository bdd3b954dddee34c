//! Per-second counts and summary statistics.
//!
//! The statistics collector counts completed and requested requests per
//! whole second of the run, the series the monitoring view plots and the
//! rate-tracking checks compare.

use crate::clock::{Micros, MICROS_PER_SEC};

/// Events per whole second since the run started: slot `s` counts the
/// events of `[s, s + 1)` s, and a second with none reads 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Count `n` events at time `t` (µs since run start).
    pub fn add(&mut self, t: Micros, n: u64) {
        let second = (t / MICROS_PER_SEC) as usize;
        if second >= self.counts.len() {
            self.counts.resize(second + 1, 0);
        }
        self.counts[second] += n;
    }

    /// Events per second for each second, oldest first.
    pub fn rates(&self) -> Vec<f64> {
        self.counts.iter().map(|&n| n as f64).collect()
    }

    /// Add another series' counts, second for second.
    pub fn merge(&mut self, other: &TimeSeries) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (n, o) in self.counts.iter_mut().zip(&other.counts) {
            *n += o;
        }
    }
}

/// Summary statistics over a slice of f64 values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary { n: 0, mean: 0.0, std_dev: 0.0, min: 0.0, max: 0.0 };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, std_dev: var.sqrt(), min, max }
    }

    /// Coefficient of variation (jitter measure used by the tunnel test).
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Mean absolute error between two equal-length series, used to quantify
/// how closely the delivered throughput tracks the requested schedule.
pub fn mean_abs_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_per_second() {
        let mut ts = TimeSeries::default();
        for i in 0..2_000u64 {
            ts.add(i * 1_000, 1); // 1 event per ms for 2 seconds
        }
        assert_eq!(ts.rates(), [1_000.0, 1_000.0]);
    }

    #[test]
    fn gaps_are_zero_seconds() {
        let mut ts = TimeSeries::default();
        ts.add(100, 1);
        ts.add(3 * MICROS_PER_SEC + 5, 1);
        assert_eq!(ts.rates(), [1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn add_counts_n_events_at_once() {
        let mut ts = TimeSeries::default();
        ts.add(MICROS_PER_SEC + 7, 70);
        ts.add(0, 50);
        ts.add(MICROS_PER_SEC, 0);
        assert_eq!(ts.rates(), [50.0, 70.0]);
    }

    #[test]
    fn merge_adds_second_for_second() {
        let mut a = TimeSeries::default();
        a.add(10, 1);
        a.add(MICROS_PER_SEC + 10, 1);
        let mut b = TimeSeries::default();
        b.add(20, 1);
        b.add(2 * MICROS_PER_SEC + 20, 1);
        a.merge(&b);
        assert_eq!(a.rates(), [2.0, 1.0, 1.0]);
        // Merging an empty series, or into one, changes nothing else.
        let before = a.clone();
        a.merge(&TimeSeries::default());
        assert_eq!(a, before);
        let mut empty = TimeSeries::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn summary_stats() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn mae() {
        assert_eq!(mean_abs_error(&[1.0, 2.0], &[2.0, 0.0]), 1.5);
        assert_eq!(mean_abs_error(&[], &[]), 0.0);
    }
}
