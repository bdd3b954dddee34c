//! Log-linear latency histogram (HdrHistogram-style).
//!
//! The statistics collector records one latency sample per executed
//! transaction; the control API reports averages and percentiles per
//! transaction type (§2.2.4). An exact list of samples would be unbounded,
//! so we bucket values with bounded relative error: each power-of-two range
//! is split into `1 << sub_bucket_bits` linear sub-buckets, giving a worst
//! case relative error of `2^-sub_bucket_bits`.

use std::ops::Range;

/// A histogram of non-negative integer values (e.g. latencies in µs).
#[derive(Debug, Clone)]
pub struct Histogram {
    sub_bucket_bits: u32,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create a histogram with the given precision (sub-bucket bits).
    /// 5 bits ≈ 3% worst-case relative error, plenty for latency reporting.
    pub fn new(sub_bucket_bits: u32) -> Self {
        assert!((1..=12).contains(&sub_bucket_bits));
        Histogram {
            sub_bucket_bits,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Default precision for latency recording.
    pub fn latency() -> Self {
        Histogram::new(5)
    }

    #[inline]
    fn bucket_index(&self, value: u64) -> usize {
        let sb = self.sub_bucket_bits;
        if value < (1 << sb) {
            return value as usize;
        }
        // Position of the highest set bit beyond the linear region.
        let exp = 63 - value.leading_zeros(); // >= sb
        let shift = exp - sb;
        let sub = (value >> shift) as usize & ((1usize << sb) - 1);
        // Each exponent range above the linear region contributes 2^sb slots.
        ((shift as usize + 1) << sb) + sub
    }

    /// Lower bound of the values mapped to bucket `idx`.
    fn bucket_low(&self, idx: usize) -> u64 {
        let sb = self.sub_bucket_bits as usize;
        if idx < (1 << sb) {
            return idx as u64;
        }
        let shift = (idx >> sb) - 1;
        let sub = idx & ((1 << sb) - 1);
        (((1 << sb) | sub) as u64) << shift
    }

    /// Representative (midpoint) value for bucket `idx`.
    fn bucket_mid(&self, idx: usize) -> u64 {
        let low = self.bucket_low(idx);
        let high = self.bucket_low(idx + 1);
        low + (high - low) / 2
    }

    /// Record a single value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 { 0 } else { self.min }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at the given percentile (0..=100). Returns 0 when empty.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let pct = pct.clamp(0.0, 100.0);
        let target = ((pct / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Clamp the bucket representative into the observed range so
                // p100 == recorded max for single-value histograms.
                return self.bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Merge another histogram into this one. Same-precision histograms
    /// merge bucket-for-bucket (lossless). A mismatched precision — e.g. a
    /// cluster peer built with different sub-bucket bits — re-buckets each
    /// of the other's non-empty buckets at its representative value, so the
    /// result stays within the coarser side's relative-error bound instead
    /// of panicking. Count, sum, min, and max are exact either way.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.sub_bucket_bits == other.sub_bucket_bits {
            if other.counts.len() > self.counts.len() {
                self.counts.resize(other.counts.len(), 0);
            }
            for (i, &c) in other.counts.iter().enumerate() {
                self.counts[i] += c;
            }
        } else {
            for (i, &c) in other.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let idx = self.bucket_index(other.bucket_mid(i));
                if idx >= self.counts.len() {
                    self.counts.resize(idx + 1, 0);
                }
                self.counts[idx] += c;
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset all recorded data, keeping precision.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Iterate `(bucket_low, count)` over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (self.bucket_low(i), *c))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::latency()
    }
}

/// A ring of per-second histograms for sliding-window percentiles.
///
/// `record(t, v)` lands `v` in the slot for `t`'s wall second, lazily
/// clearing the slot the first time a new second reuses it — no timer
/// thread, no extra locking (callers already hold their stats-shard
/// lock). `window(seconds)` merges a range of seconds into a plain
/// [`Histogram`] on demand, so the read cost stays on the cold path. A
/// ring of `n` slots holds the second being written and the `n - 1`
/// before it.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    slots: Vec<WindowSlot>,
}

#[derive(Debug, Clone)]
struct WindowSlot {
    /// Wall second this slot currently holds. Slot 0 starts live (second
    /// 0 is a real second); every other slot starts as a stale holder of
    /// a second it can never have observed, so it reads as empty until
    /// first written.
    second: u64,
    hist: Histogram,
}

impl WindowedHistogram {
    /// A ring covering `capacity_s` seconds at latency precision.
    pub fn new(capacity_s: usize) -> WindowedHistogram {
        let capacity_s = capacity_s.max(2);
        WindowedHistogram {
            slots: (0..capacity_s)
                .map(|i| WindowSlot {
                    second: if i == 0 { 0 } else { u64::MAX },
                    hist: Histogram::latency(),
                })
                .collect(),
        }
    }

    /// Seconds of history the ring can hold.
    pub fn capacity_s(&self) -> usize {
        self.slots.len()
    }

    /// Record `value` at time `t_us` (µs since run start).
    pub fn record(&mut self, t_us: u64, value: u64) {
        let sec = t_us / 1_000_000;
        let idx = (sec % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.second != sec {
            slot.hist.clear();
            slot.second = sec;
        }
        slot.hist.record(value);
    }

    /// Merge every second of `seconds` still in the ring into one
    /// histogram. A range reaching back past the ring returns everything
    /// in it, so a range from 0 equals the cumulative histogram for runs no
    /// longer than the ring capacity.
    pub fn window(&self, seconds: Range<u64>) -> Histogram {
        let mut acc = Histogram::latency();
        for slot in &self.slots {
            if seconds.contains(&slot.second) && !slot.hist.is_empty() {
                acc.merge(&slot.hist);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let h = Histogram::latency();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::latency();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 1234);
        assert_eq!(h.max(), 1234);
        assert_eq!(h.p50(), 1234);
        assert_eq!(h.percentile(100.0), 1234);
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new(5);
        for v in 0..32 {
            h.record(v);
        }
        // Linear region is exact.
        assert_eq!(h.percentile(100.0 / 32.0), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new(5);
        for exp in 0..40u32 {
            let v = 1u64 << exp;
            h.clear();
            h.record(v);
            let p = h.p50();
            let err = (p as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "v={v} p={p} err={err}");
        }
    }

    #[test]
    fn percentile_ordering() {
        let mut h = Histogram::latency();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.percentile(100.0));
        // p50 of 1..=10000 should be near 5000 (3% precision).
        let p50 = h.p50() as f64;
        assert!((p50 - 5000.0).abs() < 5000.0 * 0.05, "p50 {p50}");
    }

    #[test]
    fn mean_exact() {
        let mut h = Histogram::latency();
        h.record(100);
        h.record(200);
        h.record(300);
        assert_eq!(h.mean(), 200.0);
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = Histogram::latency();
        let mut b = Histogram::latency();
        let mut both = Histogram::latency();
        for i in 0..1000u64 {
            if i % 2 == 0 {
                a.record(i * 3);
            } else {
                b.record(i * 3);
            }
            both.record(i * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.mean(), both.mean());
        assert_eq!(a.p95(), both.p95());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
    }

    #[test]
    fn merge_empty_operands() {
        // Empty into empty.
        let mut a = Histogram::latency();
        a.merge(&Histogram::latency());
        assert!(a.is_empty());
        assert_eq!(a.min(), 0);
        assert_eq!(a.p99(), 0);
        // Empty into populated: a no-op, even across precisions.
        let mut a = Histogram::latency();
        a.record(123);
        a.merge(&Histogram::new(8));
        assert_eq!(a.count(), 1);
        assert_eq!(a.p50(), 123);
        // Populated into empty: the empty side adopts everything exactly.
        let mut b = Histogram::latency();
        b.record(77);
        b.record(99_000);
        let mut empty = Histogram::latency();
        empty.merge(&b);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.min(), 77);
        assert_eq!(empty.max(), 99_000);
        assert_eq!(empty.mean(), b.mean());
    }

    #[test]
    fn merge_mismatched_precision_rebuckets() {
        // A coarse peer (2 bits ≈ 25% error) folded into a fine histogram:
        // count/sum/min/max exact, percentiles within the coarse bound.
        let mut fine = Histogram::new(8);
        let mut coarse = Histogram::new(2);
        for i in 0..1_000u64 {
            let v = 50 + i * 37;
            if i % 2 == 0 {
                fine.record(v);
            } else {
                coarse.record(v);
            }
        }
        let (csum, ccount) = (coarse.mean() * coarse.count() as f64, coarse.count());
        let fmin = fine.min().min(coarse.min());
        let fmax = fine.max().max(coarse.max());
        let premerge_sum = fine.mean() * fine.count() as f64;
        fine.merge(&coarse);
        assert_eq!(fine.count(), 500 + ccount);
        assert_eq!(fine.min(), fmin);
        assert_eq!(fine.max(), fmax);
        let total_mean = (premerge_sum + csum) / fine.count() as f64;
        assert!((fine.mean() - total_mean).abs() < 1e-6);
        // p50 of 50 + i*37 over i in 0..1000 is ~18550; coarse buckets
        // bound the representative error at 25%.
        let p50 = fine.p50() as f64;
        assert!((p50 - 18_550.0).abs() < 18_550.0 * 0.30, "p50 {p50}");
        // And the reverse direction (fine into coarse) must not panic and
        // keeps exact aggregates too.
        let mut coarse2 = Histogram::new(2);
        coarse2.record(10);
        let mut fine2 = Histogram::new(8);
        fine2.record(1_000_000);
        coarse2.merge(&fine2);
        assert_eq!(coarse2.count(), 2);
        assert_eq!(coarse2.min(), 10);
        assert_eq!(coarse2.max(), 1_000_000);
    }

    #[test]
    fn record_n() {
        let mut h = Histogram::latency();
        h.record_n(500, 10);
        assert_eq!(h.count(), 10);
        assert_eq!(h.mean(), 500.0);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::latency();
        h.record(42);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn iter_counts_sum_to_total() {
        let mut h = Histogram::latency();
        for i in 0..5000u64 {
            h.record(i * 7 % 100_000);
        }
        let sum: u64 = h.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, h.count());
    }

    const SEC: u64 = 1_000_000;

    #[test]
    fn windowed_empty_window_is_zero() {
        let w = WindowedHistogram::new(10);
        let h = w.window(3..6);
        assert!(h.is_empty());
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn windowed_reads_a_second_while_it_is_written() {
        let mut w = WindowedHistogram::new(10);
        w.record(2 * SEC + 500_000, 777);
        let h = w.window(2..3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 777);
    }

    #[test]
    fn windowed_excludes_old_seconds() {
        let mut w = WindowedHistogram::new(10);
        w.record(0, 100); // second 0
        w.record(SEC, 200); // second 1
        w.record(4 * SEC, 300); // second 4
        // Seconds 3..=4 hold only second 4's sample.
        let h = w.window(3..5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 300);
        // Widen to seconds 0..=4: everything.
        let h = w.window(0..5);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn windowed_ring_rollover_reuses_slots() {
        let mut w = WindowedHistogram::new(4);
        // Fill seconds 0..4, then wrap into seconds 4 and 5 which reuse
        // the slots of seconds 0 and 1.
        for sec in 0..6u64 {
            w.record(sec * SEC, 1_000 + sec);
        }
        // Ring capacity is 4: only seconds 2..=5 survive.
        let h = w.window(0..6);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 1_002);
        assert_eq!(h.max(), 1_005);
        // Second 5 alone.
        let h = w.window(5..6);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1_005);
    }

    #[test]
    fn windowed_huge_window_equals_cumulative() {
        let mut w = WindowedHistogram::new(60);
        let mut cumulative = Histogram::latency();
        for i in 0..5_000u64 {
            let t = i * 7_000; // 35s of samples
            let v = 100 + (i * 13) % 20_000;
            w.record(t, v);
            cumulative.record(v);
        }
        let h = w.window(0..36);
        assert_eq!(h.count(), cumulative.count());
        assert_eq!(h.mean(), cumulative.mean());
        assert_eq!(h.p50(), cumulative.p50());
        assert_eq!(h.p99(), cumulative.p99());
        assert_eq!(h.min(), cumulative.min());
        assert_eq!(h.max(), cumulative.max());
    }

    #[test]
    fn windowed_gap_then_resume() {
        let mut w = WindowedHistogram::new(8);
        w.record(0, 50);
        // Long silence, then activity far beyond one ring revolution.
        w.record(100 * SEC, 60);
        let h = w.window(99..101);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 60);
        // The stale second-0 slot must not leak into wide windows either:
        // second 0 is outside [93, 100] regardless of ring position.
        let h = w.window(93..101);
        assert_eq!(h.count(), 1);
    }
}
