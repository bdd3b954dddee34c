//! Order statistics for slices and for sets of runs.

use bp_util::json::Json;

/// Sample count, quartiles and median of a set of values. The quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so `repeat` computes the same spread an outside checker does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => Quartiles {
                n: 0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            },
            1 => Quartiles {
                n: 1,
                q1: v[0],
                median: v[0],
                q3: v[0],
            },
            m => {
                let cut = |i: usize| {
                    let pos = i * (m + 1);
                    let j = (pos / 4).clamp(1, m - 1);
                    let delta = pos as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Quartiles {
                    n: m,
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                }
            }
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj()
            .set("n", self.n)
            .set("q1", self.q1)
            .set("median", self.median)
            .set("q3", self.q3)
    }
}

pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Mean of the middle half of `values` (the interquartile mean). Like the
/// median it ignores a stalled second or a lucky one; unlike the median it
/// averages what is left, which matters when the series has a trend (tpcc
/// slows as its tables grow) and the middle value is just one point on it.
pub fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// Percentile of latency-histogram bucket counts `(bucket_low, count)`,
/// sorted by bucket, interpolated linearly inside the bucket the rank falls
/// in. The stock `Histogram::percentile` returns a bucket midpoint, which
/// for a 4 µs transaction moves in steps of a quarter of the value.
pub fn percentile_interpolated(buckets: &[(u64, u64)], pct: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    let rank = pct / 100.0 * total as f64;
    let mut below = 0u64;
    for &(low, count) in buckets {
        if (below + count) as f64 >= rank {
            let inside = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
            return low as f64 + bucket_width(low) as f64 * inside;
        }
        below += count;
    }
    0.0
}

/// Width of the `Histogram::latency()` bucket that starts at `low`: 1 up
/// to 32, then each power-of-two range is cut into 32 linear buckets.
fn bucket_width(low: u64) -> u64 {
    const SUB_BUCKET_BITS: u32 = 5;
    if low < (1 << SUB_BUCKET_BITS) {
        1
    } else {
        1 << (63 - low.leading_zeros() - SUB_BUCKET_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_util::histogram::Histogram;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[]), 0.0);
    }

    #[test]
    fn interpolation_stays_inside_the_bucket() {
        let mut h = Histogram::latency();
        h.record_n(4, 100);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(percentile_interpolated(&buckets, 50.0), 4.5);
        let mut h = Histogram::latency();
        h.record_n(100, 10);
        let buckets: Vec<_> = h.iter().collect();
        // 100 lies in [64, 128), cut into 32 buckets of width 2.
        assert_eq!(buckets, [(100, 10)]);
        assert_eq!(bucket_width(100), 2);
        assert!((100.0..=102.0).contains(&percentile_interpolated(&buckets, 99.0)));
    }
}
