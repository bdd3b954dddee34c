//! Deterministic pseudo-random number generation and the workload
//! distributions used throughout the testbed.
//!
//! OLTP-Bench's data generators and transaction-parameter generators rely on
//! uniform, zipfian, scrambled-zipfian, exponential and TPC-C `NURand`
//! distributions. We implement them here on top of a xoshiro256** generator
//! seeded via SplitMix64 so that every experiment in the repository is
//! reproducible from a single `u64` seed.

/// SplitMix64 step; used for seeding and as a cheap scrambler.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a 64-bit value to another 64-bit value (stateless scrambler).
#[inline]
pub fn mix64(v: u64) -> u64 {
    let mut s = v;
    splitmix64(&mut s)
}

/// Capped exponential backoff with deterministic ("equal") jitter.
///
/// `attempt` is zero-based: attempt 0 is the delay before the *first*
/// retry. The unjittered ceiling doubles each attempt
/// (`base_us << attempt`, saturating) and is clamped to `cap_us`; the
/// returned delay is drawn uniformly from `[ceiling/2, ceiling]` so
/// concurrently-aborted transactions spread out instead of stampeding the
/// same locks in lockstep. The draw is a pure function of
/// `(attempt, seed)` — same inputs, same delay, forever — which keeps
/// retry schedules reproducible across runs (callers derive `seed` from
/// the run seed and the request's identity).
///
/// `base_us == 0` disables backoff (returns 0 for every attempt).
pub fn next_backoff(attempt: u32, base_us: u64, cap_us: u64, seed: u64) -> u64 {
    if base_us == 0 {
        return 0;
    }
    let cap = cap_us.max(base_us);
    // Saturate on bit overflow (checked_shl only guards the shift amount).
    let exp = 1u64
        .checked_shl(attempt)
        .and_then(|m| base_us.checked_mul(m))
        .unwrap_or(u64::MAX);
    let ceiling = exp.min(cap);
    let half = ceiling / 2;
    // Span is at least 1, so the modulo is always valid.
    let span = ceiling - half + 1;
    half + mix64(seed ^ ((attempt as u64) << 32) ^ 0xC2B2_AE3D_27D4_EB4F) % span
}

/// A deterministic xoshiro256** PRNG.
///
/// Not cryptographically secure; chosen for speed, quality and tiny state.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a seed. Two generators with the same seed
    /// produce identical streams on every platform.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator (stream splitting).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ mix64(salt))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1)
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    #[inline]
    pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "int_range: lo {lo} > hi {hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.bounded(span) as i64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Rejection-free multiply-shift with a correction loop.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, len)`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.bounded(len as u64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample from an exponential distribution with the given mean.
    ///
    /// Used for exponential inter-arrival times in the rate controller
    /// (§2.2.1 of the paper).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Sample from a normal distribution via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Random alphanumeric string of length in `[min_len, max_len]`
    /// (TPC-C "a-string").
    pub fn astring(&mut self, min_len: usize, max_len: usize) -> String {
        const ALPHA: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let len = self.int_range(min_len as i64, max_len as i64) as usize;
        (0..len).map(|_| ALPHA[self.index(ALPHA.len())] as char).collect()
    }

    /// Random numeric string of length in `[min_len, max_len]`
    /// (TPC-C "n-string").
    pub fn nstring(&mut self, min_len: usize, max_len: usize) -> String {
        let len = self.int_range(min_len as i64, max_len as i64) as usize;
        (0..len).map(|_| (b'0' + self.bounded(10) as u8) as char).collect()
    }
}

/// TPC-C non-uniform random, `NURand(A, x, y)` (clause 2.1.6).
///
/// `c` is the per-run constant; the standard requires particular relations
/// between load-time and run-time constants, which callers may enforce.
#[derive(Debug, Clone, Copy)]
pub struct NuRand {
    pub a: i64,
    pub c: i64,
}

impl NuRand {
    pub fn new(a: i64, c: i64) -> Self {
        NuRand { a, c }
    }

    pub fn sample(&self, rng: &mut Rng, x: i64, y: i64) -> i64 {
        let r1 = rng.int_range(0, self.a);
        let r2 = rng.int_range(x, y);
        (((r1 | r2) + self.c) % (y - x + 1)) + x
    }
}

/// Zipfian distribution over `[0, n)` with exponent `theta`, as used by YCSB.
///
/// Uses the Gray et al. rejection-free inversion method with a precomputed
/// zeta value, so sampling is O(1).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipf { n, theta, alpha, zeta_n, eta, zeta2 }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; only run at construction. Cap the exact sum and
        // approximate the tail with an integral for very large n.
        const EXACT: u64 = 1_000_000;
        let m = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=m {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > m {
            // integral of x^-theta from m to n
            let t = 1.0 - theta;
            sum += ((n as f64).powf(t) - (m as f64).powf(t)) / t;
        }
        sum
    }

    /// Sample a rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).powf(self.alpha);
        let idx = (self.n as f64 * v) as u64;
        idx.min(self.n - 1)
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Grow the domain (used by YCSB inserts); recomputes zeta incrementally
    /// only when the domain actually changed.
    pub fn resize(&mut self, n: u64) {
        if n != self.n {
            *self = Zipf::new(n, self.theta);
            let _ = self.zeta2; // keep field used
        }
    }
}

/// Scrambled zipfian: zipfian ranks hashed over the full domain so that the
/// popular items are spread out (YCSB's `ScrambledZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct ScrambledZipf {
    inner: Zipf,
}

impl ScrambledZipf {
    pub fn new(n: u64, theta: f64) -> Self {
        ScrambledZipf { inner: Zipf::new(n, theta) }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let rank = self.inner.sample(rng);
        mix64(rank) % self.inner.n()
    }
}

/// Weighted discrete distribution over `0..weights.len()`.
///
/// This is the transaction-mixture sampler: workers draw the next transaction
/// type from the current mixture (§2.2.2). Weights need not sum to anything
/// in particular; they are normalized internally.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "discrete distribution needs >= 1 weight");
        assert!(
            weights.iter().all(|w| *w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect::<Vec<_>>();
        Discrete { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("NaN in cumulative"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability of index `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn int_range_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let v = rng.int_range(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        assert_eq!(rng.int_range(3, 3), 3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bounded_uniformity_rough() {
        let mut rng = Rng::new(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.bounded(10) as usize] += 1;
        }
        for c in counts {
            let expected = n as f64 / 10.0;
            assert!((c as f64 - expected).abs() < expected * 0.1, "count {c}");
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(5);
        let mean = 250.0;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < mean * 0.02, "mean {got}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(6);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn zipf_skew() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(3);
        let n = 100_000;
        let mut head = 0usize;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta=0.99 the top-10 of 1000 items get a large share.
        assert!(head as f64 / n as f64 > 0.3, "head share {}", head as f64 / n as f64);
    }

    #[test]
    fn zipf_zero_theta_is_uniformish() {
        let zipf = Zipf::new(100, 0.0);
        let mut rng = Rng::new(4);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < min * 2, "max {max} min {min}");
    }

    #[test]
    fn zipf_in_domain() {
        let zipf = Zipf::new(10, 0.9);
        let mut rng = Rng::new(8);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn scrambled_zipf_spreads_head() {
        let sz = ScrambledZipf::new(1_000_000, 0.99);
        let mut rng = Rng::new(10);
        // The most popular items should not be concentrated at low ids.
        let low = (0..10_000)
            .filter(|_| sz.sample(&mut rng) < 1_000)
            .count();
        assert!(low < 500, "low-id share too big: {low}");
    }

    #[test]
    fn discrete_probabilities() {
        let d = Discrete::new(&[45.0, 43.0, 4.0, 4.0, 4.0]);
        let mut rng = Rng::new(12);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        let freqs: Vec<f64> = counts.iter().map(|c| *c as f64 / n as f64).collect();
        assert!((freqs[0] - 0.45).abs() < 0.01, "{freqs:?}");
        assert!((freqs[1] - 0.43).abs() < 0.01, "{freqs:?}");
        assert!((freqs[2] - 0.04).abs() < 0.005, "{freqs:?}");
    }

    #[test]
    fn discrete_zero_weight_never_sampled() {
        let d = Discrete::new(&[1.0, 0.0, 1.0]);
        let mut rng = Rng::new(13);
        for _ in 0..10_000 {
            assert_ne!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic]
    fn discrete_rejects_all_zero() {
        let _ = Discrete::new(&[0.0, 0.0]);
    }

    #[test]
    fn nurand_in_range() {
        let nu = NuRand::new(255, 123);
        let mut rng = Rng::new(14);
        for _ in 0..10_000 {
            let v = nu.sample(&mut rng, 0, 999);
            assert!((0..=999).contains(&v));
        }
    }

    #[test]
    fn nurand_nonuniform() {
        let nu = NuRand::new(255, 42);
        let mut rng = Rng::new(15);
        let mut counts = vec![0usize; 1000];
        for _ in 0..200_000 {
            counts[nu.sample(&mut rng, 0, 999) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        // NURand is decidedly non-uniform.
        assert!(max > min * 1.5);
    }

    #[test]
    fn astring_nstring() {
        let mut rng = Rng::new(16);
        for _ in 0..100 {
            let a = rng.astring(8, 16);
            assert!((8..=16).contains(&a.len()));
            assert!(a.chars().all(|c| c.is_ascii_alphanumeric()));
            let n = rng.nstring(4, 4);
            assert_eq!(n.len(), 4);
            assert!(n.chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_independent() {
        let mut root = Rng::new(99);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn backoff_exact_sequence() {
        // Pins the exact schedule so retry timing is reproducible across
        // releases: any change to the jitter math is a deliberate,
        // test-visible event.
        let seq: Vec<u64> = (0..6).map(|a| next_backoff(a, 100, 10_000, 42)).collect();
        assert_eq!(seq, vec![69, 124, 376, 645, 904, 1876]);
        let other_seed: Vec<u64> = (0..6).map(|a| next_backoff(a, 100, 10_000, 43)).collect();
        assert_eq!(other_seed, vec![58, 132, 315, 746, 880, 3029]);
        assert_ne!(seq, other_seed);
    }

    #[test]
    fn backoff_deterministic_and_bounded() {
        for seed in 0..200u64 {
            for attempt in 0..20u32 {
                let d = next_backoff(attempt, 500, 50_000, seed);
                assert_eq!(d, next_backoff(attempt, 500, 50_000, seed), "pure function");
                let ceiling = (500u64 << attempt.min(30)).min(50_000);
                assert!(d >= ceiling / 2, "attempt {attempt}: {d} < {}", ceiling / 2);
                assert!(d <= ceiling, "attempt {attempt}: {d} > {ceiling}");
            }
        }
    }

    #[test]
    fn backoff_caps_and_saturates() {
        // Past the cap every attempt draws from [cap/2, cap].
        for attempt in [10u32, 31, 63, 64, 65, 1000] {
            let d = next_backoff(attempt, 1_000, 8_000, 7);
            assert!((4_000..=8_000).contains(&d), "attempt {attempt}: {d}");
        }
        // cap < base is treated as cap == base.
        let d = next_backoff(0, 1_000, 10, 7);
        assert!((500..=1_000).contains(&d));
        // base 0 disables backoff entirely.
        assert_eq!(next_backoff(5, 0, 10_000, 7), 0);
    }
}
