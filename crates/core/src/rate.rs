//! Rate control (§2.2.1): target rates, arrival processes and phases.
//!
//! Each second the Workload Manager adds exactly the configured number of
//! requests to the central queue, interleaved with uniform or exponential
//! inter-arrival times. Unlimited (open-loop) execution enqueues at a large
//! configurable constant; Disabled stops request generation entirely.

use std::fmt;

use bp_util::clock::{Micros, MICROS_PER_SEC};
use bp_util::rng::Rng;

/// The target request rate of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rate {
    /// Open loop: workers are kept saturated (a large constant arrival rate).
    Unlimited,
    /// Throttled to this many transactions per second.
    Limited(f64),
    /// No requests are generated.
    Disabled,
}

impl Rate {
    /// The arrival rate used for queue generation, in requests/second.
    /// Open-loop execution uses a large configurable constant (§2.2.1).
    pub fn arrivals_per_second(&self, unlimited_rate: f64) -> f64 {
        match self {
            Rate::Unlimited => unlimited_rate,
            Rate::Limited(tps) => tps.max(0.0),
            Rate::Disabled => 0.0,
        }
    }

    /// `Limited(tps)` when `tps` is a rate: finite and non-negative. An
    /// infinite rate would ask the schedule for `usize::MAX` arrivals.
    pub fn limited(tps: f64) -> Option<Rate> {
        (tps.is_finite() && tps >= 0.0).then_some(Rate::Limited(tps))
    }

    pub fn parse(text: &str) -> Option<Rate> {
        let t = text.trim().to_ascii_lowercase();
        match t.as_str() {
            "unlimited" | "open" => Some(Rate::Unlimited),
            "disabled" | "off" => Some(Rate::Disabled),
            _ => Rate::limited(t.parse::<f64>().ok()?),
        }
    }
}

/// Inverse of [`Rate::parse`]: `Rate::parse(&r.to_string()) == Some(r)`.
/// `f64` `Display` emits the shortest string that reads back exactly, so
/// `Limited` round-trips bit-for-bit — the artifact header relies on this.
impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rate::Unlimited => f.write_str("unlimited"),
            Rate::Disabled => f.write_str("disabled"),
            Rate::Limited(tps) => write!(f, "{tps}"),
        }
    }
}

/// How arrivals are spread within each one-second window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalDist {
    /// Evenly spaced.
    #[default]
    Uniform,
    /// Exponential (Poisson process) inter-arrival times.
    Exponential,
}

impl ArrivalDist {
    pub fn parse(text: &str) -> Option<ArrivalDist> {
        match text.trim().to_ascii_lowercase().as_str() {
            "uniform" | "regular" => Some(ArrivalDist::Uniform),
            "exponential" | "poisson" => Some(ArrivalDist::Exponential),
            _ => None,
        }
    }

    /// Generate the arrival offsets (µs within the second) for `n` requests.
    ///
    /// Uniform: exact spacing. Exponential: exponential gaps scaled to fill
    /// the second, preserving the exact per-second count (OLTP-Bench adds
    /// "the exact number of requests configured" each second).
    pub fn offsets(&self, n: usize, rng: &mut Rng) -> Vec<Micros> {
        if n == 0 {
            return Vec::new();
        }
        match self {
            ArrivalDist::Uniform => {
                let spacing = MICROS_PER_SEC as f64 / n as f64;
                (0..n).map(|i| (i as f64 * spacing) as Micros).collect()
            }
            ArrivalDist::Exponential => {
                // n exponential gaps, normalized so the n arrivals land
                // within the second.
                let mut gaps: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
                let total: f64 = gaps.iter().sum::<f64>().max(f64::MIN_POSITIVE);
                let mut acc = 0.0;
                for g in &mut gaps {
                    acc += *g;
                    *g = acc / total;
                }
                gaps.iter()
                    .map(|f| ((f * MICROS_PER_SEC as f64) as Micros).min(MICROS_PER_SEC - 1))
                    .collect()
            }
        }
    }
}

/// Inverse of [`ArrivalDist::parse`].
impl fmt::Display for ArrivalDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrivalDist::Uniform => "uniform",
            ArrivalDist::Exponential => "exponential",
        })
    }
}

/// One workload phase: target rate, mixture weights, duration (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub rate: Rate,
    pub arrival: ArrivalDist,
    /// Mixture weights for this phase; `None` keeps the previous mixture.
    pub weights: Option<Vec<f64>>,
    /// Duration in seconds.
    pub duration_s: f64,
    /// Optional worker think time after each transaction (µs).
    pub think_time_us: Micros,
}

impl Phase {
    pub fn new(rate: Rate, duration_s: f64) -> Phase {
        Phase { rate, arrival: ArrivalDist::Uniform, weights: None, duration_s, think_time_us: 0 }
    }

    pub fn with_weights(mut self, weights: Vec<f64>) -> Phase {
        self.weights = Some(weights);
        self
    }

    pub fn with_arrival(mut self, arrival: ArrivalDist) -> Phase {
        self.arrival = arrival;
        self
    }

    pub fn with_think_time(mut self, micros: Micros) -> Phase {
        self.think_time_us = micros;
        self
    }

    pub fn duration_us(&self) -> Micros {
        (self.duration_s * MICROS_PER_SEC as f64) as Micros
    }

    /// Inverse of the `Display` impl: parses `key=value` tokens
    /// (`rate=… arrival=… duration_s=… think_us=… [weights=a,b,…]`) in any
    /// order. Returns `None` on unknown keys, bad values, or missing fields.
    pub fn parse(text: &str) -> Option<Phase> {
        let mut rate = None;
        let mut arrival = None;
        let mut duration_s = None;
        let mut think_time_us = None;
        let mut weights = None;
        for token in text.split_whitespace() {
            let (key, value) = token.split_once('=')?;
            match key {
                "rate" => rate = Some(Rate::parse(value)?),
                "arrival" => arrival = Some(ArrivalDist::parse(value)?),
                "duration_s" => {
                    duration_s = Some(value.parse::<f64>().ok().filter(|d| *d >= 0.0)?)
                }
                "think_us" => think_time_us = Some(value.parse::<Micros>().ok()?),
                "weights" => {
                    let ws: Option<Vec<f64>> =
                        value.split(',').map(|w| w.parse::<f64>().ok()).collect();
                    weights = Some(ws?);
                }
                _ => return None,
            }
        }
        Some(Phase {
            rate: rate?,
            arrival: arrival?,
            weights,
            duration_s: duration_s?,
            think_time_us: think_time_us?,
        })
    }
}

/// One line of `key=value` tokens; exact inverse of [`Phase::parse`]. All
/// floats use `f64` `Display` (shortest exact representation), so the
/// round-trip is lossless — this is the artifact-header encoding.
impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rate={} arrival={} duration_s={} think_us={}",
            self.rate, self.arrival, self.duration_s, self.think_time_us
        )?;
        if let Some(ws) = &self.weights {
            f.write_str(" weights=")?;
            for (i, w) in ws.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{w}")?;
            }
        }
        Ok(())
    }
}

/// A predefined multi-phase workload script.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseScript {
    pub phases: Vec<Phase>,
    /// Loop back to the first phase when the script ends.
    pub repeat: bool,
}

impl PhaseScript {
    pub fn new(phases: Vec<Phase>) -> PhaseScript {
        PhaseScript { phases, repeat: false }
    }

    pub fn repeating(phases: Vec<Phase>) -> PhaseScript {
        PhaseScript { phases, repeat: true }
    }

    /// A single open-ended phase.
    pub fn constant(rate: Rate, duration_s: f64) -> PhaseScript {
        PhaseScript::new(vec![Phase::new(rate, duration_s)])
    }

    /// Total scripted duration (one pass), in µs.
    pub fn total_duration_us(&self) -> Micros {
        self.phases.iter().map(Phase::duration_us).sum()
    }

    /// Which phase is active at time `t` since the run started.
    /// Returns `None` after the script ends (unless repeating).
    pub fn phase_at(&self, t: Micros) -> Option<(usize, &Phase)> {
        if self.phases.is_empty() {
            return None;
        }
        let total = self.total_duration_us();
        if total == 0 {
            return None;
        }
        let t = if self.repeat { t % total } else { t };
        let mut acc = 0;
        for (i, p) in self.phases.iter().enumerate() {
            acc += p.duration_us();
            if t < acc {
                return Some((i, p));
            }
        }
        None
    }

    /// The target rate series sampled per second over the script (used by
    /// the trace analyzer to compute tracking error).
    pub fn target_series(&self, seconds: usize, unlimited_rate: f64) -> Vec<f64> {
        (0..seconds)
            .map(|s| {
                self.phase_at(s as Micros * MICROS_PER_SEC + MICROS_PER_SEC / 2)
                    .map(|(_, p)| p.rate.arrivals_per_second(unlimited_rate))
                    .unwrap_or(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_parse() {
        assert_eq!(Rate::parse("unlimited"), Some(Rate::Unlimited));
        assert_eq!(Rate::parse("500"), Some(Rate::Limited(500.0)));
        assert_eq!(Rate::parse(" 12.5 "), Some(Rate::Limited(12.5)));
        assert_eq!(Rate::parse("disabled"), Some(Rate::Disabled));
        assert_eq!(Rate::parse("-5"), None);
        assert_eq!(Rate::parse("abc"), None);
        for infinite in ["inf", "infinity", "1e999", "NaN"] {
            assert_eq!(Rate::parse(infinite), None, "{infinite}");
        }
    }

    #[test]
    fn arrivals_per_second() {
        assert_eq!(Rate::Limited(100.0).arrivals_per_second(10_000.0), 100.0);
        assert_eq!(Rate::Unlimited.arrivals_per_second(10_000.0), 10_000.0);
        assert_eq!(Rate::Disabled.arrivals_per_second(10_000.0), 0.0);
    }

    #[test]
    fn uniform_offsets_evenly_spaced() {
        let mut rng = Rng::new(1);
        let offs = ArrivalDist::Uniform.offsets(4, &mut rng);
        assert_eq!(offs, vec![0, 250_000, 500_000, 750_000]);
    }

    #[test]
    fn exponential_offsets_sorted_within_second() {
        let mut rng = Rng::new(2);
        let offs = ArrivalDist::Exponential.offsets(100, &mut rng);
        assert_eq!(offs.len(), 100);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        assert!(*offs.last().unwrap() < MICROS_PER_SEC);
    }

    #[test]
    fn exponential_offsets_are_irregular() {
        let mut rng = Rng::new(3);
        let offs = ArrivalDist::Exponential.offsets(50, &mut rng);
        let gaps: Vec<i64> = offs.windows(2).map(|w| w[1] as i64 - w[0] as i64).collect();
        let mean = gaps.iter().sum::<i64>() as f64 / gaps.len() as f64;
        let var = gaps.iter().map(|g| (*g as f64 - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Uniform spacing would have zero variance.
        assert!(var.sqrt() > mean * 0.3, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn zero_arrivals() {
        let mut rng = Rng::new(4);
        assert!(ArrivalDist::Uniform.offsets(0, &mut rng).is_empty());
        assert!(ArrivalDist::Exponential.offsets(0, &mut rng).is_empty());
    }

    #[test]
    fn phase_schedule_lookup() {
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Limited(100.0), 2.0),
            Phase::new(Rate::Limited(300.0), 3.0),
        ]);
        assert_eq!(script.phase_at(0).unwrap().0, 0);
        assert_eq!(script.phase_at(1_999_999).unwrap().0, 0);
        assert_eq!(script.phase_at(2_000_000).unwrap().0, 1);
        assert_eq!(script.phase_at(4_999_999).unwrap().0, 1);
        assert!(script.phase_at(5_000_000).is_none());
    }

    #[test]
    fn repeating_script_wraps() {
        let script = PhaseScript::repeating(vec![
            Phase::new(Rate::Limited(1.0), 1.0),
            Phase::new(Rate::Limited(2.0), 1.0),
        ]);
        assert_eq!(script.phase_at(2_500_000).unwrap().0, 0);
        assert_eq!(script.phase_at(3_500_000).unwrap().0, 1);
    }

    #[test]
    fn target_series() {
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Limited(100.0), 2.0),
            Phase::new(Rate::Unlimited, 1.0),
        ]);
        let series = script.target_series(4, 9999.0);
        assert_eq!(series, vec![100.0, 100.0, 9999.0, 0.0]);
    }

    #[test]
    fn rate_display_roundtrip_exact() {
        for r in [
            Rate::Unlimited,
            Rate::Disabled,
            Rate::Limited(0.0),
            Rate::Limited(12.5),
            Rate::Limited(400.0),
            // A value with no short decimal form still round-trips exactly:
            // f64 Display prints the shortest digits that read back to the
            // same bits.
            Rate::Limited(1.0 / 3.0),
            Rate::Limited(f64::MAX),
        ] {
            assert_eq!(Rate::parse(&r.to_string()), Some(r), "{r}");
        }
    }

    #[test]
    fn arrival_display_roundtrip() {
        for a in [ArrivalDist::Uniform, ArrivalDist::Exponential] {
            assert_eq!(ArrivalDist::parse(&a.to_string()), Some(a), "{a}");
        }
    }

    #[test]
    fn phase_display_roundtrip_exact() {
        let phases = [
            Phase::new(Rate::Limited(200.0), 2.0),
            Phase::new(Rate::Unlimited, 0.25)
                .with_arrival(ArrivalDist::Exponential)
                .with_think_time(15_000),
            Phase::new(Rate::Limited(1.0 / 3.0), 1e-3).with_weights(vec![45.5, 54.5, 0.0]),
            Phase::new(Rate::Disabled, 3600.0).with_weights(vec![100.0]),
        ];
        for p in phases {
            let text = p.to_string();
            assert_eq!(Phase::parse(&text), Some(p), "{text}");
        }
    }

    #[test]
    fn phase_parse_rejects_malformed() {
        assert!(Phase::parse("").is_none(), "missing fields");
        assert!(Phase::parse("rate=100 arrival=uniform duration_s=1").is_none(), "no think_us");
        assert!(
            Phase::parse("rate=100 arrival=uniform duration_s=-1 think_us=0").is_none(),
            "negative duration"
        );
        assert!(
            Phase::parse("rate=100 arrival=uniform duration_s=1 think_us=0 bogus=1").is_none(),
            "unknown key"
        );
        assert!(
            Phase::parse("rate=100 arrival=uniform duration_s=1 think_us=0 weights=a,b").is_none(),
            "bad weights"
        );
    }

    #[test]
    fn phase_at_exact_boundaries() {
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Limited(100.0), 2.0),
            Phase::new(Rate::Limited(300.0), 3.0),
        ]);
        let total = script.total_duration_us();
        assert_eq!(total, 5_000_000);
        // t exactly on a phase edge belongs to the *next* phase…
        assert_eq!(script.phase_at(2_000_000).unwrap().0, 1);
        // …and t exactly at total_duration_us is past the end.
        assert!(script.phase_at(total).is_none());
        assert!(script.phase_at(total + 1).is_none());

        // Repeating: the end wraps back to phase 0, mid-second-pass edges
        // land on the right phase.
        let repeating = PhaseScript::repeating(script.phases.clone());
        assert_eq!(repeating.phase_at(total).unwrap().0, 0);
        assert_eq!(repeating.phase_at(total + 2_000_000).unwrap().0, 1);

        // Degenerate scripts never resolve a phase.
        assert!(PhaseScript::default().phase_at(0).is_none());
        let zero = PhaseScript::new(vec![Phase::new(Rate::Limited(1.0), 0.0)]);
        assert!(zero.phase_at(0).is_none());
    }

    #[test]
    fn offsets_n0_and_n1() {
        let mut rng = Rng::new(9);
        for dist in [ArrivalDist::Uniform, ArrivalDist::Exponential] {
            assert!(dist.offsets(0, &mut rng).is_empty(), "{dist} n=0");
            let one = dist.offsets(1, &mut rng);
            assert_eq!(one.len(), 1, "{dist} n=1");
            assert!(one[0] < MICROS_PER_SEC, "{dist} offset {} outside second", one[0]);
        }
        // Uniform n=1 is pinned to the window start.
        assert_eq!(ArrivalDist::Uniform.offsets(1, &mut rng), vec![0]);
    }

    #[test]
    fn phase_builders() {
        let p = Phase::new(Rate::Limited(50.0), 1.5)
            .with_weights(vec![1.0, 2.0])
            .with_arrival(ArrivalDist::Exponential)
            .with_think_time(10_000);
        assert_eq!(p.duration_us(), 1_500_000);
        assert_eq!(p.weights.as_deref(), Some(&[1.0, 2.0][..]));
        assert_eq!(p.think_time_us, 10_000);
    }
}
