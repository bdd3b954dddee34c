//! Transaction-mixture control (§2.2.2).
//!
//! The mixture is an immutable weighted distribution over a benchmark's
//! transaction types. Workers hold an `Arc` snapshot and sample lock-free;
//! the controller swaps the `Arc` to change the mixture at runtime — in a
//! phase transition or on demand through the control API.

use bp_util::rng::{Discrete, Rng};

use crate::workload::TransactionType;

/// An immutable transaction mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixture {
    weights: Vec<f64>,
    dist: Discrete,
}

/// Errors constructing a mixture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixtureError {
    Empty,
    WrongArity { expected: usize, got: usize },
    Invalid(String),
}

impl std::fmt::Display for MixtureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MixtureError::Empty => write!(f, "mixture has no weights"),
            MixtureError::WrongArity { expected, got } => {
                write!(f, "mixture has {got} weights, benchmark has {expected} transaction types")
            }
            MixtureError::Invalid(m) => write!(f, "invalid mixture: {m}"),
        }
    }
}

impl std::error::Error for MixtureError {}

impl Mixture {
    /// Build from raw weights (need not sum to 100).
    pub fn new(weights: Vec<f64>) -> Result<Mixture, MixtureError> {
        if weights.is_empty() {
            return Err(MixtureError::Empty);
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(MixtureError::Invalid("weights must be finite and >= 0".into()));
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(MixtureError::Invalid("weights must not all be zero".into()));
        }
        let dist = Discrete::new(&weights);
        Ok(Mixture { weights, dist })
    }

    /// Validate weight-vector arity against a benchmark's transaction types.
    pub fn for_types(weights: Vec<f64>, types: &[TransactionType]) -> Result<Mixture, MixtureError> {
        if weights.len() != types.len() {
            return Err(MixtureError::WrongArity { expected: types.len(), got: weights.len() });
        }
        Mixture::new(weights)
    }

    /// The benchmark's default mixture.
    pub fn default_of(types: &[TransactionType]) -> Mixture {
        Mixture::new(types.iter().map(|t| t.default_weight).collect())
            .expect("benchmark default weights must be valid")
    }

    /// Preset: only read-only transaction types (Fig. 2d "Read-only").
    /// Falls back to the default mixture if the benchmark has none.
    pub fn read_only_of(types: &[TransactionType]) -> Mixture {
        let weights: Vec<f64> = types.iter().map(|t| if t.read_only { 1.0 } else { 0.0 }).collect();
        Mixture::new(weights).unwrap_or_else(|_| Mixture::default_of(types))
    }

    /// Preset: only writing transaction types (Fig. 2d "Super-writes").
    /// Falls back to the default mixture if the benchmark is read-only.
    pub fn super_writes_of(types: &[TransactionType]) -> Mixture {
        let weights: Vec<f64> = types.iter().map(|t| if t.read_only { 0.0 } else { 1.0 }).collect();
        Mixture::new(weights).unwrap_or_else(|_| Mixture::default_of(types))
    }

    /// Parse a comma-separated weights string ("45,43,4,4,4").
    pub fn parse(text: &str) -> Result<Mixture, MixtureError> {
        let weights: Result<Vec<f64>, _> = text
            .split(',')
            .map(|p| p.trim().parse::<f64>())
            .collect();
        match weights {
            Ok(w) => Mixture::new(w),
            Err(e) => Err(MixtureError::Invalid(e.to_string())),
        }
    }

    /// Sample a transaction-type index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.dist.sample(rng)
    }

    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    pub fn len(&self) -> usize {
        self.weights.len()
    }

    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Probability of type `i`.
    pub fn probability(&self, i: usize) -> f64 {
        self.dist.probability(i)
    }

    /// Fraction of the mixture that writes, given the benchmark's types.
    /// This is what makes read-heavy mixtures faster under lock contention.
    pub fn write_share(&self, types: &[TransactionType]) -> f64 {
        types
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.read_only)
            .map(|(i, _)| self.probability(i))
            .sum()
    }
}

/// The preset mixtures the game offers (Fig. 2d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixturePreset {
    Default,
    ReadOnly,
    SuperWrites,
}

impl MixturePreset {
    pub fn build(self, types: &[TransactionType]) -> Mixture {
        match self {
            MixturePreset::Default => Mixture::default_of(types),
            MixturePreset::ReadOnly => Mixture::read_only_of(types),
            MixturePreset::SuperWrites => Mixture::super_writes_of(types),
        }
    }

    pub fn by_name(name: &str) -> Option<MixturePreset> {
        match name.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "default" => Some(MixturePreset::Default),
            "readonly" => Some(MixturePreset::ReadOnly),
            "superwrites" | "writeheavy" => Some(MixturePreset::SuperWrites),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn types() -> Vec<TransactionType> {
        vec![
            TransactionType::new("NewOrder", 45.0, false),
            TransactionType::new("Payment", 43.0, false),
            TransactionType::new("OrderStatus", 4.0, true),
            TransactionType::new("Delivery", 4.0, false),
            TransactionType::new("StockLevel", 4.0, true),
        ]
    }

    #[test]
    fn default_mixture_matches_weights() {
        let m = Mixture::default_of(&types());
        assert_eq!(m.weights(), &[45.0, 43.0, 4.0, 4.0, 4.0]);
        assert!((m.probability(0) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn read_only_preset_zeroes_writers() {
        let m = Mixture::read_only_of(&types());
        assert_eq!(m.weights(), &[0.0, 0.0, 1.0, 0.0, 1.0]);
        assert_eq!(m.write_share(&types()), 0.0);
    }

    #[test]
    fn super_writes_preset() {
        let m = Mixture::super_writes_of(&types());
        assert!((m.write_share(&types()) - 1.0).abs() < 1e-12);
        assert_eq!(m.probability(2), 0.0);
    }

    #[test]
    fn sampling_respects_probabilities() {
        let m = Mixture::default_of(&types());
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[m.sample(&mut rng)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.45).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.04).abs() < 0.005);
    }

    #[test]
    fn write_share_of_default() {
        let m = Mixture::default_of(&types());
        assert!((m.write_share(&types()) - 0.92).abs() < 1e-9);
    }

    #[test]
    fn parse_weights_string() {
        let m = Mixture::parse("45, 43, 4, 4, 4").unwrap();
        assert_eq!(m.len(), 5);
        assert!(Mixture::parse("a,b").is_err());
        assert!(Mixture::parse("0,0").is_err());
    }

    #[test]
    fn arity_check() {
        let err = Mixture::for_types(vec![1.0, 2.0], &types()).unwrap_err();
        assert_eq!(err, MixtureError::WrongArity { expected: 5, got: 2 });
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![-1.0, 2.0]).is_err());
        assert!(Mixture::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn presets_by_name() {
        assert_eq!(MixturePreset::by_name("Read-Only"), Some(MixturePreset::ReadOnly));
        assert_eq!(MixturePreset::by_name("super_writes"), Some(MixturePreset::SuperWrites));
        assert_eq!(MixturePreset::by_name("default"), Some(MixturePreset::Default));
        assert_eq!(MixturePreset::by_name("nope"), None);
    }

    #[test]
    fn preset_fallback_for_readonly_benchmark() {
        let ro_types = vec![TransactionType::new("Read", 100.0, true)];
        let m = MixturePreset::SuperWrites.build(&ro_types);
        assert_eq!(m.weights(), &[100.0]);
    }
}
