//! The service-time model of the game's simulated DBMS stages, which the
//! virtual-time run ([`crate::virtual_run`]) serves requests on.
//!
//! A type's mean service time on one of `N` terminals is `N / base_capacity
//! × relative_cost`, divided by `write_penalty` for a write type (lock
//! contention), so capacity is `N / E[service]` over the mixture. Past
//! saturation service time stretches so the delivered rate *droops* ("in
//! the worst case, the performance may actually get worse", §4.1.2), and
//! `jitter` is one service time's coefficient of variation (Derby-like
//! stages "produce oscillating throughputs", §4.3). The driver's queue,
//! gate and statistics window supply lag and latency.

use crate::mixture::Mixture;
use crate::workload::TransactionType;

/// Parameters of one simulated DBMS stage.
#[derive(Debug, Clone)]
pub struct CapacityModel {
    pub name: &'static str,
    /// Peak throughput at a pure-read, cost-1 mixture (tx/s).
    pub base_capacity: f64,
    /// Capacity multiplier at a 100%-write mixture (lock contention).
    pub write_penalty: f64,
    /// How much delivered rate droops past saturation (0 = flat cap).
    pub overload_droop: f64,
    /// Coefficient of variation of one request's service time.
    pub jitter: f64,
}

/// The four stages, hand-set rather than fitted to the engine's personalities.
const STAGES: [CapacityModel; 4] = [
    CapacityModel { name: "mysql", base_capacity: 2_200.0, write_penalty: 0.45, overload_droop: 0.15, jitter: 0.04 },
    CapacityModel { name: "postgres", base_capacity: 1_900.0, write_penalty: 0.55, overload_droop: 0.10, jitter: 0.03 },
    CapacityModel { name: "derby", base_capacity: 600.0, write_penalty: 0.25, overload_droop: 0.35, jitter: 0.18 },
    CapacityModel { name: "oracle", base_capacity: 2_600.0, write_penalty: 0.55, overload_droop: 0.08, jitter: 0.015 },
];

impl CapacityModel {
    /// The stage called `name` ("postgresql" is postgres).
    pub fn by_name(name: &str) -> Option<CapacityModel> {
        let name = name.to_ascii_lowercase().replace("postgresql", "postgres");
        STAGES.iter().find(|m| m.name == name).cloned()
    }

    pub fn all() -> Vec<CapacityModel> {
        STAGES.to_vec()
    }

    /// Mean service time (µs) of a `ty` transaction on one of `terminals`
    /// terminals: the model's one formula.
    pub fn service_us(&self, terminals: usize, ty: &TransactionType) -> f64 {
        let read_us = terminals as f64 * 1e6 / self.base_capacity * ty.relative_cost;
        if ty.read_only {
            read_us
        } else {
            read_us / self.write_penalty
        }
    }

    /// Throughput with every terminal busy (tx/s), `terminals / E[service]`
    /// over `mixture`: each type's service time weighed by its share. It is
    /// the same for any terminal count, as service time grows with it.
    pub fn capacity(&self, mixture: &Mixture, types: &[TransactionType]) -> f64 {
        let mean_us: f64 = types.iter().enumerate().map(|(i, ty)| mixture.probability(i) * self.service_us(1, ty)).sum();
        1e6 / mean_us
    }

    /// How far service time stretches when `requested` exceeds `capacity`:
    /// past saturation the delivered rate droops toward `capacity × (1 -
    /// droop)` as overload grows (bounded degradation).
    pub fn overload_stretch(&self, requested: f64, capacity: f64) -> f64 {
        if requested <= capacity {
            1.0
        } else {
            1.0 / (1.0 - self.overload_droop * (1.0 - capacity / requested))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CapacityModel {
        /// Capacity of a read type and a write type, both of cost
        /// `mean_cost`, with `write_share` of the requests writing.
        fn blended(&self, write_share: f64, mean_cost: f64) -> f64 {
            let types = vec![
                TransactionType::new("r", 1.0, true).with_cost(mean_cost),
                TransactionType::new("w", 1.0, false).with_cost(mean_cost),
            ];
            self.capacity(&Mixture::new(vec![1.0 - write_share, write_share]).unwrap(), &types)
        }

        /// The rate a run settles at when `requested` is offered: all of it
        /// up to capacity, then capacity slowed by the overload stretch.
        fn steady_delivered(&self, requested: f64, write_share: f64, mean_cost: f64) -> f64 {
            let cap = self.blended(write_share, mean_cost);
            requested.clamp(0.0, cap) / self.overload_stretch(requested, cap)
        }
    }

    #[test]
    fn capacity_drops_with_writes() {
        let m = CapacityModel::by_name("mysql").unwrap();
        let read_cap = m.blended(0.0, 1.0);
        let write_cap = m.blended(1.0, 1.0);
        assert!(read_cap > write_cap * 1.8, "read {read_cap} write {write_cap}");
        assert!((write_cap - m.base_capacity * m.write_penalty).abs() < 1e-9);
    }

    #[test]
    fn under_capacity_delivers_requested() {
        let m = CapacityModel::by_name("mysql").unwrap();
        assert!((m.steady_delivered(500.0, 0.5, 1.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn over_capacity_droops() {
        let m = CapacityModel::by_name("mysql").unwrap();
        let cap = m.blended(0.5, 1.0);
        let at_cap = m.steady_delivered(cap, 0.5, 1.0);
        let over = m.steady_delivered(cap * 3.0, 0.5, 1.0);
        assert!(over < at_cap, "worse-than-saturated: {over} < {at_cap}");
        assert!(over > at_cap * 0.5);
    }

    #[test]
    fn model_lookup() {
        for m in CapacityModel::all() {
            assert_eq!(CapacityModel::by_name(m.name).unwrap().name, m.name);
        }
        assert!(CapacityModel::by_name("nope").is_none());
    }
}
