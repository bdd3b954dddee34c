//! Analytic DBMS capacity models for deterministic simulation.
//!
//! The demo's game stages are real DBMS installations whose throughput
//! responds to the requested load with saturation, contention, lag and
//! jitter. For deterministic, millisecond-fast experiments (and the game's
//! physics tests) we model a DBMS as a fluid capacity curve:
//!
//! * capacity shrinks with the mixture's write share (lock contention) and
//!   mean transaction cost;
//! * past saturation, delivered throughput *droops* below peak ("in the
//!   worst case, the performance may actually get worse", §4.1.2);
//! * delivered throughput follows requested throughput with a first-order
//!   lag (systems take time to ramp);
//! * a personality-specific jitter perturbs the output (Derby-like stages
//!   "produce oscillating throughputs" and fail tunnel tests, §4.3).

use bp_util::rng::Rng;

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
    /// First-order response time constant (seconds).
    pub response_tau_s: f64,
    /// Relative jitter of the delivered rate.
    pub jitter: f64,
    /// Service latency at idle (µs).
    pub base_latency_us: f64,
}

impl CapacityModel {
    pub fn mysql_like() -> CapacityModel {
        CapacityModel {
            name: "mysql",
            base_capacity: 2_200.0,
            write_penalty: 0.45,
            overload_droop: 0.15,
            response_tau_s: 0.35,
            jitter: 0.04,
            base_latency_us: 900.0,
        }
    }

    pub fn postgres_like() -> CapacityModel {
        CapacityModel {
            name: "postgres",
            base_capacity: 1_900.0,
            write_penalty: 0.55,
            overload_droop: 0.10,
            response_tau_s: 0.45,
            jitter: 0.03,
            base_latency_us: 1_100.0,
        }
    }

    pub fn derby_like() -> CapacityModel {
        CapacityModel {
            name: "derby",
            base_capacity: 600.0,
            write_penalty: 0.25,
            overload_droop: 0.35,
            response_tau_s: 0.8,
            jitter: 0.18,
            base_latency_us: 4_000.0,
        }
    }

    pub fn oracle_like() -> CapacityModel {
        CapacityModel {
            name: "oracle",
            base_capacity: 2_600.0,
            write_penalty: 0.55,
            overload_droop: 0.08,
            response_tau_s: 0.25,
            jitter: 0.015,
            base_latency_us: 700.0,
        }
    }

    pub fn by_name(name: &str) -> Option<CapacityModel> {
        match name.to_ascii_lowercase().as_str() {
            "mysql" => Some(Self::mysql_like()),
            "postgres" | "postgresql" => Some(Self::postgres_like()),
            "derby" => Some(Self::derby_like()),
            "oracle" => Some(Self::oracle_like()),
            _ => None,
        }
    }

    pub fn all() -> Vec<CapacityModel> {
        vec![
            Self::mysql_like(),
            Self::postgres_like(),
            Self::derby_like(),
            Self::oracle_like(),
        ]
    }

    /// Effective capacity for a mixture: `write_share` in [0,1], `mean_cost`
    /// the mixture-weighted relative transaction cost (>= ~0.1).
    pub fn capacity(&self, write_share: f64, mean_cost: f64) -> f64 {
        let w = write_share.clamp(0.0, 1.0);
        let contention = 1.0 - w * (1.0 - self.write_penalty);
        self.base_capacity * contention / mean_cost.max(0.1)
    }

    /// Steady-state delivered rate for a requested rate (no lag/jitter).
    pub fn steady_delivered(&self, requested: f64, write_share: f64, mean_cost: f64) -> f64 {
        let cap = self.capacity(write_share, mean_cost);
        if requested <= cap {
            requested.max(0.0)
        } else {
            // Past saturation the delivered rate droops toward
            // `cap * (1 - droop)` as overload grows (bounded degradation).
            let overload = 1.0 - cap / requested; // in (0, 1)
            cap * (1.0 - self.overload_droop * overload)
        }
    }

    /// Mean latency at the given utilization (simple M/M/1-flavored blowup).
    pub fn latency_us(&self, requested: f64, write_share: f64, mean_cost: f64) -> f64 {
        let cap = self.capacity(write_share, mean_cost);
        let rho = (requested / cap).clamp(0.0, 0.98);
        self.base_latency_us / (1.0 - rho)
    }
}

/// Stateful simulated DBMS: applies lag and jitter tick by tick.
#[derive(Debug, Clone)]
pub struct SimDbms {
    pub model: CapacityModel,
    delivered: f64,
    rng: Rng,
}

impl SimDbms {
    pub fn new(model: CapacityModel, seed: u64) -> SimDbms {
        SimDbms { model, delivered: 0.0, rng: Rng::new(seed) }
    }

    /// Advance one tick of `dt_s` seconds with the given offered load.
    /// Returns the delivered throughput for this tick (tx/s).
    pub fn tick(&mut self, requested: f64, write_share: f64, mean_cost: f64, dt_s: f64) -> f64 {
        let target = self.model.steady_delivered(requested, write_share, mean_cost);
        let alpha = (dt_s / self.model.response_tau_s).clamp(0.0, 1.0);
        self.delivered += (target - self.delivered) * alpha;
        let noise = if self.model.jitter > 0.0 {
            1.0 + self.rng.normal(0.0, self.model.jitter)
        } else {
            1.0
        };
        (self.delivered * noise).max(0.0)
    }

    /// Reset dynamics (e.g. after a database reset).
    pub fn reset(&mut self) {
        self.delivered = 0.0;
    }
}

/// A shared simulated server hosting several tenants: capacity is divided
/// in proportion to demand when oversubscribed (multi-tenancy, §2.2.3).
#[derive(Debug, Clone)]
pub struct SimServer {
    pub model: CapacityModel,
    tenants: Vec<SimDbms>,
}

impl SimServer {
    pub fn new(model: CapacityModel, tenant_count: usize, seed: u64) -> SimServer {
        let tenants = (0..tenant_count)
            .map(|i| SimDbms::new(model.clone(), seed ^ ((i as u64 + 1) * 0x9E37)))
            .collect();
        SimServer { model, tenants }
    }

    /// Tick all tenants with their offered loads; returns per-tenant
    /// delivered throughput.
    pub fn tick(&mut self, demands: &[(f64, f64, f64)], dt_s: f64) -> Vec<f64> {
        assert_eq!(demands.len(), self.tenants.len());
        // Total capacity at a blended mixture.
        let total_requested: f64 = demands.iter().map(|d| d.0).sum();
        let blended_write = if total_requested > 0.0 {
            demands.iter().map(|d| d.0 * d.1).sum::<f64>() / total_requested
        } else {
            0.0
        };
        let blended_cost = if total_requested > 0.0 {
            demands.iter().map(|d| d.0 * d.2).sum::<f64>() / total_requested
        } else {
            1.0
        };
        let cap = self.model.capacity(blended_write, blended_cost);
        // Proportional share when oversubscribed.
        let scale = if total_requested > cap && total_requested > 0.0 {
            cap / total_requested
        } else {
            1.0
        };
        demands
            .iter()
            .zip(&mut self.tenants)
            .map(|(&(req, w, c), t)| t.tick(req * scale, w, c, dt_s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_drops_with_writes() {
        let m = CapacityModel::mysql_like();
        let read_cap = m.capacity(0.0, 1.0);
        let write_cap = m.capacity(1.0, 1.0);
        assert!(read_cap > write_cap * 1.8, "read {read_cap} write {write_cap}");
        assert!((write_cap - m.base_capacity * m.write_penalty).abs() < 1e-9);
    }

    #[test]
    fn under_capacity_delivers_requested() {
        let m = CapacityModel::mysql_like();
        assert!((m.steady_delivered(500.0, 0.5, 1.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn over_capacity_droops() {
        let m = CapacityModel::mysql_like();
        let cap = m.capacity(0.5, 1.0);
        let at_cap = m.steady_delivered(cap, 0.5, 1.0);
        let over = m.steady_delivered(cap * 3.0, 0.5, 1.0);
        assert!(over < at_cap, "worse-than-saturated: {over} < {at_cap}");
        assert!(over > at_cap * 0.5);
    }

    #[test]
    fn latency_blows_up_near_saturation() {
        let m = CapacityModel::postgres_like();
        let idle = m.latency_us(10.0, 0.0, 1.0);
        let busy = m.latency_us(m.capacity(0.0, 1.0) * 0.95, 0.0, 1.0);
        assert!(busy > idle * 5.0);
    }

    #[test]
    fn lag_ramps_smoothly() {
        let m = CapacityModel { jitter: 0.0, ..CapacityModel::mysql_like() };
        let mut sim = SimDbms::new(m, 1);
        let mut last = 0.0;
        for _ in 0..20 {
            let d = sim.tick(1_000.0, 0.0, 1.0, 0.1);
            assert!(d >= last - 1e-9, "non-monotonic ramp");
            last = d;
        }
        assert!((last - 1_000.0).abs() < 30.0, "settled at {last}");
    }

    #[test]
    fn derby_jitters_more_than_oracle() {
        let mut derby = SimDbms::new(CapacityModel::derby_like(), 7);
        let mut oracle = SimDbms::new(CapacityModel::oracle_like(), 7);
        // Warm to steady state.
        for _ in 0..50 {
            derby.tick(300.0, 0.2, 1.0, 0.1);
            oracle.tick(300.0, 0.2, 1.0, 0.1);
        }
        let dv: Vec<f64> = (0..200).map(|_| derby.tick(300.0, 0.2, 1.0, 0.1)).collect();
        let ov: Vec<f64> = (0..200).map(|_| oracle.tick(300.0, 0.2, 1.0, 0.1)).collect();
        let cv = |v: &[f64]| bp_util::timeseries::Summary::of(v).cv();
        assert!(cv(&dv) > cv(&ov) * 3.0, "derby cv {} oracle cv {}", cv(&dv), cv(&ov));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimDbms::new(CapacityModel::mysql_like(), 42);
        let mut b = SimDbms::new(CapacityModel::mysql_like(), 42);
        for _ in 0..100 {
            assert_eq!(
                a.tick(800.0, 0.3, 1.0, 0.1),
                b.tick(800.0, 0.3, 1.0, 0.1)
            );
        }
    }

    #[test]
    fn multi_tenant_shares_capacity() {
        let model = CapacityModel { jitter: 0.0, ..CapacityModel::mysql_like() };
        let cap = model.capacity(0.0, 1.0);
        let mut server = SimServer::new(model, 2, 1);
        // Each tenant asks for the full capacity: each should get ~half.
        let mut t1 = 0.0;
        let mut t2 = 0.0;
        for _ in 0..100 {
            let d = server.tick(&[(cap, 0.0, 1.0), (cap, 0.0, 1.0)], 0.1);
            t1 = d[0];
            t2 = d[1];
        }
        assert!((t1 - cap / 2.0).abs() < cap * 0.1, "t1 {t1} vs {cap}");
        assert!((t2 - cap / 2.0).abs() < cap * 0.1);
    }

    #[test]
    fn single_tenant_unaffected_by_idle_neighbor() {
        let model = CapacityModel { jitter: 0.0, ..CapacityModel::mysql_like() };
        let mut server = SimServer::new(model, 2, 1);
        let mut d0 = 0.0;
        for _ in 0..100 {
            d0 = server.tick(&[(500.0, 0.0, 1.0), (0.0, 0.0, 1.0)], 0.1)[0];
        }
        assert!((d0 - 500.0).abs() < 10.0, "{d0}");
    }

    #[test]
    fn model_lookup() {
        for m in CapacityModel::all() {
            assert_eq!(CapacityModel::by_name(m.name).unwrap().name, m.name);
        }
        assert!(CapacityModel::by_name("nope").is_none());
    }
}
