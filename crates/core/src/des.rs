//! Deterministic simulated runs: drive a [`SimDbms`] through a phase script
//! on virtual time.
//!
//! This is the fast path for the shape experiments (steps, sinusoid, peak,
//! tunnel) and the substrate the game's autopilot/physics tests run on:
//! a full multi-minute scenario simulates in microseconds, deterministically.

use bp_util::clock::MICROS_PER_SEC;

use crate::mixture::Mixture;
use crate::model::SimDbms;
use crate::rate::PhaseScript;
use crate::workload::TransactionType;

/// One sample of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSample {
    /// Time since run start (seconds).
    pub t_s: f64,
    /// Requested (target) rate at this instant.
    pub requested: f64,
    /// Delivered throughput.
    pub delivered: f64,
    /// Modeled mean latency (µs).
    pub latency_us: f64,
}

/// Result of a simulated run.
#[derive(Debug, Clone, Default)]
pub struct SimRun {
    pub samples: Vec<SimSample>,
    pub dt_s: f64,
}

impl SimRun {
    /// Delivered series, one value per sample.
    pub fn delivered(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.delivered).collect()
    }

    pub fn requested(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.requested).collect()
    }
}

/// Simulate a phase script against a model DBMS.
///
/// `types` provides read-only flags and relative costs so phase mixtures
/// translate into write-share / cost inputs of the capacity model.
pub fn simulate_script(
    dbms: &mut SimDbms,
    script: &PhaseScript,
    types: &[TransactionType],
    unlimited_rate: f64,
    dt_s: f64,
) -> SimRun {
    let total_us = script.total_duration_us();
    let steps = (total_us as f64 / (dt_s * MICROS_PER_SEC as f64)).ceil() as usize;
    let default_mixture = Mixture::default_of(types);
    let mut samples = Vec::with_capacity(steps);
    let mut current_mixture = default_mixture.clone();
    let mut last_phase = usize::MAX;

    for step in 0..steps {
        let t_us = (step as f64 * dt_s * MICROS_PER_SEC as f64) as u64;
        let Some((idx, phase)) = script.phase_at(t_us) else { break };
        if idx != last_phase {
            last_phase = idx;
            if let Some(w) = &phase.weights {
                if let Ok(m) = Mixture::new(w.clone()) {
                    current_mixture = m;
                }
            }
        }
        let requested = phase.rate.arrivals_per_second(unlimited_rate);
        let write_share = current_mixture.write_share(types);
        let mean_cost = current_mixture.mean_cost(types);
        let delivered = dbms.tick(requested, write_share, mean_cost, dt_s);
        let latency_us = dbms.model.latency_us(requested, write_share, mean_cost);
        samples.push(SimSample {
            t_s: t_us as f64 / MICROS_PER_SEC as f64,
            requested,
            delivered,
            latency_us,
        });
    }
    SimRun { samples, dt_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CapacityModel;
    use crate::rate::{Phase, Rate};

    fn types() -> Vec<TransactionType> {
        vec![
            TransactionType::new("r", 50.0, true),
            TransactionType::new("w", 50.0, false),
        ]
    }

    fn quiet(name: &str) -> SimDbms {
        let mut m = CapacityModel::by_name(name).unwrap();
        m.jitter = 0.0;
        SimDbms::new(m, 1)
    }

    #[test]
    fn tracks_constant_rate_under_capacity() {
        let mut dbms = quiet("mysql");
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(400.0), 10.0)]);
        let run = simulate_script(&mut dbms, &script, &types(), 1e5, 0.1);
        let tail = &run.delivered()[run.samples.len() - 10..];
        for v in tail {
            assert!((v - 400.0).abs() < 10.0, "{v}");
        }
    }

    #[test]
    fn saturates_at_capacity() {
        let mut dbms = quiet("derby");
        let cap = dbms.model.capacity(0.5, 1.0);
        let script = PhaseScript::new(vec![Phase::new(Rate::Unlimited, 20.0)]);
        let run = simulate_script(&mut dbms, &script, &types(), 1e5, 0.1);
        let last = *run.delivered().last().unwrap();
        assert!(last < cap, "delivered {last} must stay below capacity {cap}");
        assert!(last > cap * 0.3);
    }

    #[test]
    fn mixture_change_boosts_read_heavy_throughput() {
        let mut dbms = quiet("mysql");
        // Saturating load; write-heavy then read-only mixture.
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Unlimited, 20.0).with_weights(vec![0.0, 100.0]),
            Phase::new(Rate::Unlimited, 20.0).with_weights(vec![100.0, 0.0]),
        ]);
        let run = simulate_script(&mut dbms, &script, &types(), 1e5, 0.1);
        // Seconds 15-18 of each phase, ten samples a second.
        let delivered = run.delivered();
        let write_heavy = delivered[150..190].iter().sum::<f64>() / 40.0;
        let read_only = delivered[350..390].iter().sum::<f64>() / 40.0;
        assert!(
            read_only > write_heavy * 1.6,
            "read-only {read_only} vs write-heavy {write_heavy}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(500.0), 5.0)]);
        let mut a = SimDbms::new(CapacityModel::mysql_like(), 9);
        let mut b = SimDbms::new(CapacityModel::mysql_like(), 9);
        let ra = simulate_script(&mut a, &script, &types(), 1e5, 0.1);
        let rb = simulate_script(&mut b, &script, &types(), 1e5, 0.1);
        assert_eq!(ra.samples, rb.samples);
    }
}
