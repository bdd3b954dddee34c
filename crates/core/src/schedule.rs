//! The schedule-source abstraction: who decides *what arrives when*.
//!
//! The Workload Manager (`executor::manager_loop`) runs one iteration per
//! second, but the decision of which requests that second contains is
//! delegated to a [`ScheduleSource`]. The default [`ScriptSchedule`]
//! reproduces the paper's live generation — `rate` arrivals per second,
//! spread by the current `ArrivalDist`, types sampled from the current
//! mixture — while `bp-replay` substitutes a recorded schedule to re-run a
//! captured workload deterministically.
//!
//! Transaction types are sampled here, at generation time, and pinned onto
//! each request. That makes the full schedule (arrival offset, type, phase)
//! a pure function of the seed and the script: two same-seed runs produce
//! byte-identical schedules no matter how worker threads interleave.

use bp_util::clock::{Micros, MICROS_PER_SEC};
use bp_util::rng::Rng;

use crate::controller::ControlState;
use crate::queue::ScheduledRequest;
use crate::rate::PhaseScript;

/// One second's plan from a schedule source.
#[derive(Debug, Default)]
pub struct Window {
    /// Requests to enqueue; offsets are µs relative to the window start.
    pub requests: Vec<ScheduledRequest>,
    /// New queue dispatch-gate rate (requests/s), when it changed this
    /// window. `Some(0.0)` removes the gate.
    pub gate_tps: Option<f64>,
    /// Schedule exhausted: the manager stops the run after this window.
    pub done: bool,
}

/// A source of per-second arrival windows driving the executor.
pub trait ScheduleSource: Send {
    /// Plan the window starting at `second * 1s` of run time. `behind_us` is
    /// how far wall-clock has slipped past that boundary when the manager
    /// got to it (sources may report it as lag). Sources read — and for
    /// phase transitions, update — the shared control state.
    fn plan(&mut self, second: u64, behind_us: Micros, state: &ControlState) -> Window;

    /// Whether the manager should wait for the queue backlog to drain before
    /// closing when the source reports `done`. Live scripts keep the
    /// historical close-immediately semantics; a recording and its replay
    /// wait, so that neither drops the tail the other runs.
    fn drain_on_done(&self) -> bool {
        false
    }
}

/// The live generator: turns the phase script (plus any runtime overrides
/// held in `ControlState`) into arrivals, exactly as §2.2.1 describes.
pub struct ScriptSchedule {
    script: PhaseScript,
    unlimited_rate: f64,
    rng: Rng,
    /// Fractional-arrival accumulator: preserves "the exact number of
    /// requests configured" over time for non-integer rates.
    carry: f64,
    last_phase: Option<usize>,
}

impl ScriptSchedule {
    pub fn new(script: PhaseScript, unlimited_rate: f64, seed: u64) -> ScriptSchedule {
        ScriptSchedule {
            script,
            unlimited_rate,
            rng: Rng::new(seed ^ 0xA5A5_5A5A),
            carry: 0.0,
            last_phase: None,
        }
    }
}

impl ScheduleSource for ScriptSchedule {
    fn plan(&mut self, second: u64, _behind_us: Micros, state: &ControlState) -> Window {
        let t_run = second * MICROS_PER_SEC;
        let mut w = Window::default();

        // Phase bookkeeping.
        match self.script.phase_at(t_run) {
            Some((idx, phase)) => {
                let new_phase = self.last_phase != Some(idx);
                state.apply_phase(
                    idx,
                    phase.rate,
                    phase.arrival,
                    phase.weights.as_deref(),
                    phase.think_time_us,
                    new_phase,
                );
                if new_phase {
                    w.gate_tps = Some(state.rate().arrivals_per_second(self.unlimited_rate));
                    self.last_phase = Some(idx);
                }
            }
            None => {
                w.done = true;
                return w;
            }
        }

        // Generate this second's arrivals (unless paused / disabled).
        if !state.is_paused() {
            let per_sec = state.rate().arrivals_per_second(self.unlimited_rate);
            let exact = per_sec + self.carry;
            let n = exact.floor() as usize;
            self.carry = exact - n as f64;
            if n > 0 {
                let offsets = state.arrival().offsets(n, &mut self.rng);
                let mixture = state.mixture();
                let phase = state.phase_idx().min(u16::MAX as usize) as u16;
                w.requests = offsets
                    .into_iter()
                    .map(|offset_us| ScheduledRequest {
                        offset_us,
                        txn_type: mixture.sample(&mut self.rng).min(u16::MAX as usize) as u16,
                        phase,
                    })
                    .collect();
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixture::Mixture;
    use crate::rate::{ArrivalDist, Phase, Rate};

    fn state_for(script: &PhaseScript) -> std::sync::Arc<ControlState> {
        let first = script.phases.first();
        let rate = first.map(|p| p.rate).unwrap_or(Rate::Disabled);
        let mixture = first
            .and_then(|p| p.weights.clone())
            .and_then(|w| Mixture::new(w).ok())
            .unwrap_or_else(|| Mixture::new(vec![50.0, 50.0]).unwrap());
        ControlState::new(rate, mixture, 50_000.0)
    }

    fn collect(script: PhaseScript, seed: u64) -> Vec<(u64, ScheduledRequest)> {
        let state = state_for(&script);
        let mut src = ScriptSchedule::new(script, 50_000.0, seed);
        let mut out = Vec::new();
        for second in 0.. {
            let w = src.plan(second, 0, &state);
            out.extend(w.requests.iter().map(|&r| (second, r)));
            if w.done {
                break;
            }
        }
        out
    }

    fn two_phase_script() -> PhaseScript {
        PhaseScript::new(vec![
            Phase::new(Rate::Limited(150.0), 2.0).with_weights(vec![70.0, 30.0]),
            Phase::new(Rate::Limited(250.0), 1.0)
                .with_weights(vec![10.0, 90.0])
                .with_arrival(ArrivalDist::Exponential),
        ])
    }

    #[test]
    fn same_seed_schedules_are_identical() {
        let a = collect(two_phase_script(), 7);
        let b = collect(two_phase_script(), 7);
        assert_eq!(a.len(), 150 * 2 + 250);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = collect(two_phase_script(), 7);
        let b = collect(two_phase_script(), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn phases_and_types_are_pinned() {
        let reqs = collect(two_phase_script(), 42);
        let phase1: Vec<_> = reqs.iter().filter(|(s, _)| *s < 2).collect();
        let phase2: Vec<_> = reqs.iter().filter(|(s, _)| *s >= 2).collect();
        assert!(phase1.iter().all(|(_, r)| r.phase == 0));
        assert!(phase2.iter().all(|(_, r)| r.phase == 1));
        // 70/30 vs 10/90 mixtures show up in the pinned types.
        let share0 = |rs: &[&(u64, ScheduledRequest)]| {
            rs.iter().filter(|(_, r)| r.txn_type == 0).count() as f64 / rs.len() as f64
        };
        assert!((share0(&phase1) - 0.7).abs() < 0.1, "phase 1 share {}", share0(&phase1));
        assert!((share0(&phase2) - 0.1).abs() < 0.1, "phase 2 share {}", share0(&phase2));
    }

    #[test]
    fn gate_set_only_on_phase_change() {
        let script = two_phase_script();
        let state = state_for(&script);
        let mut src = ScriptSchedule::new(script, 50_000.0, 1);
        assert_eq!(src.plan(0, 0, &state).gate_tps, Some(150.0));
        assert_eq!(src.plan(1, 0, &state).gate_tps, None);
        assert_eq!(src.plan(2, 0, &state).gate_tps, Some(250.0));
        let end = src.plan(3, 0, &state);
        assert!(end.done && end.requests.is_empty());
    }

    #[test]
    fn paused_state_skips_generation() {
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 5.0)]);
        let state = state_for(&script);
        let mut src = ScriptSchedule::new(script, 50_000.0, 1);
        state.pause();
        let w = src.plan(0, 0, &state);
        assert!(w.requests.is_empty() && !w.done);
        state.resume();
        assert_eq!(src.plan(1, 0, &state).requests.len(), 100);
    }
}
