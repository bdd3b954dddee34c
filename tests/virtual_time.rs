//! The driver in virtual time, held to the paper's rate claims exactly:
//! `VirtualRun` runs the live run's manager step, queue gate and stats
//! collector on a `SimClock`, each tenant steered through a live
//! `Controller`, so the never-exceed property and the rate error are
//! counted, not sampled, and no wall clock can flake them.

use std::sync::Arc;

use benchpress::core::{
    BenchmarkClass, LoadSummary, PhaseScript, Rate, RunConfig, TransactionType, TxnOutcome, VirtualRun, Workload,
};
use benchpress::obs::{ObsConfig, SpanMode};
use benchpress::sql::{Connection, Result as SqlResult};
use benchpress::storage::Personality;
use benchpress::util::clock::MICROS_PER_SEC;
use benchpress::util::rng::Rng;

/// Whole virtual seconds each rate runs: two are enough at 1.5M tx/s to
/// keep a debug build of this test within a few seconds.
const SECONDS: u64 = 2;

/// A workload whose transaction sends no statement: on `Personality::test()`
/// nothing is charged, so the stage never binds. A request completes in the
/// microsecond it is dispatched and the per-second completion series *is*
/// the per-second dispatch series.
struct Unbound;

impl Workload for Unbound {
    fn name(&self) -> &'static str {
        "unbound"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::FeatureTesting
    }

    fn domain(&self) -> &'static str {
        "test"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![TransactionType::new("T", 100.0, true)]
    }

    fn create_schema(&self, _conn: &mut Connection) -> SqlResult<()> {
        Ok(())
    }

    fn load(&self, _conn: &mut Connection, _scale: f64, _rng: &mut Rng) -> SqlResult<LoadSummary> {
        Ok(LoadSummary::default())
    }

    fn execute(&self, _txn_idx: usize, _conn: &mut Connection, _rng: &mut Rng) -> SqlResult<TxnOutcome> {
        Ok(TxnOutcome::Committed)
    }
}

fn unbound() -> VirtualRun {
    VirtualRun::new(Personality::test(), Arc::new(Unbound), 7)
}

/// A tenant offered `rate` for a minute, with spans off.
fn constant(rate: f64) -> RunConfig {
    let obs = ObsConfig { mode: SpanMode::Off, ..ObsConfig::default() };
    RunConfig { script: PhaseScript::constant(Rate::Limited(rate), 60.0), obs, ..RunConfig::default() }
}

/// `(requested, dispatched)` per whole second of a run offered `rate`.
fn per_second(rate: f64) -> Vec<(u64, u64)> {
    let mut run = unbound();
    let tenant = run.add_tenant(constant(rate));
    run.run_until(SECONDS * MICROS_PER_SEC - 1);
    let stats = tenant.stats();
    let requested = stats.requested_series();
    let dispatched = stats.throughput_series();
    assert_eq!(requested.len(), SECONDS as usize, "one window per second");
    assert_eq!(dispatched.len(), SECONDS as usize, "nothing of the next second");
    requested.iter().zip(&dispatched).map(|(r, d)| (*r as u64, *d as u64)).collect()
}

#[test]
fn the_gate_never_exceeds_the_rate_and_delivers_within_one_percent() {
    for rate in [300.0, 1_500_000.0] {
        let seconds = per_second(rate);
        for (s, &(requested, dispatched)) in seconds.iter().enumerate() {
            assert_eq!(requested, rate as u64, "second {s} at {rate}: the manager's window");
            assert!(
                dispatched <= rate as u64 + 1,
                "second {s} at {rate}: {dispatched} dispatched exceeds the rate"
            );
        }
        let requested: u64 = seconds.iter().map(|s| s.0).sum();
        let delivered: u64 = seconds.iter().map(|s| s.1).sum();
        assert!(
            delivered <= requested && delivered * 100 >= requested * 99,
            "at {rate}: {delivered} delivered of {requested} requested"
        );
    }
}

#[test]
fn a_rate_cut_mid_second_is_paced_by_the_gate_not_burst() {
    // Second 0 is planned at 600 tx/s and cut to 300 half way through: what
    // is left of its window becomes a backlog that only the gate holds to
    // the new rate, since its arrival times have all passed.
    let mut run = unbound();
    let tenant = run.add_tenant(constant(600.0));
    run.run_until(MICROS_PER_SEC / 2);
    tenant.set_rate(Rate::Limited(300.0));
    run.run_until(4 * MICROS_PER_SEC - 1);
    let stats = tenant.stats();
    assert_eq!(stats.requested_series(), [600.0, 300.0, 300.0, 300.0]);
    let dispatched = stats.throughput_series();
    assert!((dispatched[0] - 450.0).abs() <= 1.0, "300 at 600/s, then 150 at 300/s: {dispatched:?}");
    for d in &dispatched[1..] {
        assert!(*d <= 301.0, "the backlog bursts past the gate: {dispatched:?}");
        assert!(*d >= 299.0, "the backlog keeps the gate busy: {dispatched:?}");
    }
}
