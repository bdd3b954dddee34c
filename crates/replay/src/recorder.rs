//! The capture side: a low-overhead schedule recorder.
//!
//! [`RecordingSource`] decorates any `ScheduleSource` and deposits every
//! planned request into a [`Recorder`] as it flows to the queue — capture
//! happens at generation time on the manager thread, one batch per second,
//! so the record order is deterministic and nothing touches the worker hot
//! path. At that rate one lock is all the buffer needs, even when a second
//! tenant's manager records into a shared recorder.

use std::sync::Arc;

use bp_core::{ControlState, ScheduleSource, Window};
use bp_obs::{MetricsBuf, MetricsSource};
use bp_util::clock::{Micros, MICROS_PER_SEC};
use bp_util::sync::Mutex;

/// One captured request: where in the run it arrived and what it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRecord {
    /// Arrival time, µs since run start (window base + in-window offset).
    pub offset_us: Micros,
    pub tenant: u16,
    pub txn_type: u16,
    pub phase: u16,
}

/// Append-only buffer of captured schedule records.
#[derive(Default)]
pub struct Recorder {
    records: Mutex<Vec<ScheduleRecord>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Capture one window's records: one lock + a memcpy-style extend,
    /// amortizing to ~ns per request.
    pub fn capture_batch(&self, records: impl IntoIterator<Item = ScheduleRecord>) {
        self.records.lock().extend(records);
    }

    /// Total records captured so far.
    pub fn captured(&self) -> u64 {
        self.records.lock().len() as u64
    }

    /// The captured schedule in arrival order. The sort is stable, so
    /// records of one manager thread (already in generation order) keep
    /// their relative order at equal offsets — which is what makes
    /// same-seed snapshots byte-identical.
    pub fn snapshot(&self) -> Vec<ScheduleRecord> {
        let mut all = self.records.lock().clone();
        all.sort_by_key(|r| r.offset_us);
        all
    }
}

/// `bp_replay_captured_total` for `/metrics`.
impl MetricsSource for Recorder {
    fn collect(&self, buf: &mut MetricsBuf) {
        buf.counter(
            "bp_replay_captured_total",
            "Schedule records captured by the replay recorder",
            &[],
            self.captured() as f64,
        );
    }
}

/// A `ScheduleSource` decorator that records everything the inner source
/// plans, stamped with the recording tenant.
pub struct RecordingSource<S> {
    inner: S,
    recorder: Arc<Recorder>,
    tenant: u16,
}

impl<S: ScheduleSource> RecordingSource<S> {
    pub fn new(inner: S, recorder: Arc<Recorder>, tenant: u16) -> RecordingSource<S> {
        RecordingSource { inner, recorder, tenant }
    }
}

impl<S: ScheduleSource> ScheduleSource for RecordingSource<S> {
    fn plan(&mut self, second: u64, behind_us: Micros, state: &ControlState) -> Window {
        let window = self.inner.plan(second, behind_us, state);
        if !window.requests.is_empty() {
            let base = second * MICROS_PER_SEC;
            self.recorder.capture_batch(window.requests.iter().map(|r| ScheduleRecord {
                offset_us: base + r.offset_us,
                tenant: self.tenant,
                txn_type: r.txn_type,
                phase: r.phase,
            }));
        }
        window
    }

    /// A recorded run drains its tail as its replay does, so that its trace
    /// holds an outcome for every request its schedule holds.
    fn drain_on_done(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{ControlState, Mixture, Phase, PhaseScript, Rate, ScriptSchedule};

    fn run_recorded(seed: u64) -> Vec<ScheduleRecord> {
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Limited(120.0), 1.0).with_weights(vec![60.0, 40.0]),
            Phase::new(Rate::Limited(80.0), 1.0),
        ]);
        let state = ControlState::new(
            Rate::Limited(120.0),
            Mixture::new(vec![60.0, 40.0]).unwrap(),
            50_000.0,
        );
        let recorder = Arc::new(Recorder::new());
        let mut src = RecordingSource::new(
            ScriptSchedule::new(script, 50_000.0, seed),
            recorder.clone(),
            3,
        );
        for second in 0.. {
            if src.plan(second, 0, &state).done {
                break;
            }
        }
        recorder.snapshot()
    }

    #[test]
    fn capture_is_deterministic_and_ordered() {
        let a = run_recorded(11);
        let b = run_recorded(11);
        assert_eq!(a.len(), 200);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].offset_us <= w[1].offset_us));
        assert!(a.iter().all(|r| r.tenant == 3));
        assert_ne!(a, run_recorded(12));
    }

    #[test]
    fn captured_counter_tracks_batches() {
        let r = Recorder::new();
        assert_eq!(r.captured(), 0);
        r.capture_batch([
            ScheduleRecord { offset_us: 5, tenant: 0, txn_type: 1, phase: 0 },
            ScheduleRecord { offset_us: 2, tenant: 0, txn_type: 0, phase: 0 },
        ]);
        assert_eq!(r.captured(), 2);
        assert_eq!(r.snapshot()[0].offset_us, 2, "snapshot sorts by arrival");
        let mut buf = MetricsBuf::new();
        r.collect(&mut buf);
        assert!(!buf.into_samples().is_empty());
    }
}
