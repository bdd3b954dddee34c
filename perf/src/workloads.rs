//! The four benchmark workloads and how each is driven.
//!
//! Names are fixed: later issues cite them. Why each exists is recorded in
//! `BENCHMARK.json` and `README.md`.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bp_core::{
    ArrivalDist, ControlState, Controller, Mixture, Phase, PhaseScript, Rate, ScheduleSource,
    ScheduledRequest, ScriptSchedule, Window, Workload,
};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::Micros;
use bp_util::rng::Rng;

use crate::host;

/// The `Workload` methods a wrapper passes straight to `self.inner`:
/// everything but `execute`.
macro_rules! forward_workload_to_inner {
    () => {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn class(&self) -> bp_core::BenchmarkClass {
            self.inner.class()
        }
        fn domain(&self) -> &'static str {
            self.inner.domain()
        }
        fn transaction_types(&self) -> Vec<bp_core::TransactionType> {
            self.inner.transaction_types()
        }
        fn create_schema(&self, conn: &mut bp_sql::Connection) -> bp_sql::Result<()> {
            self.inner.create_schema(conn)
        }
        fn load(
            &self,
            conn: &mut bp_sql::Connection,
            scale: f64,
            rng: &mut bp_util::rng::Rng,
        ) -> bp_sql::Result<bp_core::LoadSummary> {
            self.inner.load(conn, scale, rng)
        }
    };
}
pub(crate) use forward_workload_to_inner;

/// How requests are offered to the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Closed supply: the queue is kept non-empty and ungated, so the
    /// terminals run flat out.
    Saturated,
    /// Open loop at a fixed rate with exponential inter-arrival times
    /// (independent callers), through the stock rate gate.
    Paced { tps: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub bench: &'static str,
    pub scale: f64,
    /// Mixture weights; `None` is the benchmark's default mix.
    pub weights: Option<&'static [f64]>,
    pub terminals: usize,
    pub drive: Drive,
}

/// Every saturated workload drives one terminal. With two on this 2-core
/// host, identical runs disagree by up to half (the cores are shared with
/// other tenants, and the terminals with each other), and the host
/// correction needs the reference bursts and the transactions on one core.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ycsb_read_sat",
        bench: "ycsb",
        scale: 100.0,
        weights: Some(&[100.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        terminals: 1,
        drive: Drive::Saturated,
    },
    Spec {
        name: "smallbank_sat",
        bench: "smallbank",
        scale: 100.0,
        weights: None,
        terminals: 1,
        drive: Drive::Saturated,
    },
    Spec {
        name: "tpcc_sat",
        bench: "tpcc",
        scale: 50.0,
        weights: None,
        // Two terminals on this data also fail a fifth of their requests on
        // lock conflicts, and a workload with failures measures retries.
        terminals: 1,
        drive: Drive::Saturated,
    },
    Spec {
        name: "voter_paced",
        bench: "voter",
        scale: 3000.0,
        weights: None,
        terminals: 2,
        drive: Drive::Paced { tps: 20_000.0 },
    },
];

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Seconds of the run before the measured window opens.
    pub fn warmup_s(&self) -> u64 {
        match self.drive {
            // The top-up source needs two plans to find the service rate.
            Drive::Saturated => 3,
            // 3 s paced, then 1 s with the gate off: the start-up backlog
            // never drains through the gate (the never-exceed rule), so it
            // is drained before timing starts.
            Drive::Paced { .. } => 4,
        }
    }

    pub fn mixture(&self, workload: &dyn Workload) -> Mixture {
        match self.weights {
            Some(w) => Mixture::new(w.to_vec()).expect("spec weights are valid"),
            None => Mixture::default_of(&workload.transaction_types()),
        }
    }

    /// The phase script for a window of `window_s` seconds. Saturated runs
    /// use it only for the initial rate and mixture; `TopUpSource` plans
    /// the arrivals.
    pub fn script(&self, window_s: u64) -> PhaseScript {
        let phase = |rate, secs: u64| {
            let p = Phase::new(rate, secs as f64).with_arrival(ArrivalDist::Exponential);
            match self.weights {
                Some(w) => p.with_weights(w.to_vec()),
                None => p,
            }
        };
        // Two spare seconds so the run is still going when the window's
        // last second is read.
        let tail = window_s + 2;
        match self.drive {
            Drive::Saturated => {
                PhaseScript::new(vec![phase(Rate::Unlimited, self.warmup_s() + tail)])
            }
            Drive::Paced { tps } => PhaseScript::new(vec![
                phase(Rate::Limited(tps), 3),
                phase(Rate::Disabled, 1),
                phase(Rate::Limited(tps), tail),
            ]),
        }
    }

    /// The schedule source for this drive. `controller` is filled in once
    /// the run has started; the top-up source reads backlog and completions
    /// through it.
    pub fn source(
        &self,
        workload: &dyn Workload,
        window_s: u64,
        seed: u64,
        controller: Arc<OnceLock<Controller>>,
    ) -> Box<dyn ScheduleSource> {
        match self.drive {
            Drive::Saturated => {
                Box::new(TopUpSource::new(self.mixture(workload), seed, controller))
            }
            Drive::Paced { .. } => Box::new(ScriptSchedule::new(self.script(window_s), 0.0, seed)),
        }
    }
}

/// A loaded database and the workload instance that loaded it (workloads
/// remember what they loaded, so the two travel together).
pub struct Loaded {
    pub db: Arc<Database>,
    pub workload: Arc<dyn Workload>,
    /// Wall time of schema creation plus load, less the time the
    /// hypervisor took from this machine meanwhile.
    pub seconds: f64,
}

/// Create the schema and load the data: the benchmark's set-up step.
/// `Personality::test()` has no synthetic service delays — a spin delay
/// would swamp any real saving.
///
/// A load is one thread and nothing else of this process runs beside it, so
/// what the hypervisor stole while it ran (see [`host::steal_seconds`]) was
/// stolen from it and is taken off its time.
pub fn load(spec: &Spec, seed: u64) -> Loaded {
    let (started, stolen_before) = (Instant::now(), host::steal_seconds());
    let db = Database::new(Personality::test());
    let workload = bp_workloads::by_name(spec.bench).expect("bundled benchmark");
    let mut conn = Connection::open(&db);
    workload
        .setup(&mut conn, spec.scale, &mut Rng::new(seed))
        .unwrap_or_else(|e| panic!("{} load failed: {e}", spec.name));
    Loaded {
        db,
        workload,
        seconds: started.elapsed().as_secs_f64() - (host::steal_seconds() - stolen_before),
    }
}

/// Bounded saturation. `Rate::Unlimited` with a large constant oversupplies
/// the queue until it holds millions of requests; this source instead tops
/// the backlog up, once a second, to a multiple of what the terminals
/// completed in the last second. The queue never empties and never grows.
pub struct TopUpSource {
    mixture: Mixture,
    rng: Rng,
    controller: Arc<OnceLock<Controller>>,
    completed_before: u64,
    target: usize,
}

impl TopUpSource {
    /// Backlog target before the service rate is known, and its floor after.
    const FLOOR: usize = 50_000;
    /// Backlog target as a multiple of the last second's completions: one
    /// second of work plus headroom for a second that runs 2.5× faster.
    const HEADROOM: f64 = 2.5;

    pub fn new(mixture: Mixture, seed: u64, controller: Arc<OnceLock<Controller>>) -> TopUpSource {
        TopUpSource {
            mixture,
            rng: Rng::new(seed ^ 0x70_9D_0F_F5),
            controller,
            completed_before: 0,
            target: Self::FLOOR,
        }
    }
}

impl ScheduleSource for TopUpSource {
    fn plan(&mut self, second: u64, _behind_us: Micros, _state: &ControlState) -> Window {
        let (backlog, completed) = match self.controller.get() {
            Some(c) => (c.backlog(), c.stats().total_completed()),
            None => (0, 0),
        };
        let last_second = completed - self.completed_before;
        self.completed_before = completed;
        self.target = if second > 0 && backlog == 0 {
            // Ran dry: the service rate is above the target, by an unknown
            // factor.
            self.target * 4
        } else {
            ((last_second as f64 * Self::HEADROOM) as usize).max(Self::FLOOR)
        };
        let requests = (0..self.target.saturating_sub(backlog))
            .map(|_| ScheduledRequest {
                offset_us: 0,
                txn_type: self.mixture.sample(&mut self.rng) as u16,
                phase: 0,
            })
            .collect();
        Window {
            requests,
            gate_tps: (second == 0).then_some(0.0),
            done: false,
        }
    }
}
