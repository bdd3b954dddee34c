//! What the host tells us about this process: CPU time, resident memory,
//! and a frozen reference kernel that measures how fast the box was while a
//! timing was taken.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bp_core::{TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::summary::median;
use crate::workloads::forward_workload_to_inner;

/// Linux reports utime/stime in clock ticks; `USER_HZ` is 100 on every
/// architecture this crate builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime of a `/proc/.../stat` file, in seconds.
fn stat_cpu_seconds(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // The command name may contain spaces; fields are counted after ")".
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let mut fields = rest.split_ascii_whitespace();
    // After ")": state is field 3, utime is 14, stime is 15.
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_SEC
}

/// Process CPU time (user + system, all threads, live and exited), seconds.
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU time of the calling thread, seconds. (The scheduler's ns-resolution
/// `schedstat` reads 0 on this kernel, so this has the same 10 ms tick.)
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// Time the hypervisor ran something else while a virtual core of this
/// machine had work to do, summed over the cores, seconds since boot.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    // "cpu user nice system idle iowait irq softirq steal ..."
    let steal = stat
        .lines()
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(8));
    steal.and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) / TICKS_PER_SEC
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Peak resident set size so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resident set size now, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// The frozen reference kernel: ordered-map point lookups, a row clone and
/// an uncontended mutex per step — the same kinds of work a point read does
/// in the engine, but none of the engine's code, so its time moves only
/// with the host. Returns the milliseconds `steps` steps took.
fn kernel_ms(map: &BTreeMap<u64, Vec<u64>>, steps: u32) -> f64 {
    let lock = Mutex::new(0u64);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let row = map
            .get(&(x % map.len() as u64))
            .expect("key in range")
            .clone();
        *lock.lock().expect("kernel mutex") += black_box(row)[0];
    }
    black_box(&lock);
    t0.elapsed().as_secs_f64() * 1e3
}

/// How much of the reference kernel runs at a time, and how often.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    steps: u32,
    every: Duration,
}

impl Cadence {
    /// For a saturated terminal: about 1.2 ms of work every 50 ms, 2.5 % of
    /// one core, and 20 requests a second that take 1.2 ms longer.
    pub const SATURATED: Cadence = Cadence {
        steps: NOMINAL_STEPS,
        every: Duration::from_millis(50),
    };
    /// For a paced terminal: about 0.1 ms every 5 ms, the same share of a
    /// core in pieces no longer than a slow transaction. A terminal that
    /// stood still for a millisecond would miss the requests due meanwhile
    /// (the gate never catches up), and that is the thing measured.
    pub const PACED: Cadence = Cadence {
        steps: NOMINAL_STEPS / 12,
        every: Duration::from_millis(5),
    };
}

/// What `NOMINAL_STEPS` steps take on the box the benchmark was defined on,
/// in its fast regime. Frozen: it only fixes the scale of the normalised
/// metrics. Burst times are logged per `NOMINAL_STEPS` steps.
const NOMINAL_STEPS: u32 = 10_000;
pub const BURST_NOMINAL_MS: f64 = 1.2;

/// The kernel's data and the log of bursts run so far.
struct Bursts {
    map: BTreeMap<u64, Vec<u64>>,
    cadence: Cadence,
    /// When each burst began and its time in ms per `NOMINAL_STEPS` steps.
    log: Mutex<Vec<(Instant, f64)>>,
}

impl Bursts {
    fn new(cadence: Cadence) -> Arc<Bursts> {
        Arc::new(Bursts {
            map: (0..4096).map(|k| (k, vec![k; 8])).collect(),
            cadence,
            log: Mutex::new(Vec::new()),
        })
    }

    fn run_one(&self) {
        let at = Instant::now();
        let steps = self.cadence.steps;
        let ms = kernel_ms(&self.map, steps) * NOMINAL_STEPS as f64 / steps as f64;
        self.log.lock().expect("burst log").push((at, ms));
    }
}

/// The host's speed, sampled while the measured work runs.
///
/// This host's speed drifts by a fifth over tens of seconds (other tenants
/// on the same cores), and identical runs followed it: raw timings did not
/// repeat within any bound the benchmark may set. So a burst of the frozen
/// kernel runs every few ms (see [`Cadence`]) next to the measured work, and
/// a timing taken over an interval is divided by how slow the bursts in that
/// interval were against `BURST_NOMINAL_MS`. What remains is the program's
/// cost relative to frozen work done on the same core at the same time —
/// which a change to the program moves and a slow minute does not.
///
/// The bursts run where the measured work runs, inside the driver's
/// terminal ([`HostRef::inside`]): the two virtual cores do not slow down
/// together, so bursts on a thread of their own measure the wrong core. (That
/// is also why loads are not corrected: a load is a single call, and bursts
/// beside it or around it tracked its time no better than chance.)
pub struct HostRef {
    bursts: Arc<Bursts>,
}

impl HostRef {
    /// Bursts inside `workload`: the returned workload runs one on the
    /// calling terminal's thread at `cadence`, before a transaction. The
    /// burst is part of that request's service time and costs the terminal
    /// 2.5 % of its time, the same on every commit.
    pub fn inside(workload: Arc<dyn Workload>, cadence: Cadence) -> (HostRef, Arc<dyn Workload>) {
        let bursts = Bursts::new(cadence);
        let wrapped = Arc::new(Interleaved {
            inner: workload,
            bursts: bursts.clone(),
            countdown: AtomicI64::new(0),
            pacing: Mutex::new((Instant::now(), 1)),
        });
        (HostRef { bursts }, wrapped)
    }

    /// Median time, in ms per `NOMINAL_STEPS` steps, of the bursts that
    /// began in `[from, to)`; `None` when none did.
    pub fn burst_ms(&self, from: Instant, to: Instant) -> Option<f64> {
        let inside: Vec<f64> = self
            .bursts
            .log
            .lock()
            .expect("burst log")
            .iter()
            .filter(|(at, _)| (from..to).contains(at))
            .map(|&(_, ms)| ms)
            .collect();
        (!inside.is_empty()).then(|| median(&inside))
    }

    /// How slow the host was over `[from, to)`: 1 is the nominal speed, 1.2
    /// means frozen work took a fifth longer.
    pub fn slowdown(&self, from: Instant, to: Instant) -> Option<f64> {
        self.burst_ms(from, to).map(|ms| ms / BURST_NOMINAL_MS)
    }
}

/// A workload that runs a reference burst on the caller's thread every
/// `cadence.every`. Time is not read per transaction (a clock read is 1 % of
/// a point read): transactions are counted down, and the count between
/// bursts is re-tuned at each burst from the time the last one took to come
/// round.
struct Interleaved {
    inner: Arc<dyn Workload>,
    bursts: Arc<Bursts>,
    countdown: AtomicI64,
    /// When the last burst ran, and the transactions counted down to it.
    pacing: Mutex<(Instant, i64)>,
}

impl Interleaved {
    #[cold]
    fn burst(&self) {
        let mut pacing = self.pacing.lock().expect("pacing");
        let (last, every) = *pacing;
        let took = last.elapsed().as_secs_f64().max(1e-6);
        // Aim at the cadence, moving at most 8x a step while finding the rate.
        let tuned = (every as f64 * self.bursts.cadence.every.as_secs_f64() / took)
            .clamp(every as f64 / 8.0, every as f64 * 8.0);
        let every = (tuned as i64).max(1);
        self.countdown.store(every, Ordering::Relaxed);
        self.bursts.run_one();
        *pacing = (Instant::now(), every);
    }
}

impl Workload for Interleaved {
    forward_workload_to_inner!();

    fn execute(
        &self,
        txn_idx: usize,
        conn: &mut Connection,
        rng: &mut Rng,
    ) -> SqlResult<TxnOutcome> {
        if self.countdown.fetch_sub(1, Ordering::Relaxed) <= 0 {
            self.burst();
        }
        self.inner.execute(txn_idx, conn, rng)
    }
}
