//! Clock abstraction: wall-clock time for the threaded executor, virtual
//! time for the deterministic discrete-event executor.
//!
//! All timestamps in the testbed are microseconds (`u64`) since an arbitrary
//! epoch (process start for the wall clock, zero for simulated clocks).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Microseconds since the clock's epoch.
pub type Micros = u64;

pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A source of time. Implementations must be cheap and thread-safe.
pub trait Clock: Send + Sync {
    /// Current time in microseconds since the clock's epoch.
    fn now(&self) -> Micros;

    /// Block the calling thread for the given duration, leaving the CPU to
    /// others: a wait.
    ///
    /// For simulated clocks this advances virtual time instead of blocking.
    fn sleep(&self, micros: Micros);

    /// Hold the calling thread for the given duration as work would: the
    /// service time a database personality charges. Unless a clock says
    /// otherwise this is [`Clock::sleep`], so a simulated clock advances.
    fn busy(&self, micros: Micros) {
        self.sleep(micros);
    }

    /// Sleep until an absolute deadline; no-op if it already passed.
    fn sleep_until(&self, deadline: Micros) {
        let now = self.now();
        if deadline > now {
            self.sleep(deadline - now);
        }
    }
}

/// Real time, anchored at construction.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        WallClock { epoch: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Micros {
        self.epoch.elapsed().as_micros() as u64
    }

    fn sleep(&self, micros: Micros) {
        std::thread::sleep(Duration::from_micros(micros));
    }

    /// OS sleeps are far coarser than the service costs a personality
    /// charges, so a charge under 150 µs spins; a longer one sleeps all but
    /// its last 100 µs and spins those.
    fn busy(&self, micros: Micros) {
        let start = Instant::now();
        let target = Duration::from_micros(micros);
        if target > Duration::from_micros(150) {
            std::thread::sleep(target - Duration::from_micros(100));
        }
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
    }
}

/// A virtual clock advanced explicitly by a simulator.
///
/// `sleep` advances the clock immediately: the discrete-event executor is
/// single-threaded, so "sleeping" is simply time passing. Shared via `Arc` so
/// every component observes the same virtual time.
#[derive(Debug, Default)]
pub struct SimClock {
    now: AtomicU64,
}

impl SimClock {
    pub fn new() -> Arc<Self> {
        Arc::new(SimClock { now: AtomicU64::new(0) })
    }

    /// Advance to an absolute time. Time never moves backwards.
    pub fn advance_to(&self, t: Micros) {
        self.now.fetch_max(t, Ordering::SeqCst);
    }

    /// Advance by a delta.
    pub fn advance(&self, delta: Micros) {
        self.now.fetch_add(delta, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Micros {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep(&self, micros: Micros) {
        self.advance(micros);
    }
}

/// Shared handle to any clock.
pub type SharedClock = Arc<dyn Clock>;

/// Convenience constructors.
pub fn wall_clock() -> SharedClock {
    Arc::new(WallClock::new())
}

pub fn sim_clock() -> (Arc<SimClock>, SharedClock) {
    let c = SimClock::new();
    (c.clone(), c as SharedClock)
}

/// Ask the kernel to end the calling thread's timed waits when they are due.
///
/// Linux rounds every sleep and timed condvar wait of a normal thread up by
/// its *timer slack*, 50 µs unless changed, so that nearby expiries share
/// one interrupt. A terminal waiting on the rate gate sleeps for tens of µs
/// at a time; with the slack, two terminals waiting for the same dispatch
/// slot wake together and a whole spacing late, find two requests due and
/// run them at once. The slack is a per-thread setting in procfs; where the
/// file is missing (another OS, a locked-down `/proc`) this does nothing.
pub fn exact_timers() {
    if let Some(file) = timer_slack_file() {
        let _ = std::fs::write(file, "1");
    }
}

/// The calling thread's timer-slack setting in procfs, if there is a procfs.
/// "/proc/thread-self" links to "<pid>/task/<tid>"; the setting itself lives
/// under "/proc/<tid>", which resolves for any thread.
fn timer_slack_file() -> Option<std::path::PathBuf> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(std::path::Path::new("/proc").join(link.file_name()?).join("timerslack_ns"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn wall_clock_busy() {
        let c = WallClock::new();
        // Slept with a spun tail, and spun whole.
        for micros in [2_000, 300, 20] {
            let start = Instant::now();
            c.busy(micros);
            assert!(start.elapsed() >= Duration::from_micros(micros), "{micros} µs");
        }
    }

    /// The CPU time the calling thread has run for, from the first field of
    /// its schedstat; `None` without procfs.
    fn thread_cpu() -> Option<Duration> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        Some(Duration::from_nanos(stat.split_whitespace().next()?.parse().ok()?))
    }

    /// A wait leaves the CPU: 5 ms of sleep cost the thread under 1 ms of
    /// it (a spun tail alone would be 100 µs, a spun whole wait 5 ms).
    #[test]
    fn wall_clock_sleep_waits_without_spinning() {
        let c = WallClock::new();
        let Some(before) = thread_cpu() else { return }; // no procfs: nothing to read
        let start = Instant::now();
        c.sleep(5_000);
        assert!(start.elapsed() >= Duration::from_millis(5));
        let cpu = thread_cpu().unwrap() - before;
        assert!(cpu < Duration::from_millis(1), "a 5 ms sleep ran {cpu:?} on the CPU");
    }

    #[test]
    fn sim_clock_advances() {
        let (sim, clock) = sim_clock();
        assert_eq!(clock.now(), 0);
        sim.advance(500);
        assert_eq!(clock.now(), 500);
        clock.sleep(600);
        clock.busy(400);
        assert_eq!(clock.now(), 1_500);
        sim.advance_to(1_000); // backwards move ignored
        assert_eq!(clock.now(), 1_500);
        sim.advance_to(2_000);
        assert_eq!(clock.now(), 2_000);
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let (sim, clock) = sim_clock();
        sim.advance_to(100);
        clock.sleep_until(50);
        assert_eq!(clock.now(), 100);
        clock.sleep_until(250);
        assert_eq!(clock.now(), 250);
    }

    #[test]
    fn exact_timers_sets_the_calling_thread_only() {
        let slack = || timer_slack_file().and_then(|f| std::fs::read_to_string(f).ok());
        let Some(before) = slack() else { return }; // no procfs: nothing to set
        let inside = std::thread::spawn(move || {
            exact_timers();
            slack()
        });
        assert_eq!(inside.join().unwrap().as_deref().map(str::trim), Some("1"));
        assert_eq!(slack(), Some(before), "the spawning thread keeps its own setting");
    }
}
