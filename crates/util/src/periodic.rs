//! The one way a background task in this workspace is paced and stopped.
//!
//! [`Periodic::spawn`] runs a tick function on a named thread once per
//! period of wall time. The schedule is fixed-rate: tick *n* is due at
//! `spawn + n * period`, the first one period after spawn. A tick that
//! overruns skips the slots it missed; they are never replayed in a burst.
//! Between ticks the thread waits on a condvar, so [`Periodic::stop`] (or
//! dropping the handle) wakes it at once and joins it, whatever the period.
//! The thread also ends by itself when the tick returns `false`.
//!
//! There is no clock parameter on purpose: the pacing is real time. An
//! injected `Clock::sleep` cannot be interrupted, and under `SimClock` it
//! does not block at all, so a loop paced by it spins. What a tick compares
//! reads the run's clock (the checkpoint timer reads the database's); ticks
//! in virtual time need an event loop that calls them when they are due.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

struct Signal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// Handle to a periodic background thread; stops and joins it on drop.
pub struct Periodic {
    signal: Arc<Signal>,
    thread: Option<JoinHandle<()>>,
}

impl Periodic {
    /// Run `tick` on a thread called `name` every `period_us` until the
    /// handle is stopped or dropped, or `tick` returns `false`.
    pub fn spawn(
        name: impl Into<String>,
        period_us: u64,
        mut tick: impl FnMut() -> bool + Send + 'static,
    ) -> Periodic {
        let signal = Arc::new(Signal { stopped: Mutex::new(false), wake: Condvar::new() });
        let shared = signal.clone();
        let period = Duration::from_micros(period_us.max(1));
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let mut due = Instant::now() + period;
                loop {
                    let mut stopped = shared.stopped.lock();
                    while !*stopped {
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        shared.wake.wait_for(&mut stopped, due - now);
                    }
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    if !tick() {
                        return;
                    }
                    // The next slot still ahead: an overrun drops the slots
                    // it missed and stays on the grid.
                    let slots = due.elapsed().as_nanos() / period.as_nanos() + 1;
                    due += period * u32::try_from(slots).unwrap_or(u32::MAX);
                }
            })
            .expect("spawn periodic thread");
        Periodic { signal, thread: Some(thread) }
    }

    /// Wake the thread, tell it to end, and wait for it. A tick in progress
    /// finishes first. Called from inside the tick itself (the tick owns
    /// something that owns this handle) it only signals: the thread ends
    /// when that tick returns, and nothing joins it.
    pub fn stop(&mut self) {
        *self.signal.stopped.lock() = true;
        self.signal.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }

    /// True once the thread has ended, by `stop` or by a `false` tick.
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const PERIOD: Duration = Duration::from_millis(5);

    fn wait_finished(p: &Periodic) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !p.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(p.is_finished(), "thread still running");
    }

    #[test]
    fn stop_does_not_wait_out_the_period() {
        let ticks = Arc::new(AtomicU64::new(0));
        let n = ticks.clone();
        let mut p = Periodic::spawn("t-stop", 10_000_000, move || {
            n.fetch_add(1, Ordering::Relaxed);
            true
        });
        assert!(!p.is_finished());
        let t0 = Instant::now();
        p.stop();
        assert!(t0.elapsed() < Duration::from_millis(50), "stop took {:?}", t0.elapsed());
        assert!(p.is_finished());
        assert_eq!(ticks.load(Ordering::Relaxed), 0, "first tick is one period after spawn");
        p.stop(); // idempotent
    }

    #[test]
    fn ticks_at_the_period_and_never_faster() {
        let ticks = Arc::new(AtomicU64::new(0));
        let n = ticks.clone();
        let t0 = Instant::now();
        let p = Periodic::spawn("t-rate", PERIOD.as_micros() as u64, move || {
            n.fetch_add(1, Ordering::Relaxed);
            true
        });
        std::thread::sleep(PERIOD * 20);
        drop(p);
        let slots = (t0.elapsed().as_micros() / PERIOD.as_micros()) as u64;
        let got = ticks.load(Ordering::Relaxed);
        assert!(got <= slots, "{got} ticks in {slots} periods");
        assert!(got + 5 >= slots, "{got} ticks in {slots} periods");
        std::thread::sleep(PERIOD * 3);
        assert_eq!(ticks.load(Ordering::Relaxed), got, "no ticks after drop");
    }

    #[test]
    fn slow_tick_is_skipped_not_replayed() {
        let starts = Arc::new(Mutex::new(Vec::<Instant>::new()));
        let slow_end = Arc::new(Mutex::new(None::<Instant>));
        let (s, e) = (starts.clone(), slow_end.clone());
        let t0 = Instant::now();
        let p = Periodic::spawn("t-slow", PERIOD.as_micros() as u64, move || {
            let mut starts = s.lock();
            starts.push(Instant::now());
            let slow = starts.len() == 5;
            drop(starts);
            if slow {
                std::thread::sleep(PERIOD * 3);
                *e.lock() = Some(Instant::now());
            }
            true
        });
        std::thread::sleep(PERIOD * 20);
        drop(p);
        let slots = (t0.elapsed().as_micros() / PERIOD.as_micros()) as usize;
        let starts = starts.lock();
        let end = slow_end.lock().expect("the slow tick ran");
        // Slots are one period apart, so at most one can start within a
        // period of the slow tick's end; a replay would start three.
        let burst = starts.iter().filter(|t| **t > end && **t <= end + PERIOD).count();
        assert!(burst <= 1, "{burst} ticks within one period of the slow one");
        assert!(starts.len() + 3 <= slots, "{} ticks in {slots} periods", starts.len());
    }

    #[test]
    fn false_tick_ends_the_thread() {
        let ticks = Arc::new(AtomicU64::new(0));
        let n = ticks.clone();
        let p = Periodic::spawn("t-false", 1_000, move || n.fetch_add(1, Ordering::Relaxed) < 2);
        wait_finished(&p);
        assert_eq!(ticks.load(Ordering::Relaxed), 3, "ran until the tick said stop");
    }

    #[test]
    fn dropping_the_only_handle_inside_the_tick() {
        let slot = Arc::new(Mutex::new(None::<Periodic>));
        let inner = slot.clone();
        let ticks = Arc::new(AtomicU64::new(0));
        let n = ticks.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        // The thread cannot tick before `slot` is filled: the first tick is
        // a whole period away.
        *slot.lock() = Some(Periodic::spawn("t-self", 20_000, move || {
            n.fetch_add(1, Ordering::Relaxed);
            drop(inner.lock().take());
            tx.send(()).expect("test is waiting");
            true
        }));
        rx.recv_timeout(Duration::from_secs(5)).expect("tick returned from dropping its handle");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(ticks.load(Ordering::Relaxed), 1, "the dropped handle stopped the thread");
        assert!(slot.lock().is_none());
    }
}
