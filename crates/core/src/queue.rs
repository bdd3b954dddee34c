//! The centralized request queue (§2.1, §2.2.1).
//!
//! "Using a centralized queue allows us to control the throughput from one
//! location without needing to coordinate the multiple threads."
//!
//! The Workload Manager pushes timestamped arrivals; workers pull. Two rules
//! give the paper's *never-exceed* guarantee:
//!
//! 1. a request may not be dispatched before its scheduled arrival time, and
//! 2. dispatches are additionally gated to the current target spacing, so a
//!    backlog drains at the target rate instead of bursting ("the remainder
//!    is postponed in such a way that the framework never exceeds the
//!    target rate").
//!
//! A third rule keeps waiting on the gate cheap: one terminal at a time, the
//! *leader*, takes the timed wait for the next slot; every other idle
//! terminal parks until it is woken or `max_wait_us` passes. A dispatching
//! leader gives the role up and the next terminal to enter [`RequestQueue::pull`]
//! takes it, which is usually the dispatcher, back from its transaction. A
//! parked terminal is woken at dispatch only when the next request falls due
//! before the dispatcher is expected back, so a slot costs one wake-up, not
//! one per idle terminal.

use std::collections::VecDeque;
use std::time::Duration;

use bp_util::sync::{Condvar, Mutex};

use bp_util::clock::{Micros, SharedClock};

/// One work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Scheduled arrival time (µs since run start).
    pub arrival: Micros,
    /// Dispatch time (µs on the queue's clock): the reading that let the
    /// request through the gate, which is when its service starts.
    pub dispatched: Micros,
    /// Sequence number (for tracing).
    pub seq: u64,
    /// Transaction type, pinned at generation time. Sampling the mixture on
    /// the manager thread (not in workers) is what makes a schedule a pure
    /// function of the seed: worker pull order can no longer change which
    /// request gets which type, so a recorded schedule replays byte-for-byte.
    pub txn_type: u16,
    /// Phase index active when the request was generated.
    pub phase: u16,
}

/// One pre-planned request inside a `ScheduleSource` window: arrival offset
/// relative to the window start plus the pinned transaction type and phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledRequest {
    pub offset_us: Micros,
    pub txn_type: u16,
    pub phase: u16,
}

/// Nanoseconds per microsecond: the gate runs in nanos so fractional
/// µs spacings (any rate above ~1k tx/s) are not truncated away.
const NANOS_PER_MICRO: u64 = 1_000;

/// Catch-up credit after the first dispatch: a dispatch up to this late
/// keeps the gate's schedule, so a slot missed while the one terminal that
/// would have taken it was busy, or woke late, is made up rather than lost.
/// An older backlog drains at one spacing after at most `CATCH_UP_NS /
/// spacing` back-to-back catch-ups, so no window of time holds more than
/// `1 + (window + CATCH_UP_NS) / spacing` dispatches. One millisecond is
/// twenty slots at 20k tx/s, about ninety `voter` transactions' service
/// time: a terminal away that long was preempted, not merely busy.
const CATCH_UP_NS: u64 = 1_000_000;

/// The moving average of dispatch → next `pull` weighs each new sample 1/8.
const RETURN_AVG_SHIFT: u32 = 3;

/// A queued request: a [`Request`] without its `seq`, which position in the
/// FIFO implies. Backlog memory is 16 bytes a request, not 24.
#[derive(Debug, Clone, Copy)]
struct Queued {
    arrival: Micros,
    txn_type: u16,
    phase: u16,
}

// A saturated run holds seconds of backlog: this is what it is made of.
const _: () = assert!(std::mem::size_of::<Queued>() == 16);

#[derive(Debug, Default)]
struct QueueState {
    queue: VecDeque<Queued>,
    /// `seq` of the request at the head: how many were ever pushed ahead of
    /// it, dispatched or drained.
    head_seq: u64,
    /// Earliest time the next dispatch may happen (rate gate), in nanos.
    next_dispatch_ns: u64,
    /// Schedule anchor of the most recent dispatch (nanos). `None` until
    /// the first dispatch so a `set_rate` during setup cannot delay the
    /// run's very first request by one spacing.
    last_gate_ns: Option<u64>,
    /// Current dispatch spacing in nanos (0 = no gating, i.e. unlimited).
    spacing_ns: u64,
    closed: bool,
    /// Some terminal holds the gate's timed wait.
    leader: bool,
    /// Terminals parked on [`RequestQueue::parked`].
    parked: u32,
    /// When the last gated dispatch happened, until the next entry into
    /// `pull` turns it into a sample of `return_ns`.
    dispatched_at_ns: Option<u64>,
    /// Moving average of dispatch → next `pull` (nanos): how soon a
    /// dispatcher is expected back.
    return_ns: u64,
    dispatched: u64,
    /// Timed waits taken on the gate with a request at the head.
    gate_waits: u64,
}

/// The central request queue.
pub struct RequestQueue {
    state: Mutex<QueueState>,
    /// The leader's timed wait for the head's dispatch time.
    gate: Condvar,
    /// Followers wait here to be handed the gate.
    parked: Condvar,
    clock: SharedClock,
}

impl RequestQueue {
    pub fn new(clock: SharedClock) -> RequestQueue {
        RequestQueue {
            state: Mutex::new(QueueState::default()),
            gate: Condvar::new(),
            parked: Condvar::new(),
            clock,
        }
    }

    /// After a change every waiter must see: the leader re-reads the gate,
    /// and followers re-check whether a leader is still needed.
    fn wake_all(&self) {
        self.gate.notify_all();
        self.parked.notify_all();
    }

    /// Update the dispatch gate for a new target rate (requests/second).
    ///
    /// The gate is re-anchored to the last dispatch's schedule point under
    /// the *new* spacing: stepping the rate down immediately pushes
    /// `next_dispatch` back (no overshoot burst under stale spacing right
    /// after a downward adjustment — the SLO controller depends on this),
    /// and stepping it up pulls the gate forward.
    pub fn set_rate(&self, tps: f64) {
        let spacing = if tps <= 0.0 || !tps.is_finite() {
            0
        } else {
            ((1_000_000_000.0 / tps).round() as u64).max(1)
        };
        let mut st = self.state.lock();
        st.spacing_ns = spacing;
        st.next_dispatch_ns = match st.last_gate_ns {
            Some(gate) if spacing > 0 => gate.saturating_add(spacing),
            _ => 0,
        };
        drop(st);
        self.wake_all();
    }

    /// Enqueue arrivals (already stamped with absolute times). Requests get
    /// type/phase 0 — used by benches and tests that bypass the manager.
    pub fn push_arrivals(&self, arrivals: impl IntoIterator<Item = Micros>) {
        let mut st = self.state.lock();
        let untyped = |arrival| Queued { arrival, txn_type: 0, phase: 0 };
        st.queue.extend(arrivals.into_iter().map(untyped));
        drop(st);
        self.wake_all();
    }

    /// Enqueue a schedule window: offsets are relative to `base` and each
    /// request carries its pinned transaction type and phase.
    pub fn push_scheduled(&self, base: Micros, reqs: impl IntoIterator<Item = ScheduledRequest>) {
        let mut st = self.state.lock();
        st.queue.extend(reqs.into_iter().map(|r| Queued {
            arrival: base + r.offset_us,
            txn_type: r.txn_type,
            phase: r.phase,
        }));
        drop(st);
        self.wake_all();
    }

    /// Number of requests waiting (the backlog).
    pub fn backlog(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Total requests ever dispatched.
    pub fn dispatched(&self) -> u64 {
        self.state.lock().dispatched
    }

    /// Remove all pending requests (rate drop / phase reset), returning how
    /// many were discarded.
    pub fn drain(&self) -> usize {
        let mut st = self.state.lock();
        let n = st.queue.len();
        st.queue.clear();
        st.head_seq += n as u64;
        n
    }

    /// Close the queue: pullers get `None` once empty.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.wake_all();
    }

    /// The gate step `pull` and `poll` share: dispatch `head` (the front
    /// of the queue) if its arrival time and the rate gate have both passed
    /// at `now_ns`; otherwise `Err` carries the time at which they will have.
    #[inline]
    fn dispatch_head(&self, st: &mut QueueState, head: Queued, now_ns: u64) -> Result<Request, u64> {
        let gate_ns = (head.arrival * NANOS_PER_MICRO).max(st.next_dispatch_ns);
        if now_ns < gate_ns {
            return Err(gate_ns);
        }
        st.queue.pop_front();
        let seq = st.head_seq;
        st.head_seq += 1;
        // A token bucket: anchoring on the gate's own schedule avoids
        // cumulative drift from late dispatches, while clamping to (now -
        // credit) keeps an old backlog from bursting past the target rate.
        // The first dispatch gets no credit, so no second ever holds more
        // than `rate + 1` of them however old the backlog; after it, the
        // credit is the larger of one spacing and `CATCH_UP_NS`.
        let credit = match st.last_gate_ns {
            None => 0,
            Some(_) => st.spacing_ns.max(CATCH_UP_NS),
        };
        let anchor = gate_ns.max(now_ns.saturating_sub(credit));
        st.last_gate_ns = Some(anchor);
        st.next_dispatch_ns = anchor + st.spacing_ns;
        st.dispatched += 1;
        Ok(Request {
            arrival: head.arrival,
            dispatched: now_ns / NANOS_PER_MICRO,
            seq,
            txn_type: head.txn_type,
            phase: head.phase,
        })
    }

    /// Blocking pull honoring arrival times and the rate gate. Returns
    /// `None` when the queue is closed. `max_wait_us` bounds each internal
    /// wait so callers can re-check external conditions.
    pub fn pull(&self, max_wait_us: Micros) -> Option<Request> {
        let mut st = self.state.lock();
        let mut now_ns = self.clock.now() * NANOS_PER_MICRO;
        // The next entry after a gated dispatch is usually the dispatcher,
        // back from its transaction: time it with the `now` read anyway.
        if let Some(at) = st.dispatched_at_ns.take() {
            let (avg, away) = (st.return_ns, now_ns.saturating_sub(at));
            st.return_ns = avg - (avg >> RETURN_AVG_SHIFT) + (away >> RETURN_AVG_SHIFT);
        }
        let mut leading = false;
        loop {
            if st.closed {
                if leading {
                    st.leader = false;
                }
                return None;
            }
            let gate_ns = match st.queue.front().copied() {
                Some(head) => match self.dispatch_head(&mut st, head, now_ns) {
                    Ok(req) => {
                        if leading {
                            st.leader = false;
                        }
                        self.hand_off(&mut st, now_ns);
                        return Some(req);
                    }
                    Err(gate_ns) => Some(gate_ns),
                },
                None => None,
            };
            if st.leader && !leading {
                st.parked += 1;
                self.parked.wait_for(&mut st, Duration::from_micros(max_wait_us.max(1)));
                st.parked -= 1;
            } else {
                st.leader = true;
                leading = true;
                let wait = match gate_ns {
                    Some(gate_ns) => {
                        st.gate_waits += 1;
                        (gate_ns - now_ns).div_ceil(NANOS_PER_MICRO).min(max_wait_us)
                    }
                    None => max_wait_us,
                };
                self.gate.wait_for(&mut st, Duration::from_micros(wait.max(1)));
            }
            now_ns = self.clock.now() * NANOS_PER_MICRO;
        }
    }

    /// After `pull` dispatched at `now_ns`: if no terminal leads the gate
    /// now, wake a parked one when the next request falls due before the
    /// dispatcher is expected back. Ungated, there is no estimate, and any
    /// work left wakes one.
    fn hand_off(&self, st: &mut QueueState, now_ns: u64) {
        if st.spacing_ns > 0 {
            st.dispatched_at_ns = Some(now_ns);
        }
        if st.leader || st.parked == 0 {
            return;
        }
        let Some(next) = st.queue.front() else { return };
        let due_ns = (next.arrival * NANOS_PER_MICRO).max(st.next_dispatch_ns);
        if st.spacing_ns == 0 || due_ns < now_ns + st.return_ns {
            self.parked.notify_one();
        }
    }

    /// One dispatch step, without waiting: the head if its arrival time and
    /// the rate gate have both passed. `Err` carries the time (µs) the head
    /// falls due, or `None` when the queue is empty or closed.
    pub fn poll(&self) -> Result<Request, Option<Micros>> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(None);
        }
        let now_ns = self.clock.now() * NANOS_PER_MICRO;
        let head = *st.queue.front().ok_or(None)?;
        self.dispatch_head(&mut st, head, now_ns)
            .map_err(|gate_ns| Some(gate_ns.div_ceil(NANOS_PER_MICRO)))
    }

    /// Non-blocking pull: [`RequestQueue::poll`] without the due time.
    pub fn try_pull(&self) -> Option<Request> {
        self.poll().ok()
    }
}

impl bp_obs::MetricsSource for RequestQueue {
    fn collect(&self, buf: &mut bp_obs::MetricsBuf) {
        let (dispatched, gate_waits) = {
            let st = self.state.lock();
            (st.dispatched, st.gate_waits)
        };
        buf.counter(
            "bp_driver_dispatched_total",
            "Requests the central queue dispatched to terminals",
            &[],
            dispatched as f64,
        );
        buf.counter(
            "bp_driver_gate_waits_total",
            "Timed waits a terminal took for the head request's dispatch time",
            &[],
            gate_waits as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_util::clock::{sim_clock, MICROS_PER_SEC};

    #[test]
    fn fifo_dispatch_after_arrival_time() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals([100, 200, 300]);
        assert_eq!(q.try_pull(), None, "nothing has arrived yet");
        sim.advance_to(150);
        assert_eq!(q.try_pull().unwrap().arrival, 100);
        assert_eq!(q.try_pull(), None, "200 still in the future");
        sim.advance_to(301);
        assert_eq!(q.try_pull().unwrap().arrival, 200);
        assert_eq!(q.try_pull().unwrap().arrival, 300);
        assert_eq!(q.dispatched(), 3);
    }

    #[test]
    fn poll_says_when_the_head_falls_due() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        assert_eq!(q.poll(), Err(None), "empty");
        q.set_rate(3_000.0); // 333,333 ns spacing
        q.push_arrivals([100, 100]);
        assert_eq!(q.poll(), Err(Some(100)), "not arrived");
        sim.advance_to(100);
        assert_eq!(q.poll().map(|r| r.arrival), Ok(100));
        assert_eq!(q.poll(), Err(Some(434)), "gated one spacing on, rounded up to the µs");
        sim.advance_to(434);
        assert_eq!(q.poll().map(|r| r.seq), Ok(1));
        q.push_arrivals([500]);
        q.close();
        assert_eq!(q.poll(), Err(None), "closed");
    }

    #[test]
    fn a_request_carries_the_reading_that_dispatched_it() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(3_000.0); // 333,333 ns spacing
        q.push_arrivals([100, 100]);
        sim.advance_to(100);
        assert_eq!(q.poll().map(|r| r.dispatched), Ok(100));
        // Gated until 434, and polled only at 500: service starts at 500.
        sim.advance_to(500);
        assert_eq!(q.poll().map(|r| (r.arrival, r.dispatched)), Ok((100, 500)));
    }

    #[test]
    fn rate_gate_prevents_burst_drain() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(1000.0); // 1000 µs spacing
        // 10 requests all overdue (backlog).
        q.push_arrivals((0..10).map(|i| i * 10));
        sim.advance_to(MICROS_PER_SEC); // way past all arrivals
        // The first dispatch has no catch-up credit: the drain is paced at
        // the target spacing from its very start.
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_none(), "gated by spacing");
        sim.advance(999);
        assert!(q.try_pull().is_none());
        sim.advance(1);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_none(), "still one per spacing");
    }

    #[test]
    fn a_dispatch_late_by_at_most_the_credit_keeps_the_schedule() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(10_000.0); // 100µs spacing
        q.push_arrivals((0..40).map(|_| 0));
        sim.advance_to(MICROS_PER_SEC);
        assert!(q.try_pull().is_some());
        // Every terminal was busy for the next 10 slots: the slots are made
        // up back to back, not lost...
        sim.advance(CATCH_UP_NS / NANOS_PER_MICRO);
        let caught_up = std::iter::from_fn(|| q.try_pull()).count();
        assert_eq!(caught_up, 10, "slots at +100..=+1000µs");
        // ...and the schedule goes on where it was.
        sim.advance(99);
        assert!(q.try_pull().is_none());
        sim.advance(1);
        assert!(q.try_pull().is_some(), "slot at +1100µs");
    }

    #[test]
    fn a_backlog_older_than_the_credit_drains_at_one_spacing() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(10_000.0); // 100µs spacing
        q.push_arrivals((0..100).map(|_| 0));
        sim.advance_to(MICROS_PER_SEC);
        assert!(q.try_pull().is_some());
        // 5 ms without a pull: only the credit's worth is made up.
        sim.advance(5_000);
        let burst = std::iter::from_fn(|| q.try_pull()).count() as u64;
        assert_eq!(burst, 1 + CATCH_UP_NS / 100_000, "one due plus the credit's catch-ups");
        for _ in 0..5 {
            sim.advance(99);
            assert!(q.try_pull().is_none(), "one per spacing after the catch-up");
            sim.advance(1);
            assert!(q.try_pull().is_some());
        }
    }

    #[test]
    fn unlimited_rate_no_gate() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(0.0); // no gating
        q.push_arrivals([0, 0, 0]);
        sim.advance_to(1);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_some());
    }

    #[test]
    fn backlog_and_drain() {
        let (_, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals([1, 2, 3]);
        assert_eq!(q.backlog(), 3);
        assert_eq!(q.drain(), 3);
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn close_wakes_pullers() {
        let (_, clock) = sim_clock();
        let q = std::sync::Arc::new(RequestQueue::new(clock));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pull(50_000));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn blocking_pull_with_wallclock() {
        use bp_util::clock::wall_clock;
        let clock = wall_clock();
        let q = std::sync::Arc::new(RequestQueue::new(clock.clone()));
        let now = clock.now();
        q.push_arrivals([now + 20_000]); // 20ms in the future
        let got = q.pull(MICROS_PER_SEC).unwrap();
        let elapsed = clock.now() - now;
        assert!(elapsed >= 18_000, "dispatched too early: {elapsed}µs");
        assert_eq!(got.arrival, now + 20_000);
        assert!((got.arrival..=now + elapsed).contains(&got.dispatched), "dispatched at {}", got.dispatched);
    }

    /// Four terminals behind a 2k tx/s gate pull one wall-clock second of
    /// bursts: four requests arrive at once every 10 ms, and the gate spaces
    /// them one slot (500 µs) apart. Each terminal holds what it pulls for
    /// `hold_us`. Returns the gate's timed waits per dispatch and the median
    /// lateness (µs) of a dispatch against its slot: the burst's arrival plus
    /// the request's place in the burst times the spacing.
    fn four_terminals_one_second(hold_us: u64) -> (f64, u64) {
        use bp_util::clock::wall_clock;
        const SPACING_US: u64 = 500;
        const BURST: u64 = 4;
        let clock = wall_clock();
        let q = RequestQueue::new(clock.clone());
        q.set_rate((MICROS_PER_SEC / SPACING_US) as f64);
        let start = clock.now() + 10_000;
        q.push_arrivals((0..100 * BURST).map(|i| start + i / BURST * 10_000));
        let late = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    bp_util::clock::exact_timers();
                    let mut mine = Vec::new();
                    while let Some(req) = q.pull(20_000) {
                        let slot = req.arrival + req.seq % BURST * SPACING_US;
                        mine.push(clock.now().saturating_sub(slot));
                        std::thread::sleep(Duration::from_micros(hold_us));
                    }
                    late.lock().extend(mine);
                });
            }
            clock.sleep_until(start + MICROS_PER_SEC);
            q.close();
        });
        let mut late = late.into_inner();
        late.sort_unstable();
        let st = q.state.lock();
        (st.gate_waits as f64 / st.dispatched.max(1) as f64, late[late.len() / 2])
    }

    #[test]
    fn one_terminal_waits_per_slot_and_a_parked_one_covers_a_busy_one() {
        // Idle consumers: the dispatcher is back long before the next slot
        // and takes the one timed wait for it; the other three stay parked.
        // (Each idle terminal waiting for every slot is 4 waits a dispatch.)
        let (waits, _) = four_terminals_one_second(0);
        assert!(waits <= 1.3, "idle: {waits:.2} gate waits per dispatch");
        // Each request holds its terminal for 3 slots: the burst's next slot
        // is due before the dispatcher is back, so a parked terminal must be
        // woken for it. Left parked, the burst waits for the one busy
        // terminal and its later requests run 1-3 ms behind their slots.
        let (_, late_us) = four_terminals_one_second(3 * 500);
        assert!(late_us <= 250, "busy: median dispatch {late_us} µs behind its slot");
    }

    #[test]
    fn push_scheduled_pins_type_and_phase() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_scheduled(
            1_000,
            [
                ScheduledRequest { offset_us: 0, txn_type: 3, phase: 1 },
                ScheduledRequest { offset_us: 250, txn_type: 0, phase: 2 },
            ],
        );
        sim.advance_to(2_000);
        let a = q.try_pull().unwrap();
        assert_eq!((a.arrival, a.txn_type, a.phase), (1_000, 3, 1));
        let b = q.try_pull().unwrap();
        assert_eq!((b.arrival, b.txn_type, b.phase), (1_250, 0, 2));
        assert!(a.seq < b.seq);
    }

    /// Drain an overdue backlog for `dur_us` simulated µs at `tps` and
    /// return how many requests were dispatched.
    fn drain_at_rate(tps: f64, dur_us: u64) -> u64 {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(tps);
        let expected = (tps * dur_us as f64 / 1e6) as u64;
        q.push_arrivals((0..expected + expected / 10 + 10).map(|_| 0));
        let mut n = 0u64;
        for _ in 0..dur_us {
            sim.advance(1);
            while q.try_pull().is_some() {
                n += 1;
            }
        }
        n
    }

    #[test]
    fn dispatch_accuracy_300k() {
        // Regression: whole-µs spacing truncation made 300k tx/s dispatch
        // at ~333k (+11%). With nano spacing the error must be ≤1%, and
        // the never-exceed guarantee must hold.
        let target = 300_000.0;
        let secs = 0.5;
        let n = drain_at_rate(target, (secs * 1e6) as u64);
        let expected = target * secs;
        let err = (n as f64 - expected).abs() / expected;
        assert!(err <= 0.01, "300k: dispatched {n}, expected {expected}, err {err:.4}");
        assert!(n as f64 <= expected * 1.01, "never-exceed violated: {n}");
    }

    #[test]
    fn dispatch_accuracy_1_5m() {
        // Above 1M tx/s the old gate truncated spacing to 0µs — fully
        // unlimited. Sub-µs spacing must still track the target within 1%.
        let target = 1_500_000.0;
        let secs = 0.5;
        let n = drain_at_rate(target, (secs * 1e6) as u64);
        let expected = target * secs;
        let err = (n as f64 - expected).abs() / expected;
        assert!(err <= 0.01, "1.5M: dispatched {n}, expected {expected}, err {err:.4}");
        assert!(n as f64 <= expected * 1.01, "never-exceed violated: {n}");
    }

    #[test]
    fn rate_step_down_pushes_gate_back() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(10_000.0); // 100µs spacing
        q.push_arrivals((0..10).map(|_| 0));
        sim.advance_to(MICROS_PER_SEC);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_none(), "no credit before the first dispatch");
        // Step DOWN to 1000 tx/s: the gate must be re-anchored to the new
        // 1000µs spacing immediately, not after one stale 100µs slot.
        q.set_rate(1_000.0);
        sim.advance(100);
        assert!(q.try_pull().is_none(), "stale 100µs spacing leaked through");
        sim.advance(899);
        assert!(q.try_pull().is_none(), "gate must honor the new spacing fully");
        sim.advance(1); // 1000µs after the last dispatch
        assert!(q.try_pull().is_some());
    }

    #[test]
    fn rate_step_up_pulls_gate_forward() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.set_rate(1_000.0); // 1000µs spacing
        q.push_arrivals((0..10).map(|_| 0));
        sim.advance_to(MICROS_PER_SEC);
        assert!(q.try_pull().is_some());
        assert!(q.try_pull().is_none(), "no credit before the first dispatch");
        // Step UP to 10k tx/s: next dispatch is 100µs after the last one,
        // not 1000µs.
        q.set_rate(10_000.0);
        sim.advance(99);
        assert!(q.try_pull().is_none());
        sim.advance(1);
        assert!(q.try_pull().is_some(), "faster rate applies immediately");
    }

    #[test]
    fn set_rate_before_first_dispatch_does_not_delay_it() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        // The executor configures the rate before the run starts; the very
        // first request must still dispatch at its arrival time.
        q.set_rate(10.0); // 100ms spacing
        q.set_rate(10.0);
        q.push_arrivals([1_000]);
        sim.advance_to(1_000);
        assert!(q.try_pull().is_some(), "first dispatch delayed by set_rate");
    }

    #[test]
    fn seq_is_the_push_index_across_pushes_and_drains() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        sim.advance_to(MICROS_PER_SEC);
        let sched = |n: u16| (0..n).map(|i| ScheduledRequest { offset_us: 0, txn_type: i, phase: 7 });
        let pulled = |n: usize| (0..n).map(|_| q.try_pull().expect("due").seq).collect::<Vec<_>>();
        q.push_arrivals([0, 0, 0]); // seqs 0..3
        assert_eq!(pulled(2), [0, 1]);
        q.push_scheduled(0, sched(2)); // seqs 3..5, behind seq 2
        assert_eq!(pulled(2), [2, 3]);
        q.push_arrivals([0, 0]); // seqs 5..7
        assert_eq!(q.drain(), 3, "seqs 4, 5, 6 are discarded, not reissued");
        assert_eq!(q.drain(), 0);
        q.push_scheduled(0, sched(2)); // seqs 7..9
        q.push_arrivals([0]); // seq 9
        let last = q.pull(1).expect("due");
        assert_eq!((last.seq, last.txn_type, last.phase), (7, 0, 7));
        assert_eq!(pulled(2), [8, 9]);
        assert_eq!(q.try_pull(), None);
    }

    #[test]
    fn sequence_numbers_monotonic() {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        q.push_arrivals([0, 0]);
        q.push_arrivals([0]);
        sim.advance_to(10);
        let a = q.try_pull().unwrap();
        let b = q.try_pull().unwrap();
        let c = q.try_pull().unwrap();
        assert!(a.seq < b.seq && b.seq < c.seq);
    }
}
