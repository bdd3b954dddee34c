//! Simulated buffer pool with CLOCK replacement.
//!
//! Rows map to pages by `rowid / rows_per_page`. A page miss charges the
//! personality's IO cost and counts an IO read; evicting a dirty page counts
//! an IO write. This gives the working-set effects that make the telemetry
//! recorder's IO columns meaningful ("lower the percentage of write-intensive
//! transactions if the disk IO activity seems to saturate", §4.2).

use std::sync::Arc;

use bp_obs::{EventJournal, Severity};
use bp_util::hash::MixMap;
use bp_util::sync::Mutex;

use crate::metrics::ServerMetrics;

/// Accesses per pressure-detection epoch.
const PRESSURE_EPOCH: u64 = 1024;
/// Miss-ratio hysteresis: enter pressure above `HIGH`, leave below `LOW`.
const PRESSURE_HIGH: f64 = 0.5;
const PRESSURE_LOW: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    pub table: u32,
    pub page: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    key: PageId,
    referenced: bool,
    dirty: bool,
}

#[derive(Debug)]
struct PoolState {
    map: MixMap<PageId, usize>,
    frames: Vec<Frame>,
    hand: usize,
    /// Accesses/misses in the current pressure epoch.
    epoch_accesses: u64,
    epoch_misses: u64,
    /// Whether the pool is currently in the "pressured" regime.
    pressured: bool,
}

/// The access outcome, used by the engine to charge IO cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub hit: bool,
    /// Number of simulated IOs performed (read miss and/or dirty eviction).
    pub ios: u32,
}

pub struct BufferPool {
    capacity: usize,
    rows_per_page: u64,
    state: Mutex<PoolState>,
    journal: Option<Arc<EventJournal>>,
}

impl BufferPool {
    pub fn new(capacity: usize, rows_per_page: u64) -> BufferPool {
        assert!(capacity > 0 && rows_per_page > 0);
        BufferPool {
            capacity,
            rows_per_page,
            state: Mutex::new(PoolState {
                map: MixMap::with_capacity_and_hasher(capacity, Default::default()),
                frames: Vec::with_capacity(capacity),
                hand: 0,
                epoch_accesses: 0,
                epoch_misses: 0,
                pressured: false,
            }),
            journal: None,
        }
    }

    /// Attach the event journal (pressure-crossing events) — builder style
    /// so the plain constructor keeps working everywhere.
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> BufferPool {
        self.journal = Some(journal);
        self
    }

    /// Close a pressure epoch: on a hysteresis crossing, flip the regime
    /// and journal it. Called with the state lock held.
    fn note_epoch(&self, st: &mut PoolState) {
        let ratio = st.epoch_misses as f64 / st.epoch_accesses as f64;
        st.epoch_accesses = 0;
        st.epoch_misses = 0;
        let crossed = if st.pressured { ratio < PRESSURE_LOW } else { ratio > PRESSURE_HIGH };
        if !crossed {
            return;
        }
        st.pressured = !st.pressured;
        let entering = st.pressured;
        if let Some(j) = &self.journal {
            let sev = if entering { Severity::Warn } else { Severity::Info };
            j.emit_with(sev, "storage", "buffer_pressure", || {
                (
                    format!(
                        "buffer pool {} pressure (miss ratio {:.0}% over {PRESSURE_EPOCH} accesses)",
                        if entering { "entered" } else { "left" },
                        ratio * 100.0,
                    ),
                    vec![
                        ("ratio", format!("{ratio:.3}")),
                        ("state", if entering { "pressured" } else { "ok" }.to_string()),
                    ],
                )
            });
        }
    }

    pub fn page_of(&self, table: u32, rowid: u64) -> PageId {
        PageId { table, page: rowid / self.rows_per_page }
    }

    /// Touch the page containing `rowid`; `write` marks it dirty.
    pub fn access(&self, table: u32, rowid: u64, write: bool, metrics: &ServerMetrics) -> Access {
        let key = self.page_of(table, rowid);
        let mut st = self.state.lock();
        st.epoch_accesses += 1;
        if let Some(&idx) = st.map.get(&key) {
            let f = &mut st.frames[idx];
            f.referenced = true;
            f.dirty |= write;
            metrics.inc_buf_hits();
            if st.epoch_accesses >= PRESSURE_EPOCH {
                self.note_epoch(&mut st);
            }
            return Access { hit: true, ios: 0 };
        }
        // Miss.
        st.epoch_misses += 1;
        metrics.inc_buf_misses();
        metrics.add_io_reads(1);
        let mut ios = 1;
        if st.frames.len() < self.capacity {
            let idx = st.frames.len();
            st.frames.push(Frame { key, referenced: true, dirty: write });
            st.map.insert(key, idx);
        } else {
            // CLOCK: find a frame with referenced == false.
            loop {
                let hand = st.hand;
                st.hand = (hand + 1) % self.capacity;
                let f = &mut st.frames[hand];
                if f.referenced {
                    f.referenced = false;
                    continue;
                }
                if f.dirty {
                    metrics.add_io_writes(1);
                    ios += 1;
                }
                let old = f.key;
                *f = Frame { key, referenced: true, dirty: write };
                st.map.remove(&old);
                st.map.insert(key, hand);
                break;
            }
        }
        if st.epoch_accesses >= PRESSURE_EPOCH {
            self.note_epoch(&mut st);
        }
        Access { hit: false, ios }
    }

    /// Drop all cached pages (database reset).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.map.clear();
        st.frames.clear();
        st.hand = 0;
        st.epoch_accesses = 0;
        st.epoch_misses = 0;
        st.pressured = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident_pages(bp: &BufferPool) -> usize {
        bp.state.lock().frames.len()
    }

    #[test]
    fn hits_after_first_access() {
        let m = ServerMetrics::new();
        let bp = BufferPool::new(8, 64);
        assert!(!bp.access(1, 0, false, &m).hit);
        assert!(bp.access(1, 5, false, &m).hit); // same page (rows 0..63)
        assert!(bp.access(1, 63, false, &m).hit);
        assert!(!bp.access(1, 64, false, &m).hit); // next page
        let s = m.snapshot();
        assert_eq!(s.buf_hits, 2);
        assert_eq!(s.buf_misses, 2);
    }

    #[test]
    fn eviction_when_full() {
        let m = ServerMetrics::new();
        let bp = BufferPool::new(4, 1);
        for r in 0..4 {
            bp.access(1, r, false, &m);
        }
        assert_eq!(resident_pages(&bp), 4);
        // Fifth distinct page forces an eviction.
        bp.access(1, 4, false, &m);
        assert_eq!(resident_pages(&bp), 4);
        assert_eq!(m.snapshot().io_reads, 5);
    }

    #[test]
    fn dirty_eviction_counts_write_io() {
        let m = ServerMetrics::new();
        let bp = BufferPool::new(2, 1);
        bp.access(1, 0, true, &m); // dirty
        bp.access(1, 1, false, &m);
        // Force eviction sweep past both (clears ref bits) then evicts dirty.
        bp.access(1, 2, false, &m);
        bp.access(1, 3, false, &m);
        assert!(m.snapshot().io_writes >= 1);
    }

    #[test]
    fn working_set_within_capacity_stays_hot() {
        let m = ServerMetrics::new();
        let bp = BufferPool::new(16, 64);
        // 1024 rows = 16 pages: exactly fits.
        for _ in 0..4 {
            for r in 0..1024u64 {
                bp.access(1, r, false, &m);
            }
        }
        let s = m.snapshot();
        assert_eq!(s.buf_misses, 16);
        assert_eq!(s.buf_hits, 4 * 1024 - 16);
    }

    #[test]
    fn pressure_crossings_journaled_with_hysteresis() {
        let m = ServerMetrics::new();
        let j = Arc::new(EventJournal::new());
        // Tiny pool, one row per page: distinct rows always miss.
        let bp = BufferPool::new(2, 1).with_journal(j.clone());
        // Epoch 1: all misses -> enter pressure.
        for r in 0..PRESSURE_EPOCH {
            bp.access(1, r, false, &m);
        }
        // Epoch 2: all hits on 2 resident pages -> leave pressure.
        for i in 0..PRESSURE_EPOCH {
            bp.access(1, PRESSURE_EPOCH - 2 + (i % 2), false, &m);
        }
        // Epoch 3: all hits again -> no new event (hysteresis).
        for i in 0..PRESSURE_EPOCH {
            bp.access(1, PRESSURE_EPOCH - 2 + (i % 2), false, &m);
        }
        let events = j.all();
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].kind, "buffer_pressure");
        assert_eq!(events[0].field("state"), Some("pressured"));
        assert_eq!(events[0].severity, Severity::Warn);
        assert_eq!(events[1].field("state"), Some("ok"));
    }

    #[test]
    fn clear_resets() {
        let m = ServerMetrics::new();
        let bp = BufferPool::new(4, 1);
        bp.access(1, 0, false, &m);
        bp.clear();
        assert_eq!(resident_pages(&bp), 0);
        assert!(!bp.access(1, 0, false, &m).hit);
    }
}
