//! Std-only synchronization primitives with a `parking_lot`-style API.
//!
//! The workspace builds hermetically — no registry access, no external
//! crates — so the locking idiom the codebase was written against
//! (`parking_lot`: `.lock()` / `.read()` / `.write()` return the guard
//! directly, no poisoning) is provided here as thin wrappers over
//! `std::sync`. Poisoning is deliberately ignored: a panic while holding a
//! lock in a benchmark worker should not cascade into every other thread;
//! the data protected by these locks is statistics and catalog state whose
//! invariants are re-established per operation.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Sharded stores index their shards with `thread_slot() % shards`. The
/// executor assigns worker *w* slot *w* ([`set_thread_slot`]), so with one
/// shard per worker, worker *w* owns shard *w*; any other thread gets a
/// process-wide counter value on first use.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = Cell::new(NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed));
}

/// The calling thread's shard slot.
#[inline]
pub fn thread_slot() -> usize {
    THREAD_SLOT.with(Cell::get)
}

/// Assign the calling thread's shard slot.
pub fn set_thread_slot(slot: usize) {
    THREAD_SLOT.with(|s| s.set(slot));
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly and
/// never observes poisoning.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`]. Holds the std guard in an `Option` so a
/// [`Condvar`] can temporarily take ownership during a wait.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.0.lock().unwrap_or_else(|p| p.into_inner());
        MutexGuard { inner: Some(guard) }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(MutexGuard { inner: Some(p.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard taken during condvar wait")
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable operating on [`MutexGuard`]s in place, like
/// `parking_lot::Condvar` (the guard is passed `&mut`, not by value).
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard already taken");
        let g = self.0.wait(g).unwrap_or_else(|p| p.into_inner());
        guard.inner = Some(g);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard already taken");
        let (g, res) = match self.0.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly and
/// never observe poisoning.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|p| p.into_inner()))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|p| p.into_inner()))
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Pads and aligns a value to 64 bytes so adjacent shards in a `Vec` never
/// share a cache line (false sharing is the whole failure mode sharded
/// statistics exist to avoid).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    pub fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }

    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_ignores_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
        let r = l.read();
        assert!(l.try_read().is_some());
        assert!(l.try_write().is_none());
        drop(r);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn condvar_wait_for_timeout() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        // Guard is intact and usable after the wait.
        *g = true;
        assert!(*g);
    }

    #[test]
    fn condvar_notify_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                let r = cv.wait_for(&mut ready, Duration::from_secs(5));
                assert!(!r.timed_out(), "should be woken, not timed out");
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn thread_slots_stable_and_distinct() {
        let mine = thread_slot();
        assert_eq!(mine, thread_slot(), "slot must be stable per thread");
        let other = std::thread::spawn(thread_slot).join().unwrap();
        assert_ne!(mine, other, "each thread gets its own slot");
    }

    #[test]
    fn assigned_slot_is_the_threads_slot() {
        let mine = thread_slot();
        let assigned = std::thread::spawn(|| {
            set_thread_slot(7);
            thread_slot()
        })
        .join()
        .unwrap();
        assert_eq!(assigned, 7);
        assert_eq!(thread_slot(), mine, "another thread's assignment leaves ours alone");
    }

    #[test]
    fn cache_padded_layout() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 64);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 64);
        let mut p = CachePadded::new(5u32);
        *p += 1;
        assert_eq!(p.into_inner(), 6);
    }
}
