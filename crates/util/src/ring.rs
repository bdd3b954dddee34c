//! The one bounded flight-recorder ring behind spans, journal events,
//! telemetry samples and the breaker's outcome window.

/// At most `capacity` entries; once full, a push overwrites the oldest and
/// returns it, so a running aggregate over the window can drop what left.
/// Iteration is oldest-first and double-ended: the newest `n` entries are
/// `iter().rev().take(n)`.
#[derive(Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Pushes since construction or the last [`Ring::clear`].
    written: u64,
}

impl<T> Ring<T> {
    /// A ring of `capacity` slots (at least one), allocated up front.
    pub fn new(capacity: usize) -> Ring<T> {
        let capacity = capacity.max(1);
        Ring { buf: Vec::with_capacity(capacity), capacity, written: 0 }
    }

    /// The slot the next push writes; once full, the oldest entry's.
    fn next_slot(&self) -> usize {
        (self.written % self.capacity as u64) as usize
    }

    #[inline]
    pub fn push(&mut self, value: T) -> Option<T> {
        let slot = self.next_slot();
        self.written += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(value);
            return None;
        }
        Some(std::mem::replace(&mut self.buf[slot], value))
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.next_slot());
        older.iter().chain(newer)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries ever pushed, overwritten ones included.
    pub fn written(&self) -> u64 {
        self.written
    }

    pub fn overwritten(&self) -> u64 {
        self.written - self.buf.len() as u64
    }

    /// Empty the ring and zero its counters, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut r = Ring::new(4);
        for i in 0..3 {
            assert_eq!(r.push(i), None);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(r.push(3), None, "the fourth push fills the ring");
        for i in 4..10 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [6, 7, 8, 9]);
        assert_eq!(r.iter().rev().take(2).copied().collect::<Vec<_>>(), [9, 8]);
    }

    #[test]
    fn push_returns_what_it_overwrote() {
        let mut r = Ring::new(3);
        let evicted: Vec<Option<u32>> = (0..8).map(|i| r.push(i)).collect();
        assert_eq!(evicted, [None, None, None, Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(r.written(), 8);
        assert_eq!(r.overwritten(), 5);
    }

    #[test]
    fn clear_empties_and_zeroes_counters() {
        let mut r = Ring::new(2);
        for i in 0..5 {
            r.push(i);
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!((r.written(), r.overwritten()), (0, 0));
        assert_eq!(r.iter().count(), 0);
        r.push(7);
        r.push(8);
        assert_eq!(r.push(9), Some(7), "a cleared ring fills from the start again");
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [8, 9]);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut r = Ring::new(0);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.push('a'), None);
        assert_eq!(r.push('b'), Some('a'));
        assert_eq!(r.iter().copied().collect::<String>(), "b");
    }
}
