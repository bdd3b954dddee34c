//! Index keys: a tuple of values encoded so that comparing the bytes
//! compares the tuples.
//!
//! Per value, a rank byte (never zero, never `0xFF`) and then:
//!
//! | value   | bytes after the rank                                          |
//! |---------|---------------------------------------------------------------|
//! | `Null`  | none                                                          |
//! | `Bool`  | `0` or `1`                                                    |
//! | `Int`   | a length class — `0x80 + n` for `v >= 0`, `0x7F - n` for `v < 0`, `n` the fewest bytes that hold `v` — then those `n` bytes, big-endian |
//! | `Float` | its 8 bytes, big-endian, sign flipped (all bits for a negative) so byte order is `total_cmp` order |
//! | `Str`, `Bytes` | the bytes with `0x00` written `0x00 0xFF`, then `0x00 0x00` |
//!
//! No encoded value is a prefix of another of its type, so "the key starts
//! with these values" is a byte-prefix test, and every key that continues a
//! prefix sorts below the prefix followed by `0xFF`.
//!
//! The order is [`Value`]'s order wherever two values of one type (or a
//! NULL) meet. An index only ever sees that: its key columns are typed and
//! `check_row` coerces what is stored. `Int` and `Float` have ranks of their
//! own here, so a probe must have its column's type to find anything — see
//! [`Value::into_key`].

use std::cmp::Ordering;
use std::fmt;

use crate::value::Value;

/// Bytes a key holds without a heap allocation.
const INLINE: usize = 22;

/// An encoded key. 24 bytes; four small integers take 13 of the 22 inline.
#[derive(Clone, PartialEq, Eq)]
pub struct Key(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// The bytes, zero-padded, and their count in the last place: two inline
    /// keys compare as three big-endian words.
    Inline([u8; INLINE + 1]),
    /// More than `INLINE` bytes, always.
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    /// The key of a tuple of values.
    pub fn encode<'a>(values: impl IntoIterator<Item = &'a Value>) -> Key {
        let mut w = KeyWriter::default();
        values.into_iter().for_each(|v| w.value(v));
        w.finish()
    }

    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(k) => &k[..k[INLINE] as usize],
            Repr::Heap(k) => k,
        }
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        fn words(k: &[u8; INLINE + 1]) -> [u64; 3] {
            // The last word overlaps the second by one byte, which is equal
            // whenever the comparison gets that far.
            [0, 8, 15].map(|at| u64::from_be_bytes(k[at..at + 8].try_into().expect("eight bytes")))
        }
        match (&self.0, &other.0) {
            // Zero padding sorts where the shorter slice would: no encoded
            // value starts with a zero, and equal padded bytes leave the
            // count to decide.
            (Repr::Inline(a), Repr::Inline(b)) => words(a).cmp(&words(b)),
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(")?;
        self.as_bytes().iter().try_for_each(|b| write!(f, "{b:02x}"))?;
        write!(f, ")")
    }
}

/// Builds a key on the stack; only one that outgrows the inline form
/// allocates.
#[derive(Clone)]
pub(crate) struct KeyWriter {
    inline: [u8; INLINE + 1],
    /// Holds every byte once the inline form is full; empty until then.
    spill: Vec<u8>,
}

impl Default for KeyWriter {
    fn default() -> KeyWriter {
        KeyWriter { inline: [0; INLINE + 1], spill: Vec::new() }
    }
}

impl KeyWriter {
    /// Append a raw byte. `0xFF` closes a range bound: above every key that
    /// continues what was written so far, below every other key that is
    /// above it.
    pub(crate) fn push(&mut self, byte: u8) {
        if self.spill.is_empty() {
            let len = self.inline[INLINE] as usize;
            if len < INLINE {
                self.inline[len] = byte;
                self.inline[INLINE] += 1;
                return;
            }
            self.spill.extend_from_slice(&self.inline[..INLINE]);
        }
        self.spill.push(byte);
    }

    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.push(1),
            Value::Bool(b) => {
                self.push(2);
                self.push(*b as u8);
            }
            Value::Int(v) => {
                self.push(3);
                let magnitude = if *v < 0 { !*v } else { *v } as u64;
                let n = (64 - magnitude.leading_zeros()).div_ceil(8) as u8;
                self.push(if *v < 0 { 0x7F - n } else { 0x80 + n });
                v.to_be_bytes()[8 - n as usize..].iter().for_each(|b| self.push(*b));
            }
            Value::Float(f) => {
                self.push(4);
                let bits = f.to_bits();
                let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
                ordered.to_be_bytes().iter().for_each(|b| self.push(*b));
            }
            Value::Str(s) => self.bytes(5, s.as_bytes()),
            Value::Bytes(b) => self.bytes(6, b),
        }
    }

    fn bytes(&mut self, rank: u8, bytes: &[u8]) {
        self.push(rank);
        for &b in bytes {
            self.push(b);
            if b == 0 {
                self.push(0xFF);
            }
        }
        self.push(0);
        self.push(0);
    }

    pub(crate) fn finish(self) -> Key {
        Key(if self.spill.is_empty() { Repr::Inline(self.inline) } else { Repr::Heap(self.spill.into()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(values: &[Value]) -> Key {
        Key::encode(values)
    }

    #[test]
    fn small_integers_are_small() {
        let ol = [Value::Int(50), Value::Int(10), Value::Int(65_535), Value::Int(15)];
        assert_eq!(key(&ol).as_bytes().len(), 13);
        assert_eq!(key(&[Value::Int(0)]).as_bytes(), [3, 0x80]);
        assert_eq!(key(&[Value::Int(-1)]).as_bytes(), [3, 0x7F]);
        assert_eq!(key(&[Value::Int(-257)]).as_bytes(), [3, 0x7D, 0xFE, 0xFF]);
        assert_eq!(key(&[Value::Int(i64::MIN)]).as_bytes().len(), 10);
    }

    #[test]
    fn inline_and_heap_keys_share_one_order() {
        // Lengths around the inline capacity, with zero bytes where padding
        // could be mistaken for content.
        let mut keys: Vec<Key> = (0..40)
            .flat_map(|n| {
                let s = "a".repeat(n);
                [Value::Str(s.clone()), Value::Str(format!("{s}\0")), Value::Str(format!("{s}b"))]
            })
            .map(|v| key(&[v]))
            .collect();
        keys.push(key(&[]));
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), a.as_bytes().cmp(b.as_bytes()), "{a:?} vs {b:?}");
                assert_eq!(a == b, a.as_bytes() == b.as_bytes());
            }
        }
        assert!(keys.iter().any(|k| matches!(k.0, Repr::Heap(_))));
        assert!(keys.iter().all(|k| matches!(k.0, Repr::Inline(_)) == (k.as_bytes().len() <= INLINE)));
    }
}
