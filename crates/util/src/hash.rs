//! The one hasher of the engine's maps.
//!
//! Every key the storage engine and the SQL layer hash is one they made
//! themselves: table and row ids, page ids, column indexes, group and join
//! keys of rows already stored, and the benchmark's own statement texts.
//! SipHash's resistance to chosen keys would only cost there, so their maps
//! hash with [`Mix`], a multiply-rotate over 8-byte words.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: each 8-byte word of the input is folded into the
/// state with one rotate, one xor and one multiply.
#[derive(Default)]
pub struct Mix(u64);

impl Hasher for Mix {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let mixed = self.0.rotate_left(5) ^ u64::from_le_bytes(word);
            self.0 = mixed.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds a [`Mix`]; stateless, so every map hashes a key alike.
pub type MixState = BuildHasherDefault<Mix>;

/// A `HashMap` keyed through [`Mix`].
pub type MixMap<K, V> = HashMap<K, V, MixState>;

/// A `HashSet` keyed through [`Mix`].
pub type MixSet<T> = HashSet<T, MixState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_alike_and_neighbours_apart() {
        let hash = |text: &str| MixState::default().hash_one(text);
        assert_eq!(hash("SELECT 1"), hash("SELECT 1"));
        assert_ne!(hash("SELECT 1"), hash("SELECT 2"));
        // Sequential ids, the engine's commonest key, spread over the low
        // bits a map's bucket index is taken from.
        let buckets: MixSet<u64> = (0..1024u64).map(|i| MixState::default().hash_one(i) & 1023).collect();
        assert!(buckets.len() > 600, "1,024 sequential ids fill {} of 1,024 buckets", buckets.len());
    }
}
