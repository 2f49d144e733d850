//! Word hashing for the engine's own keys: QI codes, fold contents, audit
//! stamps and prior identities. These are counters, codes and addresses,
//! never text a caller chose to make hashes collide, so the hashes skip
//! SipHash's flooding defence: one multiply-rotate per word, finished with
//! the splitmix64 finalizer. Keep the default hasher for keys that come
//! from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the word mix (odd, so each step is a bijection of the
/// running state).
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Mix one word into the running hash `h`.
#[inline]
pub fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MUL).rotate_left(31)
}

/// Absorb `words` into the running hash `h`, two words per [`mix`]. A
/// trailing odd word is mixed alone, so slices of one fixed length hash
/// unambiguously.
#[inline]
pub fn absorb(mut h: u64, words: &[u32]) -> u64 {
    let mut pairs = words.chunks_exact(2);
    for pair in &mut pairs {
        h = mix(h, u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    if let [last] = pairs.remainder() {
        h = mix(h, u64::from(*last));
    }
    h
}

/// The splitmix64 finalizer: spreads every input bit over the output, so
/// a wrapping sum of finalized hashes stays well distributed and keys that
/// differ only in high bits (such as 8-aligned addresses) still spread
/// over a table's low bits.
#[inline]
pub fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A [`Hasher`] over whole words: [`mix`] per 8 bytes written, [`avalanche`]
/// at the end.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = mix(self.0, word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.0 = mix(self.0, word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        avalanche(self.0)
    }
}

/// A `HashMap` hashed with [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A `HashSet` hashed with [`WordHasher`].
pub type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;
