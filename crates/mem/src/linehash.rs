//! A fixed, fast hasher for maps keyed by line addresses or region
//! numbers.
//!
//! The standard `RandomState` (SipHash-1-3, randomly keyed) is built to
//! resist keys crafted to collide, at several times the cost of one
//! multiply. Keys here are guest physical addresses and a collision
//! only costs host time, never changes a result, so the classifier
//! trades that protection for a folded 64×64→128-bit multiply. The
//! hasher is unkeyed and deterministic; even so, no map using it may
//! let its iteration order reach an output (collect and sort first).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the 64-bit golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher: each `u64` written is xored into the state,
/// which is then multiplied by [`K`] into 128 bits and folded back to
/// 64 by xoring the halves, so both the low bits (bucket index) and the
/// high bits (control tag) depend on every input bit.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed by a line address (or region number).
pub(crate) type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// `HashSet` of line addresses.
pub(crate) type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;
