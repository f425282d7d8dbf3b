//! Device-memory accounting: buffer identities and the stream-ordered pool
//! model.
//!
//! FIDESlib manages device memory through the CUDA Stream Ordered Memory
//! Allocator wrapped in RAII `VectorGPU` objects (§III-D). The simulator
//! reproduces the accounting side: every allocation receives a [`BufferId`]
//! (the unit of the L2 residency model) and the pool tracks current/peak
//! usage so experiments can report device-memory footprints such as the
//! key-switching-key sizes discussed with Fig. 8.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Opaque identity of one device allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub u64);

/// A hash map keyed by [`BufferId`] with a one-multiply integer hasher.
///
/// Buffer ids are handed out by the device pool (small, dense integers), so
/// the per-lookup cost of the default SipHash buys nothing on the replay
/// path, where every launch translates and L2-classifies ~35 limb buffers.
/// Not for keys an adversary chooses: the hash is trivially invertible.
pub type BufferMap<V> = HashMap<BufferId, V, BuildHasherDefault<BufferIdHasher>>;

/// The hasher behind [`BufferMap`]: a Fibonacci multiply with the high half
/// folded into the low bits (the table indexes by low bits, and ids that
/// differ only in a high namespace bit must still spread).
#[derive(Clone, Copy, Debug, Default)]
pub struct BufferIdHasher(u64);

impl Hasher for BufferIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// Pool accounting state (guarded by the simulator lock).
#[derive(Debug, Default)]
pub(crate) struct PoolState {
    next_id: u64,
    pub(crate) current_bytes: u64,
    pub(crate) peak_bytes: u64,
    pub(crate) alloc_count: u64,
    pub(crate) free_count: u64,
}

impl PoolState {
    pub(crate) fn alloc(&mut self, bytes: u64) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.alloc_count += 1;
        self.current_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        id
    }

    pub(crate) fn free(&mut self, bytes: u64) {
        self.free_count += 1;
        self.current_bytes = self.current_bytes.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_peak() {
        let mut p = PoolState::default();
        let a = p.alloc(100);
        let b = p.alloc(200);
        assert_ne!(a, b);
        assert_eq!(p.current_bytes, 300);
        p.free(100);
        let _ = p.alloc(50);
        assert_eq!(p.current_bytes, 250);
        assert_eq!(p.peak_bytes, 300);
        assert_eq!(p.alloc_count, 3);
        assert_eq!(p.free_count, 1);
    }
}
