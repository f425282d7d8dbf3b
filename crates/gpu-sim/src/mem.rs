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

impl BufferId {
    /// This id's index in a dense table whose first entry is id `base`.
    /// Ids below `base` (and offsets no `usize` holds) land past the end
    /// of any table, so a bounds-checked `get` sends them elsewhere.
    #[inline]
    pub fn offset_from(self, base: u64) -> usize {
        usize::try_from(self.0.wrapping_sub(base)).unwrap_or(usize::MAX)
    }
}

/// A hash map keyed by [`BufferId`] with a one-multiply integer hasher.
///
/// Buffer ids are handed out by the device pool (small, dense integers), so
/// the per-lookup cost of the default SipHash buys nothing on the replay
/// path, where every launch L2-classifies ~35 limb buffers.
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

/// The buffer-id translation [`GpuSim::replay`](crate::GpuSim::replay)
/// presents a plan's buffers through: ids inside one dense window index a
/// table, every other id goes through a [`BufferMap`], and an id the
/// translation never mentions keeps its identity.
///
/// The window is meant for ids the pool handed out in one run — a recorded
/// region's temporaries — so the per-launch translation of almost every
/// buffer is a subtraction and an array read instead of a hash probe.
#[derive(Clone, Debug, Default)]
pub struct Rebinding {
    base: u64,
    dense: Vec<BufferId>,
    sparse: BufferMap<BufferId>,
}

impl Rebinding {
    /// The identity translation, with its dense table covering `window`.
    pub fn with_window(window: std::ops::Range<u64>) -> Self {
        let mut rebind = Self::default();
        rebind.reset(window);
        rebind
    }

    /// Back to the identity translation, with the dense table covering
    /// `window`; both tables keep their capacity.
    pub fn reset(&mut self, window: std::ops::Range<u64>) {
        self.base = window.start;
        self.dense.clear();
        self.dense.extend(window.map(BufferId));
        self.sparse.clear();
    }

    /// Presents `from` as `to` from now on (replacing any earlier target).
    pub fn set(&mut self, from: BufferId, to: BufferId) {
        match self.dense.get_mut(from.offset_from(self.base)) {
            Some(slot) => *slot = to,
            None => {
                self.sparse.insert(from, to);
            }
        }
    }

    /// What `buf` is presented as.
    #[inline]
    pub fn get(&self, buf: BufferId) -> BufferId {
        match self.dense.get(buf.offset_from(self.base)) {
            Some(&to) => to,
            None => self.sparse.get(&buf).copied().unwrap_or(buf),
        }
    }
}

/// Pool accounting state (guarded by the simulator lock).
#[derive(Debug, Default)]
pub(crate) struct PoolState {
    next_id: u64,
    pub(crate) current_bytes: u64,
    pub(crate) peak_bytes: u64,
    /// The highest `current_bytes` since the open capture began (set to
    /// the current bytes when one begins).
    pub(crate) capture_peak: u64,
}

impl PoolState {
    /// The id the next allocation receives (ids only grow).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    pub(crate) fn alloc(&mut self, bytes: u64) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.current_bytes += bytes;
        self.raise_peak(self.current_bytes);
        id
    }

    /// Hands out `count` ids that hold no bytes.
    pub(crate) fn skip_ids(&mut self, count: u64) {
        self.next_id += count;
    }

    /// Raises both high-water marks to at least `bytes`.
    pub(crate) fn raise_peak(&mut self, bytes: u64) {
        self.peak_bytes = self.peak_bytes.max(bytes);
        self.capture_peak = self.capture_peak.max(bytes);
    }

    pub(crate) fn free(&mut self, bytes: u64) {
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
        assert_eq!(p.next_id(), 3);
    }

    #[test]
    fn rebinding_translates_inside_and_outside_its_window() {
        let mut r = Rebinding::with_window(10..14);
        r.set(BufferId(11), BufferId(99));
        r.set(BufferId(3), BufferId(12));
        r.set(BufferId(3), BufferId(13));
        assert_eq!(r.get(BufferId(11)), BufferId(99), "dense entry");
        assert_eq!(r.get(BufferId(12)), BufferId(12), "dense identity");
        assert_eq!(
            r.get(BufferId(3)),
            BufferId(13),
            "sparse entry, last set wins"
        );
        assert_eq!(r.get(BufferId(14)), BufferId(14), "past the window");
        assert_eq!(r.get(BufferId(u64::MAX)), BufferId(u64::MAX));
        let empty = Rebinding::default();
        assert_eq!(empty.get(BufferId(0)), BufferId(0));
        r.reset(2..4);
        for id in [2, 3, 11, 3, 99] {
            assert_eq!(r.get(BufferId(id)), BufferId(id), "reset is the identity");
        }
    }
}
