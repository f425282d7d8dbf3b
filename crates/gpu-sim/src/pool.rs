//! Limb storage: device buffers that a set owns and frees as a whole.
//!
//! FIDESlib keeps an RNS polynomial as a stack of per-limb device arrays
//! served by CUDA's stream-ordered allocator (§III-D), which hands memory out
//! without a host-side lock per array. A [`PoolBuf`] is one such array: its
//! data, logical length and pool id, and nothing else — no device handle and
//! no freeing `Drop`. Its owner holds the one handle and hands out and
//! returns a whole set of ids under one acquisition of the device lock
//! ([`GpuSim::alloc_run`], [`GpuSim::release`]). [`PoolSet`] is the small
//! owned set for an op's temporaries; a polynomial's limb partition is the
//! other owner.

use std::ops::{Deref, DerefMut, Range};

use crate::{BufferId, GpuSim};

/// One device buffer of `T` elements whose pool id its owning set releases.
///
/// In cost-only mode the host-side storage stays empty, exactly as for a
/// [`VectorGpu`](crate::VectorGpu). In debug builds, dropping a buffer that
/// was never handed back through [`Self::into_release`] panics: its bytes
/// would stay counted on the device for good.
#[derive(Debug)]
pub struct PoolBuf<T: Copy + Default> {
    data: Vec<T>,
    logical_len: usize,
    buffer: BufferId,
}

impl<T: Copy + Default> PoolBuf<T> {
    /// A run of `count` zero-initialized buffers of `len` elements: `count`
    /// consecutive pool ids taken under one device lock. The ids are handed
    /// out by this call, so the caller must take every buffer of the run.
    pub fn run(gpu: &GpuSim, count: usize, len: usize) -> impl Iterator<Item = Self> {
        Self::on_ids(gpu, gpu.alloc_run(Self::sizes(count, len)), len)
    }

    /// The byte sizes of `count` buffers of `len` elements.
    fn sizes(count: usize, len: usize) -> impl Iterator<Item = u64> {
        std::iter::repeat_n((len * std::mem::size_of::<T>()) as u64, count)
    }

    /// Zero-initialized buffers of `len` elements on freshly handed-out ids.
    fn on_ids(gpu: &GpuSim, ids: Range<u64>, len: usize) -> impl Iterator<Item = Self> {
        let functional = gpu.is_functional();
        ids.map(move |id| Self {
            data: if functional {
                vec![T::default(); len]
            } else {
                Vec::new()
            },
            logical_len: len,
            buffer: BufferId(id),
        })
    }

    /// A zero-initialized buffer of `len` elements on `id`, an id the pool
    /// already handed out and counts the bytes of
    /// ([`GpuSim::apply_pool_effect`]) with no buffer yet holding it.
    pub fn on_id(gpu: &GpuSim, id: u64, len: usize) -> Self {
        Self::on_ids(gpu, id..id + 1, len)
            .next()
            .expect("one id, one buffer")
    }

    /// Uploads each host vector of `host` into a fresh buffer, all ids taken
    /// under one device lock by this call (functional mode keeps the
    /// contents; cost-only mode records the allocations only). Does **not**
    /// charge a PCIe transfer.
    pub fn upload_run(gpu: &GpuSim, host: Vec<Vec<T>>) -> impl Iterator<Item = Self> {
        let ids = gpu.alloc_run(
            host.iter()
                .map(|h| (h.len() * std::mem::size_of::<T>()) as u64),
        );
        let functional = gpu.is_functional();
        ids.zip(host).map(move |(id, data)| Self {
            logical_len: data.len(),
            data: if functional { data } else { Vec::new() },
            buffer: BufferId(id),
        })
    }

    /// Logical element count (valid in both execution modes).
    #[inline]
    pub fn len(&self) -> usize {
        self.logical_len
    }

    /// True if the logical length is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.logical_len == 0
    }

    /// Logical size in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.logical_len * std::mem::size_of::<T>()) as u64
    }

    /// Buffer identity for kernel descriptors.
    #[inline]
    pub fn buffer(&self) -> BufferId {
        self.buffer
    }

    /// Borrows the backing storage. Empty in cost-only mode; only kernel
    /// bodies (which never run in that mode) should index it.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the backing storage (see [`Self::as_slice`]).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// True when the buffer holds its contents (functional mode).
    #[inline]
    fn holds_data(&self) -> bool {
        self.data.len() == self.logical_len
    }

    /// Copies the contents out (functional mode) or returns zeros.
    pub fn to_vec(&self) -> Vec<T> {
        if self.holds_data() {
            self.data.clone()
        } else {
            vec![T::default(); self.logical_len]
        }
    }

    /// Overwrites contents from a host slice (no-op in cost-only mode).
    ///
    /// # Panics
    ///
    /// Panics in functional mode if `src.len() != self.len()`.
    pub fn copy_from_slice(&mut self, src: &[T]) {
        if self.holds_data() {
            assert_eq!(src.len(), self.logical_len);
            self.data.copy_from_slice(src);
        }
    }

    /// Gives the buffer up for [`GpuSim::release`]: its id and bytes.
    pub fn into_release(self) -> (BufferId, u64) {
        let mut gone = std::mem::ManuallyDrop::new(self);
        drop(std::mem::take(&mut gone.data));
        (gone.buffer, gone.bytes())
    }
}

#[cfg(debug_assertions)]
impl<T: Copy + Default> Drop for PoolBuf<T> {
    fn drop(&mut self) {
        // A panic already unwinding past an op's limbs must not abort here.
        if !std::thread::panicking() {
            panic!(
                "pool buffer {:?} dropped without being released",
                self.buffer
            );
        }
    }
}

/// An owned set of [`PoolBuf`]s — one op's temporaries. A run takes its
/// ids under one device lock, and dropping the set releases them all, in
/// order, under one more.
#[derive(Debug)]
pub struct PoolSet<'g, T: Copy + Default> {
    gpu: &'g GpuSim,
    bufs: Vec<PoolBuf<T>>,
}

impl<'g, T: Copy + Default> PoolSet<'g, T> {
    /// An empty set on `gpu` with room for `capacity` buffers.
    pub fn with_capacity(gpu: &'g GpuSim, capacity: usize) -> Self {
        Self {
            gpu,
            bufs: Vec::with_capacity(capacity),
        }
    }

    /// A set owning `bufs`: a run, or the part of one its owner takes.
    pub fn from_bufs(gpu: &'g GpuSim, bufs: impl IntoIterator<Item = PoolBuf<T>>) -> Self {
        Self {
            gpu,
            bufs: bufs.into_iter().collect(),
        }
    }

    /// A set of one run of `count` buffers of `len` elements.
    pub fn run(gpu: &'g GpuSim, count: usize, len: usize) -> Self {
        Self::from_bufs(gpu, PoolBuf::run(gpu, count, len))
    }

    /// Releases every buffer of the set, then refills it with a run of
    /// `count` buffers of `len` elements, under one device lock — a batch
    /// loop's temporaries handed from one batch to the next.
    pub fn replace_run(&mut self, count: usize, len: usize) {
        let gpu = self.gpu;
        let released = self.bufs.drain(..).map(PoolBuf::into_release);
        let ids = gpu.recycle(released, PoolBuf::<T>::sizes(count, len));
        self.bufs.extend(PoolBuf::on_ids(gpu, ids, len));
    }

    /// Empties the set without releasing it: its buffers' ids and bytes,
    /// for a [`GpuSim::release`] its owner shares with other buffers.
    pub fn into_release(mut self) -> impl Iterator<Item = (BufferId, u64)> {
        std::mem::take(&mut self.bufs)
            .into_iter()
            .map(PoolBuf::into_release)
    }
}

impl<T: Copy + Default> Deref for PoolSet<'_, T> {
    type Target = [PoolBuf<T>];

    fn deref(&self) -> &[PoolBuf<T>] {
        &self.bufs
    }
}

impl<T: Copy + Default> DerefMut for PoolSet<'_, T> {
    fn deref_mut(&mut self) -> &mut [PoolBuf<T>] {
        &mut self.bufs
    }
}

impl<'a, T: Copy + Default> IntoIterator for &'a PoolSet<'_, T> {
    type Item = &'a PoolBuf<T>;
    type IntoIter = std::slice::Iter<'a, PoolBuf<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.bufs.iter()
    }
}

impl<T: Copy + Default> Drop for PoolSet<'_, T> {
    fn drop(&mut self) {
        if !self.bufs.is_empty() {
            self.gpu
                .release(self.bufs.drain(..).map(PoolBuf::into_release));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceSpec, ExecMode};

    #[test]
    fn a_set_takes_consecutive_ids_and_gives_its_bytes_back() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        {
            let mut set = PoolSet::<u64>::run(&gpu, 3, 16);
            let ids: Vec<u64> = set.iter().map(|b| b.buffer().0).collect();
            assert_eq!(ids, [0, 1, 2]);
            set[0].copy_from_slice(&[7; 16]);
            assert_eq!(set[0].to_vec(), [7; 16]);
            set.replace_run(2, 4);
            let ids: Vec<u64> = set.iter().map(|b| b.buffer().0).collect();
            assert_eq!(ids, [3, 4]);
            assert_eq!(gpu.stats().current_alloc_bytes, 2 * 32);
        }
        assert_eq!(gpu.stats().current_alloc_bytes, 0);
        assert_eq!(gpu.stats().peak_alloc_bytes, 3 * 128);
    }

    #[test]
    fn cost_only_buffers_have_no_storage_but_logical_len() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let bufs: Vec<PoolBuf<u64>> =
            PoolBuf::upload_run(&gpu, vec![vec![1, 2, 3], vec![4]]).collect();
        assert_eq!(bufs[0].len(), 3);
        assert!(bufs[0].as_slice().is_empty());
        assert_eq!(bufs[0].to_vec(), vec![0, 0, 0]);
        assert_eq!(gpu.stats().current_alloc_bytes, 32);
        gpu.release(bufs.into_iter().map(PoolBuf::into_release));
        assert_eq!(gpu.stats().current_alloc_bytes, 0);
    }
}
