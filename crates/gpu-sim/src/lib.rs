//! # fides-gpu-sim
//!
//! The GPU-backend substitute for `fideslib-rs`: a functional + timing
//! simulator of a CUDA-like device.
//!
//! The real FIDESlib expresses every server-side CKKS operation as GPU kernel
//! launches on CUDA streams. This crate reproduces that execution model in
//! pure Rust: library code describes each unit of work by a [`KernelDesc`]
//! (kind + compute total) and the buffers it touches, plus a closure with the
//! actual math, and the simulator both *runs* the math (in
//! [`ExecMode::Functional`]) and *times* the launch against a device model
//! ([`DeviceSpec`], Table IV of the paper). Launches and fences are recorded
//! into a flat [`EventLog`] — a scratch one that is timed at once, or the
//! open capture region's, which a scheduler plans and hands back to
//! [`GpuSim::replay`].
//!
//! Because CKKS server operations are data-oblivious, the kernel schedule is
//! identical whether or not the math runs — [`ExecMode::CostOnly`] produces
//! exact timing ledgers at full paper scale (N = 2¹⁶) at negligible CPU cost.
//!
//! ```
//! use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim, KernelDesc, KernelKind, VectorGpu};
//!
//! let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
//! let mut v = VectorGpu::<u64>::from_vec(&gpu, vec![1, 2, 3, 4]);
//! let desc = KernelDesc::new(KernelKind::Elementwise).ops(4 * fides_gpu_sim::ADD_OPS);
//! gpu.launch(0, desc, |d| {
//!     d.read(v.buffer(), v.bytes()).write(v.buffer(), v.bytes());
//! })
//! .run(|| {
//!     for x in v.as_mut_slice() {
//!         *x += 1;
//!     }
//! });
//! assert_eq!(v.to_vec(), vec![2, 3, 4, 5]);
//! assert!(gpu.sync() > 0.0);
//! ```

#![warn(missing_docs)]

mod cluster;
mod device;
mod kernel;
mod log;
mod mem;
mod memo;
mod pool;
mod timeline;

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

pub use cluster::{GpuCluster, InterconnectSpec};
pub use device::DeviceSpec;
pub use kernel::{
    KernelDesc, KernelKind, ADD_OPS, BARRETT_MULMOD_OPS, BUTTERFLY_OPS, LOW_MUL_OPS, MODADD_OPS,
    SHOUP_MULMOD_OPS, WIDE_MUL_OPS,
};
pub use log::{Access, Accesses, Event, EventLog, Launch};
pub use mem::{BufferId, BufferIdHasher, BufferMap, Rebinding};
pub use memo::ReplayMemo;
pub use pool::{PoolBuf, PoolSet};
pub use timeline::{KindStats, SimStats, StreamStats};

use mem::PoolState;
use memo::EntryState;
use timeline::Timeline;

/// Whether kernel bodies execute (functional correctness) or are skipped
/// (timing-only at full scale).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Run kernel bodies; results are bit-exact CKKS.
    Functional,
    /// Skip kernel bodies; only the timing ledger advances. Valid because all
    /// server-side CKKS kernels are data-oblivious.
    CostOnly,
}

/// What one closed capture region recorded (see [`GpuSim::end_capture`]).
#[derive(Clone, Debug, Default)]
pub struct Capture {
    /// The recorded launches and fences, in program order.
    pub events: EventLog,
    /// The [`BufferId`] values the device pool handed out while the region
    /// was open — the region's own allocations, plus any other thread's
    /// that landed in the same window. Buffers a region creates come from
    /// here; buffers it only reads mostly predate it.
    pub fresh_ids: Range<u64>,
}

/// What the owner of a closed capture region did besides recording (see
/// [`GpuSim::end_capture_owned`]).
#[derive(Clone, Debug, Default)]
pub struct OwnWork {
    /// The runs of ids the pool handed to the owning thread while the
    /// region was open, in allocation order: the region's own allocations
    /// and nothing else, so the k-th of them is the same temporary on every
    /// run of one schedule.
    pub own_ids: Vec<Range<u64>>,
    /// How many of those ids were still allocated at the close.
    pub live_ids: u64,
    /// What the region did to the pool, in a form
    /// [`GpuSim::apply_pool_effect`] repeats without the allocations.
    pub effect: PoolEffect,
}

/// What one capture region's owner did to the device pool, net of the
/// older buffers it released: a region that allocates, releases and keeps
/// the same byte sizes in the same order from the same pool state leaves
/// the pool as [`GpuSim::apply_pool_effect`] of its effect does, once the
/// older buffers are released.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolEffect {
    /// Ids the owner was handed ([`OwnWork::own_ids`], counted).
    pub ids: u64,
    /// How far the pool's current bytes rose, at their highest while the
    /// region was open, above the bytes at its close less its live
    /// allocations — the entry bytes net of the older buffers it released.
    pub peak_rise: u64,
    /// Bytes of the owner's allocations still allocated at the close.
    pub live_bytes: u64,
}

thread_local! {
    /// The current thread's id, read without cloning its `Thread` handle.
    static THREAD_ID: std::thread::ThreadId = std::thread::current().id();
}

/// The calling thread's id.
#[inline]
fn current_thread() -> std::thread::ThreadId {
    THREAD_ID.with(|id| *id)
}

/// A launch whose timing is recorded; [`Launched::run`] runs its body.
///
/// Returned by [`GpuSim::launch`] so that the closure naming the buffers a
/// kernel touches and the body mutating them never borrow the same data at
/// once.
#[must_use = "a launched kernel's body only runs through `run` or `map`"]
#[derive(Debug)]
pub struct Launched {
    functional: bool,
}

impl Launched {
    /// Runs `body` in functional mode; skips it in cost-only mode.
    #[inline]
    pub fn run(self, body: impl FnOnce()) {
        if self.functional {
            body();
        }
    }

    /// Runs `body` and returns its value in functional mode, or `None` in
    /// cost-only mode.
    #[inline]
    pub fn map<T>(self, body: impl FnOnce() -> T) -> Option<T> {
        self.functional.then(body)
    }
}

/// A simulated GPU: device model, timeline, memory pool and execution mode.
///
/// Cheap to share: wrap in [`Arc`] (construction already returns one).
#[derive(Debug)]
pub struct GpuSim {
    mode: ExecMode,
    state: Mutex<SimState>,
}

#[derive(Debug)]
struct SimState {
    timeline: Timeline,
    pool: PoolState,
    /// Kernel-graph capture buffer (non-empty depth = capture active).
    capture: EventLog,
    /// The reused log eager launches and fences are recorded into and
    /// timed from; empty between calls.
    scratch: EventLog,
    capture_depth: usize,
    /// Thread owning the open capture. Capture is **per-thread**: launches
    /// from other threads keep executing eagerly (mutex-serialized, exactly
    /// the pre-graph behaviour), so concurrent sessions sharing one device
    /// can never corrupt each other's graphs.
    capture_owner: Option<std::thread::ThreadId>,
    /// The pool's next id when the open capture began.
    capture_first_id: u64,
    /// What the capture's owner allocated and still holds.
    own: OwnTally,
    /// The translation table [`GpuSim::replay_rebound`] fills, kept for
    /// its capacity between replays.
    rebind: Rebinding,
    /// The named resident list [`GpuSim::replay_memoised`] compares, kept
    /// for its capacity between replays.
    entry: EntryState,
}

impl SimState {
    /// True while the calling thread owns an open capture region. The
    /// thread id is only read when some capture is open.
    fn captured_by_current_thread(&self) -> bool {
        self.capture_depth > 0 && self.capture_owner == Some(current_thread())
    }

    /// Notes a run of ids `ids` of `bytes` in all just handed out: the
    /// open capture's own when the calling thread owns it.
    fn note_alloc(&mut self, ids: Range<u64>, bytes: u64) {
        if ids.is_empty() || !self.captured_by_current_thread() {
            return;
        }
        self.own.alloc(ids, bytes);
    }

    /// Returns `buf` of `bytes` to the pool and the L2 model; `owner` says
    /// whether the calling thread owns the open capture.
    fn free(&mut self, buf: BufferId, bytes: u64, owner: bool) {
        self.pool.free(bytes);
        self.timeline.evict_buffer(buf);
        if owner {
            self.own.free(buf, bytes);
        }
    }

    /// Appends one event through `push`: to the calling thread's open
    /// capture, or to the scratch log, which is timed and cleared at once.
    #[inline]
    fn record(&mut self, push: impl FnOnce(&mut EventLog)) {
        if self.captured_by_current_thread() {
            push(&mut self.capture);
        } else {
            push(&mut self.scratch);
            self.timeline.replay(&self.scratch, |buf| buf);
            self.scratch.clear();
        }
    }
}

/// The open capture owner's allocations: the id runs it was handed and how
/// many of them, and of how many bytes, it still holds.
#[derive(Debug, Default)]
struct OwnTally {
    ids: Vec<Range<u64>>,
    live_ids: u64,
    live_bytes: u64,
}

impl OwnTally {
    fn alloc(&mut self, ids: Range<u64>, bytes: u64) {
        self.live_ids += ids.end - ids.start;
        self.live_bytes += bytes;
        match self.ids.last_mut() {
            Some(last) if last.end == ids.start => last.end = ids.end,
            _ => self.ids.push(ids),
        }
    }

    /// Counts `buf` gone when it is one of the owner's ids.
    fn free(&mut self, buf: BufferId, bytes: u64) {
        let r = self.ids.partition_point(|run| run.end <= buf.0);
        if self.ids.get(r).is_some_and(|run| run.contains(&buf.0)) {
            self.live_ids -= 1;
            self.live_bytes -= bytes;
        }
    }
}

impl GpuSim {
    /// Creates a simulated device.
    pub fn new(spec: DeviceSpec, mode: ExecMode) -> Arc<Self> {
        Arc::new(Self {
            mode,
            state: Mutex::new(SimState {
                timeline: Timeline::new(spec),
                pool: PoolState::default(),
                capture: EventLog::default(),
                scratch: EventLog::default(),
                capture_depth: 0,
                capture_owner: None,
                capture_first_id: 0,
                own: OwnTally::default(),
                rebind: Rebinding::default(),
                entry: EntryState::default(),
            }),
        })
    }

    /// Execution mode.
    #[inline]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// True when kernel bodies run.
    #[inline]
    pub fn is_functional(&self) -> bool {
        self.mode == ExecMode::Functional
    }

    /// The device specification.
    pub fn spec(&self) -> DeviceSpec {
        self.state.lock().timeline.spec().clone()
    }

    /// Launches a kernel on `stream`: records `desc` and the buffers
    /// `accesses` names, and times the launch. Run the kernel's body through
    /// the returned [`Launched`] — it executes in functional mode only.
    ///
    /// Under an active capture ([`Self::begin_capture`]) the timing is
    /// deferred — the launch is appended to the capture's [`EventLog`]
    /// instead of advancing the timeline — while the body still runs (CKKS
    /// kernels are data-oblivious, so functional results never depend on the
    /// schedule).
    ///
    /// `accesses` runs under the device lock: it must only name buffers,
    /// never call back into this device.
    #[inline]
    pub fn launch(
        &self,
        stream: usize,
        desc: KernelDesc,
        accesses: impl FnOnce(&mut Accesses<'_>),
    ) -> Launched {
        self.state
            .lock()
            .record(|log| log.launch(stream, desc, accesses));
        Launched {
            functional: self.is_functional(),
        }
    }

    /// Replays a planned log onto the timeline: every launch advances the
    /// clocks and the ledger exactly as [`Self::launch`] would, every fence
    /// as [`Self::fence`] would — under **one** acquisition of the device
    /// lock, from the borrowed log.
    ///
    /// Each buffer a launch touches is presented to the L2 model as
    /// `rebind.get(buffer)`, which is how a cached plan recorded against
    /// one generation of allocations replays onto the next without being
    /// copied and rewritten.
    ///
    /// # Panics
    ///
    /// If the calling thread owns an open capture region. Replay times work
    /// that was already recorded; feeding it back into a capture would
    /// record the plan a second time instead of timing it, so the caller
    /// must close its region ([`Self::end_capture`]) first.
    pub fn replay(&self, log: &EventLog, rebind: &Rebinding) {
        let mut st = self.state.lock();
        assert!(
            !st.captured_by_current_thread(),
            "GpuSim::replay inside the calling thread's open capture region"
        );
        st.timeline.replay(log, |buf| rebind.get(buf));
    }

    /// As [`Self::replay`], through the device's reusable translation
    /// table: `bind` fills it after it is reset to the identity over
    /// `window` ([`Rebinding::reset`]), and the table keeps its capacity
    /// for the next replay, so a warm replay allocates none. `bind` runs
    /// outside the device lock.
    ///
    /// # Panics
    ///
    /// As [`Self::replay`].
    pub fn replay_rebound(
        &self,
        log: &EventLog,
        window: std::ops::Range<u64>,
        bind: impl FnOnce(&mut Rebinding),
    ) {
        let mut rebind = std::mem::take(&mut self.state.lock().rebind);
        rebind.reset(window);
        bind(&mut rebind);
        self.replay(log, &rebind);
        self.state.lock().rebind = rebind;
    }

    /// As [`Self::replay_rebound`], reusing what `memo` recorded for this
    /// log when the device's L2 holds what it held then. Returns whether
    /// the memo was applied.
    ///
    /// `name` names the buffers this replay relates to and `resolve` is
    /// its inverse: `name` must be one-to-one, must name every buffer the
    /// log touches as `bind`'s translation presents it, and must give each
    /// name one meaning across every replay `memo` sees. Under that
    /// contract a replay's L2 classification depends only on the device's
    /// resident list with each line reduced to its name (or, unnamed, to
    /// nothing), bytes and dirty flag — the entry state. When the memo
    /// holds a replay recorded from an equal entry state on a device of
    /// equal timing constants, this one skips `bind`, every L2 touch and
    /// the walk over the log's launches: it advances the clocks and the
    /// ledger by each launch's recorded terms, applies the log's fences
    /// between them and installs the recorded exit state, leaving the
    /// device exactly as [`Self::replay_rebound`] would (and counting
    /// [`SimStats::replay_memo_hits`]). Otherwise it replays
    /// through the L2 model, and records this replay into `memo` when an
    /// earlier unmatched replay entered from the same state.
    ///
    /// # Panics
    ///
    /// As [`Self::replay`].
    pub fn replay_memoised(
        &self,
        log: &EventLog,
        window: std::ops::Range<u64>,
        bind: impl FnOnce(&mut Rebinding),
        name: impl Fn(BufferId) -> Option<u64>,
        resolve: impl Fn(u64) -> BufferId,
        memo: &mut ReplayMemo,
    ) -> bool {
        let mut rebind = {
            let mut st = self.state.lock();
            assert!(
                !st.captured_by_current_thread(),
                "GpuSim::replay_memoised inside the calling thread's open capture region"
            );
            let st = &mut *st;
            st.entry.fill(&st.timeline.l2, &name);
            if memo.apply(&mut st.timeline, log, &st.entry, resolve) {
                st.timeline.stats.replay_memo_hits += 1;
                return true;
            }
            std::mem::take(&mut st.rebind)
        };
        rebind.reset(window);
        bind(&mut rebind);
        let mut st = self.state.lock();
        let st = &mut *st;
        // The lock was let go: name the state the replay really enters.
        st.entry.fill(&st.timeline.l2, &name);
        memo.replay(
            &mut st.timeline,
            log,
            |buf| rebind.get(buf),
            &st.entry,
            name,
        );
        st.rebind = rebind;
        false
    }

    /// The L2 model's resident lines `(buffer, bytes, dirty)`, least
    /// recently used first.
    pub fn l2_residents(&self) -> Vec<(BufferId, u64, bool)> {
        self.state.lock().timeline.l2.residents().collect()
    }

    /// Hands a drained capture log back for the next capture region to
    /// record into, so a region that repeats records into the capacity the
    /// last one grew instead of regrowing it from empty. The log is
    /// cleared; it is dropped instead while a capture is open.
    pub fn recycle_capture_log(&self, mut log: EventLog) {
        log.clear();
        let mut st = self.state.lock();
        if st.capture_depth == 0 {
            st.capture = log;
        }
    }

    /// Opens a kernel-graph capture region on the **calling thread**:
    /// subsequent [`Self::launch`] and [`Self::fence`] calls from this
    /// thread are recorded instead of timed (other threads keep executing
    /// eagerly). Regions nest per owner; only the outermost
    /// [`Self::end_capture`] returns the recorded events. Returns `true`
    /// when this call opened the outermost region; when another thread
    /// already owns a capture, nothing is opened and the caller's work runs
    /// eagerly.
    pub fn begin_capture(&self) -> bool {
        let mut st = self.state.lock();
        let me = current_thread();
        if st.capture_depth == 0 {
            st.capture_owner = Some(me);
            st.capture_depth = 1;
            st.capture_first_id = st.pool.next_id();
            st.pool.capture_peak = st.pool.current_bytes;
            st.own = OwnTally::default();
            true
        } else {
            if st.capture_owner == Some(me) {
                st.capture_depth += 1;
            }
            false
        }
    }

    /// Closes one capture region of the calling thread. The outermost close
    /// drains and returns the recording with the range of buffer ids the
    /// pool handed out while the region was open (an empty [`Capture`] for
    /// nested closes and for threads that own no capture), leaving the
    /// timeline untouched — replaying the events (fused or not) is the
    /// caller's job.
    pub fn end_capture(&self) -> Capture {
        self.end_capture_owned().0
    }

    /// As [`Self::end_capture`], also returning what the region's owner
    /// allocated and what it did to the pool (empty unless this is the
    /// outermost close).
    pub fn end_capture_owned(&self) -> (Capture, OwnWork) {
        let mut st = self.state.lock();
        if !st.captured_by_current_thread() {
            return Default::default();
        }
        st.capture_depth -= 1;
        if st.capture_depth == 0 {
            st.capture_owner = None;
            let capture = Capture {
                events: std::mem::take(&mut st.capture),
                fresh_ids: st.capture_first_id..st.pool.next_id(),
            };
            let tally = std::mem::take(&mut st.own);
            let kept = st.pool.current_bytes.saturating_sub(tally.live_bytes);
            let effect = PoolEffect {
                ids: tally.ids.iter().map(|run| run.end - run.start).sum(),
                peak_rise: st.pool.capture_peak.saturating_sub(kept),
                live_bytes: tally.live_bytes,
            };
            let own = OwnWork {
                own_ids: tally.ids,
                live_ids: tally.live_ids,
                effect,
            };
            (capture, own)
        } else {
            Default::default()
        }
    }

    /// True while a capture region is open.
    pub fn is_capturing(&self) -> bool {
        self.state.lock().capture_depth > 0
    }

    /// True while the **calling thread** owns an open capture region.
    pub fn capturing_on_current_thread(&self) -> bool {
        self.state.lock().captured_by_current_thread()
    }

    /// Records a host→device transfer of `bytes`.
    pub fn transfer_to_device(&self, bytes: u64) {
        self.state.lock().timeline.transfer(bytes, true);
    }

    /// Records a device→host transfer of `bytes`.
    pub fn transfer_to_host(&self, bytes: u64) {
        self.state.lock().timeline.transfer(bytes, false);
    }

    /// Device-wide synchronize; returns the simulated makespan in µs.
    ///
    /// The standard timing idiom is
    /// `let t0 = gpu.sync(); /* ops */ let dt = gpu.sync() - t0;`.
    pub fn sync(&self) -> f64 {
        self.state.lock().timeline.sync_all()
    }

    /// Event fence: streams in `waiters` wait for work recorded on
    /// `signals`. Recorded instead of applied while a capture is active.
    pub fn fence(&self, signals: &[usize], waiters: &[usize]) {
        self.state
            .lock()
            .record(|log| log.fence(signals.iter().copied(), waiters.iter().copied()));
    }

    /// Records the memory plan of one scheduled graph: the liveness pass's
    /// pooled high-water mark and slot count. The ledger keeps the largest
    /// peak seen in the window and accumulates allocations.
    pub fn record_plan_memory(&self, peak_device_bytes: u64, allocations: u64) {
        let mut st = self.state.lock();
        let stats = &mut st.timeline.stats;
        stats.peak_device_bytes = stats.peak_device_bytes.max(peak_device_bytes);
        stats.allocations += allocations;
    }

    /// Records one plan-cache lookup outcome for a scheduled graph.
    pub fn record_plan_cache(&self, hit: bool) {
        let mut st = self.state.lock();
        if hit {
            st.timeline.stats.plan_cache_hits += 1;
        } else {
            st.timeline.stats.plan_cache_misses += 1;
        }
    }

    /// Snapshot of the statistics ledger.
    pub fn stats(&self) -> SimStats {
        let st = self.state.lock();
        let mut s = st.timeline.stats();
        s.current_alloc_bytes = st.pool.current_bytes;
        s.peak_alloc_bytes = st.pool.peak_bytes;
        s
    }

    /// Clears the statistics ledger and starts a new measurement window
    /// (clocks keep advancing monotonically).
    pub fn reset_stats(&self) {
        self.state.lock().timeline.reset_stats();
    }

    /// The host submission clock in absolute simulated µs.
    pub fn host_clock(&self) -> f64 {
        self.state.lock().timeline.host_clock()
    }

    /// Advances the host submission clock to at least `t` µs. Together with
    /// [`Self::host_clock`] this carries time across devices of a
    /// [`GpuCluster`]: a tenant migration reads the source device's clock,
    /// prices the key transfer on the link, and imposes its completion
    /// time on the destination device.
    pub fn advance_host_to(&self, t: f64) {
        self.state.lock().timeline.advance_host_to(t);
    }

    /// Hands out one pool id per entry of `bytes`, consecutively and in
    /// order, under one acquisition of the device lock, and returns them as
    /// a range. Each id is accounted exactly as a lone allocation would be:
    /// its bytes join the current total, then the peak is updated.
    pub fn alloc_run(&self, bytes: impl IntoIterator<Item = u64>) -> std::ops::Range<u64> {
        self.recycle(std::iter::empty(), bytes)
    }

    /// Returns every `(id, bytes)` of `bufs` to the pool, in order, under
    /// one acquisition of the device lock: per buffer its bytes leave the
    /// current total, then its lines leave the L2.
    pub fn release(&self, bufs: impl IntoIterator<Item = (BufferId, u64)>) {
        self.recycle(bufs, std::iter::empty());
    }

    /// [`Self::release`] of `bufs` followed by [`Self::alloc_run`] of
    /// `bytes`, both under one acquisition of the device lock.
    ///
    /// Both iterators run under the lock, so they must not call back into
    /// this device.
    pub fn recycle(
        &self,
        bufs: impl IntoIterator<Item = (BufferId, u64)>,
        bytes: impl IntoIterator<Item = u64>,
    ) -> std::ops::Range<u64> {
        let mut st = self.state.lock();
        let owner = st.captured_by_current_thread();
        for (buf, b) in bufs {
            st.free(buf, b, owner);
        }
        let first = st.pool.next_id();
        let mut total = 0;
        for b in bytes {
            st.pool.alloc(b);
            total += b;
        }
        let ids = first..st.pool.next_id();
        st.note_alloc(ids.clone(), total);
        ids
    }

    /// Repeats what a capture region did to the pool
    /// ([`OwnWork::effect`]) without its allocations, under one
    /// acquisition of the device lock: hands out `effect.ids` consecutive
    /// ids, raises the peak to the current bytes plus `effect.peak_rise`,
    /// and counts `effect.live_bytes` as allocated. Returns the ids; the
    /// caller owns those the recorded region kept
    /// ([`PoolBuf::on_id`]) and none of the others.
    ///
    /// Call it once the older buffers the region would have released are
    /// released.
    pub fn apply_pool_effect(&self, effect: &PoolEffect) -> Range<u64> {
        let mut st = self.state.lock();
        let pool = &mut st.pool;
        let first = pool.next_id();
        pool.skip_ids(effect.ids);
        pool.raise_peak(pool.current_bytes + effect.peak_rise);
        pool.current_bytes += effect.live_bytes;
        first..pool.next_id()
    }

    /// One id for a standalone [`VectorGpu`], under its own lock.
    fn pool_alloc(&self, bytes: u64) -> BufferId {
        let mut st = self.state.lock();
        let id = st.pool.alloc(bytes);
        st.note_alloc(id.0..id.0 + 1, bytes);
        id
    }

    /// Frees one standalone [`VectorGpu`], under its own lock.
    fn pool_free(&self, buf: BufferId, bytes: u64) {
        let mut st = self.state.lock();
        let owner = st.captured_by_current_thread();
        st.free(buf, bytes, owner);
    }
}

/// An RAII device buffer of `T` elements, the Rust counterpart of FIDESlib's
/// `VectorGPU` (§III-D), for standalone buffers such as the context's
/// permutation tables. Polynomial limbs live in [`PoolBuf`] sets instead.
///
/// Allocation registers with the device pool at construction and frees at
/// drop. In cost-only mode the host-side stand-in storage stays empty — only
/// the accounting exists, mirroring the fact that kernel bodies never touch
/// the data.
#[derive(Debug)]
pub struct VectorGpu<T: Copy + Default> {
    data: Vec<T>,
    logical_len: usize,
    buffer: BufferId,
    gpu: Arc<GpuSim>,
}

impl<T: Copy + Default> VectorGpu<T> {
    /// Allocates a zero-initialized device vector of `len` elements.
    pub fn new(gpu: &Arc<GpuSim>, len: usize) -> Self {
        let data = if gpu.is_functional() {
            vec![T::default(); len]
        } else {
            Vec::new()
        };
        Self::with_data(gpu, data, len)
    }

    /// Uploads `data` into a fresh device vector (functional mode keeps the
    /// contents; cost-only mode records the allocation only). Does **not**
    /// charge a PCIe transfer — call [`GpuSim::transfer_to_device`] where
    /// modelling the copy matters.
    pub fn from_vec(gpu: &Arc<GpuSim>, data: Vec<T>) -> Self {
        let len = data.len();
        let data = if gpu.is_functional() {
            data
        } else {
            Vec::new()
        };
        Self::with_data(gpu, data, len)
    }

    fn with_data(gpu: &Arc<GpuSim>, data: Vec<T>, logical_len: usize) -> Self {
        let bytes = (logical_len * std::mem::size_of::<T>()) as u64;
        let buffer = gpu.pool_alloc(bytes);
        Self {
            data,
            logical_len,
            buffer,
            gpu: Arc::clone(gpu),
        }
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

    /// Copies the contents out (functional mode) or returns zeros.
    pub fn to_vec(&self) -> Vec<T> {
        if self.gpu.is_functional() {
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
        if self.gpu.is_functional() {
            assert_eq!(src.len(), self.logical_len);
            self.data.copy_from_slice(src);
        }
    }

    /// The owning device.
    #[inline]
    pub fn gpu(&self) -> &Arc<GpuSim> {
        &self.gpu
    }
}

impl<T: Copy + Default> Clone for VectorGpu<T> {
    fn clone(&self) -> Self {
        Self::with_data(&self.gpu, self.data.clone(), self.logical_len)
    }
}

impl<T: Copy + Default> Drop for VectorGpu<T> {
    fn drop(&mut self) {
        self.gpu.pool_free(self.buffer, self.bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_mode_runs_bodies() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        let mut hits = 0;
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise), |_| {})
            .run(|| hits += 1);
        assert_eq!(hits, 1);
        assert!(gpu.is_functional());
    }

    #[test]
    fn cost_only_mode_skips_bodies_but_counts() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let mut hits = 0;
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise), |_| {})
            .run(|| hits += 1);
        assert_eq!(hits, 0);
        assert_eq!(gpu.stats().kernel_launches, 1);
        assert!(gpu.sync() > 0.0);
    }

    #[test]
    fn launch_map_returns_none_in_cost_only() {
        let gpu = GpuSim::new(DeviceSpec::v100(), ExecMode::CostOnly);
        let r = gpu
            .launch(0, KernelDesc::new(KernelKind::Elementwise), |_| {})
            .map(|| 42);
        assert_eq!(r, None);
        let gpu = GpuSim::new(DeviceSpec::v100(), ExecMode::Functional);
        let r = gpu
            .launch(0, KernelDesc::new(KernelKind::Elementwise), |_| {})
            .map(|| 42);
        assert_eq!(r, Some(42));
    }

    #[test]
    fn vector_gpu_raii_accounting() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        {
            let v = VectorGpu::<u64>::new(&gpu, 1024);
            assert_eq!(v.bytes(), 8192);
            assert_eq!(gpu.stats().current_alloc_bytes, 8192);
            let w = v.clone();
            assert_eq!(gpu.stats().current_alloc_bytes, 16384);
            assert_ne!(v.buffer(), w.buffer());
        }
        assert_eq!(gpu.stats().current_alloc_bytes, 0);
        assert_eq!(gpu.stats().peak_alloc_bytes, 16384);
    }

    #[test]
    fn cost_only_vectors_have_no_storage_but_logical_len() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let v = VectorGpu::<u64>::from_vec(&gpu, vec![1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert!(v.as_slice().is_empty());
        assert_eq!(v.to_vec(), vec![0, 0, 0]);
        assert_eq!(gpu.stats().current_alloc_bytes, 24);
    }

    #[test]
    fn timing_is_monotonic_and_sync_stable() {
        let gpu = GpuSim::new(DeviceSpec::rtx_a4500(), ExecMode::CostOnly);
        let t0 = gpu.sync();
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(1000), |d| {
            d.read(BufferId(1), 1 << 20);
        })
        .run(|| {});
        let t1 = gpu.sync();
        assert!(t1 > t0);
        assert_eq!(gpu.sync(), t1);
    }

    #[test]
    fn stats_reset_clears_ledger_only() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(5), |_| {})
            .run(|| {});
        let t1 = gpu.sync();
        gpu.reset_stats();
        assert_eq!(gpu.stats().kernel_launches, 0);
        assert!(gpu.stats().per_kind.is_empty());
        assert!(gpu.sync() >= t1, "clocks stay monotonic");
    }

    #[test]
    fn per_kind_ledger_is_keyed_by_label() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let ntt = KernelDesc::new(KernelKind::NttPhase1);
        let reads = |d: &mut Accesses<'_>| {
            d.read(BufferId(1), 4096);
        };
        gpu.launch(0, ntt, reads).run(|| {});
        gpu.launch(1, ntt, reads).run(|| {});
        // A descriptor without a kind books as elementwise.
        let mut unlabelled = KernelDesc::new(KernelKind::Fill).ops(7);
        unlabelled.kind = None;
        gpu.launch(0, unlabelled, |_| {}).run(|| {});
        let s = gpu.stats();
        let counts: Vec<(&str, u64)> = s
            .per_kind
            .iter()
            .map(|(k, v)| (k.as_str(), v.count))
            .collect();
        assert_eq!(counts, [("elementwise", 1), ("ntt_phase1", 2)]);
        assert_eq!(s.per_kind["ntt_phase1"].bytes, 8192);
        assert!(s.per_kind["ntt_phase1"].busy_us > 0.0);
    }

    #[test]
    fn capture_reports_the_ids_the_pool_handed_out() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let before = VectorGpu::<u64>::new(&gpu, 4);
        assert!(gpu.begin_capture());
        let a = VectorGpu::<u64>::new(&gpu, 4);
        assert!(!gpu.begin_capture(), "nested");
        let b = VectorGpu::<u64>::new(&gpu, 4);
        let nested = gpu.end_capture();
        assert!(nested.events.is_empty() && nested.fresh_ids.is_empty());
        let c = gpu.end_capture();
        assert_eq!(c.fresh_ids, a.buffer().0..b.buffer().0 + 1);
        assert!(!c.fresh_ids.contains(&before.buffer().0));
        assert!(gpu.end_capture().fresh_ids.is_empty(), "no region open");
    }

    #[test]
    fn a_capture_lists_its_owners_allocations_and_what_it_still_holds() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        let before = gpu.alloc_run([8]);
        assert!(gpu.begin_capture());
        let first = gpu.alloc_run([8, 8]);
        let lone = gpu.pool_alloc(8);
        assert!(!gpu.begin_capture(), "nested");
        assert!(gpu.end_capture().events.is_empty(), "nested close");
        // Another thread's allocation lands in the window, not in the list.
        std::thread::scope(|s| {
            s.spawn(|| gpu.alloc_run([8]));
        });
        let last = gpu.alloc_run([16]);
        gpu.release([(BufferId(first.start), 8), (BufferId(before.start), 8)]);
        let (c, own) = gpu.end_capture_owned();
        assert_eq!(c.fresh_ids, before.end..last.end);
        assert_eq!(own.own_ids, [first.start..lone.0 + 1, last]);
        assert_eq!((own.live_ids, own.effect.live_bytes), (3, 32));
        assert_eq!(own.effect.ids, 4);
    }

    /// One region's allocations and releases: it consumes `input` (an
    /// older buffer) midway and keeps one buffer, which it returns.
    fn region_steps(gpu: &GpuSim, input: Range<u64>) -> BufferId {
        let temps = gpu.alloc_run([64, 32]);
        gpu.release([(BufferId(input.start), 40)]);
        let out = gpu.recycle([(BufferId(temps.start), 64)], [24, 8]);
        gpu.release([
            (BufferId(temps.start + 1), 32),
            (BufferId(out.start + 1), 8),
        ]);
        BufferId(out.start)
    }

    #[test]
    fn applying_a_pool_effect_equals_stepping_its_allocations() {
        let state = |gpu: &GpuSim| {
            let s = gpu.stats();
            let next_id = gpu.alloc_run(std::iter::empty()).start;
            (s.peak_alloc_bytes, s.current_alloc_bytes, next_id)
        };
        // A device past a 500-byte peak, holding `resident` bytes and the
        // region's 40-byte input.
        let device = |resident: u64| {
            let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
            let gone = gpu.alloc_run([500]);
            gpu.release([(BufferId(gone.start), 500)]);
            let _ = gpu.alloc_run([resident]);
            let input = gpu.alloc_run([40]);
            (gpu, input)
        };
        let (recorded, input) = device(100);
        assert!(recorded.begin_capture());
        let _ = region_steps(&recorded, input);
        let (_, own) = recorded.end_capture_owned();
        assert_eq!(own.live_ids, 1);
        // Highest at 100 + 40 + 64 + 32; kept 100 of what it entered with.
        let effect = PoolEffect {
            ids: 4,
            peak_rise: 136,
            live_bytes: 24,
        };
        assert_eq!(own.effect, effect);
        // Under the old peak, and past it: the effect is relative to the
        // state it is applied in, once the input is released.
        for (resident, peak) in [(100, 500), (700, 836)] {
            let (stepped, input) = device(resident);
            let kept = region_steps(&stepped, input.clone());
            let (applied, _) = device(resident);
            applied.release([(BufferId(input.start), 40)]);
            let ids = applied.apply_pool_effect(&effect);
            assert_eq!(ids.end - ids.start, 4);
            assert_eq!(kept, BufferId(ids.start + 2), "the kept ordinal");
            assert_eq!(state(&applied), state(&stepped), "resident {resident}");
            assert_eq!(state(&applied).0, peak);
        }
    }

    #[test]
    fn capture_defers_timing_but_runs_bodies() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        let mut hits = 0;
        assert!(gpu.begin_capture());
        gpu.launch(
            2,
            KernelDesc::new(KernelKind::Elementwise).ops(1000),
            |_| {},
        )
        .run(|| hits += 1);
        gpu.fence(&[2], &[3]);
        assert_eq!(hits, 1, "body runs during capture");
        assert_eq!(gpu.stats().kernel_launches, 0, "timing deferred");
        let events = gpu.end_capture().events;
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events.get(0),
            Event::Launch(Launch { stream: 2, .. })
        ));
        assert!(matches!(events.get(1), Event::Fence { .. }));
        assert!(!gpu.is_capturing());
        // Replaying advances the ledger.
        for ev in events.iter() {
            match ev {
                Event::Launch(l) => gpu
                    .launch(l.stream, l.desc, |d| {
                        for &(b, bytes) in l.reads {
                            d.read(b, bytes);
                        }
                        for &(b, bytes) in l.writes {
                            d.write(b, bytes);
                        }
                    })
                    .run(|| {}),
                Event::Fence { signals, waiters } => {
                    let streams = |s: &[u32]| s.iter().map(|&s| s as usize).collect::<Vec<_>>();
                    gpu.fence(&streams(signals), &streams(waiters))
                }
            }
        }
        assert_eq!(gpu.stats().kernel_launches, 1);
    }

    fn replay_steps() -> EventLog {
        let mb = 1u64 << 20;
        let mut log = EventLog::default();
        log.launch(0, KernelDesc::new(KernelKind::NttPhase1).ops(1000), |d| {
            d.read(BufferId(1), mb).write(BufferId(2), mb);
        });
        log.fence([0], [1]);
        log.launch(1, KernelDesc::new(KernelKind::Elementwise).ops(500), |d| {
            d.read(BufferId(2), mb)
                .read(BufferId(3), mb)
                .write(BufferId(1), mb);
        });
        log
    }

    #[test]
    fn replay_equals_launching_the_translated_steps_one_by_one() {
        let steps = replay_steps();
        // 2 → 7 (through the dense window) and 3 → 1 (through the sparse
        // map, aliasing an id the plan also uses untranslated); 1 is never
        // mentioned and keeps its id.
        let mut rebind = Rebinding::with_window(2..3);
        rebind.set(BufferId(2), BufferId(7));
        rebind.set(BufferId(3), BufferId(1));

        let replayed = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        replayed.replay(&steps, &rebind);

        let eager = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        for step in steps.iter() {
            match step {
                Event::Launch(l) => eager
                    .launch(l.stream, l.desc, |d| {
                        for &(buf, bytes) in l.reads {
                            d.read(rebind.get(buf), bytes);
                        }
                        for &(buf, bytes) in l.writes {
                            d.write(rebind.get(buf), bytes);
                        }
                    })
                    .run(|| {}),
                Event::Fence { signals, waiters } => {
                    let streams = |s: &[u32]| s.iter().map(|&s| s as usize).collect::<Vec<_>>();
                    eager.fence(&streams(signals), &streams(waiters))
                }
            }
        }

        let (a, b) = (replayed.stats(), eager.stats());
        assert_eq!(a.kernel_launches, 2);
        assert_eq!(
            a.l2_hit_bytes,
            2 << 20,
            "launch two hits twice: 7 was just written, and 3 → 1 is what launch one read"
        );
        assert_eq!(a.l2_hit_bytes, b.l2_hit_bytes);
        assert_eq!(a.dram_read_bytes, b.dram_read_bytes);
        assert_eq!(a.per_kind, b.per_kind);
        assert_eq!(a.per_stream, b.per_stream);
        assert_eq!(replayed.sync().to_bits(), eager.sync().to_bits());
    }

    #[test]
    fn replay_rebound_equals_replay_through_a_fresh_table() {
        let bind = |r: &mut Rebinding| {
            r.set(BufferId(2), BufferId(7));
            r.set(BufferId(3), BufferId(1));
        };
        // Two replays each: the reused table starts the second as the
        // identity, unpolluted by the first's translation.
        let first = |r: &mut Rebinding| r.set(BufferId(1), BufferId(5));
        let fresh = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let mut rebind = Rebinding::with_window(0..8);
        first(&mut rebind);
        fresh.replay(&replay_steps(), &rebind);
        let mut rebind = Rebinding::with_window(2..3);
        bind(&mut rebind);
        fresh.replay(&replay_steps(), &rebind);
        let reused = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        reused.replay_rebound(&replay_steps(), 0..8, first);
        reused.replay_rebound(&replay_steps(), 2..3, bind);
        let (a, b) = (reused.stats(), fresh.stats());
        assert_eq!(a.kernel_launches, 4);
        assert_eq!(a.l2_hit_bytes, b.l2_hit_bytes);
        assert_eq!(a.dram_read_bytes, b.dram_read_bytes);
        assert_eq!(a.per_stream, b.per_stream);
    }

    #[test]
    fn a_recycled_capture_log_records_only_the_next_region() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let record = |ops: u64| {
            assert!(gpu.begin_capture());
            gpu.launch(0, KernelDesc::new(KernelKind::Fill).ops(ops), |_| {})
                .run(|| {});
            gpu.end_capture().events
        };
        let first = record(1);
        gpu.recycle_capture_log(first);
        let second = record(2);
        assert_eq!(second.launches(), 1);
        let Event::Launch(l) = second.get(0) else {
            panic!("one launch")
        };
        assert_eq!(l.desc.int32_ops, 2);
        // While a region is open its log is in use: a recycled log is
        // dropped rather than swapped in under it.
        assert!(gpu.begin_capture());
        gpu.launch(0, KernelDesc::new(KernelKind::Fill).ops(3), |_| {})
            .run(|| {});
        gpu.recycle_capture_log(second);
        assert_eq!(gpu.end_capture().events.launches(), 1);
    }

    #[test]
    #[should_panic(expected = "open capture region")]
    fn replay_refuses_the_calling_threads_open_capture() {
        // Replaying into one's own capture would re-record the plan instead
        // of timing it — in release builds too, not only under debug
        // assertions.
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        assert!(gpu.begin_capture());
        gpu.replay(&replay_steps(), &Rebinding::default());
    }

    #[test]
    fn replay_ignores_another_threads_capture() {
        // Capture is per-thread: a foreign region neither blocks replay nor
        // swallows its launches.
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        assert!(gpu.begin_capture());
        std::thread::scope(|s| {
            s.spawn(|| gpu.replay(&replay_steps(), &Rebinding::default()));
        });
        assert_eq!(gpu.stats().kernel_launches, 2);
        assert!(gpu.end_capture().events.is_empty(), "nothing was recorded");
    }

    #[test]
    fn nested_capture_drains_only_at_outermost() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        assert!(gpu.begin_capture());
        assert!(!gpu.begin_capture(), "nested region is not the owner");
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise), |_| {})
            .run(|| {});
        assert!(
            gpu.end_capture().events.is_empty(),
            "nested close returns nothing"
        );
        let events = gpu.end_capture().events;
        assert_eq!(events.len(), 1, "outermost close drains everything");
    }

    #[test]
    fn capture_is_per_thread() {
        // A capture owned by this thread must not swallow launches from
        // other threads (concurrent sessions sharing one device), and a
        // foreign thread's begin/end must not disturb the owner's region.
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        assert!(gpu.begin_capture());
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise), |_| {})
            .run(|| {});
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!gpu.begin_capture(), "foreign thread cannot own");
                gpu.launch(1, KernelDesc::new(KernelKind::Elementwise), |_| {})
                    .run(|| {});
                assert!(gpu.end_capture().events.is_empty());
                assert!(!gpu.capturing_on_current_thread());
            });
        });
        assert_eq!(
            gpu.stats().kernel_launches,
            1,
            "foreign launch executed eagerly"
        );
        assert!(gpu.capturing_on_current_thread());
        let events = gpu.end_capture().events;
        assert_eq!(events.len(), 1, "owner's recording unaffected");
    }

    #[test]
    fn per_stream_stats_and_occupancy() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let desc = KernelDesc::new(KernelKind::Elementwise).ops(1_000_000);
        gpu.launch(0, desc, |d| {
            d.read(BufferId(1), 64 << 20);
        })
        .run(|| {});
        gpu.launch(3, desc, |d| {
            d.read(BufferId(2), 64 << 20);
        })
        .run(|| {});
        let s = gpu.stats();
        assert_eq!(s.active_streams(), 2);
        assert_eq!(s.per_stream.len(), 4);
        assert_eq!(s.per_stream[0].launches, 1);
        assert_eq!(s.per_stream[1].launches, 0);
        assert_eq!(s.per_stream[3].launches, 1);
        assert!(s.per_stream[0].busy_us > 0.0);
        assert!(s.makespan_us > 0.0);
        let occ = s.stream_occupancy();
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ} out of range");
    }

    #[test]
    fn reset_stats_starts_new_occupancy_window() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise), |d| {
            d.read(BufferId(1), 1 << 20);
        })
        .run(|| {});
        gpu.sync();
        gpu.reset_stats();
        let s = gpu.stats();
        assert_eq!(s.active_streams(), 0);
        assert_eq!(s.stream_occupancy(), 0.0);
        assert!(s.makespan_us.abs() < 1e-9, "window restarts at reset");
    }

    #[test]
    fn transfers_accumulate() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        gpu.transfer_to_device(1000);
        gpu.transfer_to_host(500);
        let s = gpu.stats();
        assert_eq!(s.h2d_bytes, 1000);
        assert_eq!(s.d2h_bytes, 500);
    }
}
