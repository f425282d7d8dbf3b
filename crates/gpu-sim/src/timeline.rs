//! The discrete timeline model.
//!
//! Kernels launched on streams advance four clocks:
//!
//! * a **CPU launch clock** — every launch occupies the host for
//!   `kernel_launch_us`, the effect limb batching amortizes (§III-F.1);
//! * per-**stream** ready times — kernels on one stream serialize;
//! * a serial **DRAM resource** — miss traffic from all streams shares the
//!   off-chip bandwidth;
//! * a serial **L2 resource** — hit traffic shares the on-chip bandwidth;
//! * a serial **compute resource** — integer throughput is shared.
//!
//! A kernel's finish time is the max of its latency floor and its resource
//! phases; concurrency across streams therefore overlaps launch overhead and
//! latency but never exceeds the device's aggregate bandwidth/compute — the
//! same first-order behaviour the paper exploits and measures.
//!
//! Timing one launch is three steps. [`Timeline::classify`] splits its
//! traffic through the L2 model into hit, miss and write-back bytes;
//! [`LaunchTerms::of`] turns those bytes, the descriptor and the device's
//! [`Constants`] into the launch's resource-phase times, service time and
//! ledger counts, touching no clock; and [`Timeline::advance`] — the one
//! home of the clock chain and the ledger — moves the clocks and the
//! ledger by those terms. A plain replay does all three per launch; a
//! memoised replay ([`crate::ReplayMemo`]) stores the terms when it records
//! and, on a hit, only calls `advance` over them.
//!
//! L2 residency is a byte-accurate LRU over [`BufferId`]s: a read hits iff
//! the buffer was touched recently enough that it has not been evicted, which
//! is what produces the working-set knees of Figs. 4, 5 and 7. The model is
//! write-back: a touch that overflows the capacity evicts from the cold end
//! and charges the evicted *dirty* bytes to DRAM. Recency lives in an
//! intrusive doubly-linked list over a slab, indexed by an integer-hashed
//! [`BufferMap`], so a touch is O(1) and — like the rest of
//! [`Timeline::launch_mapped`] — allocates nothing in steady state: a plain
//! replay of a paper-scale LR iteration plus bootstrap is ~1.21 M touches
//! per op, which a memoised replay skips. The tests keep the older
//! ordered-map formulation as a reference and compare the two step by step.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::device::DeviceSpec;
use crate::kernel::KernelKind;
use crate::log::{Event, EventLog, Launch};
use crate::mem::{BufferId, BufferMap};

/// Aggregated statistics for one kernel kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KindStats {
    /// Number of launches.
    pub count: u64,
    /// Total busy time attributed to this kind, µs.
    pub busy_us: f64,
    /// Total bytes moved (read + write).
    pub bytes: u64,
}

/// Aggregated statistics for one stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Number of launches issued to this stream.
    pub launches: u64,
    /// Total *service* time of the stream's kernels, µs: each kernel
    /// charges the larger of its latency floor and its own resource-phase
    /// demands (DRAM, L2, compute), **not** time spent blocked behind
    /// other streams' traffic in the shared resource queues. Queueing is
    /// idle time by this accounting, so occupancy measures how well the
    /// schedule packs a fixed amount of work rather than rewarding
    /// contention. Kernels on one stream serialize with at least their
    /// service time between completions, so this never exceeds the
    /// measurement window.
    pub busy_us: f64,
}

/// Snapshot of simulator counters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total kernel launches.
    pub kernel_launches: u64,
    /// Bytes read that missed L2 (served from DRAM).
    pub dram_read_bytes: u64,
    /// Bytes read that hit L2.
    pub l2_hit_bytes: u64,
    /// Bytes written. Writes land in L2 (the model is write-back); their
    /// DRAM cost is charged to `dram_read_bytes` when a dirty line is
    /// evicted.
    pub write_bytes: u64,
    /// Total int32-equivalent ops executed.
    pub int32_ops: u64,
    /// Host→device transfer bytes.
    pub h2d_bytes: u64,
    /// Device→host transfer bytes.
    pub d2h_bytes: u64,
    /// Per-kind breakdown.
    pub per_kind: BTreeMap<String, KindStats>,
    /// Per-stream breakdown (index = stream id; streams never launched on
    /// since the last reset have zero entries).
    pub per_stream: Vec<StreamStats>,
    /// Width of the measurement window in simulated µs: makespan progress
    /// since the ledger was last reset. Denominator of
    /// [`SimStats::stream_occupancy`].
    pub makespan_us: f64,
    /// Live device allocation, bytes.
    pub current_alloc_bytes: u64,
    /// Peak device allocation, bytes.
    pub peak_alloc_bytes: u64,
    /// Planner-derived device-memory high-water mark, bytes: the pool
    /// footprint a stream-ordered allocator needs when ciphertext buffers
    /// are bound to liveness-colored slots (largest plan wins within the
    /// window). Zero until a planned graph replays.
    pub peak_device_bytes: u64,
    /// Pool slots the planned graphs allocated (after liveness reuse);
    /// without the liveness pass this equals the number of distinct
    /// buffers touched.
    pub allocations: u64,
    /// Planned graphs served from the plan cache in the window.
    pub plan_cache_hits: u64,
    /// Planned graphs that had to run the full planning pass.
    pub plan_cache_misses: u64,
    /// Replays that advanced the clocks from a
    /// [`ReplayMemo`](crate::ReplayMemo)'s recorded launch terms instead of
    /// touching the L2 model
    /// ([`GpuSim::replay_memoised`](crate::GpuSim::replay_memoised)).
    pub replay_memo_hits: u64,
}

impl SimStats {
    /// Streams that launched at least one kernel in the window.
    pub fn active_streams(&self) -> usize {
        self.per_stream.iter().filter(|s| s.launches > 0).count()
    }

    /// Total stream-busy time across all streams, µs.
    pub fn stream_busy_total_us(&self) -> f64 {
        self.per_stream.iter().map(|s| s.busy_us).sum()
    }

    /// Mean stream occupancy over the measurement window: total per-stream
    /// busy time divided by `active_streams × makespan`. 1.0 means every
    /// active stream was saturated for the whole window; low values mean the
    /// device idled behind launch overhead or serial phases (the utilization
    /// the paper's stream/batching optimizations target).
    pub fn stream_occupancy(&self) -> f64 {
        let active = self.active_streams();
        if active == 0 || self.makespan_us <= 0.0 {
            return 0.0;
        }
        (self.stream_busy_total_us() / (active as f64 * self.makespan_us)).min(1.0)
    }
}

/// How the L2 model split one launch's traffic: what
/// [`Timeline::classify`] returns and [`LaunchTerms::of`] times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct L2Class {
    /// Read bytes that hit a resident line.
    pub(crate) hit_bytes: u64,
    /// Read bytes that missed.
    pub(crate) miss_bytes: u64,
    /// Dirty bytes evicted to make room.
    pub(crate) writeback_bytes: u64,
}

/// What a replay's classification and timing read of the device, derived
/// from its [`DeviceSpec`] once. Two devices with equal constants classify
/// and time every launch alike.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Constants {
    l2_bytes: u64,
    kernel_launch_us: f64,
    min_kernel_us: f64,
    dram_bytes_per_us: f64,
    l2_bytes_per_us: f64,
    int32_ops_per_us: f64,
}

impl Constants {
    fn of(spec: &DeviceSpec) -> Self {
        Self {
            l2_bytes: spec.l2_bytes,
            kernel_launch_us: spec.kernel_launch_us,
            min_kernel_us: spec.min_kernel_us,
            dram_bytes_per_us: spec.dram_bytes_per_us(),
            l2_bytes_per_us: spec.l2_bytes_per_us(),
            int32_ops_per_us: spec.effective_int32_ops_per_us(),
        }
    }
}

/// One classified launch, ready for [`Timeline::advance`]: its stream and
/// kind, its resource-phase and service times, and what it adds to the
/// integer ledger. A pure function of the launch, its [`L2Class`] and the
/// device's [`Constants`]; a [`crate::ReplayMemo`] stores one per launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct LaunchTerms {
    stream: u32,
    kind: KernelKind,
    dram_time: f64,
    l2_time: f64,
    compute_time: f64,
    /// The kernel's own service demand: what it would occupy its stream
    /// with on an uncontended device.
    service: f64,
    /// Miss plus write-back bytes.
    dram_bytes: u64,
    hit_bytes: u64,
    write_bytes: u64,
    /// Miss, hit and write bytes: what the per-kind ledger counts as moved.
    moved_bytes: u64,
    int32_ops: u64,
}

impl LaunchTerms {
    /// The terms of `launch`, whose traffic the L2 model split into
    /// `class`, on a device with constants `c`.
    pub(crate) fn of(c: &Constants, launch: &Launch<'_>, class: L2Class) -> Self {
        let desc = &launch.desc;
        let L2Class {
            hit_bytes,
            miss_bytes,
            writeback_bytes,
        } = class;
        let write_bytes = launch.bytes_written();

        let eff = desc.access_efficiency;
        // Write-back model: writes land in L2; DRAM sees misses plus dirty
        // evictions.
        let dram_time = (miss_bytes + writeback_bytes) as f64 / (c.dram_bytes_per_us * eff);
        let l2_time = (hit_bytes + write_bytes) as f64 / (c.l2_bytes_per_us * eff);
        let compute_time = desc.int32_ops as f64 / c.int32_ops_per_us;
        // `end − start` of a launch additionally contains queueing behind
        // *other* streams' resource traffic, which is idle time for its
        // stream, not busy time.
        let service = c
            .min_kernel_us
            .max(dram_time)
            .max(l2_time)
            .max(compute_time);
        Self {
            stream: u32::try_from(launch.stream).expect("stream id exceeds u32"),
            kind: desc.kind.unwrap_or(KernelKind::Elementwise),
            dram_time,
            l2_time,
            compute_time,
            service,
            dram_bytes: miss_bytes + writeback_bytes,
            hit_bytes,
            write_bytes,
            moved_bytes: miss_bytes + hit_bytes + write_bytes,
            int32_ops: desc.int32_ops,
        }
    }
}

/// Sentinel slab index: "no node".
const NIL: u32 = u32::MAX;

/// One resident buffer: a node of the recency list, stored in the slab.
#[derive(Debug)]
struct Node {
    buf: BufferId,
    bytes: u64,
    dirty: bool,
    /// Neighbour towards the LRU end (`NIL` at the head).
    prev: u32,
    /// Neighbour towards the MRU end (`NIL` at the tail); doubles as the
    /// free-list link while the node is vacant.
    next: u32,
}

/// L2 residency model: an exact LRU over buffers by byte size.
///
/// Recency is an intrusive doubly-linked list threaded through a slab of
/// nodes (`head` = least recently used, `tail` = most), with an index from
/// buffer to slab position: a touch is one hash probe plus a constant number
/// of link updates, and allocates nothing once the slab has grown to the
/// peak resident count.
#[derive(Debug)]
pub(crate) struct L2Model {
    capacity: u64,
    index: BufferMap<u32>,
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    /// Head of the vacant-node list (linked through `Node::next`).
    free: u32,
    total: u64,
}

impl L2Model {
    pub(crate) fn new(capacity: u64) -> Self {
        Self {
            capacity,
            index: BufferMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            total: 0,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_mru(&mut self, i: u32) {
        let old_tail = self.tail;
        let n = &mut self.nodes[i as usize];
        n.prev = old_tail;
        n.next = NIL;
        match old_tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Removes node `i` from the list, the index and the byte total, and
    /// puts it on the free list. Returns `(bytes, dirty)`.
    fn remove(&mut self, i: u32) -> (u64, bool) {
        self.unlink(i);
        let free = self.free;
        let n = &mut self.nodes[i as usize];
        n.next = free;
        self.free = i;
        let (buf, bytes, dirty) = (n.buf, n.bytes, n.dirty);
        self.index.remove(&buf);
        self.total -= bytes;
        (bytes, dirty)
    }

    /// Returns `(hit, writeback_bytes)`: whether `buf` was resident, and the
    /// dirty bytes of every buffer evicted to make room (write-back model).
    /// Marks the buffer dirty when `write` is set.
    fn touch(&mut self, buf: BufferId, bytes: u64, write: bool) -> (bool, u64) {
        let bytes = bytes.min(self.capacity);
        let (hit, i) = match self.index.get(&buf) {
            Some(&i) => {
                self.unlink(i);
                let n = &mut self.nodes[i as usize];
                self.total -= n.bytes;
                n.bytes = bytes;
                n.dirty |= write;
                (true, i)
            }
            None => {
                let node = Node {
                    buf,
                    bytes,
                    dirty: write,
                    prev: NIL,
                    next: NIL,
                };
                let i = match self.free {
                    NIL => {
                        let i = index_of(self.nodes.len());
                        self.nodes.push(node);
                        i
                    }
                    i => {
                        self.free = self.nodes[i as usize].next;
                        self.nodes[i as usize] = node;
                        i
                    }
                };
                self.index.insert(buf, i);
                (false, i)
            }
        };
        self.push_mru(i);
        self.total += bytes;
        let mut writeback_bytes = 0u64;
        while self.total > self.capacity {
            let victim = self.head;
            if victim == i {
                break; // never evict the buffer being touched
            }
            let (evicted, dirty) = self.remove(victim);
            if dirty {
                writeback_bytes += evicted;
            }
        }
        (hit, writeback_bytes)
    }

    fn evict(&mut self, buf: BufferId) {
        if let Some(&i) = self.index.get(&buf) {
            self.remove(i);
        }
    }

    /// The resident lines `(buffer, bytes, dirty)`, least recently used
    /// first.
    pub(crate) fn residents(&self) -> impl Iterator<Item = (BufferId, u64, bool)> + '_ {
        let mut i = self.head;
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let n = &self.nodes[i as usize];
            i = n.next;
            Some((n.buf, n.bytes, n.dirty))
        })
    }

    /// Replaces the resident list with `lines` (least recently used
    /// first). The lines are taken as given: distinct buffers whose bytes
    /// fit the capacity, as a run of touches leaves them.
    pub(crate) fn install(&mut self, lines: impl Iterator<Item = (BufferId, u64, bool)>) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
        self.total = 0;
        for (buf, bytes, dirty) in lines {
            let i = index_of(self.nodes.len());
            self.nodes.push(Node {
                buf,
                bytes,
                dirty,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(buf, i);
            self.push_mru(i);
            self.total += bytes;
        }
    }
}

/// `len` as a slab index.
fn index_of(len: usize) -> u32 {
    assert!(len < NIL as usize, "L2 slab index overflow");
    len as u32
}

/// Mutable simulator state (guarded by the [`crate::GpuSim`] lock).
#[derive(Debug)]
pub(crate) struct Timeline {
    spec: DeviceSpec,
    constants: Constants,
    /// Host launch clock, µs.
    cpu_clock: f64,
    /// Per-stream ready times, µs.
    stream_ready: Vec<f64>,
    dram_free: f64,
    l2_free: f64,
    compute_free: f64,
    pcie_free: f64,
    pub(crate) l2: L2Model,
    /// The window's ledger, except `per_kind`: launches accumulate into
    /// `kinds` and [`Timeline::stats`] builds the map on demand.
    pub(crate) stats: SimStats,
    /// Per-kind ledger, indexed by `KernelKind as usize`.
    kinds: [KindStats; KernelKind::ALL.len()],
    /// Makespan at the last stats reset: start of the measurement window.
    stats_epoch: f64,
}

/// PCIe gen4 x16 effective bandwidth, bytes/µs (≈ 24 GB/s achieved).
const PCIE_BYTES_PER_US: f64 = 24_000.0;

impl Timeline {
    pub(crate) fn new(spec: DeviceSpec) -> Self {
        let l2 = L2Model::new(spec.l2_bytes);
        Self {
            constants: Constants::of(&spec),
            spec,
            cpu_clock: 0.0,
            stream_ready: vec![0.0; 4],
            dram_free: 0.0,
            l2_free: 0.0,
            compute_free: 0.0,
            pcie_free: 0.0,
            l2,
            stats: SimStats::default(),
            kinds: Default::default(),
            stats_epoch: 0.0,
        }
    }

    /// Snapshot of the window's ledger, `per_kind` and `makespan_us`
    /// included (pool fields are the caller's).
    pub(crate) fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.per_kind = KernelKind::ALL
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| k.count > 0)
            .map(|(kind, k)| (kind.label().to_string(), *k))
            .collect();
        s.makespan_us = self.makespan() - self.stats_epoch;
        s
    }

    /// Clears the ledger and starts a new measurement window at the
    /// current makespan (clocks keep advancing monotonically).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.kinds = Default::default();
        self.stats_epoch = self.makespan();
    }

    fn stream_slot(&mut self, stream: usize) -> &mut f64 {
        if stream >= self.stream_ready.len() {
            self.stream_ready.resize(stream + 1, 0.0);
        }
        &mut self.stream_ready[stream]
    }

    /// Times every event of `log` in order, each buffer a launch touches
    /// presented to the L2 model as `map(buffer)`.
    pub(crate) fn replay(&mut self, log: &EventLog, map: impl Fn(BufferId) -> BufferId) {
        for event in log.iter() {
            match event {
                Event::Launch(l) => {
                    self.launch_mapped(&l, &map);
                }
                Event::Fence { signals, waiters } => self.fence(signals, waiters),
            }
        }
    }

    /// As [`Self::replay`], pushing each launch's terms onto `terms` in
    /// launch order and each fence onto `fences` as `(launches before it,
    /// its index in log)`.
    pub(crate) fn replay_recording(
        &mut self,
        log: &EventLog,
        map: impl Fn(BufferId) -> BufferId,
        terms: &mut Vec<LaunchTerms>,
        fences: &mut Vec<(usize, usize)>,
    ) {
        for (i, event) in log.iter().enumerate() {
            match event {
                Event::Launch(l) => {
                    let class = self.classify(&l, &map);
                    let t = LaunchTerms::of(&self.constants, &l, class);
                    self.advance(&t);
                    terms.push(t);
                }
                Event::Fence { signals, waiters } => {
                    fences.push((terms.len(), i));
                    self.fence(signals, waiters);
                }
            }
        }
    }

    /// Models one kernel launch; returns its completion time (µs).
    #[cfg(test)]
    pub(crate) fn launch(&mut self, launch: &Launch<'_>) -> f64 {
        self.launch_mapped(launch, |buf| buf)
    }

    /// Models one kernel launch with every buffer it touches presented to
    /// the L2 model as `map(buffer)` — how a cached plan replays onto the
    /// current graph's buffers without a rewritten copy of its log.
    pub(crate) fn launch_mapped(
        &mut self,
        launch: &Launch<'_>,
        map: impl Fn(BufferId) -> BufferId,
    ) -> f64 {
        let class = self.classify(launch, map);
        self.advance(&LaunchTerms::of(&self.constants, launch, class))
    }

    /// Classifies one launch's traffic through the write-back L2 model:
    /// the launch's only effect on the residency list, and the only part
    /// of a launch that depends on it.
    fn classify(&mut self, launch: &Launch<'_>, map: impl Fn(BufferId) -> BufferId) -> L2Class {
        let mut class = L2Class::default();
        for &(buf, bytes) in launch.reads {
            let (hit, wb) = self.l2.touch(map(buf), bytes, false);
            if hit {
                class.hit_bytes += bytes;
            } else {
                class.miss_bytes += bytes;
            }
            class.writeback_bytes += wb;
        }
        for &(buf, bytes) in launch.writes {
            let (_, wb) = self.l2.touch(map(buf), bytes, true);
            class.writeback_bytes += wb;
        }
        class
    }

    /// Advances the clocks and the ledger by one launch's terms; returns
    /// its completion time (µs). Reads nothing of the L2 model. Terms are
    /// only valid on a device with the constants they were made with.
    pub(crate) fn advance(&mut self, t: &LaunchTerms) -> f64 {
        let stream = t.stream as usize;
        // Host-side submission cost.
        self.cpu_clock += self.constants.kernel_launch_us;
        let start = self.stream_slot(stream).max(self.cpu_clock);

        let dram_at = self.dram_free.max(start);
        let dram_end = dram_at + t.dram_time;
        self.dram_free = dram_end;
        let l2_at = self.l2_free.max(start);
        let l2_end = l2_at + t.l2_time;
        self.l2_free = l2_end;
        let comp_at = self.compute_free.max(start);
        let comp_end = comp_at + t.compute_time;
        self.compute_free = comp_end;

        let end = (start + self.constants.min_kernel_us)
            .max(dram_end)
            .max(l2_end)
            .max(comp_end);
        *self.stream_slot(stream) = end;

        // Ledger.
        self.stats.kernel_launches += 1;
        self.stats.dram_read_bytes += t.dram_bytes;
        self.stats.l2_hit_bytes += t.hit_bytes;
        self.stats.write_bytes += t.write_bytes;
        self.stats.int32_ops += t.int32_ops;
        let kind = &mut self.kinds[t.kind as usize];
        kind.count += 1;
        kind.busy_us += t.service;
        kind.bytes += t.moved_bytes;
        if stream >= self.stats.per_stream.len() {
            self.stats
                .per_stream
                .resize(stream + 1, StreamStats::default());
        }
        let ss = &mut self.stats.per_stream[stream];
        ss.launches += 1;
        // Clamp to the measurement window: a kernel whose window ends
        // before the epoch set at the last reset contributes nothing, and
        // one straddling it contributes at most the in-window span.
        ss.busy_us += t.service.min((end - self.stats_epoch).max(0.0));
        end
    }

    /// Models a host↔device transfer on the PCIe resource.
    pub(crate) fn transfer(&mut self, bytes: u64, to_device: bool) -> f64 {
        let at = self.pcie_free.max(self.cpu_clock);
        let end = at + bytes as f64 / PCIE_BYTES_PER_US;
        self.pcie_free = end;
        if to_device {
            self.stats.h2d_bytes += bytes;
        } else {
            self.stats.d2h_bytes += bytes;
        }
        end
    }

    /// Makespan: the latest event on any clock.
    pub(crate) fn makespan(&self) -> f64 {
        self.stream_ready
            .iter()
            .copied()
            .fold(self.cpu_clock, f64::max)
            .max(self.dram_free)
            .max(self.compute_free)
            .max(self.l2_free)
            .max(self.pcie_free)
    }

    /// `cudaDeviceSynchronize`: aligns every clock to the makespan and
    /// returns it.
    pub(crate) fn sync_all(&mut self) -> f64 {
        let t = self.makespan();
        self.cpu_clock = t;
        for s in self.stream_ready.iter_mut() {
            *s = t;
        }
        self.dram_free = t;
        self.l2_free = t;
        self.compute_free = t;
        self.pcie_free = t;
        t
    }

    /// Makes streams in `waiters` wait for everything recorded on `signals`
    /// (event semantics).
    pub(crate) fn fence(&mut self, signals: &[u32], waiters: &[u32]) {
        let mut t = 0.0f64;
        for &s in signals {
            t = t.max(*self.stream_slot(s as usize));
        }
        for &w in waiters {
            let slot = self.stream_slot(w as usize);
            *slot = slot.max(t);
        }
    }

    pub(crate) fn evict_buffer(&mut self, buf: BufferId) {
        self.l2.evict(buf);
    }

    /// The host submission clock (µs).
    pub(crate) fn host_clock(&self) -> f64 {
        self.cpu_clock
    }

    /// Advances the host submission clock to at least `t` (µs). Used by the
    /// distributed executor to share one host clock across device timelines:
    /// before submitting to a device, the shared clock is imposed, and after,
    /// the device's advanced clock is read back.
    pub(crate) fn advance_host_to(&mut self, t: f64) {
        self.cpu_clock = self.cpu_clock.max(t);
    }

    pub(crate) fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    pub(crate) fn constants(&self) -> Constants {
        self.constants
    }
}

/// The ordered-map LRU the slab model replaced, kept as the reference the
/// differential test holds [`L2Model`] to: recency is a sequence number per
/// resident buffer, the victim is the smallest one.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, HashMap};

    use crate::mem::BufferId;

    struct Resident {
        bytes: u64,
        seq: u64,
        dirty: bool,
    }

    pub(super) struct SeqLru {
        capacity: u64,
        resident: HashMap<BufferId, Resident>,
        lru: BTreeMap<u64, BufferId>,
        pub(super) total: u64,
        next_seq: u64,
    }

    impl SeqLru {
        pub(super) fn new(capacity: u64) -> Self {
            Self {
                capacity,
                resident: HashMap::new(),
                lru: BTreeMap::new(),
                total: 0,
                next_seq: 0,
            }
        }

        pub(super) fn touch(&mut self, buf: BufferId, bytes: u64, write: bool) -> (bool, u64) {
            let (hit, was_dirty) = if let Some(r) = self.resident.get_mut(&buf) {
                self.lru.remove(&r.seq);
                self.total -= r.bytes;
                (true, r.dirty)
            } else {
                (false, false)
            };
            let bytes = bytes.min(self.capacity);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.resident.insert(
                buf,
                Resident {
                    bytes,
                    seq,
                    dirty: write || (hit && was_dirty),
                },
            );
            self.lru.insert(seq, buf);
            self.total += bytes;
            let mut writeback_bytes = 0;
            while self.total > self.capacity {
                let (&victim_seq, &victim) = self.lru.iter().next().expect("lru non-empty");
                if victim == buf {
                    break; // never evict the buffer being touched
                }
                self.lru.remove(&victim_seq);
                let r = self.resident.remove(&victim).expect("resident entry");
                self.total -= r.bytes;
                if r.dirty {
                    writeback_bytes += r.bytes;
                }
            }
            (hit, writeback_bytes)
        }

        pub(super) fn evict(&mut self, buf: BufferId) {
            if let Some(r) = self.resident.remove(&buf) {
                self.lru.remove(&r.seq);
                self.total -= r.bytes;
            }
        }

        /// Resident `(buffer, bytes, dirty)` from least to most recent.
        pub(super) fn residents(&self) -> Vec<(BufferId, u64, bool)> {
            self.lru
                .values()
                .map(|b| (*b, self.resident[b].bytes, self.resident[b].dirty))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;
    use crate::log::Access;
    use proptest::prelude::*;

    impl L2Model {
        /// Resident `(buffer, bytes, dirty)` from least to most recent.
        fn resident_list(&self) -> Vec<(BufferId, u64, bool)> {
            let out: Vec<_> = self.residents().collect();
            assert_eq!(out.len(), self.index.len(), "list and index agree");
            out
        }
    }

    /// Drives the slab LRU and the reference through one op stream; every
    /// touch must classify identically and both must end in the same state.
    /// An op is `(selector, buffer, bytes)`: selector 0 evicts, 1 reads,
    /// 2 writes.
    fn assert_same_lru(capacity: u64, ops: &[(u8, u64, u64)]) {
        let mut fast = L2Model::new(capacity);
        let mut slow = reference::SeqLru::new(capacity);
        for (step, &(sel, buf, bytes)) in ops.iter().enumerate() {
            let buf = BufferId(buf);
            if sel == 0 {
                fast.evict(buf);
                slow.evict(buf);
            } else {
                let write = sel == 2;
                assert_eq!(
                    fast.touch(buf, bytes, write),
                    slow.touch(buf, bytes, write),
                    "step {step}: touch({buf:?}, {bytes}, write={write}) at capacity {capacity}"
                );
            }
            assert_eq!(fast.total, slow.total, "step {step}: resident bytes");
        }
        assert_eq!(fast.resident_list(), slow.residents(), "recency order");
        assert!(
            fast.nodes.len() <= ops.len().min(8),
            "vacated slab nodes are reused"
        );
    }

    #[test]
    fn slab_lru_matches_reference_on_corner_sequences() {
        // bytes > capacity, then the sole resident touched again and again.
        assert_same_lru(10, &[(1, 0, 100), (2, 0, 100), (1, 0, 3), (1, 0, 100)]);
        // Evict-then-retouch (a miss again), dirty state forgotten.
        assert_same_lru(100, &[(2, 1, 60), (0, 1, 0), (1, 1, 60), (1, 2, 60)]);
        // Evicting an absent buffer and the head/tail/middle of the list.
        assert_same_lru(
            100,
            &[
                (0, 9, 0),
                (1, 1, 10),
                (1, 2, 10),
                (1, 3, 10),
                (0, 2, 0),
                (0, 1, 0),
                (0, 3, 0),
                (2, 4, 10),
            ],
        );
        // A growing re-touch evicts everything else, dirty bytes written back.
        assert_same_lru(100, &[(2, 1, 40), (2, 2, 40), (1, 3, 10), (1, 3, 100)]);
        // Zero-byte residents ride along until the cold end reaches them.
        assert_same_lru(50, &[(1, 1, 0), (2, 2, 50), (1, 3, 0), (1, 4, 30)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slab_lru_matches_reference(
            capacity in 1u64..200,
            seed in any::<u64>(),
            len in 1usize..400,
        ) {
            // A small id space so sequences revisit, evict and refill; sizes
            // from 0 to past the capacity.
            let mut rng = seed | 1;
            let mut next = || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let ops: Vec<(u8, u64, u64)> = (0..len)
                .map(|_| {
                    let sel = match next() % 8 {
                        0 => 0,
                        1..=4 => 1,
                        _ => 2,
                    };
                    (sel, next() % 8, next() % (capacity + capacity / 2 + 2))
                })
                .collect();
            assert_same_lru(capacity, &ops);
        }
    }

    fn tl() -> Timeline {
        Timeline::new(DeviceSpec::rtx_4090())
    }

    fn launch(
        t: &mut Timeline,
        stream: usize,
        desc: KernelDesc,
        reads: &[Access],
        writes: &[Access],
    ) -> f64 {
        t.launch(&Launch {
            stream,
            desc,
            reads,
            writes,
        })
    }

    #[test]
    fn serial_kernels_on_one_stream() {
        let mut t = tl();
        let d = KernelDesc::new(KernelKind::Elementwise);
        let (r, w) = ([(BufferId(1), 1 << 20)], [(BufferId(2), 1 << 20)]);
        let e1 = launch(&mut t, 0, d, &r, &w);
        let e2 = launch(&mut t, 0, d, &r, &w);
        assert!(e2 > e1);
    }

    #[test]
    fn streams_overlap_latency_but_share_dram() {
        // Two big streaming kernels on different streams: combined time must
        // respect aggregate DRAM bandwidth (no free parallel speedup).
        let mut t = tl();
        let bytes = 512u64 << 20; // 512 MB reads, distinct buffers => misses
        let d = KernelDesc::new(KernelKind::Elementwise);
        launch(&mut t, 0, d, &[(BufferId(100), bytes)], &[]);
        launch(&mut t, 1, d, &[(BufferId(101), bytes)], &[]);
        let spec = DeviceSpec::rtx_4090();
        let lower_bound = 2.0 * bytes as f64 / spec.dram_bytes_per_us();
        assert!(
            t.makespan() >= lower_bound * 0.99,
            "{} < {}",
            t.makespan(),
            lower_bound
        );
    }

    #[test]
    fn l2_hit_speeds_up_second_read() {
        let mut t = tl();
        let buf = BufferId(5);
        let bytes = 4u64 << 20; // fits in 72MB L2
        let d = KernelDesc::new(KernelKind::Elementwise);
        launch(&mut t, 0, d, &[(buf, bytes)], &[]);
        let miss_stats = t.stats.dram_read_bytes;
        launch(&mut t, 0, d, &[(buf, bytes)], &[]);
        assert_eq!(
            t.stats.dram_read_bytes, miss_stats,
            "second read should hit L2"
        );
        assert_eq!(t.stats.l2_hit_bytes, bytes);
    }

    #[test]
    fn working_set_beyond_l2_misses() {
        let mut t = tl();
        // Touch 100 buffers of 1MB each (100MB > 72MB), then re-read the first.
        let d = KernelDesc::new(KernelKind::Elementwise);
        for i in 0..100 {
            launch(&mut t, 0, d, &[(BufferId(i), 1 << 20)], &[]);
        }
        let before = t.stats.dram_read_bytes;
        launch(&mut t, 0, d, &[(BufferId(0), 1 << 20)], &[]);
        assert_eq!(
            t.stats.dram_read_bytes,
            before + (1 << 20),
            "evicted buffer must miss"
        );
    }

    #[test]
    fn launch_overhead_bounds_many_tiny_kernels() {
        let mut t = tl();
        let d = KernelDesc::new(KernelKind::Elementwise);
        for i in 0..1000u64 {
            launch(&mut t, (i % 8) as usize, d, &[(BufferId(i), 64)], &[]);
        }
        // 1000 launches × 2 µs host time ≥ 2000 µs regardless of stream count.
        assert!(t.makespan() >= 1000.0 * DeviceSpec::rtx_4090().kernel_launch_us);
    }

    #[test]
    fn fence_orders_streams() {
        let mut t = tl();
        let d = KernelDesc::new(KernelKind::Elementwise);
        launch(&mut t, 0, d, &[(BufferId(1), 256 << 20)], &[]);
        let before = t.makespan();
        t.fence(&[0], &[3]);
        let end = launch(&mut t, 3, d, &[(BufferId(2), 64)], &[]);
        assert!(end >= before, "stream 3 must wait for stream 0");
    }

    #[test]
    fn sync_aligns_clocks() {
        let mut t = tl();
        let d = KernelDesc::new(KernelKind::Elementwise);
        launch(&mut t, 0, d, &[(BufferId(1), 1 << 20)], &[]);
        let m = t.sync_all();
        assert_eq!(t.makespan(), m);
        let m2 = t.sync_all();
        assert_eq!(m, m2, "idempotent");
    }

    #[test]
    fn compute_bound_kernel_charged_by_ops() {
        let mut t = tl();
        let d = KernelDesc::new(KernelKind::BaseConv).ops(10_000_000_000); // 10 G int32 ops
        let end = launch(&mut t, 0, d, &[], &[]);
        let spec = DeviceSpec::rtx_4090();
        let expect = 1e10 / spec.effective_int32_ops_per_us();
        assert!(
            (end - expect).abs() / expect < 0.1,
            "end={end} expect~{expect}"
        );
    }

    #[test]
    fn launch_terms_take_80_bytes() {
        // What a memo keeps per recorded launch (module docs of `memo`).
        assert_eq!(std::mem::size_of::<LaunchTerms>(), 80);
    }

    #[test]
    fn lru_never_evicts_active_buffer() {
        let mut l2 = L2Model::new(10);
        let (hit, _) = l2.touch(BufferId(0), 100, false); // clamped to capacity
        assert!(!hit);
        let (hit, _) = l2.touch(BufferId(0), 100, false);
        assert!(hit);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut l2 = L2Model::new(100);
        l2.touch(BufferId(1), 60, true); // dirty
        l2.touch(BufferId(2), 60, false); // evicts 1
        let (_, wb) = l2.touch(BufferId(3), 60, false); // evicts 2 (clean)
        assert_eq!(wb, 0, "clean eviction has no write-back");
        let mut l2 = L2Model::new(100);
        l2.touch(BufferId(1), 60, true);
        let (_, wb) = l2.touch(BufferId(2), 60, false);
        assert_eq!(wb, 60, "dirty eviction writes back");
    }
}
