//! The planning pass's configuration, plan representation and entry point.

use fides_gpu_sim::{Access, BufferId, EventLog, KernelDesc, KernelKind, Launch};

use super::graph::ExecGraph;

/// Planner configuration, derived from
/// [`CkksParameters`](crate::CkksParameters).
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Fuse consecutive same-stream elementwise-class launches into single
    /// launches (the graph-level §III-F.5 fusion; `FusionConfig::elementwise`).
    pub fuse_elementwise: bool,
    /// Stream count the plan targets; the scheduler places recorded work
    /// onto this many device streams.
    pub num_streams: usize,
    /// Longest elementwise chain one fused launch may absorb (a real fused
    /// kernel is bounded by registers/occupancy; 8 matches the deepest
    /// chain FIDESlib fuses).
    pub max_fuse: usize,
    /// First-order cost constants used to rank and place units, calibrated
    /// from the active [`DeviceSpec`](fides_gpu_sim::DeviceSpec) via
    /// [`CostModel::from_spec`](super::CostModel::from_spec) (the default
    /// keeps the historical hard-coded figures for device-free callers).
    pub cost: super::CostModel,
    /// Devices in the fleet the plan runs on. Planning ignores it; it stays
    /// a word of the fingerprint, so fingerprints and the plan caches
    /// persisted under them remain stable across releases.
    pub devices: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            fuse_elementwise: true,
            num_streams: crate::context::NUM_STREAMS,
            max_fuse: 8,
            cost: super::CostModel::default(),
            devices: 1,
        }
    }
}

/// Counters describing what planning did; accumulated per context into the
/// scheduling ledger the ablation benchmarks report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedStats {
    /// Scheduled regions planned.
    pub graphs: u64,
    /// Kernel nodes recorded by the ops.
    pub recorded_kernels: u64,
    /// Launches the plans actually issued (recorded − fused away).
    pub planned_launches: u64,
    /// Kernel launches eliminated by elementwise-chain fusion.
    pub fused_kernels: u64,
    /// Scheduled regions whose plan was served from the plan cache.
    pub plan_cache_hits: u64,
    /// Scheduled regions that ran the full planning pass.
    pub plan_cache_misses: u64,
    /// Keyed regions ([`CkksContext::scheduled_keyed`](crate::CkksContext::scheduled_keyed))
    /// that replayed their cached plan without recording or walking their
    /// work (each also counts as a plan-cache hit).
    pub record_free_hits: u64,
}

impl SchedStats {
    /// Adds one plan's counters.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.graphs += other.graphs;
        self.recorded_kernels += other.recorded_kernels;
        self.planned_launches += other.planned_launches;
        self.fused_kernels += other.fused_kernels;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.record_free_hits += other.record_free_hits;
    }
}

/// The scheduled form of an [`ExecGraph`]: launches (possibly fused) plus
/// fences, ready for the [`GpuReplayExecutor`](super::GpuReplayExecutor).
///
/// The steps are an [`EventLog`], the capture's own representation — every
/// launch on a stream below the plan's stream count, its descriptor
/// possibly fused — so they are exactly what
/// [`GpuSim::replay`](fides_gpu_sim::GpuSim::replay) consumes, borrowed,
/// never copied.
#[derive(Clone, Debug, Default)]
pub struct ExecPlan {
    pub(crate) steps: EventLog,
    pub(crate) stats: SchedStats,
    pub(crate) mem: super::mem::MemPlan,
    /// Buffer → liveness-pool slot binding, sorted by buffer id; lets the
    /// replay executor alias slot-sharing buffers in the device's L2
    /// residency model.
    pub(crate) slots: Vec<(BufferId, u64)>,
}

impl ExecPlan {
    /// Counters for this plan.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// The memory plan the liveness pass derived (slot-pooled footprint).
    pub fn mem(&self) -> &super::mem::MemPlan {
        &self.mem
    }

    /// The buffer → pool-slot binding the liveness pass colored, sorted by
    /// buffer id.
    pub fn slot_binding(&self) -> &[(BufferId, u64)] {
        &self.slots
    }

    /// Number of kernel launches the plan issues.
    pub fn launch_count(&self) -> usize {
        self.steps.launches()
    }

    /// The planned steps in issue order.
    pub fn steps(&self) -> &EventLog {
        &self.steps
    }
}

/// The scheduling/fusion pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner {
    cfg: PlanConfig,
}

impl Planner {
    /// Creates a planner with the given configuration.
    pub fn new(cfg: PlanConfig) -> Self {
        Self { cfg }
    }

    /// Plans a recorded graph: derives a dependency DAG and critical-path
    /// list-schedules it (see `sched/dag.rs`'s module docs), then runs the
    /// liveness pass that derives the plan's memory footprint
    /// ([`ExecPlan::mem`]).
    ///
    /// Per-*recorded*-stream program order is preserved exactly; only
    /// launches on *different* recorded streams may be reordered relative
    /// to each other, and only when no recorded barrier separates work
    /// that touches the same buffers (see the invariant in the
    /// [`sched`](crate::sched) module docs). Op totals are invariant;
    /// traffic *shrinks* where a chain re-touches its own buffers — values
    /// stay in registers across the fused stages (the actual bandwidth
    /// saving of §III-F.5), so the intermediate write→read roundtrips
    /// disappear.
    ///
    /// Both passes run on the graph's buffers interned into dense indices
    /// (see `sched/dag.rs`); the finished steps are translated back to the
    /// graph's buffer ids in one pass.
    pub fn plan(&self, graph: &ExecGraph) -> ExecPlan {
        let (mut plan, ids) = super::dag::plan_dag(graph, &self.cfg);
        let (mem, slots) = super::mem::analyze(&plan.steps, &ids);
        plan.steps.map_buffers(|b| ids[b.0 as usize]);
        plan.mem = mem;
        plan.slots = slots;
        plan
    }
}

/// A launch being assembled by fusion: a descriptor with its own access
/// lists, grown by [`merge`]. Planner-internal; a finished plan stores its
/// launches flat in [`ExecPlan::steps`].
#[derive(Clone, Debug)]
pub(crate) struct Fused {
    pub(crate) desc: KernelDesc,
    pub(crate) reads: Vec<Access>,
    pub(crate) writes: Vec<Access>,
}

impl Default for Fused {
    /// An elementwise launch touching nothing.
    fn default() -> Self {
        Self {
            desc: KernelDesc::new(KernelKind::Elementwise),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

impl Fused {
    /// The fused launch, issued on `stream`.
    pub(crate) fn on(&self, stream: usize) -> Launch<'_> {
        Launch {
            stream,
            desc: self.desc,
            reads: &self.reads,
            writes: &self.writes,
        }
    }
}

/// Merges a follower launch into a chain head: compute accumulates, the
/// conservative access efficiency wins, mixed kinds degrade to the generic
/// elementwise label — and traffic dedups. A buffer the chain has already
/// written is live in registers when the follower reads it, and a buffer
/// written twice is stored once at the end, so the intermediate roundtrips
/// are elided. This is the bandwidth saving that makes elementwise fusion
/// profitable on a memory-bound device. (Shared by the scheduler's
/// pre-fusion and emission-fusion stages.)
pub(crate) fn merge(into: &mut Fused, next: &Launch<'_>) {
    for &(buf, bytes) in next.reads {
        let written = into.writes.iter().any(|&(b, _)| b == buf);
        let read = into.reads.iter().any(|&(b, _)| b == buf);
        if !written && !read {
            into.reads.push((buf, bytes));
        }
    }
    for &(buf, bytes) in next.writes {
        if !into.writes.iter().any(|&(b, _)| b == buf) {
            into.writes.push((buf, bytes));
        }
    }
    let (into, next) = (&mut into.desc, &next.desc);
    into.int32_ops += next.int32_ops;
    if next.access_efficiency < into.access_efficiency {
        into.access_efficiency = next.access_efficiency;
    }
    if into.kind != next.kind {
        into.kind = Some(KernelKind::Elementwise);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::Event;

    /// An in-place elementwise launch over `bytes` of `buf`.
    fn ew(log: &mut EventLog, stream: usize, buf: u64, bytes: u64, ops: u64) {
        log.launch(
            stream,
            KernelDesc::new(KernelKind::Elementwise).ops(ops),
            |d| {
                d.read(BufferId(buf), bytes).write(BufferId(buf), bytes);
            },
        );
    }

    fn ntt(log: &mut EventLog, stream: usize) {
        log.launch(
            stream,
            KernelDesc::new(KernelKind::NttPhase1).ops(10),
            |_| {},
        );
    }

    fn planner(fuse: bool, max_fuse: usize) -> Planner {
        Planner::new(PlanConfig {
            fuse_elementwise: fuse,
            num_streams: 4,
            max_fuse,
            ..PlanConfig::default()
        })
    }

    fn launches(plan: &ExecPlan) -> Vec<Launch<'_>> {
        plan.steps()
            .iter()
            .filter_map(|s| match s {
                Event::Launch(l) => Some(l),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fuses_same_stream_elementwise_chains() {
        // Stream 0 touches buffer 1 twice, then buffer 2; stream 1 is a
        // long independent launch the scheduler keeps on its own stream.
        let mut log = EventLog::default();
        ew(&mut log, 0, 1, 1024, 5);
        ew(&mut log, 0, 1, 1024, 7);
        ew(&mut log, 0, 2, 1024, 3);
        ew(&mut log, 1, 3, 64 << 20, 11);
        let plan = planner(true, 8).plan(&ExecGraph::from(log));
        assert_eq!(plan.launch_count(), 2, "stream-0 chain fused");
        assert_eq!(plan.stats().recorded_kernels, 4);
        assert_eq!(plan.stats().fused_kernels, 2);
        let fused = launches(&plan)
            .into_iter()
            .find(|d| d.desc.int32_ops == 15)
            .expect("fused launch keeps the chain's op total");
        // Buffer 1's second read and write stay in registers: each buffer
        // is loaded once and stored once.
        assert_eq!(fused.bytes_read(), 2048);
        assert_eq!(fused.bytes_written(), 2048);
        // The liveness pass ran over the planned steps.
        assert_eq!(plan.mem().buffers, 3);
    }

    #[test]
    fn fusion_off_replays_verbatim() {
        let mut log = EventLog::default();
        ew(&mut log, 0, 1, 1024, 5);
        ew(&mut log, 0, 2, 1024, 7);
        ntt(&mut log, 0);
        ew(&mut log, 0, 3, 1024, 1);
        let plan = planner(false, 8).plan(&ExecGraph::from(log));
        let ops: Vec<u64> = launches(&plan).iter().map(|d| d.desc.int32_ops).collect();
        assert_eq!(ops, vec![5, 7, 10, 1], "recorded order, nothing merged");
        assert_eq!(plan.stats().fused_kernels, 0);
    }

    #[test]
    fn barriers_break_chains() {
        // The second launch reads what the first wrote, across a recorded
        // barrier covering both streams: the open chain flushes at the
        // barrier instead of absorbing its dependent.
        let mut log = EventLog::default();
        ew(&mut log, 0, 1, 1024, 5);
        log.fence([0, 1], [0, 1]);
        ew(&mut log, 1, 1, 1024, 5);
        let plan = planner(true, 8).plan(&ExecGraph::from(log));
        assert_eq!(plan.launch_count(), 2, "no fusion across a barrier");
        assert_eq!(plan.stats().fused_kernels, 0);
    }

    #[test]
    fn non_fusible_kinds_break_chains() {
        let mut log = EventLog::default();
        ew(&mut log, 0, 1, 1024, 5);
        ntt(&mut log, 0);
        ew(&mut log, 0, 2, 1024, 5);
        let plan = planner(true, 8).plan(&ExecGraph::from(log));
        let ops: Vec<u64> = launches(&plan).iter().map(|d| d.desc.int32_ops).collect();
        assert_eq!(ops, vec![5, 10, 5], "the NTT splits the chain in two");
    }

    #[test]
    fn max_fuse_caps_chain_length() {
        let mut log = EventLog::default();
        for i in 0..10 {
            ew(&mut log, 0, i, 1024, 1);
        }
        let plan = planner(true, 4).plan(&ExecGraph::from(log));
        let ops: Vec<u64> = launches(&plan).iter().map(|d| d.desc.int32_ops).collect();
        assert_eq!(ops, vec![4, 4, 2], "10 kernels at cap 4 → 4+4+2");
    }
}
