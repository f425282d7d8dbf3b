//! The scheduler: dependency-aware critical-path list scheduling.
//!
//! Recorded stream indices are whatever round-robin the recording happened
//! to use; replaying them as-is would serialize independent work that
//! recorded onto one stream and leave the device idle. This module instead
//! derives a true dependency DAG from the recorded events and schedules it:
//!
//! 1. **Chain pre-fusion.** Consecutive same-recorded-stream
//!    elementwise-class launches within a barrier segment collapse into
//!    fused *units* first (the §III-F.5 fusion), so scheduling
//!    never splits a profitable chain across streams.
//! 2. **Dependency edges.** Per-recorded-stream program order is always an
//!    edge (recorded intra-stream order is semantic — see the module-level
//!    invariant in [`sched`](crate::sched)). Across *barrier segments*,
//!    buffer conflicts (read-after-write, write-after-write,
//!    write-after-read) become precise edges: the recorded fence told us a
//!    cross-limb dependency exists, and the read/write sets tell us exactly
//!    which nodes it connects. Same-segment cross-stream accesses to one
//!    buffer are *not* ordered — they were concurrent in the recording
//!    (limb batches touch disjoint slices of one poly buffer).
//! 3. **Critical-path list scheduling.** Units are ranked by critical-path
//!    length (upward rank over a first-order cost model) and greedily
//!    placed, in rank order, on the stream where they can start earliest —
//!    with an affinity tie-break that keeps a recorded stream's chain
//!    together so emission-time fusion still applies.
//! 4. **Emission.** Launches are issued in *recorded* order (preserving
//!    the producer→consumer temporal locality the L2 residency model
//!    rewards), with chains flushing at recorded barriers that cover their
//!    streams. A dependency whose endpoints landed on different streams
//!    becomes an event fence (`signals` → `waiters`); same-stream
//!    dependencies ride stream serialization for free. Co-located
//!    *alias-free* fusible chains merge (bounded by `max_fuse`), which is
//!    what fuses independent tenants' chains inside one serve batch
//!    without costing L2 residency refreshes.
//!
//! Stage 1 also interns every buffer into a dense index ([`BufferIndex`]),
//! so the per-buffer state of stage 2 and the liveness pass (`mem.rs`) are
//! plain arrays; the steps name buffers by those indices until
//! [`Planner::plan`](super::Planner::plan) translates them back.
//!
//! The result is a plan whose replay overlaps everything the recording
//! *allows* to overlap, instead of everything the round-robin happened to
//! separate. Results are bit-identical by construction: functional math
//! runs at record time, so the plan only ever changes simulated timing.

use fides_gpu_sim::{BufferId, Event, EventLog, Launch};

use super::graph::{segmented, BufferIndex, ExecGraph};
use super::plan::{merge, ExecPlan, Fused, PlanConfig, SchedStats};

/// One schedulable unit: a recorded kernel, possibly carrying a pre-fused
/// chain of same-stream elementwise followers.
struct Unit {
    /// In dense buffer indices (see [`BufferIndex`]).
    launch: Fused,
    rec_stream: usize,
    segment: usize,
    /// Recorded kernels absorbed into this unit (chain length ≥ 1).
    count: usize,
}

impl Unit {
    fn is_fusible(&self) -> bool {
        super::graph::fusible_kind(self.launch.desc.kind)
    }
}

// The first-order cost model used to rank and place units (the real timing
// comes from the replay) lives in `PlanConfig::cost`, calibrated from the
// active `DeviceSpec` (`CostModel::from_spec`); the `CostModel::default()`
// literals preserve the historical hard-coded RTX 4090 figures.

/// Bytes `merge(into, next)` would dedup away: traffic on buffers the two
/// descriptors share. Zero for disjoint chains.
pub(crate) fn dedup_overlap_bytes(into: &Fused, next: &Fused) -> u64 {
    let touched = |buf: BufferId| {
        into.reads.iter().any(|&(b, _)| b == buf) || into.writes.iter().any(|&(b, _)| b == buf)
    };
    next.reads
        .iter()
        .chain(&next.writes)
        .filter(|&&(b, _)| touched(b))
        .map(|&(_, bytes)| bytes)
        .sum()
}

/// Marks a table entry no unit has claimed.
const NONE: u32 = u32::MAX;

/// Copies `launch` into `into` with every buffer replaced by its dense
/// index (as a [`BufferId`], so interned launches keep the recorded access
/// type). Reads go before writes — the order the plan cache's binding
/// takes first occurrences in.
fn intern(index: &mut BufferIndex, launch: &Launch<'_>, into: &mut Fused) {
    let mut dense =
        |&(buf, bytes): &(BufferId, u64)| (BufferId(u64::from(index.index(buf))), bytes);
    into.desc = launch.desc;
    into.reads.clear();
    into.reads.extend(launch.reads.iter().map(&mut dense));
    into.writes.clear();
    into.writes.extend(launch.writes.iter().map(&mut dense));
}

/// Stage 1: collapse same-recorded-stream elementwise chains into units
/// (the §III-F.5 fusion rule, applied before scheduling so chains are never
/// split across streams), interning every buffer on the way. Returns the
/// units in recorded chain-head order — a topological order of every edge
/// stage 2 can add — plus, per barrier, the set of recorded streams it
/// covers (barrier `k` separates segment `k` from `k + 1`; emission flushes
/// exactly the chains a barrier covers), and the dense index → buffer map.
fn build_units(graph: &ExecGraph, cfg: &PlanConfig) -> (Vec<Unit>, Vec<Vec<usize>>, Vec<BufferId>) {
    let mut units: Vec<Unit> = Vec::new();
    let mut barriers: Vec<Vec<usize>> = Vec::new();
    let mut index = BufferIndex::default();
    index.begin(&graph.fresh_ids);
    let mut node = Fused::default();
    // Open chain per recorded stream: index into `units`, or `NONE`.
    let mut open: Vec<u32> = vec![NONE; graph.log.stream_bound()];
    for (segment, event) in segmented(&graph.log) {
        match event {
            Event::Launch(launch) => {
                intern(&mut index, &launch, &mut node);
                let stream = launch.stream;
                if cfg.fuse_elementwise && super::graph::fusible_kind(launch.desc.kind) {
                    if let Some(unit) = units.get_mut(open[stream] as usize) {
                        debug_assert_eq!(unit.segment, segment, "open chain crossed a barrier");
                        if unit.count < cfg.max_fuse {
                            merge(&mut unit.launch, &node.on(stream));
                            unit.count += 1;
                            continue;
                        }
                    }
                    open[stream] = units.len() as u32;
                } else {
                    open[stream] = NONE;
                }
                units.push(Unit {
                    launch: node.clone(),
                    rec_stream: stream,
                    segment,
                    count: 1,
                });
            }
            // Barriers close the chains of the streams they cover (they
            // end the segment); the ordering they encode becomes
            // cross-segment dependency edges in stage 2.
            Event::Fence { signals, waiters } => {
                open.fill(NONE);
                let mut set: Vec<usize> =
                    signals.iter().chain(waiters).map(|&s| s as usize).collect();
                set.sort_unstable();
                set.dedup();
                barriers.push(set);
            }
        }
    }
    (units, barriers, index.into_ids())
}

/// Rows of unit indices stored flat: row `i` is
/// `items[start[i]..start[i + 1]]`.
struct Csr {
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    fn row(&self, i: usize) -> &[usize] {
        &self.items[self.start[i]..self.start[i + 1]]
    }
}

/// Singly linked lists of unit indices, every list in one arena: a list is
/// its head's arena position (`NONE` when empty), and handing a whole list
/// over is copying that one word.
struct Lists {
    /// `(unit, next)` per node.
    nodes: Vec<(u32, u32)>,
}

impl Lists {
    fn push(&mut self, head: &mut u32, unit: usize) {
        self.nodes.push((unit as u32, *head));
        *head = u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 accesses");
    }

    fn iter(&self, mut at: u32) -> impl Iterator<Item = usize> + '_ {
        std::iter::from_fn(move || {
            let &(unit, next) = self.nodes.get(at as usize)?;
            at = next;
            Some(unit as usize)
        })
    }
}

/// Per-buffer conflict-tracking state for edge construction; each field
/// but `writers_seg` is a list in the shared [`Lists`] arena.
///
/// Writers come in *generations*: a maximal set of same-segment writers
/// (concurrent limb batches writing disjoint slices of one poly buffer).
/// A cross-segment access must depend on **every** member of the newest
/// generation — tracking only a "last writer" would silently drop the
/// ordering a recorded fence imposed on the other batches. One previous
/// generation is kept for accesses that are concurrent with the current
/// one (anything older is covered transitively, because each current-
/// generation writer carries edges to the whole previous generation).
/// Every member of a generation shares its segment.
#[derive(Clone, Copy)]
struct BufState {
    /// The newest write generation and its segment.
    writers_cur: u32,
    writers_seg: usize,
    /// The complete generation before it (its segment always differs).
    writers_prev: u32,
    /// Readers since `writers_cur` began.
    readers_cur: u32,
    /// Readers of the previous generation's data.
    readers_prev: u32,
}

const NO_STATE: BufState = BufState {
    writers_cur: NONE,
    writers_seg: 0,
    writers_prev: NONE,
    readers_cur: NONE,
    readers_prev: NONE,
};

/// Stage 2: dependency edges over `buffers` dense buffer indices. Returns
/// `(preds, succs)` adjacency, with every edge pointing from a lower to a
/// higher unit index (unit order is recorded order, so segments are
/// nondecreasing along it) and every row ascending.
fn build_edges(units: &[Unit], buffers: usize) -> (Csr, Csr) {
    let n = units.len();
    let streams = units.iter().map(|u| u.rec_stream + 1).max().unwrap_or(0);
    let mut last_on_stream: Vec<u32> = vec![NONE; streams];
    let mut bufs: Vec<BufState> = vec![NO_STATE; buffers];
    let accesses = units
        .iter()
        .map(|u| u.launch.reads.len() + u.launch.writes.len())
        .sum();
    let mut lists = Lists {
        nodes: Vec::with_capacity(accesses),
    };
    let mut preds = Csr {
        start: Vec::with_capacity(n + 1),
        items: Vec::new(),
    };
    preds.start.push(0);
    let mut p: Vec<usize> = Vec::new();

    for (i, u) in units.iter().enumerate() {
        p.clear();
        // Recorded intra-stream program order is always preserved.
        if last_on_stream[u.rec_stream] != NONE {
            p.push(last_on_stream[u.rec_stream] as usize);
        }
        // Cross-segment conflicts only: same-segment cross-stream accesses
        // were concurrent in the recording (disjoint limb slices of one
        // poly buffer), and same-stream conflicts ride the program-order
        // edge transitively.
        let crossing = |other: usize| {
            units[other].segment != u.segment && units[other].rec_stream != u.rec_stream
        };
        // Every member of a generation list crossing to `u`.
        let generation = |lists: &Lists, p: &mut Vec<usize>, head: u32| {
            p.extend(lists.iter(head).filter(|&w| crossing(w)));
        };
        for &(buf, _) in &u.launch.reads {
            let st = &mut bufs[buf.0 as usize];
            if st.writers_cur != NONE && st.writers_seg != u.segment {
                // Read-after-write on the whole newest generation.
                generation(&lists, &mut p, st.writers_cur);
            } else {
                // Concurrent with (or preceding) the current generation:
                // the previous one is what this read is ordered after.
                generation(&lists, &mut p, st.writers_prev);
            }
            lists.push(&mut st.readers_cur, i);
        }
        for &(buf, _) in &u.launch.writes {
            let st = &mut bufs[buf.0 as usize];
            if st.writers_cur == NONE || st.writers_seg != u.segment {
                // A new generation begins: it is ordered after every
                // member of the one it supersedes (write-after-write) and
                // after everything that read that data (write-after-read).
                generation(&lists, &mut p, st.writers_cur);
                st.writers_prev = std::mem::replace(&mut st.writers_cur, NONE);
                st.readers_prev = std::mem::replace(&mut st.readers_cur, NONE);
                st.writers_seg = u.segment;
            }
            // Joining (or having just started) the current generation:
            // ordered after the previous generation and its readers.
            generation(&lists, &mut p, st.writers_prev);
            p.extend(
                lists
                    .iter(st.readers_prev)
                    .filter(|&r| r != i && crossing(r)),
            );
            lists.push(&mut st.writers_cur, i);
        }
        p.retain(|&q| q != i);
        p.sort_unstable();
        p.dedup();
        preds.items.extend_from_slice(&p);
        preds.start.push(preds.items.len());
        last_on_stream[u.rec_stream] = i as u32;
    }

    // Successor rows by counting sort: filling in ascending `i` keeps every
    // row ascending.
    let mut start = vec![0usize; n + 1];
    for &q in &preds.items {
        start[q + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut items = vec![0usize; preds.items.len()];
    for i in 0..n {
        for &q in preds.row(i) {
            items[fill[q]] = i;
            fill[q] += 1;
        }
    }
    (preds, Csr { start, items })
}

/// A chain of fusible launches being grown on one *final* stream during
/// emission.
struct PendingChain {
    launch: Fused,
    count: usize,
    members: Vec<usize>,
}

/// The emission state for one final stream: issued-launch count plus the
/// chains still open on it (FIFO by open position). Several chains — from
/// different recorded streams the scheduler co-located — can be open at
/// once, so an unrelated launch never forces a foreign chain to flush
/// early (which would scramble the issue order the L2 residency model
/// sees).
#[derive(Default)]
struct StreamEmit {
    launched: usize,
    open: Vec<PendingChain>,
}

/// The plan's step log under construction. The newest fence is held back
/// until another step follows, so that a later fence with the same single
/// waiter — no launch in between, hence identical wait positions — can
/// merge its signals into it instead of emitting another step.
#[derive(Default)]
struct Steps {
    log: EventLog,
    /// `(signals, waiter)` of the fence not yet appended.
    fence: Option<(Vec<usize>, usize)>,
}

impl Steps {
    fn flush_fence(&mut self) {
        if let Some((signals, waiter)) = self.fence.take() {
            self.log.fence(signals, [waiter]);
        }
    }

    fn launch(&mut self, launch: Launch<'_>) {
        self.flush_fence();
        self.log.push(Event::Launch(launch));
    }

    /// `signals` sorted and deduplicated.
    fn fence(&mut self, signals: Vec<usize>, waiter: usize) {
        match &mut self.fence {
            Some((pending, w)) if *w == waiter => {
                pending.extend(signals);
                pending.sort_unstable();
                pending.dedup();
            }
            _ => {
                self.flush_fence();
                self.fence = Some((signals, waiter));
            }
        }
    }

    /// The finished log, trimmed to fit (cached plans live long).
    fn finish(mut self) -> EventLog {
        self.flush_fence();
        self.log.shrink_to_fit();
        self.log
    }
}

/// Plans `graph` with dependency-aware list scheduling (see the module
/// docs for the pipeline). The plan's steps name buffers by their dense
/// indices; the returned map takes each index back to the graph's buffer.
pub(crate) fn plan_dag(graph: &ExecGraph, cfg: &PlanConfig) -> (ExecPlan, Vec<BufferId>) {
    let (mut units, barriers, ids) = build_units(graph, cfg);
    let n = units.len();
    let recorded = graph.kernel_count() as u64;
    if n == 0 {
        let plan = ExecPlan {
            stats: SchedStats {
                graphs: 1,
                ..SchedStats::default()
            },
            ..ExecPlan::default()
        };
        return (plan, ids);
    }
    let (preds, succs) = build_edges(&units, ids.len());

    // Upward rank (critical-path length to a sink). Unit index order is
    // topological, so one reverse sweep suffices.
    let cm = cfg.cost;
    let cost: Vec<f64> = units
        .iter()
        .map(|u| cm.unit_cost(&u.launch.on(u.rec_stream)))
        .collect();
    let mut rank = vec![0.0f64; n];
    for i in (0..n).rev() {
        let tail = succs.row(i).iter().map(|&s| rank[s]).fold(0.0f64, f64::max);
        rank[i] = cost[i] + tail;
    }

    // Greedy placement in descending rank order (a topological order:
    // every predecessor outranks its successors because costs are
    // positive). Each unit goes to the stream where it can start earliest
    // — where "earliest" includes the **host submission clock**: the host
    // pays `launch_us` per launch serially, so a stream that frees up
    // within the submission interval is as good as an idle one. This is
    // what keeps launch-bound work packed on few streams (where its
    // elementwise chains stay adjacent and fuse) and spreads work across
    // streams only when kernels are long enough that spreading actually
    // buys makespan. Ties prefer the stream the unit's recorded stream
    // last landed on (chains stay adjacent for emission fusion), then the
    // lowest index.
    let streams = cfg.num_streams.max(1);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rank[b].total_cmp(&rank[a]).then(a.cmp(&b)));
    let mut stream_free = vec![0.0f64; streams];
    let mut finish = vec![0.0f64; n];
    let mut assigned = vec![0usize; n];
    // Final stream each recorded stream last landed on, or `usize::MAX`.
    let rec_streams = units.iter().map(|u| u.rec_stream + 1).max().unwrap_or(0);
    let mut affinity = vec![usize::MAX; rec_streams];
    let mut host = 0.0f64;
    for &u in &order {
        let ready = preds.row(u).iter().map(|&p| finish[p]).fold(host, f64::max);
        let earliest = |s: usize| stream_free[s].max(ready);
        let min_start = (0..streams).map(earliest).fold(f64::INFINITY, f64::min);
        let chosen = match affinity[units[u].rec_stream] {
            h if h < streams && earliest(h) == min_start => h,
            _ => (0..streams)
                .find(|&s| earliest(s) == min_start)
                .expect("some stream attains the minimum"),
        };
        finish[u] = min_start + cost[u];
        stream_free[chosen] = finish[u];
        assigned[u] = chosen;
        affinity[units[u].rec_stream] = chosen;
        host += cm.launch_us;
    }

    // Emission in *recorded* order (unit index order — every edge points
    // from a lower to a higher index, so predecessors are always issued
    // first). Recorded order preserves the producer→consumer temporal
    // locality the L2 residency model rewards; the overlap win comes from
    // the stream *assignment* and the precise fences, not from
    // reshuffling issue order, because the host launch clock serializes
    // submissions anyway. Several chains can stay open per final stream,
    // a chain flushes at a recorded barrier covering its streams, a
    // successor of its members, or a dependent fence, and co-located alias-free chains — different tenants'
    // requests — merge.
    let mut steps = Steps::default();
    let mut emit: Vec<StreamEmit> = (0..streams).map(|_| StreamEmit::default()).collect();
    // sync_mark[w][s]: launches on `s` that stream `w` already waits for.
    let mut sync_mark: Vec<Vec<usize>> = vec![vec![0; streams]; streams];
    // Launch slot (stream, index-on-stream) per unit once flushed.
    let mut launch_of: Vec<Option<(usize, usize)>> = vec![None; n];

    fn flush_chain(
        s: usize,
        chain_idx: usize,
        emit: &mut [StreamEmit],
        steps: &mut Steps,
        launch_of: &mut [Option<(usize, usize)>],
    ) {
        let chain = emit[s].open.remove(chain_idx);
        for &m in &chain.members {
            launch_of[m] = Some((s, emit[s].launched));
        }
        emit[s].launched += 1;
        steps.launch(chain.launch.on(s));
    }

    let mut cur_seg = 0usize;
    for u in 0..n {
        let s = assigned[u];
        // Recorded barriers crossed since the last unit flush exactly the
        // chains whose recorded streams they cover, so one request's issue
        // order follows its recording while another request's (uncovered)
        // tail chain stays open for cross-request merging.
        while cur_seg < units[u].segment {
            let covered = &barriers[cur_seg];
            for t in 0..streams {
                let mut i = 0;
                while i < emit[t].open.len() {
                    let in_set = emit[t].open[i]
                        .members
                        .iter()
                        .any(|&m| covered.binary_search(&units[m].rec_stream).is_ok());
                    if in_set {
                        flush_chain(t, i, &mut emit, &mut steps, &mut launch_of);
                    } else {
                        i += 1;
                    }
                }
            }
            cur_seg += 1;
        }
        // Dependencies: a predecessor still sitting in an open chain is
        // flushed (alone — unrelated chains stay open); one that landed on
        // another stream is then covered by an event fence. Fences
        // **coalesce**: all of this unit's cross-stream predecessors share
        // one fence (`signals` = every producer stream, `waiters` = this
        // stream), and when the immediately preceding step is already a
        // fence with the same waiter — no launch intervened, so the wait
        // positions are identical — the new signals merge into it instead
        // of emitting another step. Each replayed fence costs a host-side
        // event round-trip, so fewer fences is strictly cheaper; the
        // ordering is unchanged because a coalesced fence still makes `s`
        // wait for every signalled stream's work issued so far.
        let mut fence_signals: Vec<usize> = Vec::new();
        for &p in preds.row(u) {
            let t = assigned[p];
            if launch_of[p].is_none() {
                let idx = emit[t]
                    .open
                    .iter()
                    .position(|c| c.members.contains(&p))
                    .expect("unissued predecessor is in an open chain");
                flush_chain(t, idx, &mut emit, &mut steps, &mut launch_of);
            }
            if t == s {
                continue; // stream serialization orders it
            }
            let (_, pidx) = launch_of[p].expect("predecessor flushed");
            if sync_mark[s][t] <= pidx && !fence_signals.contains(&t) {
                fence_signals.push(t);
            }
        }
        if !fence_signals.is_empty() {
            fence_signals.sort_unstable();
            for &t in &fence_signals {
                sync_mark[s][t] = emit[t].launched;
            }
            steps.fence(fence_signals, s);
        }
        if cfg.fuse_elementwise && units[u].is_fusible() {
            // Merge into the oldest viable open chain on this stream.
            // Dependency safety is already established: every predecessor
            // of `u` is issued by now, so launching `u` at any open
            // chain's (later) flush position cannot run it too early. A
            // merge always saves one host submission (`launch_us`), but
            // when the two sides *alias*, the merged descriptor dedups the
            // re-touched bytes — and every deduped byte is an L2 touch
            // that no longer refreshes the buffer's residency, which at
            // out-of-cache scale turns into later DRAM misses. So a merge
            // must be (near-)alias-free: the deduped traffic may cost at
            // most the one launch it saves. Disjoint chains — different
            // tenants, different limb ranges — merge freely; a chain
            // re-touching its own working set does not. (Within a segment
            // stage 1 already applied the §III-F.5 fusion rule
            // unconditionally.)
            let target = emit[s].open.iter().position(|c| {
                c.count + units[u].count <= cfg.max_fuse
                    && (dedup_overlap_bytes(&c.launch, &units[u].launch) as f64 / cm.bytes_per_us)
                        <= cm.launch_us
            });
            if let Some(idx) = target {
                let chain = &mut emit[s].open[idx];
                merge(&mut chain.launch, &units[u].launch.on(s));
                chain.count += units[u].count;
                chain.members.push(u);
            } else {
                emit[s].open.push(PendingChain {
                    launch: std::mem::take(&mut units[u].launch),
                    count: units[u].count,
                    members: vec![u],
                });
            }
        } else {
            launch_of[u] = Some((s, emit[s].launched));
            emit[s].launched += 1;
            steps.launch(units[u].launch.on(s));
        }
    }
    for s in 0..streams {
        while !emit[s].open.is_empty() {
            flush_chain(s, 0, &mut emit, &mut steps, &mut launch_of);
        }
    }

    let steps = steps.finish();
    let planned = steps.launches() as u64;
    let plan = ExecPlan {
        steps,
        stats: SchedStats {
            graphs: 1,
            recorded_kernels: recorded,
            planned_launches: planned,
            fused_kernels: recorded - planned,
            ..SchedStats::default()
        },
        ..ExecPlan::default()
    };
    (plan, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Planner;
    use fides_gpu_sim::{KernelDesc, KernelKind};

    fn cfg(streams: usize, fuse: bool) -> PlanConfig {
        PlanConfig {
            fuse_elementwise: fuse,
            num_streams: streams,
            max_fuse: 8,
            ..PlanConfig::default()
        }
    }

    /// Records a launch of `desc` touching `reads` then `writes`.
    fn push(
        log: &mut EventLog,
        stream: usize,
        desc: KernelDesc,
        reads: &[(u64, u64)],
        writes: &[(u64, u64)],
    ) {
        log.launch(stream, desc, |d| {
            for &(b, bytes) in reads {
                d.read(BufferId(b), bytes);
            }
            for &(b, bytes) in writes {
                d.write(BufferId(b), bytes);
            }
        });
    }

    fn launch(log: &mut EventLog, stream: usize, kind: KernelKind, reads: &[u64], writes: &[u64]) {
        let mb = |bufs: &[u64]| bufs.iter().map(|&b| (b, 1 << 20)).collect::<Vec<_>>();
        push(
            log,
            stream,
            KernelDesc::new(kind).ops(1000),
            &mb(reads),
            &mb(writes),
        );
    }

    fn fence_all(log: &mut EventLog, streams: usize) {
        log.fence(0..streams, 0..streams);
    }

    fn plan(log: EventLog, cfg: &PlanConfig) -> ExecPlan {
        Planner::new(*cfg).plan(&ExecGraph::from(log))
    }

    fn launch_streams(plan: &ExecPlan) -> Vec<usize> {
        plan.steps()
            .iter()
            .filter_map(|s| match s {
                Event::Launch(l) => Some(l.stream),
                _ => None,
            })
            .collect()
    }

    fn is_fence(step: &Event<'_>) -> bool {
        matches!(step, Event::Fence { .. })
    }

    /// Replays the plan symbolically and asserts that for every
    /// cross-stream recorded dependency (pred before succ in `ordered`),
    /// the plan orders them by stream or by an interleaved fence.
    fn assert_ordered(plan: &ExecPlan, before: BufferId, after: BufferId) {
        // Position of the launch touching each buffer.
        let mut pos_before = None;
        let mut pos_after = None;
        let mut stream_before = 0;
        let mut stream_after = 0;
        for (i, step) in plan.steps().iter().enumerate() {
            if let Event::Launch(l) = step {
                let touches = |b: BufferId| {
                    l.reads.iter().any(|&(x, _)| x == b) || l.writes.iter().any(|&(x, _)| x == b)
                };
                if touches(before) && pos_before.is_none() {
                    pos_before = Some(i);
                    stream_before = l.stream;
                }
                if touches(after) {
                    pos_after = Some(i);
                    stream_after = l.stream;
                }
            }
        }
        let (pb, pa) = (pos_before.unwrap(), pos_after.unwrap());
        assert!(pb < pa, "dependency issued out of order");
        if stream_before != stream_after {
            let fenced = plan.steps().iter().skip(pb).take(pa - pb).any(|s| {
                matches!(s, Event::Fence { signals, waiters }
                    if signals.contains(&(stream_before as u32))
                        && waiters.contains(&(stream_after as u32)))
            });
            assert!(fenced, "cross-stream dependency lacks a fence");
        }
    }

    #[test]
    fn independent_streams_spread_over_device() {
        // Four independent recorded streams, two device streams: list
        // scheduling balances them without fences.
        let mut log = EventLog::default();
        launch(&mut log, 0, KernelKind::NttPhase1, &[1], &[1]);
        launch(&mut log, 1, KernelKind::NttPhase1, &[2], &[2]);
        launch(&mut log, 2, KernelKind::NttPhase1, &[3], &[3]);
        launch(&mut log, 3, KernelKind::NttPhase1, &[4], &[4]);
        let plan = plan(log, &cfg(2, true));
        let streams = launch_streams(&plan);
        assert_eq!(streams.len(), 4);
        assert_eq!(streams.iter().filter(|&&s| s == 0).count(), 2);
        assert_eq!(streams.iter().filter(|&&s| s == 1).count(), 2);
        assert!(
            !plan.steps().iter().any(|s| is_fence(&s)),
            "independent work needs no fences"
        );
    }

    #[test]
    fn cross_segment_raw_dependency_is_fenced() {
        // Writer on recorded stream 0, barrier, reader on recorded stream
        // 1. Whatever streams they land on, the plan must order them.
        let mut log = EventLog::default();
        launch(&mut log, 0, KernelKind::NttPhase1, &[], &[10]);
        fence_all(&mut log, 2);
        launch(&mut log, 1, KernelKind::NttPhase1, &[10], &[11]);
        let plan = plan(log, &cfg(4, true));
        assert_ordered(&plan, BufferId(10), BufferId(11));
    }

    #[test]
    fn fence_between_writes_to_same_buffer_is_never_reordered() {
        // The barrier-handling invariant: two writes
        // to one buffer separated by a recorded fence must replay in
        // recorded order — list scheduling may not swap or overlap them.
        // The second write also reads a distinct marker buffer so the two
        // launches are distinguishable in the plan.
        let mut log = EventLog::default();
        launch(&mut log, 0, KernelKind::NttPhase1, &[20], &[15]);
        fence_all(&mut log, 4);
        launch(&mut log, 2, KernelKind::NttPhase2, &[21], &[15]);
        let plan = plan(log, &cfg(4, true));
        assert_ordered(&plan, BufferId(20), BufferId(21));
    }

    #[test]
    fn fence_orders_reader_after_every_concurrent_writer() {
        // Two concurrent same-segment writers (limb batches writing
        // disjoint slices of one poly buffer), a fence, then a reader:
        // the reader must be ordered after *both* writers — tracking only
        // the last writer would drop the first dependency. Each writer
        // reads a distinct marker buffer so the launches are
        // distinguishable; big kernels force the writers onto different
        // streams than the reader.
        let mut log = EventLog::default();
        let big = |log: &mut EventLog, stream: usize, marker: u64, rw: &[u64]| {
            push(
                log,
                stream,
                KernelDesc::new(KernelKind::NttPhase1).ops(1000),
                &[(marker, 32 << 20)],
                &[(rw[0], 32 << 20)],
            )
        };
        big(&mut log, 0, 40, &[15]);
        big(&mut log, 1, 41, &[15]);
        fence_all(&mut log, 4);
        push(
            &mut log,
            2,
            KernelDesc::new(KernelKind::NttPhase2).ops(1000),
            &[(15, 32 << 20), (42, 32 << 20)],
            &[],
        );
        let plan = plan(log, &cfg(4, true));
        assert_ordered(&plan, BufferId(40), BufferId(42));
        assert_ordered(&plan, BufferId(41), BufferId(42));
    }

    #[test]
    fn fence_orders_writer_after_every_concurrent_reader() {
        // The write-after-read mirror: two concurrent readers, a fence,
        // then a writer — the writer depends on both readers.
        let mut log = EventLog::default();
        let rd = |log: &mut EventLog, stream: usize, marker: u64| {
            push(
                log,
                stream,
                KernelDesc::new(KernelKind::NttPhase1).ops(1000),
                &[(marker, 32 << 20), (16, 32 << 20)],
                &[],
            )
        };
        rd(&mut log, 0, 50);
        rd(&mut log, 1, 51);
        fence_all(&mut log, 4);
        push(
            &mut log,
            2,
            KernelDesc::new(KernelKind::NttPhase2).ops(1000),
            &[(52, 32 << 20)],
            &[(16, 32 << 20)],
        );
        let plan = plan(log, &cfg(4, true));
        assert_ordered(&plan, BufferId(50), BufferId(52));
        assert_ordered(&plan, BufferId(51), BufferId(52));
    }

    #[test]
    fn reader_concurrent_with_new_writers_still_orders_after_old_generation() {
        // Writer generation 1 (seg 0), fence, then generation 2 plus a
        // reader concurrent with it (seg 1): the reader has no edge to
        // the concurrent writers, but must still order after generation
        // 1 — through `writers_prev`, not transitivity.
        let mut log = EventLog::default();
        let big = |log: &mut EventLog, stream: usize, marker: u64, write: bool| {
            let desc = KernelDesc::new(KernelKind::NttPhase1).ops(1000);
            let marker = (marker, 32 << 20);
            let shared = (17, 32 << 20);
            if write {
                push(log, stream, desc, &[marker], &[shared]);
            } else {
                push(log, stream, desc, &[marker, shared], &[]);
            }
        };
        big(&mut log, 0, 60, true);
        fence_all(&mut log, 4);
        big(&mut log, 1, 61, true);
        big(&mut log, 2, 62, false);
        let plan = plan(log, &cfg(4, true));
        assert_ordered(&plan, BufferId(60), BufferId(62));
    }

    #[test]
    fn same_segment_shared_buffer_stays_concurrent() {
        // Two limb batches of one op write disjoint slices of the same
        // poly buffer from different recorded streams, with no fence: the
        // recording had them concurrent, and the scheduler must keep them
        // concurrent (no fence between them). The kernels are large
        // enough (32 MB ≫ the host submission interval) that the
        // placement chooses to overlap rather than pack.
        let mut log = EventLog::default();
        for stream in [0, 1] {
            push(
                &mut log,
                stream,
                KernelDesc::new(KernelKind::NttPhase1).ops(1000),
                &[],
                &[(30, 32 << 20)],
            );
        }
        let plan = plan(log, &cfg(4, true));
        assert_eq!(plan.launch_count(), 2);
        assert!(
            !plan.steps().iter().any(|s| is_fence(&s)),
            "same-segment disjoint-slice writes must not serialize"
        );
        let streams = launch_streams(&plan);
        assert_ne!(streams[0], streams[1], "independent batches overlap");
    }

    #[test]
    fn launch_bound_work_packs_instead_of_spreading() {
        // Tiny kernels (at the latency floor, below the host submission
        // interval) gain nothing from spreading: the host cannot feed a
        // second stream fast enough. The placement packs them — keeping
        // chains adjacent for fusion — instead of scattering them across
        // idle streams.
        let mut log = EventLog::default();
        for i in 0..6 {
            push(
                &mut log,
                i,
                KernelDesc::new(KernelKind::NttPhase1).ops(10),
                &[(100 + i as u64, 1024)],
                &[],
            );
        }
        let plan = plan(log, &cfg(4, true));
        let streams = launch_streams(&plan);
        assert!(
            streams.iter().all(|&s| s == streams[0]),
            "floor-bound independent kernels should pack: {streams:?}"
        );
    }

    fn ew(log: &mut EventLog, stream: usize, buf: u64) {
        launch(log, stream, KernelKind::Elementwise, &[buf], &[buf]);
    }

    #[test]
    fn chains_pre_fuse_before_scheduling() {
        let mut log = EventLog::default();
        ew(&mut log, 0, 1);
        ew(&mut log, 0, 2);
        ew(&mut log, 1, 3);
        let plan = plan(log, &cfg(4, true));
        assert_eq!(plan.launch_count(), 2, "stream-0 chain fused");
        assert_eq!(plan.stats().fused_kernels, 1);
        assert_eq!(plan.stats().recorded_kernels, 3);
    }

    #[test]
    fn emission_fuses_independent_chains_landing_on_one_stream() {
        // Two independent recorded streams of elementwise work, one device
        // stream: after placement they are adjacent on the same stream and
        // merge (the cross-tenant fusion path of the serve batcher).
        let mut log = EventLog::default();
        ew(&mut log, 0, 1);
        ew(&mut log, 7, 2);
        let plan = plan(log, &cfg(1, true));
        assert_eq!(
            plan.launch_count(),
            1,
            "independent chains merge on one stream"
        );
        assert_eq!(plan.stats().fused_kernels, 1);
    }

    #[test]
    fn fusion_off_emits_every_unit() {
        let mut log = EventLog::default();
        ew(&mut log, 0, 1);
        ew(&mut log, 0, 2);
        ew(&mut log, 1, 3);
        let plan = plan(log, &cfg(4, false));
        assert_eq!(plan.launch_count(), 3);
        assert_eq!(plan.stats().fused_kernels, 0);
    }

    #[test]
    fn plan_is_deterministic() {
        let mut log = EventLog::default();
        for i in 0..40u64 {
            launch(
                &mut log,
                (i % 6) as usize,
                if i % 3 == 0 {
                    KernelKind::NttPhase1
                } else {
                    KernelKind::Elementwise
                },
                &[i % 7],
                &[i % 5 + 100],
            );
            if i % 11 == 10 {
                fence_all(&mut log, 6);
            }
        }
        let g = ExecGraph::from(log);
        let a = Planner::new(cfg(4, true)).plan(&g);
        let b = Planner::new(cfg(4, true)).plan(&g);
        assert_eq!(a.launch_count(), b.launch_count());
        let streams_a = launch_streams(&a);
        let streams_b = launch_streams(&b);
        assert_eq!(
            streams_a, streams_b,
            "stream assignment must be deterministic"
        );
    }

    #[test]
    fn plan_ignores_the_fresh_id_window() {
        // Whether a buffer is interned through the window or the map never
        // shows in the plan: windows covering all, some, none or past the
        // graph's ids plan the same bytes.
        let mut log = EventLog::default();
        for i in 0..40u64 {
            let kind = if i % 3 == 0 {
                KernelKind::NttPhase1
            } else {
                KernelKind::Elementwise
            };
            launch(
                &mut log,
                (i % 5) as usize,
                kind,
                &[100 + i % 7],
                &[100 + i % 9],
            );
            if i % 11 == 10 {
                fence_all(&mut log, 5);
            }
        }
        let mut g = ExecGraph::from(log);
        let encode = |g: &ExecGraph| {
            let plan = Planner::new(cfg(4, true)).plan(g);
            crate::sched::encode_plan_entry(0, &plan, &[])
        };
        let expect = encode(&g);
        for window in [100..109, 103..106, 0..101, 105..300, 0..0] {
            g.fresh_ids = window.clone();
            assert_eq!(encode(&g), expect, "window {window:?}");
        }
    }

    fn fence_count(plan: &ExecPlan) -> usize {
        plan.steps().iter().filter(is_fence).count()
    }

    /// Per-edge fence count: what un-coalesced emission (one fence per
    /// cross-stream signal/waiter pair) would have issued.
    fn fence_pairs(plan: &ExecPlan) -> usize {
        plan.steps()
            .iter()
            .filter_map(|s| match s {
                Event::Fence { signals, waiters } => Some(signals.len() * waiters.len()),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn multi_predecessor_fences_coalesce_into_one() {
        // Three concurrent writers on different device streams (big
        // kernels spread), a recorded barrier, then a reader depending on
        // all three. The reader lands on one writer's stream (serialized
        // for free) and its remaining cross-stream waits coalesce into a
        // **single** fence carrying both signal streams.
        let mut log = EventLog::default();
        for (stream, marker, wbuf) in [(0, 70, 25), (1, 71, 26), (2, 72, 27)] {
            push(
                &mut log,
                stream,
                KernelDesc::new(KernelKind::NttPhase1).ops(1000),
                &[(marker, 32 << 20)],
                &[(wbuf, 32 << 20)],
            );
        }
        fence_all(&mut log, 4);
        push(
            &mut log,
            3,
            KernelDesc::new(KernelKind::NttPhase2).ops(1000),
            &[
                (25, 32 << 20),
                (26, 32 << 20),
                (27, 32 << 20),
                (73, 32 << 20),
            ],
            &[],
        );
        let plan = plan(log, &cfg(4, true));
        assert_ordered(&plan, BufferId(70), BufferId(73));
        assert_ordered(&plan, BufferId(71), BufferId(73));
        assert_ordered(&plan, BufferId(72), BufferId(73));
        assert_eq!(fence_count(&plan), 1, "all waits share one fence");
        assert!(
            fence_pairs(&plan) >= 2,
            "the fence carries every cross-stream signal"
        );
    }

    #[test]
    fn coalescing_beats_per_edge_fences_on_lr_iteration_shape() {
        // The LR-iteration shape: per-limb-batch partial products on
        // several streams, a recorded barrier, a reduction reading every
        // partial, another barrier, then the elementwise sigmoid tail.
        // Coalescing must emit strictly fewer fence steps than the
        // per-edge count (one per signal×waiter pair) while every
        // dependency stays ordered.
        let mut log = EventLog::default();
        for i in 0..4u64 {
            let buf = 80 + i;
            push(
                &mut log,
                i as usize,
                KernelDesc::new(KernelKind::NttPhase1).ops(1000),
                &[(200 + buf, 32 << 20)],
                &[(buf, 32 << 20)],
            );
        }
        fence_all(&mut log, 4);
        push(
            &mut log,
            0,
            KernelDesc::new(KernelKind::NttPhase2).ops(1000),
            &[
                (80, 32 << 20),
                (81, 32 << 20),
                (82, 32 << 20),
                (83, 32 << 20),
                // Unique marker so `assert_ordered` resolves the reduction
                // (buffer 90 is touched by the tail too).
                (301, 32 << 20),
            ],
            &[(90, 32 << 20)],
        );
        fence_all(&mut log, 4);
        launch(&mut log, 1, KernelKind::Elementwise, &[90], &[91]);
        let plan = plan(log, &cfg(4, true));
        for b in 80..84 {
            assert_ordered(&plan, BufferId(200 + b), BufferId(301));
        }
        assert_ordered(&plan, BufferId(301), BufferId(91));
        let (fences, pairs) = (fence_count(&plan), fence_pairs(&plan));
        assert!(pairs > 0, "reduction must cross streams");
        assert!(
            fences < pairs,
            "coalescing must beat per-edge fences: {fences} vs {pairs}"
        );
    }

    #[test]
    fn empty_graph_plans_empty() {
        let plan = plan(EventLog::default(), &cfg(4, true));
        assert_eq!(plan.launch_count(), 0);
        assert_eq!(plan.stats().graphs, 1);
    }
}
