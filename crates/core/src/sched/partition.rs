//! Multi-device graph partitioning: cutting a recorded dependency DAG
//! across an N-device topology.
//!
//! The single-device scheduler (`dag.rs`) extracts the overlap one card
//! allows; the next order of magnitude comes from scaling *out*. This
//! module takes the same recorded graph, the same unit/edge derivation
//! (`build_units` / `build_edges`), and cuts the DAG across the devices of
//! a [`Topology`]:
//!
//! * **Node weight** — a unit's kernel service demand, priced per device
//!   with that device's calibrated [`CostModel`](super::CostModel) (so a
//!   heterogeneous fleet balances honestly).
//! * **Edge weight** — the bytes a cut edge would move over the modeled
//!   interconnect, priced as `latency + bytes/bandwidth`
//!   ([`Topology::transfer_us`]).
//! * **Placement** — an initial contiguous cost-balanced split in recorded
//!   order (a serve batch records request-by-request, so contiguity keeps
//!   whole requests together), refined by a bounded KL-style pass that
//!   moves units between devices while the `max-load + cut` objective
//!   improves.
//! * **Cut edges** become explicit [`DistStep::Transfer`] steps (the moved
//!   buffers over the shared link) and double as cross-device fences: the
//!   destination stream waits for the transfer, the transfer waits for the
//!   producer stream. Intra-device cross-stream edges become ordinary
//!   plan fences, coalesced per consumer like `dag.rs` emission.
//!
//! The result interleaves per-device [`ExecPlan`] shards with transfers in
//! recorded order. [`DistExecutor`] drives one
//! [`PlanExecutor`](super::PlanExecutor) per device off a **shared host
//! clock**: before a shard segment runs, the shared clock is imposed on
//! its device ([`GpuSim::advance_host_to`](fides_gpu_sim::GpuSim)), and
//! the device's advanced clock is read back after — one submission thread
//! feeding a fleet, which is exactly what the `PlanExecutor` trait was
//! kept pluggable for. Results are bit-identical across device counts by
//! construction: functional math runs at record time, so partitioning
//! changes only simulated timing.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use fides_gpu_sim::{BufferId, GpuCluster, GpuSim};

use super::dag::{build_edges, build_units};
use super::exec::{GpuReplayExecutor, PlanExecutor};
use super::graph::ExecGraph;
use super::mem::MemPlan;
use super::plan::{ExecPlan, PlanConfig, PlanStep, SchedStats};
use super::topo::Topology;

/// One step of a distributed plan, in global issue order.
#[derive(Clone, Debug)]
pub enum DistStep {
    /// Run a shard segment — a standard [`ExecPlan`] — on one device.
    Exec {
        /// Target device index.
        device: usize,
        /// The segment's launches and intra-device fences.
        plan: ExecPlan,
    },
    /// Move a cut edge's data across the shared interconnect; doubles as
    /// the cross-device fence (destination stream waits for completion).
    Transfer {
        /// Producing device.
        src_device: usize,
        /// Producer's stream on the source device.
        src_stream: usize,
        /// Consuming device.
        dst_device: usize,
        /// Consumer's stream on the destination device.
        dst_stream: usize,
        /// Buffers moved (empty for a pure ordering edge — the transfer
        /// then costs only link latency, a cross-device fence).
        buffers: Vec<(BufferId, u64)>,
        /// Total payload bytes.
        bytes: u64,
    },
}

/// Counters describing one partitioned plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DistStats {
    /// Devices the plan targets.
    pub devices: usize,
    /// Kernel nodes recorded in the source graph.
    pub recorded_kernels: u64,
    /// Launches per device (length = `devices`).
    pub launches_per_device: Vec<u64>,
    /// Dependency edges whose endpoints landed on different devices.
    pub cut_edges: u64,
    /// Transfer steps emitted (cut edges after per-consumer dedup).
    pub transfers: u64,
    /// Total bytes the transfers move.
    pub transfer_bytes: u64,
}

/// A dependency DAG cut across N devices: per-device [`ExecPlan`] shards
/// interleaved with explicit interconnect transfers.
#[derive(Clone, Debug)]
pub struct DistPlan {
    steps: Vec<DistStep>,
    stats: DistStats,
    /// Per-device memory plans (liveness over each device's launches).
    mem: Vec<MemPlan>,
}

impl DistPlan {
    /// The steps in global issue order.
    pub fn steps(&self) -> &[DistStep] {
        &self.steps
    }

    /// Counters for this plan.
    pub fn stats(&self) -> &DistStats {
        &self.stats
    }

    /// Per-device memory plans.
    pub fn mem(&self) -> &[MemPlan] {
        &self.mem
    }

    /// Launches across all devices.
    pub fn launch_count(&self) -> usize {
        self.stats.launches_per_device.iter().sum::<u64>() as usize
    }
}

/// Partitions a recorded graph across `topo`'s devices (see the module
/// docs for the algorithm). With one device this degenerates to a single
/// unpartitioned shard.
pub fn partition(graph: &ExecGraph, cfg: &PlanConfig, topo: &Topology) -> DistPlan {
    let nd = topo.num_devices();
    let (units, _barriers) = build_units(graph, cfg);
    let n = units.len();
    let recorded = graph.kernel_count() as u64;
    if n == 0 {
        return DistPlan {
            steps: Vec::new(),
            stats: DistStats {
                devices: nd,
                recorded_kernels: recorded,
                launches_per_device: vec![0; nd],
                ..DistStats::default()
            },
            mem: vec![MemPlan::default(); nd],
        };
    }
    let (preds, _succs) = build_edges(&units);

    // Node weights: per-device service demand under each device's
    // calibrated cost model; the mean drives the initial split targets.
    let models = topo.cost_models();
    let cost: Vec<Vec<f64>> = models
        .iter()
        .map(|m| units.iter().map(|u| m.unit_cost(&u.desc)).collect())
        .collect();
    let avg: Vec<f64> = (0..n)
        .map(|i| cost.iter().map(|c| c[i]).sum::<f64>() / nd as f64)
        .collect();

    // Edge weights: bytes the producer writes that the consumer reads —
    // what a cut at this edge moves over the link.
    let edge_bytes = |p: usize, i: usize| -> u64 {
        units[p]
            .desc
            .writes
            .iter()
            .filter(|&&(b, _)| units[i].desc.reads.iter().any(|&(rb, _)| rb == b))
            .map(|&(_, bytes)| bytes)
            .sum()
    };
    // Incident edges per unit (pred side computed once, mirrored to succ).
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            edges.push((p, i, edge_bytes(p, i)));
        }
    }
    let mut incident: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for &(p, i, b) in &edges {
        incident[p].push((i, b));
        incident[i].push((p, b));
    }

    // Initial placement: contiguous cost-balanced blocks in recorded
    // order. Recorded order groups whole requests/chains together, so the
    // initial cut already falls near natural graph boundaries.
    let total: f64 = avg.iter().sum();
    let mut part = vec![0usize; n];
    let mut acc = 0.0;
    let mut dev = 0usize;
    for i in 0..n {
        if dev + 1 < nd && acc >= total * (dev + 1) as f64 / nd as f64 {
            dev += 1;
        }
        part[i] = dev;
        acc += avg[i];
    }

    // Bounded KL-style refinement: sweep units in order, moving one to the
    // device that most improves `max-load + cut`. Deterministic (fixed
    // sweep order, strict improvement, lowest-index winner on ties).
    let mut load = vec![0.0f64; nd];
    for i in 0..n {
        load[part[i]] += cost[part[i]][i];
    }
    let cut_of = |i: usize, d: usize, part: &[usize]| -> f64 {
        incident[i]
            .iter()
            .filter(|&&(o, _)| part[o] != d)
            .map(|&(_, b)| topo.transfer_us(b))
            .sum()
    };
    if nd > 1 {
        for _pass in 0..4 {
            let mut improved = false;
            for i in 0..n {
                let d0 = part[i];
                let max_load = load.iter().copied().fold(0.0f64, f64::max);
                let base = max_load + cut_of(i, d0, &part);
                let mut best: Option<(f64, usize)> = None;
                for d1 in 0..nd {
                    if d1 == d0 {
                        continue;
                    }
                    let new_max = load
                        .iter()
                        .enumerate()
                        .map(|(d, &l)| {
                            if d == d0 {
                                l - cost[d0][i]
                            } else if d == d1 {
                                l + cost[d1][i]
                            } else {
                                l
                            }
                        })
                        .fold(0.0f64, f64::max);
                    let obj = new_max + cut_of(i, d1, &part);
                    if obj + 1e-9 < base && best.is_none_or(|(b, _)| obj < b) {
                        best = Some((obj, d1));
                    }
                }
                if let Some((_, d1)) = best {
                    load[d0] -= cost[d0][i];
                    load[d1] += cost[d1][i];
                    part[i] = d1;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    // Emission in recorded unit order (predecessors always precede their
    // consumers). Per device: recorded streams map round-robin onto
    // device-local streams; intra-device cross-stream edges coalesce into
    // one fence per consumer; cut edges become transfers, deduped per
    // (producer, destination device) for payload and per destination
    // stream for ordering.
    let streams = cfg.num_streams.max(1);
    struct DevState {
        affinity: HashMap<usize, usize>,
        next_stream: usize,
        launched: Vec<usize>,
        sync_mark: Vec<Vec<usize>>,
        all_steps: Vec<PlanStep>,
    }
    let mut devs: Vec<DevState> = (0..nd)
        .map(|_| DevState {
            affinity: HashMap::new(),
            next_stream: 0,
            launched: vec![0; streams],
            sync_mark: vec![vec![0; streams]; streams],
            all_steps: Vec::new(),
        })
        .collect();
    // (device, local stream, index-on-stream) per emitted unit.
    let mut launch_of: Vec<(usize, usize, usize)> = vec![(0, 0, 0); n];
    let mut moved: HashSet<(usize, usize)> = HashSet::new(); // (producer, dst device)
    let mut synced: HashSet<(usize, usize, usize)> = HashSet::new(); // + dst stream

    let mut steps: Vec<DistStep> = Vec::new();
    let mut seg: Vec<PlanStep> = Vec::new();
    let mut seg_dev = part[0];
    let mut cut_edges = 0u64;
    let mut transfers = 0u64;
    let mut transfer_bytes = 0u64;

    fn close_segment(steps: &mut Vec<DistStep>, seg: &mut Vec<PlanStep>, device: usize) {
        if seg.is_empty() {
            return;
        }
        let seg_steps = std::mem::take(seg);
        let launches = seg_steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Launch { .. }))
            .count() as u64;
        steps.push(DistStep::Exec {
            device,
            plan: ExecPlan {
                steps: seg_steps,
                stats: SchedStats {
                    planned_launches: launches,
                    ..SchedStats::default()
                },
                mem: MemPlan::default(),
                slots: Default::default(),
            },
        });
    }

    for i in 0..n {
        let d = part[i];
        let s = {
            let st = &mut devs[d];
            match st.affinity.get(&units[i].rec_stream) {
                Some(&s) => s,
                None => {
                    let s = st.next_stream % streams;
                    st.next_stream += 1;
                    st.affinity.insert(units[i].rec_stream, s);
                    s
                }
            }
        };
        // Cross-device predecessors first: each may close the running
        // segment to interleave a transfer at the right position.
        let mut fence_signals: Vec<usize> = Vec::new();
        for &p in &preds[i] {
            let (pd, ps, pidx) = launch_of[p];
            if pd == d {
                if ps != s && devs[d].sync_mark[s][ps] <= pidx && !fence_signals.contains(&ps) {
                    fence_signals.push(ps);
                }
                continue;
            }
            cut_edges += 1;
            if synced.contains(&(p, d, s)) {
                continue;
            }
            let buffers: Vec<(BufferId, u64)> = if moved.contains(&(p, d)) {
                Vec::new()
            } else {
                units[p]
                    .desc
                    .writes
                    .iter()
                    .filter(|&&(b, _)| units[i].desc.reads.iter().any(|&(rb, _)| rb == b))
                    .copied()
                    .collect()
            };
            let bytes: u64 = buffers.iter().map(|&(_, b)| b).sum();
            close_segment(&mut steps, &mut seg, seg_dev);
            transfers += 1;
            transfer_bytes += bytes;
            moved.insert((p, d));
            synced.insert((p, d, s));
            steps.push(DistStep::Transfer {
                src_device: pd,
                src_stream: ps,
                dst_device: d,
                dst_stream: s,
                buffers,
                bytes,
            });
        }
        if d != seg_dev {
            close_segment(&mut steps, &mut seg, seg_dev);
        }
        seg_dev = d;
        if !fence_signals.is_empty() {
            fence_signals.sort_unstable();
            for &t in &fence_signals {
                devs[d].sync_mark[s][t] = devs[d].launched[t];
            }
            let fence = PlanStep::Fence {
                signals: fence_signals,
                waiters: vec![s],
            };
            seg.push(fence.clone());
            devs[d].all_steps.push(fence);
        }
        launch_of[i] = (d, s, devs[d].launched[s]);
        devs[d].launched[s] += 1;
        let launch = PlanStep::Launch {
            stream: s,
            desc: units[i].desc.clone(),
        };
        seg.push(launch.clone());
        devs[d].all_steps.push(launch);
    }
    close_segment(&mut steps, &mut seg, seg_dev);

    let mem: Vec<MemPlan> = devs
        .iter()
        .map(|d| super::mem::analyze(&d.all_steps).0)
        .collect();
    let launches_per_device: Vec<u64> = devs
        .iter()
        .map(|d| d.launched.iter().sum::<usize>() as u64)
        .collect();
    DistPlan {
        steps,
        stats: DistStats {
            devices: nd,
            recorded_kernels: recorded,
            launches_per_device,
            cut_edges,
            transfers,
            transfer_bytes,
        },
        mem,
    }
}

/// Executes a [`DistPlan`] on a [`GpuCluster`], driving one
/// [`GpuReplayExecutor`] per device off a shared host clock (see the
/// module docs).
#[derive(Debug)]
pub struct DistExecutor<'a> {
    cluster: &'a Arc<GpuCluster>,
}

impl<'a> DistExecutor<'a> {
    /// Creates an executor over a cluster.
    pub fn new(cluster: &'a Arc<GpuCluster>) -> Self {
        Self { cluster }
    }

    /// Runs every step in global order. Shard segments execute through a
    /// per-device [`PlanExecutor`]; the shared host clock hops with the
    /// submission thread from device to device; transfers serialize on the
    /// cluster's interconnect and stall the destination stream until the
    /// payload lands.
    pub fn execute(&self, plan: &DistPlan) {
        assert!(
            self.cluster.num_devices() >= plan.stats.devices,
            "plan targets {} devices, cluster has {}",
            plan.stats.devices,
            self.cluster.num_devices()
        );
        let devices: Vec<&Arc<GpuSim>> = (0..plan.stats.devices)
            .map(|d| self.cluster.device(d))
            .collect();
        let mut host = devices
            .iter()
            .map(|d| d.host_clock())
            .fold(0.0f64, f64::max);
        for step in &plan.steps {
            match step {
                DistStep::Exec { device, plan: seg } => {
                    let dev = devices[*device];
                    dev.advance_host_to(host);
                    GpuReplayExecutor::new(dev).execute(seg);
                    host = dev.host_clock();
                }
                DistStep::Transfer {
                    src_device,
                    src_stream,
                    dst_device,
                    dst_stream,
                    bytes,
                    ..
                } => {
                    let ready = devices[*src_device].stream_ready(*src_stream).max(host);
                    let done = self.cluster.transfer(*bytes, ready);
                    devices[*dst_device].wait_stream_until(*dst_stream, done);
                }
            }
        }
        for (d, m) in plan.mem.iter().enumerate() {
            devices[d].record_plan_memory(m.peak_device_bytes, m.allocations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{
        DeviceSpec, ExecMode, GraphEvent, InterconnectSpec, KernelDesc, KernelKind,
    };

    fn topo(n: usize) -> Topology {
        Topology::homogeneous(n, DeviceSpec::rtx_4090(), InterconnectSpec::pcie_gen4())
    }

    fn cfg() -> PlanConfig {
        PlanConfig {
            num_streams: 4,
            ..PlanConfig::default()
        }
    }

    /// A heavy independent kernel (32 MB: far above both the latency floor
    /// and the host submission interval).
    fn heavy(stream: usize, buf: u64) -> GraphEvent {
        GraphEvent::Launch {
            stream,
            desc: KernelDesc::new(KernelKind::NttPhase1)
                .read(BufferId(buf), 32 << 20)
                .write(BufferId(buf + 1000), 32 << 20)
                .ops(1000),
        }
    }

    #[test]
    fn single_device_runs_everything_on_device_zero() {
        let events: Vec<GraphEvent> = (0..4).map(|i| heavy(i as usize, i)).collect();
        let plan = partition(&ExecGraph::from_events(events), &cfg(), &topo(1));
        assert_eq!(plan.stats().devices, 1);
        assert_eq!(plan.stats().launches_per_device, vec![4]);
        assert_eq!(plan.stats().cut_edges, 0);
        assert_eq!(plan.stats().transfers, 0);
        assert!(plan
            .steps()
            .iter()
            .all(|s| matches!(s, DistStep::Exec { device: 0, .. })));
    }

    #[test]
    fn independent_work_balances_without_transfers() {
        // Eight independent heavy kernels, recorded in two same-cost
        // groups: a two-device split balances 4/4 with zero cut.
        let events: Vec<GraphEvent> = (0..8).map(|i| heavy(i as usize, i * 2)).collect();
        let plan = partition(&ExecGraph::from_events(events), &cfg(), &topo(2));
        assert_eq!(plan.stats().launches_per_device, vec![4, 4]);
        assert_eq!(plan.stats().transfers, 0, "independent work never cut");
    }

    /// A producer→consumer pair carrying a *small* result buffer (4 KB —
    /// cheap to ship over the link relative to the heavy node weights, so
    /// the refinement keeps the cut instead of merging the pair), each
    /// padded with heavy independent work so the balanced contiguous
    /// split lands between them.
    fn producer_consumer_events() -> Vec<GraphEvent> {
        let producer = GraphEvent::Launch {
            stream: 0,
            desc: KernelDesc::new(KernelKind::NttPhase1)
                .read(BufferId(1), 32 << 20)
                .read(BufferId(2), 32 << 20)
                .write(BufferId(500), 4096)
                .ops(1000),
        };
        let barrier = GraphEvent::Fence {
            signals: vec![0, 1],
            waiters: vec![0, 1],
        };
        let consumer = GraphEvent::Launch {
            stream: 1,
            desc: KernelDesc::new(KernelKind::NttPhase2)
                .read(BufferId(500), 4096)
                .read(BufferId(3), 32 << 20)
                .read(BufferId(4), 32 << 20)
                .write(BufferId(600), 4096)
                .ops(1000),
        };
        let mut events = vec![producer];
        events.extend((0..3).map(|i| heavy(2 + i as usize, 50 + i * 2)));
        events.push(barrier);
        events.push(consumer);
        events.extend((0..3).map(|i| heavy(2 + i as usize, 70 + i * 2)));
        events
    }

    #[test]
    fn cut_edge_emits_transfer_with_payload() {
        // The producer lands on one side of the split, the consumer on the
        // other; shipping the 4 KB result is far cheaper than unbalancing
        // the heavy halves, so the data edge stays cut and a transfer
        // carrying buffer 500 must appear before the consumer's shard.
        let plan = partition(
            &ExecGraph::from_events(producer_consumer_events()),
            &cfg(),
            &topo(2),
        );
        assert_eq!(plan.stats().launches_per_device.iter().sum::<u64>(), 8);
        assert!(plan.stats().cut_edges > 0, "the data edge crosses the cut");
        assert!(plan.stats().transfers > 0, "cut edges need transfers");
        let carries = plan.steps().iter().any(|s| {
            matches!(s, DistStep::Transfer { buffers, .. }
                if buffers.iter().any(|&(b, _)| b == BufferId(500)))
        });
        assert!(carries, "the transfer must carry the cut buffer");
        assert!(plan.stats().transfer_bytes >= 4096);
    }

    #[test]
    fn executor_couples_devices_through_shared_clock_and_link() {
        let plan = partition(
            &ExecGraph::from_events(producer_consumer_events()),
            &cfg(),
            &topo(2),
        );
        let cluster = GpuCluster::homogeneous(
            2,
            DeviceSpec::rtx_4090(),
            ExecMode::CostOnly,
            InterconnectSpec::pcie_gen4(),
        );
        DistExecutor::new(&cluster).execute(&plan);
        let (s0, s1) = (cluster.device(0).stats(), cluster.device(1).stats());
        assert_eq!(
            s0.kernel_launches + s1.kernel_launches,
            plan.launch_count() as u64
        );
        if plan.stats().transfers > 0 {
            let link = cluster.link_stats();
            assert_eq!(link.transfers, plan.stats().transfers);
            assert_eq!(link.bytes, plan.stats().transfer_bytes);
        }
        assert!(cluster.sync_all() > 0.0);
    }

    #[test]
    fn partition_is_deterministic() {
        let mut events = Vec::new();
        for i in 0..24u64 {
            events.push(heavy((i % 6) as usize, i * 2));
            if i % 9 == 8 {
                events.push(GraphEvent::Fence {
                    signals: (0..6).collect(),
                    waiters: (0..6).collect(),
                });
            }
        }
        let g = ExecGraph::from_events(events);
        let a = partition(&g, &cfg(), &topo(4));
        let b = partition(&g, &cfg(), &topo(4));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.steps().len(), b.steps().len());
    }

    #[test]
    fn empty_graph_partitions_empty() {
        let plan = partition(&ExecGraph::from_events(Vec::new()), &cfg(), &topo(2));
        assert_eq!(plan.launch_count(), 0);
        assert_eq!(plan.stats().launches_per_device, vec![0, 0]);
        assert!(plan.steps().is_empty());
    }
}
