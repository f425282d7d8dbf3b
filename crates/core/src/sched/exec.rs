//! The replay executor: where a scheduled plan actually runs.

use std::ops::Range;
use std::sync::Arc;

use fides_gpu_sim::{BufferId, GpuSim, Rebinding, ReplayMemo};

use super::cache::{BoundPlan, PlanCache, RunBinding};
use super::plan::ExecPlan;

/// Replays a plan onto the simulated device: each launch advances the
/// timeline and ledger exactly as an eager launch would (bodies are empty —
/// the functional math already ran while recording), and each fence applies
/// the recorded cross-limb sync point. The plan is only *read*: its steps go
/// to [`GpuSim::replay_rebound`] by reference, under one acquisition of the
/// device lock, and every buffer id is translated on the way through the
/// device's [`Rebinding`](fides_gpu_sim::Rebinding), refilled per region
/// and kept for its capacity. Its dense window spans the ids of the plan's
/// temporaries, which the device pool handed out in one run while the
/// region recorded, so nearly every translation is an array read.
///
/// That table does two jobs:
///
/// * **Slot aliasing.** When the plan carries a liveness slot binding,
///   every plan-created temporary bound to pool slot `s` is presented as
///   buffer `SLOT_ID_BASE | s`, so temporaries that time-share a slot alias
///   the same lines in the device's L2 residency model — a later tenant of
///   a slot inherits whatever residency its predecessor left behind,
///   exactly as a stream-ordered allocator's physical reuse behaves.
///   Liveness guarantees no two buffers touched by one launch share a slot,
///   so the rewrite never self-aliases a launch.
/// * **Rebinding.** A cached plan names the buffers of the graph it was
///   planned from. External buffers (first touch is a read — caller-owned
///   ciphertext and key storage) are absent from the slot binding, so they
///   map to the *current* graph's buffer at the same first-occurrence
///   position ([`BoundPlan`]) and residency they accumulated in earlier
///   plan executions still hits. A fresh plan, or one executed unbound
///   through [`Self::execute`], keeps its own ids.
#[derive(Debug)]
pub struct GpuReplayExecutor<'a> {
    gpu: &'a Arc<GpuSim>,
}

/// High-bit namespace for slot-canonical buffer ids, keeping them disjoint
/// from every recorded buffer id.
const SLOT_ID_BASE: u64 = 1 << 63;

impl<'a> GpuReplayExecutor<'a> {
    /// Creates an executor over a device.
    pub fn new(gpu: &'a Arc<GpuSim>) -> Self {
        Self { gpu }
    }

    /// Replays every step of a plan in issue order, in the plan's own
    /// buffer ids.
    pub fn execute(&self, plan: &ExecPlan) {
        self.replay(plan, &[], &[]);
    }

    /// Replays a plan-cache result — a hit or a freshly inserted plan — onto
    /// the buffers of the graph it is bound to, and books the lookup's
    /// outcome in the device's plan-cache ledger.
    pub fn execute_bound(&self, bound: &BoundPlan) {
        self.gpu.record_plan_cache(bound.is_hit());
        self.replay(
            bound.plan(),
            bound.planned_binding(),
            bound.current_binding(),
        );
    }

    /// As [`Self::execute_bound`], through the replay memo `cache` keeps
    /// for `bound`'s entry ([`GpuSim::replay_memoised`]); plainly when
    /// `bound` did not come from `cache`'s last lookup.
    ///
    /// Every buffer the plan names is in its planned binding, so every
    /// buffer a replay touches is a pool slot or the current graph's
    /// buffer at some binding position. The memo names a slot's lines by
    /// the slot id, which every plan on the device shares, and any other
    /// buffer by its binding position, which means the same thing on every
    /// replay of the plan; a line with neither name is never touched.
    pub(crate) fn execute_memoised(&self, bound: &BoundPlan, cache: &mut PlanCache) {
        let Some((memo, index)) = cache.memo(bound) else {
            return self.execute_bound(bound);
        };
        self.gpu.record_plan_cache(bound.is_hit());
        let (from, to) = (bound.planned_binding(), bound.current_binding());
        self.replay_memo(
            bound.plan(),
            |rebind, slots| bind(rebind, from, to, slots),
            |buf| index.position(buf),
            |p| to[p],
            memo,
        );
    }

    /// Replays a keyed region's cached plan (a plan-cache hit) onto one
    /// run's `binding`, through the entry's replay memo when it has one.
    /// The binding is materialised only when the memo misses.
    pub(crate) fn execute_region(
        &self,
        plan: &ExecPlan,
        planned: &[BufferId],
        binding: &RunBinding<'_>,
        memo: Option<&mut ReplayMemo>,
    ) {
        self.gpu.record_plan_cache(true);
        let Some(memo) = memo else {
            return self.replay(plan, planned, &binding.to_vec());
        };
        self.replay_memo(
            plan,
            |rebind, slots| bind(rebind, planned, &binding.to_vec(), slots),
            |buf| binding.position(buf),
            |p| binding.get(p),
            memo,
        );
    }

    /// The memoised replay of `plan`: `fill` fills the translation table
    /// (on a memo miss only), and `position`/`at` map the current binding
    /// between buffers and positions, which is how lines are named.
    fn replay_memo(
        &self,
        plan: &ExecPlan,
        fill: impl FnOnce(&mut Rebinding, &[(BufferId, u64)]),
        position: impl Fn(BufferId) -> Option<u32>,
        at: impl Fn(usize) -> BufferId,
        memo: &mut ReplayMemo,
    ) {
        let mem = plan.mem();
        self.gpu
            .record_plan_memory(mem.peak_device_bytes, mem.allocations);
        let slots = plan.slot_binding();
        self.gpu.replay_memoised(
            plan.steps(),
            slot_window(slots),
            |rebind| fill(rebind, slots),
            |buf| match buf.0 & SLOT_ID_BASE {
                0 => position(buf).map(u64::from),
                _ => Some(buf.0),
            },
            |name| match name & SLOT_ID_BASE {
                0 => at(name as usize),
                _ => BufferId(name),
            },
            memo,
        );
    }

    /// `from`/`to`: position-matched bindings (`from` in the plan's ids).
    fn replay(&self, plan: &ExecPlan, from: &[BufferId], to: &[BufferId]) {
        let mem = plan.mem();
        self.gpu
            .record_plan_memory(mem.peak_device_bytes, mem.allocations);
        let slots = plan.slot_binding();
        self.gpu
            .replay_rebound(plan.steps(), slot_window(slots), |rebind| {
                bind(rebind, from, to, slots)
            });
    }
}

/// Fills `rebind` for a plan with slot binding `slots`, planned on `from`
/// and replayed onto `to` (position-matched bindings).
fn bind(rebind: &mut Rebinding, from: &[BufferId], to: &[BufferId], slots: &[(BufferId, u64)]) {
    for (&old, &new) in from.iter().zip(to) {
        if old != new {
            rebind.set(old, new);
        }
    }
    // Slot aliasing wins over position rebinding for temporaries.
    for &(buf, slot) in slots {
        rebind.set(buf, BufferId(SLOT_ID_BASE | slot));
    }
}

/// The dense window for a plan's rebinding: the id range of its
/// slot-bound temporaries (the binding is sorted, so its first and last
/// entries), capped at twice their count so a stray far id costs one
/// sparse entry rather than a huge table.
fn slot_window(slots: &[(BufferId, u64)]) -> Range<u64> {
    let (Some(&(lo, _)), Some(&(hi, _))) = (slots.first(), slots.last()) else {
        return 0..0;
    };
    lo.0..hi
        .0
        .saturating_add(1)
        .min(lo.0.saturating_add(2 * slots.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{ExecGraph, PlanConfig, Planner};
    use fides_gpu_sim::{BufferId, DeviceSpec, EventLog, ExecMode, KernelDesc, KernelKind};

    #[test]
    fn replay_advances_ledger_once_per_planned_launch() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let mut events = EventLog::default();
        for b in [1, 2] {
            events.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(100), |d| {
                d.read(BufferId(b), 4096);
            });
        }
        events.fence([0], [1]);
        let plan = Planner::new(PlanConfig::default()).plan(&ExecGraph::from(events));
        assert_eq!(plan.launch_count(), 1, "two elementwise kernels fused");
        let t0 = gpu.sync();
        GpuReplayExecutor::new(&gpu).execute(&plan);
        let stats = gpu.stats();
        assert_eq!(stats.kernel_launches, 1);
        assert_eq!(stats.int32_ops, 200, "op totals preserved");
        assert!(gpu.sync() > t0, "replay advanced simulated time");
    }

    /// Satellite for ROADMAP item (b): liveness slot reuse must show up as
    /// residency in the L2 model. Three LR-style iterations each allocate
    /// fresh 32 MB intermediates (as recording does); slot-canonical replay
    /// lets the iterations time-share L2 lines instead of dragging three
    /// generations of buffer ids through the 72 MB cache.
    #[test]
    fn slot_binding_lowers_modeled_dram_traffic_on_lr_iterations() {
        let mb = 32u64 << 20;
        let fence_all = |events: &mut EventLog| events.fence(0..4, 0..4);
        let mut events = EventLog::default();
        for it in 1..=3u64 {
            let base = 1000 * it;
            // Partial products: shared weights in, fresh 32 MB partials out.
            for s in 0..4u64 {
                let desc = KernelDesc::new(KernelKind::Elementwise).ops(1000);
                events.launch(s as usize, desc, |d| {
                    d.read(BufferId(10 + s), mb).write(BufferId(base + s), mb);
                });
            }
            fence_all(&mut events);
            // Reduction over the four partials.
            events.launch(0, KernelDesc::new(KernelKind::BaseConv).ops(1000), |d| {
                d.write(BufferId(base + 90), mb);
                for s in 0..4u64 {
                    d.read(BufferId(base + s), mb);
                }
            });
            fence_all(&mut events);
            // Elementwise tail producing this iteration's model update.
            let desc = KernelDesc::new(KernelKind::SwitchModulus).ops(1000);
            events.launch(0, desc, |d| {
                d.read(BufferId(base + 90), mb)
                    .write(BufferId(base + 91), mb);
            });
            fence_all(&mut events);
        }
        let plan = Planner::new(PlanConfig::default()).plan(&ExecGraph::from(events));
        assert!(
            !plan.slot_binding().is_empty(),
            "planned temporaries carry a slot binding"
        );
        assert!(
            plan.mem().reuse_rate() > 0.0,
            "iterations must actually share slots for this shape to test anything"
        );

        let dram_bytes = |p: &ExecPlan| {
            let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
            GpuReplayExecutor::new(&gpu).execute(p);
            gpu.sync();
            gpu.stats().dram_read_bytes
        };
        let pooled = dram_bytes(&plan);
        let mut unbound = plan.clone();
        unbound.slots.clear();
        let verbatim = dram_bytes(&unbound);
        assert!(
            pooled < verbatim,
            "slot residency must lower modeled DRAM traffic: pooled={pooled} verbatim={verbatim}"
        );
    }
}
