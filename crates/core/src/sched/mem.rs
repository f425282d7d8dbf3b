//! Plan-level device-memory liveness: interval coloring of buffer
//! lifetimes into reusable pool slots.
//!
//! The planner sees every buffer a graph touches and the issue order of
//! its launches, which is exactly the information a stream-ordered device
//! allocator (CUDA's `cudaMallocAsync` pool, §III-D) exploits: a buffer
//! whose last use has been issued can donate its slot to the next
//! allocation. This pass computes, per plan:
//!
//! * each buffer's **footprint** (the largest single-launch access, a
//!   proxy for its allocation size) and **live interval** in launch issue
//!   order;
//! * a greedy best-fit **slot assignment**: an expiring buffer's slot is
//!   reused by the next buffer it can hold, so the pool's high-water mark
//!   ([`MemPlan::peak_device_bytes`]) tracks peak *concurrent* liveness
//!   instead of the sum of every allocation;
//! * the **allocation count** ([`MemPlan::allocations`]) the pool performs
//!   (slots created, not buffers bound).
//!
//! Issue-order liveness idealizes cross-stream overlap (a slot handoff
//! between unordered launches would need the allocator's internal event
//! dependency, which the stream-ordered pool inserts on demand); the metric
//! models the pool's steady-state footprint, not a worst-case racy bound.
//!
//! One distinction matters for the replay binding: a buffer whose **first
//! touch is a read** was populated before the plan ran (a ciphertext limb,
//! a key digit — storage the caller owns), so the pool never suballocates
//! it. Those *external* buffers participate in the interval coloring (the
//! counters model a pool that tracks everything the plan touches) but are
//! excluded from the returned binding: at replay they keep their original
//! ids, so L2 residency they accumulated in earlier plans survives. Only
//! plan-created temporaries — first touch is a write — are presented to the
//! device slot-canonically.

use std::collections::BTreeSet;

use fides_gpu_sim::{BufferId, Event, EventLog};

/// The memory plan the liveness pass derives for one [`ExecPlan`](super::ExecPlan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemPlan {
    /// Pool high-water mark in bytes: total size of every slot the pool
    /// had to create.
    pub peak_device_bytes: u64,
    /// Slots the pool allocated (buffer bindings that could not reuse an
    /// expired slot).
    pub allocations: u64,
    /// Distinct buffers the plan touches (the allocation count a
    /// pool-less backend would perform).
    pub buffers: u64,
}

impl MemPlan {
    /// Fraction of buffer bindings served by slot reuse.
    pub fn reuse_rate(&self) -> f64 {
        if self.buffers == 0 {
            0.0
        } else {
            1.0 - self.allocations as f64 / self.buffers as f64
        }
    }
}

/// Runs the liveness pass over planned steps, reusing expired slots
/// best-fit.
///
/// `steps` name buffers by dense index (`BufferId(i)` is buffer `ids[i]`,
/// see `sched/dag.rs`), so every per-buffer table is a `Vec` indexed by
/// it, and births and deaths are flat arrays grouped by launch. Ties go by
/// the buffers' own ids, so the coloring does not depend on the indexing.
///
/// Besides the [`MemPlan`] counters this returns the **buffer → slot
/// binding** the coloring produced, sorted by buffer id: the replay
/// executor presents slot-canonical buffer ids to the device so that slot
/// reuse shows up as L2 residency — two buffers time-sharing one slot alias
/// the same physical lines, exactly as a stream-ordered allocator's pool
/// behaves. Buffers whose first touch is a read are external (born before
/// the plan) and stay out of the binding: rewriting their ids would sever
/// the L2 residency they carry across plan executions.
pub(crate) fn analyze(steps: &EventLog, ids: &[BufferId]) -> (MemPlan, Vec<(BufferId, u64)>) {
    // Footprints and live intervals in launch issue order. Reads are
    // scanned before writes within a launch so an in-place operand whose
    // first appearance is `read + write` classifies as external.
    let n = ids.len();
    let mut footprint = vec![0u64; n];
    let mut seen = vec![false; n];
    let mut last = vec![0u32; n];
    let mut external = vec![false; n];
    // Buffers in first-touch order; launch `i` births `births[born[i]..born[i + 1]]`.
    let mut births: Vec<u32> = Vec::new();
    let mut born: Vec<usize> = vec![0];
    for step in steps.iter() {
        if let Event::Launch(launch) = step {
            let at = born.len() as u32 - 1;
            for (is_read, accesses) in [(true, launch.reads), (false, launch.writes)] {
                for &(buf, bytes) in accesses {
                    let b = buf.0 as usize;
                    footprint[b] = footprint[b].max(bytes);
                    if !seen[b] {
                        seen[b] = true;
                        external[b] = is_read;
                        births.push(b as u32);
                    }
                    last[b] = at;
                }
            }
            born.push(births.len());
        }
    }
    let launches = born.len() - 1;
    for w in born.windows(2) {
        births[w[0]..w[1]].sort_unstable_by_key(|&b| ids[b as usize]);
    }

    // Deaths grouped by last-touch launch (counting sort; their order
    // within a launch is immaterial — they only return slots to the set).
    let mut died = vec![0usize; launches + 1];
    for &b in &births {
        died[last[b as usize] as usize + 1] += 1;
    }
    for i in 0..launches {
        died[i + 1] += died[i];
    }
    let mut deaths = vec![0u32; births.len()];
    let mut fill = died.clone();
    for &b in &births {
        let at = &mut fill[last[b as usize] as usize];
        deaths[*at] = b;
        *at += 1;
    }

    // Greedy best-fit: free slots keyed by (size, slot id) so the smallest
    // slot that fits is found by range query.
    let mut free: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut slot_of = vec![(0u64, 0u64); n];
    let mut binding: Vec<(BufferId, u64)> = Vec::new();
    let mut next_slot = 0u64;
    let mut allocations = 0u64;
    let mut pool_bytes = 0u64;
    for i in 0..launches {
        // Bind buffers born at this launch *before* releasing the ones
        // dying here: a buffer first and last touched by the same launch
        // is live during it.
        for &b in &births[born[i]..born[i + 1]] {
            let b = b as usize;
            let need = footprint[b];
            let reuse = free.range((need, 0)..).next().copied();
            let slot = match reuse {
                Some(s) => {
                    free.remove(&s);
                    s
                }
                None => {
                    allocations += 1;
                    pool_bytes += need;
                    let s = (need, next_slot);
                    next_slot += 1;
                    s
                }
            };
            if !external[b] {
                binding.push((ids[b], slot.1));
            }
            slot_of[b] = slot;
        }
        for &b in &deaths[died[i]..died[i + 1]] {
            free.insert(slot_of[b as usize]);
        }
    }
    binding.sort_unstable_by_key(|&(buf, _)| buf);
    (
        MemPlan {
            peak_device_bytes: pool_bytes,
            allocations,
            buffers: births.len() as u64,
        },
        binding,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{KernelDesc, KernelKind};

    type Accesses<'a> = &'a [(u64, u64)];

    /// The pass over steps that name buffers `0..=max` by their own ids.
    fn analyze(steps: &EventLog) -> (MemPlan, Vec<(BufferId, u64)>) {
        let mut max = 0;
        for step in steps.iter() {
            if let Event::Launch(l) = step {
                for &(b, _) in l.reads.iter().chain(l.writes) {
                    max = max.max(b.0 + 1);
                }
            }
        }
        let ids: Vec<BufferId> = (0..max).map(BufferId).collect();
        super::analyze(steps, &ids)
    }

    /// The slot `buf` is bound to, if any.
    fn slot(binding: &[(BufferId, u64)], buf: u64) -> Option<u64> {
        binding
            .iter()
            .find(|&&(b, _)| b == BufferId(buf))
            .map(|&(_, s)| s)
    }

    /// A log of elementwise launches on stream 0, one per `(reads, writes)`.
    fn launches(list: &[(Accesses<'_>, Accesses<'_>)]) -> EventLog {
        let mut log = EventLog::default();
        for &(reads, writes) in list {
            log.launch(0, KernelDesc::new(KernelKind::Elementwise), |d| {
                for &(b, bytes) in reads {
                    d.read(BufferId(b), bytes);
                }
                for &(b, bytes) in writes {
                    d.write(BufferId(b), bytes);
                }
            });
        }
        log
    }

    #[test]
    fn disjoint_lifetimes_share_one_slot() {
        // Buffer 1 dies at launch 0; buffer 2 is born at launch 1 and fits
        // in its slot. Births are writes so the temporaries are slot-bound.
        let steps = launches(&[(&[], &[(1, 1024)]), (&[], &[(2, 512)]), (&[], &[(3, 256)])]);
        let (pooled, binding) = analyze(&steps);
        assert_eq!(pooled.buffers, 3);
        assert_eq!(pooled.allocations, 1, "all three reuse the first slot");
        assert_eq!(pooled.peak_device_bytes, 1024);
        for b in [1u64, 2, 3] {
            assert_eq!(slot(&binding, b), Some(0), "all three bound to slot 0");
        }
        assert!(pooled.reuse_rate() > 0.6);
    }

    #[test]
    fn overlapping_lifetimes_need_distinct_slots() {
        // Both buffers live across both launches: no reuse possible.
        let steps = launches(&[
            (&[], &[(1, 1024), (2, 1024)]),
            (&[(2, 1024), (1, 1024)], &[]),
        ]);
        let (m, binding) = analyze(&steps);
        assert_eq!(m.allocations, 2);
        assert_eq!(m.peak_device_bytes, 2048);
        assert_ne!(slot(&binding, 1), slot(&binding, 2));
    }

    #[test]
    fn same_launch_birth_and_death_does_not_self_alias() {
        // Buffer 1's last touch and buffer 2's first touch are the same
        // launch: they are concurrently live and must not share a slot.
        let steps = launches(&[(&[], &[(1, 1024)]), (&[(1, 1024)], &[(2, 1024)])]);
        let (m, binding) = analyze(&steps);
        assert_eq!(m.allocations, 2);
        assert_ne!(
            slot(&binding, 1),
            slot(&binding, 2),
            "concurrently live buffers must not alias one slot"
        );
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_slot() {
        // Slots of 100 and 1000 free up; a 150-byte buffer must take the
        // 1000 slot (best fit that holds it), leaving 100 free.
        let steps = launches(&[
            (&[], &[(1, 100), (2, 1000)]),
            (&[], &[(3, 150)]),
            (&[], &[(4, 90)]),
        ]);
        let (m, binding) = analyze(&steps);
        assert_eq!(
            m.allocations, 2,
            "150 reuses the 1000 slot, 90 the 100 slot"
        );
        assert_eq!(m.peak_device_bytes, 1100);
        assert_eq!(slot(&binding, 3), slot(&binding, 2));
        assert_eq!(slot(&binding, 4), slot(&binding, 1));
    }

    #[test]
    fn read_first_external_buffers_are_not_slot_bound() {
        // Buffer 7's first touch is a read: it existed before the plan
        // (caller-owned ciphertext storage), so the pool counts it but the
        // replay binding must leave its id alone — rewriting it would
        // disconnect the L2 residency it carries across plan executions.
        // Buffer 8 is written first: a plan temporary, slot-bound.
        let steps = launches(&[(&[(7, 1024)], &[(8, 1024)]), (&[(8, 1024)], &[])]);
        let (m, binding) = analyze(&steps);
        assert_eq!(m.buffers, 2, "external buffers still count");
        assert_eq!(m.allocations, 2, "and still occupy a pool slot");
        assert_eq!(
            slot(&binding, 7),
            None,
            "read-first (external) buffer must keep its original id"
        );
        assert!(
            slot(&binding, 8).is_some(),
            "write-first temporary is slot-canonical"
        );
        // An in-place first touch (read + write of the same buffer in one
        // launch) classifies as external too: the data pre-existed.
        let steps = launches(&[(&[(9, 64)], &[(9, 64)])]);
        let (_, binding) = analyze(&steps);
        assert_eq!(slot(&binding, 9), None);
    }

    #[test]
    fn ties_go_by_buffer_id_not_by_dense_index() {
        // Two temporaries born in one launch take slots in buffer-id order,
        // whichever dense index each was interned under.
        let steps = launches(&[(&[], &[(0, 64), (1, 64)])]);
        let (_, forward) = super::analyze(&steps, &[BufferId(4), BufferId(9)]);
        let (_, reversed) = super::analyze(&steps, &[BufferId(9), BufferId(4)]);
        assert_eq!(forward, [(BufferId(4), 0), (BufferId(9), 1)]);
        assert_eq!(reversed, forward);
    }

    #[test]
    fn empty_plan_is_zero() {
        let (m, binding) = analyze(&EventLog::default());
        assert_eq!(m, MemPlan::default());
        assert_eq!(m.reuse_rate(), 0.0);
        assert!(binding.is_empty());
    }

    #[test]
    fn footprint_is_max_single_access() {
        let steps = launches(&[(&[(1, 100)], &[]), (&[(1, 900)], &[])]);
        let (m, _) = analyze(&steps);
        assert_eq!(m.peak_device_bytes, 900);
    }
}
