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

use std::collections::{BTreeSet, HashMap, HashSet};

use fides_gpu_sim::BufferId;

use fides_gpu_sim::{Event, EventLog};

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
/// Besides the [`MemPlan`] counters this returns the **buffer → slot
/// binding** the coloring produced: the replay
/// executor presents slot-canonical buffer ids to the device so that slot
/// reuse shows up as L2 residency — two buffers time-sharing one slot alias
/// the same physical lines, exactly as a stream-ordered allocator's pool
/// behaves. Buffers whose first touch is a read are external (born before
/// the plan) and stay out of the binding: rewriting their ids would sever
/// the L2 residency they carry across plan executions.
pub(crate) fn analyze(steps: &EventLog) -> (MemPlan, HashMap<BufferId, u64>) {
    // Footprints and live intervals in launch issue order. Reads are
    // scanned before writes within a launch so an in-place operand whose
    // first appearance is `read + write` classifies as external.
    let mut footprint: HashMap<BufferId, u64> = HashMap::new();
    let mut first: HashMap<BufferId, usize> = HashMap::new();
    let mut last: HashMap<BufferId, usize> = HashMap::new();
    let mut external: HashSet<BufferId> = HashSet::new();
    let mut launch_idx = 0usize;
    for step in steps.iter() {
        if let Event::Launch(launch) = step {
            for (is_read, accesses) in [(true, launch.reads), (false, launch.writes)] {
                for &(buf, bytes) in accesses {
                    let f = footprint.entry(buf).or_insert(0);
                    *f = (*f).max(bytes);
                    if let std::collections::hash_map::Entry::Vacant(e) = first.entry(buf) {
                        e.insert(launch_idx);
                        if is_read {
                            external.insert(buf);
                        }
                    }
                    last.insert(buf, launch_idx);
                }
            }
            launch_idx += 1;
        }
    }
    let buffers = footprint.len() as u64;

    // Deterministic event lists per launch index.
    let mut births: Vec<Vec<BufferId>> = vec![Vec::new(); launch_idx];
    let mut deaths: Vec<Vec<BufferId>> = vec![Vec::new(); launch_idx];
    for (&buf, &i) in &first {
        births[i].push(buf);
    }
    for (&buf, &i) in &last {
        deaths[i].push(buf);
    }
    for list in births.iter_mut().chain(deaths.iter_mut()) {
        list.sort_unstable();
    }

    // Greedy best-fit: free slots keyed by (size, slot id) so the smallest
    // slot that fits is found by range query.
    let mut free: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut slot_of: HashMap<BufferId, (u64, u64)> = HashMap::new();
    let mut binding: HashMap<BufferId, u64> = HashMap::new();
    let mut next_slot = 0u64;
    let mut allocations = 0u64;
    let mut pool_bytes = 0u64;
    for i in 0..launch_idx {
        // Bind buffers born at this launch *before* releasing the ones
        // dying here: a buffer first and last touched by the same launch
        // is live during it.
        for &buf in &births[i] {
            let need = footprint[&buf];
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
            if !external.contains(&buf) {
                binding.insert(buf, slot.1);
            }
            slot_of.insert(buf, slot);
        }
        for &buf in &deaths[i] {
            if let Some(slot) = slot_of.remove(&buf) {
                free.insert(slot);
            }
        }
    }
    (
        MemPlan {
            peak_device_bytes: pool_bytes,
            allocations,
            buffers,
        },
        binding,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{KernelDesc, KernelKind};

    type Accesses<'a> = &'a [(u64, u64)];

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
            assert_eq!(binding[&BufferId(b)], 0, "all three bound to slot 0");
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
        assert_ne!(binding[&BufferId(1)], binding[&BufferId(2)]);
    }

    #[test]
    fn same_launch_birth_and_death_does_not_self_alias() {
        // Buffer 1's last touch and buffer 2's first touch are the same
        // launch: they are concurrently live and must not share a slot.
        let steps = launches(&[(&[], &[(1, 1024)]), (&[(1, 1024)], &[(2, 1024)])]);
        let (m, binding) = analyze(&steps);
        assert_eq!(m.allocations, 2);
        assert_ne!(
            binding[&BufferId(1)],
            binding[&BufferId(2)],
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
        assert_eq!(binding[&BufferId(3)], binding[&BufferId(2)]);
        assert_eq!(binding[&BufferId(4)], binding[&BufferId(1)]);
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
        assert!(
            !binding.contains_key(&BufferId(7)),
            "read-first (external) buffer must keep its original id"
        );
        assert!(
            binding.contains_key(&BufferId(8)),
            "write-first temporary is slot-canonical"
        );
        // An in-place first touch (read + write of the same buffer in one
        // launch) classifies as external too: the data pre-existed.
        let steps = launches(&[(&[(9, 64)], &[(9, 64)])]);
        let (_, binding) = analyze(&steps);
        assert!(!binding.contains_key(&BufferId(9)));
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
