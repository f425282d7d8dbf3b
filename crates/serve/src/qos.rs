//! Admission control and per-tenant weighted fair scheduling.
//!
//! Two serving problems live here, both ahead of the batch scheduler:
//!
//! * **Bounded admission.** The request queue has a capacity; past it the
//!   server *load-sheds* — [`AdmissionQueue::push`] refuses the request
//!   and the caller surfaces
//!   [`ServeError::Overloaded`](crate::ServeError::Overloaded) with a
//!   backlog-drain estimate, instead of buffering without bound or
//!   blocking the submitting thread.
//! * **Weighted fairness.** Within the admitted backlog, batch ticks must
//!   not be monopolized by whichever tenant floods fastest. The queue
//!   keeps one lane per session and releases requests into a tick by
//!   **deficit round-robin**: each round of the rotation a lane earns
//!   `quantum × weight` credits and releases that many requests, so a
//!   tenant with 10× the arrival rate still gets only its weighted share
//!   of every tick while other lanes are non-empty — and full throughput
//!   the moment they drain (work-conserving).
//!
//! The scheduler only reorders *which* requests enter a tick; the batch
//! itself still executes as one merged graph, and CKKS kernels are
//! data-oblivious, so any admitted request's response frame is
//! bit-identical whichever tick serves it (the `qos` integration suite
//! asserts this against an unloaded serial run).

use std::collections::{HashMap, VecDeque};

/// How the admission queue orders requests into batch ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QosPolicy {
    /// Global arrival order — the default. A flooding tenant owns every
    /// tick until its burst drains, but arrival order keeps each
    /// tenant's request chain contiguous within a batch, which the
    /// planner's liveness pooling packs into markedly less device
    /// memory than an interleaved schedule.
    #[default]
    Fifo,
    /// Deficit round-robin across session lanes: the overload-fairness
    /// opt-in. Interleaves tenants within a tick (weighted shares), so
    /// a flood cannot starve quiet tenants — at the cost of looser
    /// buffer-liveness packing on heavily batched ticks.
    Drr {
        /// Requests a weight-1 lane may release per rotation round
        /// (≥ 1). Larger quanta trade per-tick fairness granularity for
        /// fewer rotation steps.
        quantum: u32,
    },
}

struct Lane<T> {
    items: VecDeque<T>,
    deficit: u64,
    /// Set when a full batch interrupted this lane mid-service: it
    /// resumes with its unspent credit and must not earn a fresh
    /// quantum for the same round.
    carry: bool,
}

/// A bounded, policy-ordered request queue: one lane per session, FIFO
/// within a lane, [`QosPolicy`] across lanes.
pub struct AdmissionQueue<T> {
    policy: QosPolicy,
    capacity: usize,
    len: usize,
    lanes: HashMap<u64, Lane<T>>,
    /// Fifo policy: session ids in global arrival order (one entry per
    /// queued item).
    arrivals: VecDeque<u64>,
    /// Drr policy: rotation of sessions with a non-empty lane.
    active: VecDeque<u64>,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue admitting at most `capacity` requests (≥ 1).
    pub fn new(policy: QosPolicy, capacity: usize) -> Self {
        Self {
            policy,
            capacity: capacity.max(1),
            len: 0,
            lanes: HashMap::new(),
            arrivals: VecDeque::new(),
            active: VecDeque::new(),
        }
    }

    /// Queued requests across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no request is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a request into its session's lane, or returns it when the
    /// queue is at capacity (the load-shed path — the caller owes the
    /// client a retry hint, not silence).
    pub fn push(&mut self, session: u64, item: T) -> Result<(), T> {
        if self.len >= self.capacity {
            return Err(item);
        }
        let lane = self.lanes.entry(session).or_insert_with(|| Lane {
            items: VecDeque::new(),
            deficit: 0,
            carry: false,
        });
        let was_empty = lane.items.is_empty();
        lane.items.push_back(item);
        self.len += 1;
        match self.policy {
            QosPolicy::Fifo => self.arrivals.push_back(session),
            QosPolicy::Drr { .. } => {
                if was_empty {
                    self.active.push_back(session);
                }
            }
        }
        Ok(())
    }

    /// Releases up to `max` requests for one batch tick, in policy order.
    /// `weight_of` gives a session's DRR weight (≥ 1), read each time its
    /// lane earns a round's credit; Fifo never calls it.
    ///
    /// The server calls this once per tick at the start of the admission
    /// phase (under its tick lock), so DRR lane credits are charged and
    /// carried at tick boundaries.
    pub fn pop_batch(&mut self, max: usize, weight_of: impl Fn(u64) -> u32) -> Vec<T> {
        match self.policy {
            QosPolicy::Fifo => self.pop_fifo(max),
            QosPolicy::Drr { quantum } => self.pop_drr(max, quantum.max(1) as u64, weight_of),
        }
    }

    fn pop_fifo(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(session) = self.arrivals.pop_front() else {
                break;
            };
            let lane = self
                .lanes
                .get_mut(&session)
                .expect("arrival entry implies a live lane");
            out.push(lane.items.pop_front().expect("one item per arrival entry"));
            self.len -= 1;
            if lane.items.is_empty() {
                self.lanes.remove(&session);
            }
        }
        out
    }

    fn pop_drr(&mut self, max: usize, quantum: u64, weight_of: impl Fn(u64) -> u32) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < max && !self.active.is_empty() {
            let session = self.active.pop_front().expect("checked non-empty");
            let lane = self
                .lanes
                .get_mut(&session)
                .expect("active entry implies a live lane");
            // Each request costs one credit; a lane earns its round's
            // credits on service and spends them until the batch fills,
            // the lane drains, or the credits run out.
            if lane.carry {
                lane.carry = false;
            } else {
                lane.deficit += quantum * u64::from(weight_of(session).max(1));
            }
            while out.len() < max && lane.deficit > 0 {
                let Some(item) = lane.items.pop_front() else {
                    break;
                };
                out.push(item);
                lane.deficit -= 1;
                self.len -= 1;
            }
            if lane.items.is_empty() {
                // A drained lane forfeits leftover credit — deficits
                // must not accumulate while a tenant is idle.
                self.lanes.remove(&session);
            } else if out.len() == max && lane.deficit > 0 {
                // Batch full mid-service: resume this lane first next
                // tick with its unspent credit (and no second quantum
                // for the same round).
                lane.carry = true;
                self.active.push_front(session);
            } else {
                // Credits exhausted: rotate to the back of the round.
                self.active.push_back(session);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_arrival_order_across_sessions() {
        let mut q = AdmissionQueue::new(QosPolicy::Fifo, 16);
        q.push(1, "a0").unwrap();
        q.push(2, "b0").unwrap();
        q.push(1, "a1").unwrap();
        assert_eq!(q.pop_batch(8, |_| 1), vec!["a0", "b0", "a1"]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_sheds_and_drains() {
        let mut q = AdmissionQueue::new(QosPolicy::default(), 2);
        q.push(1, 10).unwrap();
        q.push(1, 11).unwrap();
        assert_eq!(q.push(1, 12), Err(12), "full queue returns the item");
        assert_eq!(q.pop_batch(1, |_| 1), vec![10]);
        q.push(2, 20).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drr_bounds_a_flooding_session_per_round() {
        let mut q = AdmissionQueue::new(QosPolicy::Drr { quantum: 1 }, 64);
        for i in 0..10 {
            q.push(1, (1, i)).unwrap();
        }
        q.push(2, (2, 0)).unwrap();
        q.push(3, (3, 0)).unwrap();
        // A 4-slot tick: the flooder gets 1 slot per round, the quiet
        // lanes drain, and the spare slots go back to the flooder
        // (work-conserving).
        let batch = q.pop_batch(4, |_| 1);
        let flood = batch.iter().filter(|(s, _)| *s == 1).count();
        assert_eq!(flood, 2, "flooder limited to rounds, not the whole tick");
        assert!(batch.contains(&(2, 0)) && batch.contains(&(3, 0)));
    }

    #[test]
    fn drr_weights_scale_share() {
        let mut q = AdmissionQueue::new(QosPolicy::Drr { quantum: 1 }, 64);
        for i in 0..8 {
            q.push(1, (1, i)).unwrap();
            q.push(2, (2, i)).unwrap();
        }
        let batch = q.pop_batch(8, |s| if s == 1 { 3 } else { 1 });
        let heavy = batch.iter().filter(|(s, _)| *s == 1).count();
        // Weight 3 vs 1 → 3:1 split of an 8-slot tick.
        assert_eq!(heavy, 6);
    }

    #[test]
    fn drr_is_work_conserving_when_lanes_drain() {
        let mut q = AdmissionQueue::new(QosPolicy::default(), 64);
        for i in 0..6 {
            q.push(7, i).unwrap();
        }
        assert_eq!(
            q.pop_batch(6, |_| 1).len(),
            6,
            "sole lane takes the whole tick"
        );
    }

    #[test]
    fn batch_boundary_keeps_unspent_credit() {
        let mut q = AdmissionQueue::new(QosPolicy::Drr { quantum: 4 }, 64);
        for i in 0..8 {
            q.push(1, (1, i)).unwrap();
        }
        for i in 0..8 {
            q.push(2, (2, i)).unwrap();
        }
        // Tick of 2 fills mid-service of lane 1; lane 1 resumes first
        // next tick with its credit, then lane 2 gets its round.
        assert_eq!(q.pop_batch(2, |_| 1), vec![(1, 0), (1, 1)]);
        let next = q.pop_batch(4, |_| 1);
        assert_eq!(next[..2], [(1, 2), (1, 3)]);
        assert_eq!(next[2..], [(2, 0), (2, 1)]);
    }
}
