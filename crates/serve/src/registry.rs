//! The bounded LRU session registry.
//!
//! A session is what the server holds **per tenant**: the tenant's
//! evaluation keys, loaded into the execution substrate's native form, plus
//! the tenant's preloaded evaluation-domain plaintexts (model weights and
//! other repeated `MulPlain` operands). The registry is bounded — opening a
//! session past capacity evicts the least-recently-used tenant, modelling a
//! server whose device memory cannot hold every tenant's keys at once.
//! Evicted tenants simply re-upload (the wire `SessionRequest` is the cache
//! fill).

use std::collections::HashMap;
use std::sync::Arc;

use fides_client::wire::SessionRequest;
use fides_core::backend::{BackendPt, EvalBackend};

/// Everything the server holds on behalf of one tenant.
pub(crate) struct SessionState {
    /// The tenant's evaluation substrate: its keys bound to its device
    /// shard's context (gpu-sim) or a host evaluator (CPU reference).
    pub(crate) backend: Box<dyn EvalBackend>,
    /// Preloaded evaluation-domain plaintext operands, in upload order
    /// (request programs index into this table).
    pub(crate) plains: Vec<BackendPt>,
    /// Device shard holding this tenant's keys (always 0 off the
    /// multi-device path).
    pub(crate) device: usize,
    /// The tenant's original key upload, retained host-side so a
    /// migration can rebuild residency on another device without a
    /// client round-trip (`None` on the CPU substrate, which never
    /// migrates).
    pub(crate) upload: Option<SessionRequest>,
}

struct Entry {
    state: Arc<SessionState>,
    last_used: u64,
}

/// Bounded LRU map from session id to session state.
pub(crate) struct Registry {
    entries: HashMap<u64, Entry>,
    capacity: usize,
    next_id: u64,
    clock: u64,
    evicted: u64,
}

impl Registry {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            next_id: 1,
            clock: 0,
            evicted: 0,
        }
    }

    /// Inserts a session, evicting the least-recently-used entry when at
    /// capacity. Returns the fresh session id and the evicted id, if any —
    /// the caller owes the evicted tenant's per-session state elsewhere
    /// (its DRR weight) a cleanup.
    pub(crate) fn insert(&mut self, state: SessionState) -> (u64, Option<u64>) {
        let id = self.next_id;
        (id, self.insert_with_id(id, state))
    }

    /// Looks a session up, marking it most-recently-used. The returned
    /// `Arc` keeps a mid-batch session alive even if a concurrent open
    /// evicts it.
    pub(crate) fn touch(&mut self, id: u64) -> Option<Arc<SessionState>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&id).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.state)
        })
    }

    /// Replaces a resident session's state in place (migration commit),
    /// preserving its LRU position. Returns whether the id was resident.
    pub(crate) fn replace(&mut self, id: u64, state: SessionState) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.state = Arc::new(state);
                true
            }
            None => false,
        }
    }

    /// The id the next [`Self::insert`] will assign (placement runs
    /// before the backend is built, so the server needs the id early).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Inserts a session under a snapshot-assigned id (restore path),
    /// evicting the LRU entry when at capacity, and returns the evicted id.
    /// A duplicate id is ignored — restore rejects a stream that repeats
    /// one before it commits. Bumps `next_id` past `id` so post-restore
    /// opens never collide with restored sessions.
    pub(crate) fn insert_with_id(&mut self, id: u64, state: SessionState) -> Option<u64> {
        if self.entries.contains_key(&id) {
            return None;
        }
        let victim = if self.entries.len() >= self.capacity {
            self.entries
                .iter()
                .min_by_key(|(id, e)| (e.last_used, **id))
                .map(|(&id, _)| id)
        } else {
            None
        };
        if let Some(victim) = victim {
            self.entries.remove(&victim);
            self.evicted += 1;
        }
        self.clock += 1;
        self.entries.insert(
            id,
            Entry {
                state: Arc::new(state),
                last_used: self.clock,
            },
        );
        self.next_id = self.next_id.max(id + 1);
        victim
    }

    /// Whether a session with this id is resident (restore stages its
    /// whole stream first and pre-checks staged ids against residents so
    /// a failed restore never half-commits).
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Raises the next-assigned id to at least `n` (restore replays the
    /// snapshotted counter so ids stay unique across the restart even if
    /// the highest-id session had been closed before the snapshot).
    pub(crate) fn ensure_next_id(&mut self, n: u64) {
        self.next_id = self.next_id.max(n);
    }

    /// Every resident session as `(id, state)`, least recently used
    /// first — the serialization order that lets a restore replay
    /// [`Self::insert_with_id`] calls and land in the same LRU state.
    pub(crate) fn export(&self) -> Vec<(u64, Arc<SessionState>)> {
        let mut entries: Vec<(&u64, &Entry)> = self.entries.iter().collect();
        entries.sort_by_key(|(id, e)| (e.last_used, **id));
        entries
            .into_iter()
            .map(|(&id, e)| (id, Arc::clone(&e.state)))
            .collect()
    }

    pub(crate) fn remove(&mut self, id: u64) -> bool {
        self.entries.remove(&id).is_some()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_client::RawParams;
    use fides_core::CpuBackend;

    fn state() -> SessionState {
        SessionState {
            backend: Box::new(CpuBackend::new(RawParams::generate(8, 2, 30, 40, 2))),
            plains: Vec::new(),
            device: 0,
            upload: None,
        }
    }

    #[test]
    fn replace_preserves_identity_and_lru_position() {
        let mut r = Registry::new(2);
        let (a, _) = r.insert(state());
        assert_eq!(r.next_id(), a + 1);
        let mut moved = state();
        moved.device = 1;
        assert!(r.replace(a, moved));
        assert_eq!(r.touch(a).unwrap().device, 1);
        assert!(!r.replace(999, state()), "unknown id rejected");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut r = Registry::new(2);
        let (a, _) = r.insert(state());
        let (b, evicted) = r.insert(state());
        assert_eq!(evicted, None, "no eviction below capacity");
        assert_eq!(r.len(), 2);
        // Touch `a`, so `b` is now the LRU victim.
        assert!(r.touch(a).is_some());
        let (c, victim) = r.insert(state());
        assert_eq!(victim, Some(b), "eviction reports the victim");
        assert_eq!(r.len(), 2);
        assert_eq!(r.evicted(), 1);
        assert!(r.touch(b).is_none(), "b was evicted");
        assert!(r.touch(a).is_some());
        assert!(r.touch(c).is_some());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut r = Registry::new(1);
        let (a, _) = r.insert(state());
        let (b, _) = r.insert(state()); // evicts a
        assert_ne!(a, b);
        assert!(r.touch(a).is_none());
        assert!(!r.remove(a));
        assert!(r.remove(b));
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = Registry::new(0);
        let (a, _) = r.insert(state());
        assert!(r.touch(a).is_some());
        let (b, _) = r.insert(state());
        assert!(r.touch(a).is_none());
        assert!(r.touch(b).is_some());
    }
}
