//! The tenant table: everything the server holds per tenant, in one place.
//!
//! A session is what the server holds **per tenant**: the tenant's
//! evaluation keys, loaded into its home device shard's context, the
//! tenant's preloaded evaluation-domain plaintexts (model weights and
//! other repeated `MulPlain` operands), and its DRR weight. One entry holds all of it, so a tenant's keys, home device and
//! weight are created, evicted and closed together — nothing outlives the
//! entry. The table is bounded: opening a session past capacity evicts the
//! least-recently-used tenant, modelling a server whose device memory
//! cannot hold every tenant's keys at once. Evicted tenants simply
//! re-upload (the wire `SessionRequest` is the cache fill).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use fides_client::wire::SessionRequest;
use fides_core::backend::{BackendPt, EvalBackend};

use crate::router::HotStreak;

/// Everything the server holds on behalf of one tenant.
pub(crate) struct SessionState {
    /// The tenant's evaluator: its keys bound to its device shard's
    /// context.
    pub(crate) backend: Box<dyn EvalBackend>,
    /// Preloaded evaluation-domain plaintext operands, in upload order
    /// (request programs index into this table).
    pub(crate) plains: Vec<BackendPt>,
    /// Device shard holding this tenant's keys — its one home (always 0
    /// on a single-device server).
    pub(crate) device: usize,
    /// The tenant's original key upload, retained host-side: snapshots
    /// serialize it, and a migration rebuilds residency on another device
    /// from it without a client round-trip. Its frame length is the
    /// tenant's migration cost.
    pub(crate) upload: SessionRequest,
}

impl SessionState {
    /// Wire-frame bytes of the tenant's key upload: what moving its
    /// residency to another device re-sends over the interconnect.
    pub(crate) fn key_bytes(&self) -> u64 {
        self.upload.encoded_len() as u64
    }
}

struct Entry {
    state: Arc<SessionState>,
    last_used: u64,
    weight: u32,
}

/// Bounded LRU map from session id to the tenant's whole server-side
/// state, plus the multi-device router's hot-shard streak.
pub(crate) struct TenantTable {
    entries: HashMap<u64, Entry>,
    /// Ids handed to opens that are still loading their keys.
    reserved: HashSet<u64>,
    capacity: usize,
    next_id: u64,
    clock: u64,
    evicted: u64,
    /// The router's imbalance detector state between ticks.
    pub(crate) streak: HotStreak,
}

impl TenantTable {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            reserved: HashSet::new(),
            capacity: capacity.max(1),
            next_id: 1,
            clock: 0,
            evicted: 0,
            streak: HotStreak::default(),
        }
    }

    /// Hands out a fresh session id before the tenant's keys load (the id
    /// picks the home device). The id stays [`Self::taken`] until the
    /// open inserts it or [`Self::release`]s it; ids are never reused, so
    /// an open that fails after reserving simply burns its id.
    pub(crate) fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.reserved.insert(id);
        id
    }

    /// Ends a failed open's reservation (the id stays burnt).
    pub(crate) fn release(&mut self, id: u64) {
        self.reserved.remove(&id);
    }

    /// Inserts a session under `id` with DRR `weight` (clamped to ≥ 1),
    /// evicting the least-recently-used entry when at capacity — its keys,
    /// home and weight go with it — and ending any reservation of `id`.
    /// Returns false, inserting nothing, when `id` is already resident.
    /// Bumps the id counter past `id` so later opens never collide with it.
    pub(crate) fn insert(&mut self, id: u64, state: SessionState, weight: u32) -> bool {
        if self.entries.contains_key(&id) {
            return false;
        }
        self.reserved.remove(&id);
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(id, e)| (e.last_used, **id))
                .map(|(&id, _)| id);
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.evicted += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(
            id,
            Entry {
                state: Arc::new(state),
                last_used: self.clock,
                weight: weight.max(1),
            },
        );
        self.next_id = self.next_id.max(id + 1);
        true
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
    /// preserving its LRU position and weight. Returns whether the id was
    /// resident; a tenant evicted meanwhile stays evicted.
    pub(crate) fn replace(&mut self, id: u64, state: SessionState) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.state = Arc::new(state);
                true
            }
            None => false,
        }
    }

    /// A session's DRR weight (1 for an id that is not resident).
    pub(crate) fn weight_of(&self, id: u64) -> u32 {
        self.entries.get(&id).map_or(1, |e| e.weight)
    }

    /// Sets a resident session's DRR weight (clamped to ≥ 1); no-op for
    /// an id that is not resident.
    pub(crate) fn set_weight(&mut self, id: u64, weight: u32) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.weight = weight.max(1);
        }
    }

    /// The cheapest resident tenant to move off `device`: smallest key
    /// upload, ties to the lowest id.
    pub(crate) fn cheapest_on(&self, device: usize) -> Option<(u64, Arc<SessionState>)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.state.device == device)
            .min_by_key(|(&id, e)| (e.state.key_bytes(), id))
            .map(|(&id, e)| (id, Arc::clone(&e.state)))
    }

    /// Whether `id` is resident or reserved by an open still loading its
    /// keys: restore checks every staged id under the same guard it
    /// commits under, so it never half-commits or takes an open's id.
    pub(crate) fn taken(&self, id: u64) -> bool {
        self.entries.contains_key(&id) || self.reserved.contains(&id)
    }

    /// The id the next open will get.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Raises the next-assigned id to at least `n` (restore replays the
    /// snapshotted counter so ids stay unique across the restart even if
    /// the highest-id session had been closed before the snapshot).
    pub(crate) fn ensure_next_id(&mut self, n: u64) {
        self.next_id = self.next_id.max(n);
    }

    /// Every resident session as `(id, state, weight)`, least recently
    /// used first — the serialization order that lets a restore replay
    /// [`Self::insert`] calls and land in the same LRU state.
    pub(crate) fn export(&self) -> Vec<(u64, Arc<SessionState>, u32)> {
        let mut entries: Vec<(&u64, &Entry)> = self.entries.iter().collect();
        entries.sort_by_key(|(id, e)| (e.last_used, **id));
        entries
            .into_iter()
            .map(|(&id, e)| (id, Arc::clone(&e.state), e.weight))
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
pub(crate) mod tests {
    use super::*;
    use fides_client::{Domain, RawParams, RawPlaintext, RawPoly};
    use fides_core::CpuBackend;

    /// A session on `device` whose key upload grows with `plaintexts`.
    pub(crate) fn state_on(device: usize, plaintexts: usize) -> SessionState {
        let pt = RawPlaintext {
            poly: RawPoly::zero(8, 1, Domain::Eval),
            level: 0,
            scale: 1.0,
            slots: 1,
        };
        SessionState {
            backend: Box::new(CpuBackend::new(RawParams::generate(8, 2, 30, 40, 2))),
            plains: Vec::new(),
            device,
            upload: SessionRequest {
                params_hash: 0,
                relin: None,
                rotations: Vec::new(),
                conjugation: None,
                plaintexts: vec![pt; plaintexts],
            },
        }
    }

    fn state() -> SessionState {
        state_on(0, 0)
    }

    fn open(t: &mut TenantTable) -> u64 {
        let id = t.reserve_id();
        assert!(t.insert(id, state(), 1));
        id
    }

    #[test]
    fn reserved_ids_are_taken_until_inserted_or_released() {
        let mut t = TenantTable::new(2);
        let a = t.reserve_id();
        assert!(t.taken(a) && t.touch(a).is_none(), "reserved, not resident");
        assert!(t.insert(a, state(), 1));
        assert!(t.taken(a));
        assert!(!t.insert(a, state_on(1, 0), 3), "duplicate id refused");
        assert_eq!(t.touch(a).unwrap().device, 0, "resident state untouched");
        let burnt = t.reserve_id();
        t.release(burnt);
        assert!(!t.taken(burnt));
        assert_eq!(t.next_id(), burnt + 1, "a released id stays burnt");
    }

    #[test]
    fn replace_preserves_identity_and_lru_position() {
        let mut t = TenantTable::new(2);
        let a = open(&mut t);
        assert_eq!(t.next_id(), a + 1);
        t.set_weight(a, 4);
        assert!(t.replace(a, state_on(1, 0)));
        assert_eq!(t.touch(a).unwrap().device, 1);
        assert_eq!(t.weight_of(a), 4, "weight survives a migration");
        assert!(!t.replace(999, state()), "unknown id rejected");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t = TenantTable::new(2);
        let a = open(&mut t);
        let b = open(&mut t);
        assert_eq!(t.len(), 2);
        assert_eq!(t.evicted(), 0, "no eviction below capacity");
        // Touch `a`, so `b` is now the LRU victim.
        assert!(t.touch(a).is_some());
        let c = open(&mut t);
        assert_eq!(t.len(), 2);
        assert_eq!(t.evicted(), 1);
        assert!(t.touch(b).is_none(), "b was evicted");
        assert!(t.touch(a).is_some());
        assert!(t.touch(c).is_some());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = TenantTable::new(1);
        let a = open(&mut t);
        let burnt = t.reserve_id(); // a failed open
        let b = open(&mut t); // evicts a
        assert!(a < burnt && burnt < b);
        assert!(t.touch(a).is_none());
        assert!(!t.remove(a));
        assert!(t.remove(b));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut t = TenantTable::new(0);
        let a = open(&mut t);
        assert!(t.touch(a).is_some());
        let b = open(&mut t);
        assert!(t.touch(a).is_none());
        assert!(t.touch(b).is_some());
    }

    #[test]
    fn eviction_and_close_take_the_weight_with_the_entry() {
        let mut t = TenantTable::new(1);
        let a = open(&mut t);
        t.set_weight(a, 3);
        let b = open(&mut t); // evicts a
        assert_eq!(t.weight_of(a), 1, "evicted tenant's weight leaked");
        t.set_weight(a, 5);
        assert_eq!(t.weight_of(a), 1, "weights only attach to residents");
        t.set_weight(b, 2);
        assert!(t.remove(b));
        assert_eq!(t.weight_of(b), 1, "closed tenant's weight leaked");
        assert!(t.export().is_empty());
    }

    #[test]
    fn cheapest_on_picks_the_smallest_resident_upload() {
        let mut t = TenantTable::new(8);
        for (device, plaintexts) in [(0, 5), (0, 1), (1, 0), (0, 9)] {
            let id = t.reserve_id();
            assert!(t.insert(id, state_on(device, plaintexts), 1));
        }
        assert_eq!(t.cheapest_on(0).unwrap().0, 2);
        assert!(t.remove(2));
        assert_eq!(t.cheapest_on(0).unwrap().0, 1, "only residents are victims");
        assert_eq!(t.cheapest_on(1).unwrap().0, 3);
        assert!(t.cheapest_on(2).is_none());
    }
}
