//! Tenant → device-shard homes for the multi-device server.
//!
//! The distributed serve path (`CkksParameters::num_devices` > 1) runs one
//! device worker — its own simulated GPU plus CKKS context — per device
//! and must decide **where each tenant's evaluation keys live**. Keys are
//! the expensive resident state (tens of MB per tenant at serving
//! parameters), so a tenant's home *is* its key residency:
//!
//! * **Consistent hashing** assigns each tenant a home device: the tenant
//!   id hashes onto a ring of per-device virtual nodes, and the first
//!   vnode clockwise wins. Adding a device moves only ~1/N of the
//!   tenants' homes.
//! * **Migration only under sustained imbalance.** Re-homing a tenant
//!   means re-uploading its key material over the interconnect, so the
//!   [`HotStreak`] detector names a `(hot, cold)` device pair only after
//!   the same device has been the hotspot for several consecutive ticks.
//!   The server then moves the hot device's cheapest resident tenant.
//!
//! Nothing here holds tenant state: the ring is immutable after
//! construction, and a tenant's current home is its session's `device` in
//! the server's tenant table. Both functions are deterministic, so a fixed
//! open/submit sequence always produces the same homes (the determinism
//! suite relies on this).

/// Virtual nodes per device on the hash ring (smooths the split).
const VNODES: u64 = 16;
/// Consecutive imbalanced ticks before a migration fires.
const SUSTAIN_TICKS: u32 = 4;

/// Consistent-hash ring mapping tenant ids to home devices.
#[derive(Debug)]
pub struct ShardRouter {
    /// Sorted (hash-point, device) ring.
    ring: Vec<(u64, usize)>,
}

/// SplitMix64 — deterministic, well-mixed 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ShardRouter {
    /// A ring over `n` device shards (clamped to ≥ 1).
    pub fn new(n: usize) -> Self {
        // Double-mix domain-separates vnode points from tenant hashes:
        // device 0's vnode keys are the raw ids 0..VNODES, and a single
        // mix would pin every small tenant id onto its own vnode point —
        // i.e. onto device 0.
        let mut ring: Vec<(u64, usize)> = (0..n.max(1))
            .flat_map(|d| (0..VNODES).map(move |v| (mix(mix((d as u64) << 32 | v)), d)))
            .collect();
        ring.sort_unstable();
        Self { ring }
    }

    /// A tenant's home device: the first vnode clockwise of
    /// `hash(tenant)` on the ring.
    pub fn home(&self, tenant: u64) -> usize {
        let h = mix(tenant);
        self.ring
            .iter()
            .find(|&&(point, _)| point >= h)
            .or_else(|| self.ring.first())
            .map_or(0, |&(_, d)| d)
    }
}

/// The sustained-imbalance detector's memory between ticks: which device
/// has been the hotspot, and for how many consecutive ticks. Transient
/// tick state — it deliberately resets across a restart.
#[derive(Debug, Default)]
pub(crate) struct HotStreak {
    device: usize,
    ticks: u32,
}

impl HotStreak {
    /// Feeds one tick's per-device served-request counts and returns the
    /// `(hot, cold)` device pair once imbalance has been sustained.
    ///
    /// A tick is *imbalanced* when the busiest device served more than
    /// twice the emptiest device's share plus one (the "+1" keeps
    /// single-request ticks quiet). Only the fourth (`SUSTAIN_TICKS`)
    /// consecutive imbalanced tick with the **same** hotspot fires, and
    /// firing starts a fresh streak.
    pub(crate) fn observe(&mut self, per_device: &[u64]) -> Option<(usize, usize)> {
        let (hot, &hi) = per_device
            .iter()
            .enumerate()
            .max_by_key(|&(d, &c)| (c, std::cmp::Reverse(d)))?;
        let (cold, &lo) = per_device
            .iter()
            .enumerate()
            .min_by_key(|&(d, &c)| (c, d))?;
        if hi <= 2 * lo + 1 || hot == cold {
            self.ticks = 0;
            return None;
        }
        if self.ticks > 0 && self.device == hot {
            self.ticks += 1;
        } else {
            self.device = hot;
            self.ticks = 1;
        }
        if self.ticks < SUSTAIN_TICKS {
            return None;
        }
        self.ticks = 0;
        Some((hot, cold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::state_on;
    use crate::registry::TenantTable;

    #[test]
    fn placement_is_deterministic_and_sticky() {
        let a = ShardRouter::new(4);
        let b = ShardRouter::new(4);
        for t in 1..64u64 {
            assert_eq!(a.home(t), b.home(t));
            assert_eq!(a.home(t), a.home(t), "a home never moves");
        }
    }

    #[test]
    fn hashing_spreads_tenants_across_devices() {
        let r = ShardRouter::new(4);
        let mut counts = [0u64; 4];
        for t in 1..=256u64 {
            counts[r.home(t)] += 1;
        }
        for (d, &c) in counts.iter().enumerate() {
            assert!(c > 0, "device {d} got no tenants");
        }
    }

    #[test]
    fn single_device_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for t in 1..32u64 {
            assert_eq!(r.home(t), 0);
        }
        assert_eq!(HotStreak::default().observe(&[100]), None);
    }

    #[test]
    fn ring_growth_moves_few_tenants() {
        let small = ShardRouter::new(2);
        let big = ShardRouter::new(3);
        let moved = (1..=256u64)
            .filter(|&t| small.home(t) != big.home(t))
            .count();
        // Consistent hashing: growing the ring relocates roughly 1/3 of
        // the tenants, not all of them.
        assert!(moved < 160, "{moved}/256 tenants moved");
    }

    #[test]
    fn sustained_imbalance_migrates_cheapest_tenant() {
        // Three residents on device 0 with distinct upload sizes: the
        // middle one is cheapest to move.
        let mut table = TenantTable::new(8);
        for plaintexts in [5, 1, 9] {
            let id = table.reserve_id();
            table.insert(id, state_on(0, plaintexts), 1);
        }
        let mut streak = HotStreak::default();
        // One imbalanced tick is not enough.
        assert_eq!(streak.observe(&[10, 0]), None);
        assert_eq!(streak.observe(&[10, 0]), None);
        assert_eq!(streak.observe(&[10, 0]), None);
        let (hot, cold) = streak.observe(&[10, 0]).expect("4th sustained tick fires");
        assert_eq!((hot, cold), (0, 1));
        assert_eq!(
            table.cheapest_on(hot).unwrap().0,
            2,
            "cheapest upload moves"
        );
        // Firing starts a fresh streak; a balanced tick resets one too.
        assert_eq!(streak.observe(&[10, 0]), None);
        assert_eq!(streak.observe(&[5, 5]), None);
        assert_eq!(streak.observe(&[10, 0]), None);
    }

    #[test]
    fn balanced_ticks_never_migrate() {
        let mut streak = HotStreak::default();
        for _ in 0..32 {
            assert_eq!(streak.observe(&[8, 8]), None);
            assert_eq!(streak.observe(&[3, 2]), None);
        }
    }
}
