//! The benchmark's own input generators. `--seed` feeds only these; the
//! library sees the generated inputs, never the seed.
//!
//! Every generator keeps the *amount* of work the same for every seed (fixed
//! totals, seeded order), so runs on different seeds measure the same load.

/// splitmix64: small, fast, and good enough to shuffle schedules.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose, so adding a draw to one
    /// generator does not shift the inputs of another.
    pub fn fork(&self, purpose: u64) -> Rng {
        let mut r = Rng(self.0 ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Offered load of the four flood phases, percent of batch capacity per tick.
pub const FLOOD_LOADS_PCT: [u32; 4] = [50, 100, 150, 200];

/// One tick of the flood schedule: which tenants submit, in order. Tenant 0
/// is the flooder; `1..=quiet` are the quiet tenants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloodTick {
    pub load_pct: u32,
    pub arrivals: Vec<u8>,
}

/// One cycle of the tick-indexed open loop: four phases of `ticks_per_phase`
/// ticks. Every quiet tenant submits once per tick; the flooder fills the
/// rest of the phase's offered load, one more or one fewer on alternate
/// ticks so the per-phase total is the same for every seed. The seed picks
/// which ticks run heavy and the submit order inside each tick.
pub fn flood_cycle(
    rng: &mut Rng,
    batch: usize,
    quiet: usize,
    ticks_per_phase: usize,
) -> Vec<FloodTick> {
    let mut ticks = Vec::with_capacity(4 * ticks_per_phase);
    for load_pct in FLOOD_LOADS_PCT {
        let per_tick = (batch * load_pct as usize).div_ceil(100);
        let flood_mean = per_tick.saturating_sub(quiet).max(1);
        let mut flood: Vec<usize> = vec![flood_mean; ticks_per_phase];
        for pair in flood.chunks_exact_mut(2) {
            pair[0] += 1;
            pair[1] -= 1;
        }
        rng.shuffle(&mut flood);
        for n in flood {
            let mut arrivals: Vec<u8> = (1..=quiet as u8).collect();
            arrivals.extend(std::iter::repeat_n(0u8, n));
            rng.shuffle(&mut arrivals);
            ticks.push(FloodTick { load_pct, arrivals });
        }
    }
    ticks
}

/// Visits per tenant rank in one churn epoch: proportional to `1/(rank+1)`,
/// at least one each, summing to `visits` exactly.
pub fn rank_counts(tenants: usize, visits: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=tenants).map(|r| 1.0 / r as f64).sum();
    let mut counts: Vec<usize> = (1..=tenants)
        .map(|r| ((visits as f64 / (harmonic * r as f64)).round() as usize).max(1))
        .collect();
    // Rounding drift lands on the hottest rank, which can absorb it.
    let total: usize = counts[1..].iter().sum();
    counts[0] = visits.saturating_sub(total).max(1);
    counts
}

/// One epoch of the churn visit order: the fixed skewed multiset of
/// [`rank_counts`], with `ranking[rank]` naming the tenant at that rank, in
/// seeded order.
pub fn visit_epoch(rng: &mut Rng, ranking: &[u16], visits: usize) -> Vec<u16> {
    let mut order: Vec<u16> = rank_counts(ranking.len(), visits)
        .into_iter()
        .zip(ranking)
        .flat_map(|(n, &tenant)| std::iter::repeat_n(tenant, n))
        .collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_schedule_is_seeded_and_load_is_seed_independent() {
        let a = flood_cycle(&mut Rng::new(1), 16, 7, 25);
        assert_eq!(a, flood_cycle(&mut Rng::new(1), 16, 7, 25));
        let b = flood_cycle(&mut Rng::new(2), 16, 7, 25);
        assert_ne!(a, b);
        assert_eq!(a.len(), 100);
        for (phase, load) in FLOOD_LOADS_PCT.iter().enumerate() {
            let offered = |c: &[FloodTick]| -> usize {
                c[phase * 25..(phase + 1) * 25]
                    .iter()
                    .map(|t| {
                        assert_eq!(t.load_pct, *load);
                        // Each quiet tenant exactly once per tick.
                        for q in 1..=7u8 {
                            assert_eq!(t.arrivals.iter().filter(|&&x| x == q).count(), 1);
                        }
                        t.arrivals.len()
                    })
                    .sum()
            };
            assert_eq!(offered(&a), offered(&b));
            // 24 paired ticks average the mean; the odd one sits on it.
            assert_eq!(offered(&a), 25 * 16 * *load as usize / 100);
        }
    }

    #[test]
    fn visit_order_is_seeded_skewed_and_exact_in_size() {
        let ranking: Vec<u16> = (0..12).collect();
        let a = visit_epoch(&mut Rng::new(5), &ranking, 200);
        assert_eq!(a, visit_epoch(&mut Rng::new(5), &ranking, 200));
        assert_ne!(a, visit_epoch(&mut Rng::new(6), &ranking, 200));
        assert_eq!(a.len(), 200);
        let counts = rank_counts(12, 200);
        assert_eq!(counts.iter().sum::<usize>(), 200);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[0] >= 8 * counts[11]);
        for (tenant, want) in counts.iter().enumerate() {
            assert_eq!(a.iter().filter(|&&t| t as usize == tenant).count(), *want);
        }
        // Tiny epochs (the smoke scale) still visit every tenant.
        assert!(rank_counts(12, 10).iter().all(|&c| c >= 1));
    }

    #[test]
    fn forks_are_independent_streams() {
        let root = Rng::new(9);
        let (mut a, mut b) = (root.fork(1), root.fork(2));
        assert_ne!(a.next_u64(), b.next_u64());
        assert_eq!(root.fork(1).next_u64(), Rng::new(9).fork(1).next_u64());
        let x = Rng::new(3).range(-0.5, 0.5);
        assert!((-0.5..0.5).contains(&x));
    }
}
