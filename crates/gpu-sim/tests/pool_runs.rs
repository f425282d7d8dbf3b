//! Batched pool calls against one-buffer-at-a-time ones.
//!
//! Limb sets take their pool ids as runs ([`PoolSet::run`],
//! [`PoolBuf::upload_run`]) and give them back as whole sets (a dropped
//! [`PoolSet`], [`PoolSet::replace_run`]), one device lock per call. A twin
//! device makes the same allocations and frees through [`VectorGpu`], one
//! buffer and one lock at a time. Driven through random interleavings of
//! runs, set releases, eager launches and capture/replay rounds, the two
//! must hand out the same ids and leave bit-identical ledgers (current and
//! peak pool bytes included), clocks and L2 resident lists.

mod common;

use std::sync::Arc;

use common::{assert_same_stats, device, sequence, Rng};
use fides_gpu_sim::{
    BufferId, GpuSim, KernelDesc, KernelKind, PoolBuf, PoolSet, Rebinding, VectorGpu,
};
use proptest::prelude::*;

/// One live set on both devices: the batched one and its per-buffer twin.
struct Set<'g> {
    batched: PoolSet<'g, u64>,
    single: Vec<VectorGpu<u64>>,
}

impl Set<'_> {
    fn ids(&self) -> (Vec<BufferId>, Vec<BufferId>) {
        (
            self.batched.iter().map(|b| b.buffer()).collect(),
            self.single.iter().map(|v| v.buffer()).collect(),
        )
    }
}

/// A limb length from 8 B to 32 MB, so a few buffers overflow the 72 MB L2.
fn limb_len(rng: &mut Rng) -> usize {
    1 << rng.below(23)
}

/// The same kernel on both devices over up to six live buffers, each read
/// or written whole.
fn launch(rng: &mut Rng, batched: &GpuSim, single: &GpuSim, sets: &[Set<'_>]) {
    let live: Vec<(BufferId, u64)> = sets
        .iter()
        .flat_map(|s| s.batched.iter().map(|b| (b.buffer(), b.bytes())))
        .collect();
    let touches: Vec<(BufferId, u64, bool)> = (0..rng.below(7))
        .filter_map(|_| {
            let &(buf, bytes) = live.get(rng.below(live.len().max(1) as u64) as usize)?;
            Some((buf, bytes, rng.below(2) == 0))
        })
        .collect();
    let stream = rng.below(4) as usize;
    let desc = KernelDesc::new(KernelKind::ALL[rng.below(10) as usize]).ops(rng.below(1 << 24));
    for gpu in [batched, single] {
        gpu.launch(stream, desc, |d| {
            for &(buf, bytes, write) in &touches {
                if write {
                    d.write(buf, bytes);
                } else {
                    d.read(buf, bytes);
                }
            }
        })
        .run(|| {});
    }
}

/// One random pool or device step on both devices.
fn step<'g>(rng: &mut Rng, batched: &'g GpuSim, single: &Arc<GpuSim>, sets: &mut Vec<Set<'g>>) {
    match rng.below(8) {
        // A run of equal limbs.
        0 | 1 => {
            let (count, len) = (rng.below(9) as usize, limb_len(rng));
            sets.push(Set {
                batched: PoolSet::run(batched, count, len),
                single: (0..count).map(|_| VectorGpu::new(single, len)).collect(),
            });
        }
        // An upload run of mixed lengths (8 B to 512 KB).
        2 => {
            let host: Vec<Vec<u64>> = (0..rng.below(6))
                .map(|_| vec![0; 1 << rng.below(16)])
                .collect();
            let up = PoolBuf::upload_run(batched, host.clone());
            sets.push(Set {
                batched: PoolSet::from_bufs(batched, up),
                single: host
                    .into_iter()
                    .map(|h| VectorGpu::from_vec(single, h))
                    .collect(),
            });
        }
        // A set released whole.
        3 | 4 if !sets.is_empty() => {
            let at = rng.below(sets.len() as u64) as usize;
            drop(sets.remove(at));
        }
        // A batch loop's temporaries handed to the next batch.
        5 if !sets.is_empty() => {
            let at = rng.below(sets.len() as u64) as usize;
            let (count, len) = (rng.below(9) as usize, limb_len(rng));
            let set = &mut sets[at];
            set.batched.replace_run(count, len);
            set.single.clear();
            set.single
                .extend((0..count).map(|_| VectorGpu::new(single, len)));
        }
        // A short random log over ids 0..24, live or long released, timed
        // (outside a capture region).
        6 if !batched.capturing_on_current_thread() => {
            let log = sequence(rng.next(), 8);
            batched.replay(&log, &Rebinding::default());
            single.replay(&log, &Rebinding::default());
        }
        _ => launch(rng, batched, single, sets),
    }
}

fn assert_twins(batched: &GpuSim, single: &GpuSim, sets: &[Set<'_>], when: &str) {
    for set in sets {
        let (a, b) = set.ids();
        assert_eq!(a, b, "{when}: ids");
    }
    assert_same_stats(&batched.stats(), &single.stats());
    assert_eq!(
        batched.l2_residents(),
        single.l2_residents(),
        "{when}: resident list"
    );
    assert_eq!(
        batched.sync().to_bits(),
        single.sync().to_bits(),
        "{when}: clock"
    );
}

fn run(seed: u64, rounds: usize) {
    let mut rng = Rng(seed | 1);
    let (batched, single) = (device(), device());
    let mut sets = Vec::new();
    for round in 0..rounds {
        let capture = rng.below(3) == 0;
        if capture {
            assert!(batched.begin_capture() && single.begin_capture());
        }
        for _ in 0..rng.below(24) {
            step(&mut rng, &batched, &single, &mut sets);
        }
        if capture {
            let (a, b) = (batched.end_capture(), single.end_capture());
            assert_eq!(a.fresh_ids, b.fresh_ids, "round {round}: fresh ids");
            batched.replay(&a.events, &Rebinding::default());
            single.replay(&b.events, &Rebinding::default());
        }
        assert_twins(&batched, &single, &sets, &format!("round {round}"));
    }
    sets.clear();
    assert_twins(&batched, &single, &sets, "all released");
    assert_eq!(batched.stats().current_alloc_bytes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_pool_calls_equal_per_buffer_calls(seed in any::<u64>(), rounds in 1usize..12) {
        run(seed, rounds);
    }
}
