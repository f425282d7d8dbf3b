//! Determinism under parallelism: the stream-graph engine and the
//! limb-parallel CPU worker pool must never change ciphertext *bits*.
//!
//! Two invariants, property-tested over random seeds and circuits built
//! from the operations whose schedules actually differ between execution
//! substrates (rotate = automorphism + key switch, HMult = tensor + key
//! switch, rescale = cross-limb sync):
//!
//! 1. the CPU backend is bit-identical at worker counts 1 and 8;
//! 2. the simulated-GPU backend (functional mode) is bit-identical to the
//!    CPU backend at every worker count.

use fideslib::{BackendChoice, CkksEngine, Ct};
use proptest::prelude::*;

fn engine(backend: BackendChoice, workers: usize, seed: u64) -> CkksEngine {
    CkksEngine::builder()
        .log_n(10)
        .levels(4)
        .scale_bits(40)
        .dnum(2)
        .backend(backend)
        .workers(workers)
        .rotations(&[1, 2, -1])
        .seed(seed)
        .build()
        .expect("test parameters are valid")
}

/// Deterministic pseudo-random message in `[-1, 1]`.
fn message(seed: u64, len: usize) -> Vec<f64> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2001) as f64 / 1000.0 - 1.0
        })
        .collect()
}

/// The determinism circuit: keyswitch-heavy (HMult + three rotations),
/// with a rescale (the engine policy rescales after try_mul) and additive
/// glue — every schedule-sensitive path in one expression.
fn circuit(e: &CkksEngine, seed: u64, pick: u8) -> Ct {
    let xs = message(seed, 16);
    let ys = message(seed.wrapping_mul(31).wrapping_add(7), 16);
    let x = e.encrypt(&xs).unwrap();
    let y = e.encrypt(&ys).unwrap();
    match pick % 3 {
        // rotate-chain: hoists nothing, three key switches
        0 => {
            let r = x.rotate(1).unwrap();
            let r = r.rotate(2).unwrap();
            r.rotate(-1).unwrap().try_add(&y).unwrap()
        }
        // mult + rescale + rotate
        1 => {
            let z = x.try_mul(&y).unwrap();
            z.rotate(1).unwrap()
        }
        // mixed: square, align, subtract
        _ => {
            let sq = x.try_square().unwrap();
            let shifted = y.rotate(2).unwrap();
            sq.try_sub(&shifted).unwrap()
        }
    }
}

/// Wire-format frames must match bit for bit.
fn assert_frames_equal(a: &Ct, b: &Ct, what: &str) {
    let fa = a.to_raw().unwrap();
    let fb = b.to_raw().unwrap();
    assert_eq!(fa.level, fb.level, "{what}: level");
    assert_eq!(fa.c0.limbs, fb.c0.limbs, "{what}: c0 limbs diverged");
    assert_eq!(fa.c1.limbs, fb.c1.limbs, "{what}: c1 limbs diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// CPU backend: worker counts 1 and 8 produce identical bits — the
    /// worker split assigns limbs to disjoint output slots, so the pool is
    /// invisible to the math.
    #[test]
    fn cpu_workers_bit_identical(seed in any::<u64>(), pick in any::<u8>()) {
        let w1 = circuit(&engine(BackendChoice::Cpu, 1, seed), seed, pick);
        let w8 = circuit(&engine(BackendChoice::Cpu, 8, seed), seed, pick);
        assert_frames_equal(&w1, &w8, "cpu workers 1 vs 8");
    }

    /// Cross-backend: the simulated GPU (stream-graph execution) and the
    /// parallel CPU backend agree bit for bit at any worker count.
    #[test]
    fn gpu_sim_matches_cpu_bitwise(seed in any::<u64>(), pick in any::<u8>()) {
        let gpu = circuit(&engine(BackendChoice::GpuSim, 1, seed), seed, pick);
        for workers in [1usize, 8] {
            let cpu = circuit(&engine(BackendChoice::Cpu, workers, seed), seed, pick);
            assert_frames_equal(&gpu, &cpu, &format!("gpu-sim vs cpu({workers})"));
        }
    }
}

/// Repeating an evaluation on one engine replays cached plans (same graph
/// shape, fresh device buffers rebound into the plan) — results must not
/// drift between the planned run and the cached-replay run.
#[test]
fn plan_cache_replay_bit_identical() {
    let e = engine(BackendChoice::GpuSim, 1, 55);
    let x = e.encrypt(&message(55, 16)).unwrap();
    let y = e.encrypt(&message(56, 16)).unwrap();
    let first = x.try_mul(&y).unwrap().rotate(1).unwrap();
    let second = x.try_mul(&y).unwrap().rotate(1).unwrap();
    assert_frames_equal(&first, &second, "cached-plan replay");
}

/// `eval_batch` (one graph across a whole batch) is also bit-identical to
/// op-by-op evaluation.
#[test]
fn eval_batch_bit_identical_to_sequential() {
    let e = engine(BackendChoice::GpuSim, 1, 123);
    let cts: Vec<Ct> = (0..4)
        .map(|i| e.encrypt(&message(100 + i, 16)).unwrap())
        .collect();
    let batched = e.eval_batch(&cts, |ct| ct.rotate(1)).unwrap();
    for (ct, b) in cts.iter().zip(&batched) {
        let seq = ct.rotate(1).unwrap();
        assert_frames_equal(&seq, b, "eval_batch vs sequential");
    }
}
