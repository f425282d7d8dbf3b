//! Property tests for the `CkksEngine` session API: encrypt → compute →
//! decrypt round-trips on **both** backends, cross-backend agreement, and
//! the automatic level-alignment policy.

use fideslib::{BackendChoice, CkksEngine, FidesError};
use proptest::prelude::*;

fn engine(backend: BackendChoice, seed: u64) -> CkksEngine {
    CkksEngine::builder()
        .log_n(10)
        .levels(4)
        .scale_bits(40)
        .dnum(2)
        .backend(backend)
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

fn roundtrip_program(backend: BackendChoice, seed: u64, len: usize) -> (Vec<f64>, Vec<f64>) {
    let engine = engine(backend, seed);
    let xs = message(seed, len);
    let ys = message(seed.wrapping_mul(31).wrapping_add(7), len);
    let x = engine.encrypt(&xs).unwrap();
    let y = engine.encrypt(&ys).unwrap();
    // a*b + 2a: one ct×ct multiply (relinearized + rescaled), one scalar
    // multiply, and one auto-aligned addition.
    let z = &x * &y + &x * 2.0;
    let got = engine.decrypt(&z).unwrap();
    let expect: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a * b + 2.0 * a).collect();
    (got, expect)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// encrypt → (a·b + 2a) → decrypt stays within CKKS tolerance on the
    /// simulated-GPU backend.
    #[test]
    fn roundtrip_gpu_sim(seed in any::<u64>(), log_len in 0u32..6) {
        let (got, expect) = roundtrip_program(BackendChoice::GpuSim, seed, 1 << log_len);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            prop_assert!((g - e).abs() < 1e-4, "slot {i}: {g} vs {e}");
        }
    }

    /// The same program within tolerance on the CPU reference backend.
    #[test]
    fn roundtrip_cpu_reference(seed in any::<u64>(), log_len in 0u32..6) {
        let (got, expect) = roundtrip_program(BackendChoice::Cpu, seed, 1 << log_len);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            prop_assert!((g - e).abs() < 1e-4, "slot {i}: {g} vs {e}");
        }
    }

    /// Seeded identically, the two backends must agree on the decrypted
    /// result to within CKKS precision (they compute the same RNS math).
    #[test]
    fn backends_agree(seed in any::<u64>()) {
        let (gpu, _) = roundtrip_program(BackendChoice::GpuSim, seed, 16);
        let (cpu, _) = roundtrip_program(BackendChoice::Cpu, seed, 16);
        for (i, (a, b)) in gpu.iter().zip(&cpu).enumerate() {
            prop_assert!((a - b).abs() < 1e-4, "slot {i}: gpu {a} vs cpu {b}");
        }
    }

    /// Mixed-level operands auto-align instead of erroring: combining a
    /// fresh ciphertext with one that has been multiplied (and rescaled)
    /// drops the fresh operand transparently.
    #[test]
    fn mixed_levels_auto_align(seed in any::<u64>()) {
        for backend in [BackendChoice::GpuSim, BackendChoice::Cpu] {
            let engine = engine(backend, seed);
            let xs = message(seed, 8);
            let ys = message(seed ^ 0xFACE, 8);
            let x = engine.encrypt(&xs).unwrap();
            let y = engine.encrypt(&ys).unwrap();
            let low = (&x * &y) * 0.5;                    // two levels below
            prop_assert_eq!(low.level(), engine.max_level() - 2);
            prop_assert_eq!(x.level(), engine.max_level());
            // add, sub and mul all align the fresh operand down.
            let sum = &low + &x;
            prop_assert_eq!(sum.level(), low.level());
            let diff = &x - &low;
            prop_assert_eq!(diff.level(), low.level());
            let prod = &x * &low;
            prop_assert_eq!(prod.level(), low.level() - 1);
            let got = engine.decrypt(&sum).unwrap();
            for i in 0..8 {
                let expect = xs[i] * ys[i] * 0.5 + xs[i];
                prop_assert!((got[i] - expect).abs() < 1e-4,
                    "{:?} slot {i}: {} vs {expect}", backend, got[i]);
            }
        }
    }
}

/// Plaintext-vector operands: `ct + &[f64]` and `ct * &[f64]`.
#[test]
fn plaintext_vector_operands() {
    for backend in [BackendChoice::GpuSim, BackendChoice::Cpu] {
        let engine = engine(backend, 99);
        let xs = message(123, 8);
        let mask: Vec<f64> = (0..8).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let x = engine.encrypt(&xs).unwrap();
        let masked = &x * &mask[..];
        let shifted = &x + &mask[..];
        let got_m = engine.decrypt(&masked).unwrap();
        let got_s = engine.decrypt(&shifted).unwrap();
        for i in 0..8 {
            assert!(
                (got_m[i] - xs[i] * mask[i]).abs() < 1e-4,
                "{backend:?} mul slot {i}"
            );
            assert!(
                (got_s[i] - (xs[i] + mask[i])).abs() < 1e-4,
                "{backend:?} add slot {i}"
            );
        }
    }
}

/// Exhausting the chain reports a typed error rather than panicking (via
/// the `try_` API).
#[test]
fn level_exhaustion_is_typed() {
    let engine = engine(BackendChoice::GpuSim, 5);
    let x = engine.encrypt(&[0.5]).unwrap();
    let floor = x.at_level(0).unwrap();
    assert!(matches!(
        floor.try_mul_scalar(2.0),
        Err(fideslib::core::FidesError::NotEnoughLevels { .. })
    ));
    assert!(matches!(
        floor.try_mul(&floor),
        Err(fideslib::core::FidesError::NotEnoughLevels { .. })
    ));
}

/// Negation and subtraction identities.
#[test]
fn negation_identities() {
    for backend in [BackendChoice::GpuSim, BackendChoice::Cpu] {
        let engine = engine(backend, 11);
        let xs = message(77, 8);
        let x = engine.encrypt(&xs).unwrap();
        let zero = &x - &x;
        let neg = engine.decrypt(&-&x).unwrap();
        let z = engine.decrypt(&zero).unwrap();
        let flipped = engine.decrypt(&(1.0 - &x)).unwrap();
        for i in 0..8 {
            assert!((neg[i] + xs[i]).abs() < 1e-4);
            assert!(z[i].abs() < 1e-4);
            assert!((flipped[i] - (1.0 - xs[i])).abs() < 1e-4);
        }
    }
}

/// A scalar whose `c·scale` rounds to 2¹²⁷ or more is a typed error on both
/// backends (its residues come from an `i128`, which would saturate), and
/// one just inside the range still computes.
#[test]
fn scalars_past_the_integer_range_are_typed_errors() {
    for backend in [BackendChoice::GpuSim, BackendChoice::Cpu] {
        let engine = engine(backend, 5);
        let xs = [0.5, -0.25];
        let x = engine.encrypt(&xs).unwrap();
        for c in [1e30, 1e40] {
            for r in [x.try_add_scalar(c), x.try_mul_scalar(c)] {
                assert!(
                    matches!(r, Err(FidesError::ScalarOutOfRange { .. })),
                    "{backend:?} c = {c:e}: {r:?}"
                );
            }
        }
        let c = 1e20;
        let sum = engine.decrypt(&x.try_add_scalar(c).unwrap()).unwrap();
        let prod = engine.decrypt(&x.try_mul_scalar(c).unwrap()).unwrap();
        for (i, x) in xs.iter().enumerate() {
            let (want_sum, want_prod) = (x + c, x * c);
            assert!(
                (sum[i] - want_sum).abs() < 1e-9 * c,
                "{backend:?} slot {i}: {} vs {want_sum}",
                sum[i]
            );
            assert!(
                (prod[i] - want_prod).abs() < 1e-6 * c,
                "{backend:?} slot {i}: {} vs {want_prod}",
                prod[i]
            );
        }
    }
}
