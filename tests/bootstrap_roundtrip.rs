//! Cross-backend bootstrapping: the backend-generic pipeline must produce
//! **bit-identical** refreshed ciphertexts on the simulated-GPU backend and
//! the CPU reference backend at every worker count, and the refreshed
//! ciphertexts must carry real computing depth (≥ 2 further multiplications
//! within CKKS precision).

use fides_api::{BackendChoice, CkksEngine, Ct};

const SLOTS: usize = 8;

fn engine(backend: BackendChoice, workers: usize) -> CkksEngine {
    CkksEngine::builder()
        .log_n(11)
        .levels(20)
        .scale_bits(50)
        .first_mod_bits(55)
        .dnum(3)
        .backend(backend)
        .workers(workers)
        .bootstrap_slots(SLOTS)
        .seed(0xb007)
        .build()
        .expect("bootstrap parameters are valid")
}

fn values() -> Vec<f64> {
    (0..SLOTS)
        .map(|i| 0.25 * ((i as f64) * 0.7).cos())
        .collect()
}

/// Encrypt at the lowest usable level, bootstrap, square twice.
fn boot_and_compute(e: &CkksEngine) -> (Ct, Ct) {
    let exhausted = e.encrypt_at(&values(), 0).unwrap();
    let refreshed = e.bootstrap(&exhausted).unwrap();
    assert!(
        refreshed.level() >= e.min_bootstrap_level().unwrap(),
        "refreshed level {} below promised {}",
        refreshed.level(),
        e.min_bootstrap_level().unwrap()
    );
    assert!(refreshed.level() >= 2, "need depth for 2 multiplications");
    let sq = refreshed.try_square().unwrap();
    let sq2 = sq.try_square().unwrap();
    (refreshed, sq2)
}

fn assert_frames_equal(a: &Ct, b: &Ct, what: &str) {
    let fa = a.to_raw().unwrap();
    let fb = b.to_raw().unwrap();
    assert_eq!(fa.level, fb.level, "{what}: level");
    assert_eq!(fa.c0.limbs, fb.c0.limbs, "{what}: c0 limbs diverged");
    assert_eq!(fa.c1.limbs, fb.c1.limbs, "{what}: c1 limbs diverged");
}

/// The acceptance bar in one test: round-trip precision after
/// bootstrap + 2 multiplications, bit-identical across gpu-sim and the CPU
/// backend at worker counts 1 and 8.
#[test]
fn bootstrap_bit_identical_across_backends_and_workers() {
    let gpu = engine(BackendChoice::GpuSim, 1);
    let (gpu_boot, gpu_sq2) = boot_and_compute(&gpu);

    // Precision: v⁴ recovered to better than 2⁻¹⁰ per slot.
    let got = gpu.decrypt(&gpu_sq2).unwrap();
    for (i, (v, g)) in values().iter().zip(&got).enumerate() {
        let expect = v * v * v * v;
        assert!(
            (g - expect).abs() < 2f64.powi(-10),
            "slot {i}: {g} vs {expect} (err {:.2e})",
            (g - expect).abs()
        );
    }

    for workers in [1usize, 8] {
        let cpu = engine(BackendChoice::Cpu, workers);
        let (cpu_boot, cpu_sq2) = boot_and_compute(&cpu);
        assert_frames_equal(
            &gpu_boot,
            &cpu_boot,
            &format!("bootstrap gpu-sim vs cpu({workers})"),
        );
        assert_frames_equal(
            &gpu_sq2,
            &cpu_sq2,
            &format!("bootstrap+2 mults gpu-sim vs cpu({workers})"),
        );
    }
}

/// Messages survive the full round trip on the CPU backend alone (the
/// backend the paper's baselines run on), including scale restoration.
#[test]
fn cpu_bootstrap_roundtrip_preserves_message() {
    let e = engine(BackendChoice::Cpu, 0);
    let exhausted = e.encrypt_at(&values(), 0).unwrap();
    let refreshed = e.bootstrap(&exhausted).unwrap();
    let got = e.decrypt(&refreshed).unwrap();
    for (i, (v, g)) in values().iter().zip(&got).enumerate() {
        assert!(
            (v - g).abs() < 2f64.powi(-10),
            "slot {i}: {g} vs {v} (err {:.2e})",
            (v - g).abs()
        );
    }
}

/// Max refresh error of `cpu_bootstrap_roundtrip_preserves_message`'s setup
/// at 8 and 16 slots, measured when every slot count evaluated ApproxModEval
/// on both conjugate halves.
const TWO_HALF_MAX_ERR: [(usize, f64); 2] = [(8, 8.505095362791593e-5), (16, 2.663360011864735e-4)];

/// Sparse slot counts whose CoeffToSlot has two or more stages (16 here) run
/// ApproxModEval once on both packed coefficient halves; 8 slots, with a
/// single CoeffToSlot stage, keep the two-half path. Neither may refresh
/// less precisely than the two-half path did.
#[test]
fn sparse_refresh_error_stays_within_two_half_ceiling() {
    for (slots, ceiling) in TWO_HALF_MAX_ERR {
        let e = CkksEngine::builder()
            .log_n(11)
            .levels(20)
            .scale_bits(50)
            .first_mod_bits(55)
            .dnum(3)
            .backend(BackendChoice::Cpu)
            .bootstrap_slots(slots)
            .seed(0xb007)
            .build()
            .expect("bootstrap parameters are valid");
        let v: Vec<f64> = (0..slots)
            .map(|i| 0.25 * ((i as f64) * 0.7).cos())
            .collect();
        let exhausted = e.encrypt_at(&v, 0).unwrap();
        let got = e.decrypt(&e.bootstrap(&exhausted).unwrap()).unwrap();
        let err = v
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            err <= ceiling,
            "{slots} slots: max refresh error {err:.4e} vs two-half {ceiling:.4e}"
        );
    }
}
