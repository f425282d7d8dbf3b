//! Integration tests: every server-side operation validated against the
//! client's plaintext arithmetic — the FIDESlib integration-test methodology
//! (client encrypts, simulated-GPU server computes, client decrypts and the
//! result is compared with the expected plaintext computation).

use std::sync::Arc;

use fides_client::{ClientContext, KeyGenerator, RawSwitchingKey, SecretKey};
use fides_core::{adapter, Ciphertext, CkksContext, CkksParameters, EvalKeySet, FidesError};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};
use fides_math::Complex64;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Harness {
    ctx: Arc<CkksContext>,
    client: ClientContext,
    sk: SecretKey,
    pk: fides_client::RawPublicKey,
    keys: EvalKeySet,
    rng: StdRng,
}

impl Harness {
    fn new(rotations: &[i32]) -> Self {
        Self::with_params(CkksParameters::toy(), rotations)
    }

    fn with_params(params: CkksParameters, rotations: &[i32]) -> Self {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        let ctx = CkksContext::new(params, gpu);
        let client = ClientContext::new(ctx.raw_params().clone());
        let mut kg = KeyGenerator::new(&client, 0xf1de5);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        let relin = kg.relinearization_key(&sk);
        let rot_keys: Vec<(i32, RawSwitchingKey)> = rotations
            .iter()
            .map(|&k| (k, kg.rotation_key(&sk, k)))
            .collect();
        let conj = kg.conjugation_key(&sk);
        let keys = adapter::load_eval_keys(&ctx, Some(&relin), &rot_keys, Some(&conj)).unwrap();
        Self {
            ctx,
            client,
            sk,
            pk,
            keys,
            rng: StdRng::seed_from_u64(0xcafe),
        }
    }

    fn encrypt(&mut self, values: &[f64]) -> Ciphertext {
        let pt = self
            .client
            .encode_real(values, self.ctx.fresh_scale(), self.ctx.max_level())
            .unwrap();
        let raw = self.client.encrypt(&pt, &self.pk, &mut self.rng).unwrap();
        adapter::load_ciphertext(&self.ctx, &raw).unwrap()
    }

    fn encrypt_complex(&mut self, values: &[Complex64]) -> Ciphertext {
        let pt = self
            .client
            .encode(values, self.ctx.fresh_scale(), self.ctx.max_level())
            .unwrap();
        let raw = self.client.encrypt(&pt, &self.pk, &mut self.rng).unwrap();
        adapter::load_ciphertext(&self.ctx, &raw).unwrap()
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<f64> {
        let raw = adapter::store_ciphertext(ct);
        self.client
            .decode_real(&self.client.decrypt(&raw, &self.sk).unwrap())
            .unwrap()
    }

    fn decrypt_complex(&self, ct: &Ciphertext) -> Vec<Complex64> {
        let raw = adapter::store_ciphertext(ct);
        self.client
            .decode(&self.client.decrypt(&raw, &self.sk).unwrap())
            .unwrap()
    }
}

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.173).sin() * 0.9).collect()
}

fn assert_close(got: &[f64], expect: &[f64], tol: f64, what: &str) {
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            (g - e).abs() < tol,
            "{what}: slot {i}: got {g}, expected {e}"
        );
    }
}

#[test]
fn hadd_hsub_roundtrip() {
    let mut h = Harness::new(&[]);
    let a = ramp(64);
    let b: Vec<f64> = a.iter().map(|x| 1.0 - x).collect();
    let ca = h.encrypt(&a);
    let cb = h.encrypt(&b);
    let sum = ca.add(&cb).unwrap();
    let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    assert_close(&h.decrypt(&sum), &expect, 1e-6, "HAdd");
    let diff = ca.sub(&cb).unwrap();
    let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
    assert_close(&h.decrypt(&diff), &expect, 1e-6, "HSub");
    let mut neg = ca.duplicate();
    neg.negate_assign();
    let expect: Vec<f64> = a.iter().map(|x| -x).collect();
    assert_close(&h.decrypt(&neg), &expect, 1e-6, "negate");
}

#[test]
fn scalar_add_and_mult() {
    let mut h = Harness::new(&[]);
    let a = ramp(32);
    let ca = h.encrypt(&a);
    let shifted = ca.add_scalar(0.75).unwrap();
    let expect: Vec<f64> = a.iter().map(|x| x + 0.75).collect();
    assert_close(&h.decrypt(&shifted), &expect, 1e-6, "ScalarAdd");

    let mut scaled = ca.mul_scalar(-1.5).unwrap();
    scaled.rescale_in_place().unwrap();
    let expect: Vec<f64> = a.iter().map(|x| x * -1.5).collect();
    assert_close(&h.decrypt(&scaled), &expect, 1e-6, "ScalarMult");

    let doubled = ca.mul_int(3);
    let expect: Vec<f64> = a.iter().map(|x| x * 3.0).collect();
    assert_close(&h.decrypt(&doubled), &expect, 1e-6, "mul_int");
}

#[test]
fn ptadd_ptmult() {
    let mut h = Harness::new(&[]);
    let a = ramp(64);
    let b: Vec<f64> = (0..64).map(|i| 0.3 + 0.01 * i as f64).collect();
    let ca = h.encrypt(&a);
    let raw_pt = h.client.encode_real(&b, ca.scale(), ca.level()).unwrap();
    let pt = adapter::load_plaintext(&h.ctx, &raw_pt).unwrap();

    let sum = ca.add_plain(&pt).unwrap();
    let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    assert_close(&h.decrypt(&sum), &expect, 1e-6, "PtAdd");

    let mut prod = ca.mul_plain(&pt).unwrap();
    prod.rescale_in_place().unwrap();
    let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
    assert_close(&h.decrypt(&prod), &expect, 1e-5, "PtMult+Rescale");
}

#[test]
fn hmult_and_rescale() {
    let mut h = Harness::new(&[]);
    let a = ramp(128);
    let b: Vec<f64> = a.iter().map(|x| 0.8 - x * 0.5).collect();
    let ca = h.encrypt(&a);
    let cb = h.encrypt(&b);
    let mut prod = ca.mul(&cb, &h.keys).unwrap();
    prod.rescale_in_place().unwrap();
    assert_eq!(prod.level(), ca.level() - 1);
    let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
    assert_close(&h.decrypt(&prod), &expect, 1e-4, "HMult+Rescale");
}

#[test]
fn hsquare_matches_hmult() {
    let mut h = Harness::new(&[]);
    let a = ramp(64);
    let ca = h.encrypt(&a);
    let mut sq = ca.square(&h.keys).unwrap();
    sq.rescale_in_place().unwrap();
    let expect: Vec<f64> = a.iter().map(|x| x * x).collect();
    assert_close(&h.decrypt(&sq), &expect, 1e-4, "HSquare");
}

#[test]
fn multiplication_chain_to_depth() {
    let mut h = Harness::new(&[]);
    let a: Vec<f64> = (0..32).map(|i| 0.9 - 0.001 * i as f64).collect();
    let ca = h.encrypt(&a);
    // Square down the whole depth: x^(2^depth).
    let mut acc = ca;
    let mut expect = a.clone();
    for _ in 0..h.ctx.max_level().min(3) {
        acc = acc.square(&h.keys).unwrap();
        acc.rescale_in_place().unwrap();
        expect = expect.iter().map(|x| x * x).collect();
    }
    assert_close(&h.decrypt(&acc), &expect, 1e-3, "squaring chain");
}

#[test]
fn rotations_and_conjugation() {
    let mut h = Harness::new(&[1, 2, 5, -1]);
    let slots = 16usize;
    let a: Vec<f64> = (0..slots).map(|i| i as f64 + 1.0).collect();
    let ca = h.encrypt(&a);
    for k in [1i32, 2, 5, -1] {
        let rotated = ca.rotate(k, &h.keys).unwrap();
        let expect: Vec<f64> = (0..slots)
            .map(|i| a[((i as i64 + k as i64).rem_euclid(slots as i64)) as usize])
            .collect();
        assert_close(
            &h.decrypt(&rotated),
            &expect,
            1e-4,
            &format!("HRotate({k})"),
        );
    }
    // Conjugation on complex data.
    let vals: Vec<Complex64> = (0..slots)
        .map(|i| Complex64::new(i as f64 * 0.1, 0.5 - i as f64 * 0.05))
        .collect();
    let cc = h.encrypt_complex(&vals);
    let conj = cc.conjugate(&h.keys).unwrap();
    let got = h.decrypt_complex(&conj);
    for (g, v) in got.iter().zip(&vals) {
        assert!(
            (*g - v.conj()).abs() < 1e-4,
            "HConjugate: {g:?} vs {:?}",
            v.conj()
        );
    }
}

#[test]
fn missing_rotation_key_is_reported() {
    let mut h = Harness::new(&[1]);
    let ca = h.encrypt(&ramp(8));
    match ca.rotate(3, &h.keys) {
        Err(FidesError::MissingKey(k)) => assert!(k.contains("rotation")),
        other => panic!("expected MissingKey, got {other:?}"),
    }
}

#[test]
fn hoisted_rotations_match_individual() {
    let mut h = Harness::new(&[1, 2, 3]);
    let a = ramp(32);
    let ca = h.encrypt(&a);
    let hoisted = ca.hoisted_rotations(&[0, 1, 2, 3], &h.keys).unwrap();
    for (idx, k) in [0i32, 1, 2, 3].iter().enumerate() {
        let direct = ca.rotate(*k, &h.keys).unwrap();
        let hv = h.decrypt(&hoisted[idx]);
        let dv = h.decrypt(&direct);
        assert_close(&hv, &dv, 1e-5, &format!("hoisted vs direct ({k})"));
    }
}

#[test]
fn mul_by_i_multiplies_slots_by_imaginary_unit() {
    let mut h = Harness::new(&[]);
    let vals: Vec<Complex64> = (0..16)
        .map(|i| Complex64::new(0.2 * i as f64, -0.1 * i as f64))
        .collect();
    let cc = h.encrypt_complex(&vals);
    let rotated = cc.mul_by_i();
    let got = h.decrypt_complex(&rotated);
    for (g, v) in got.iter().zip(&vals) {
        let expect = *v * Complex64::I;
        assert!((*g - expect).abs() < 1e-5, "mul_by_i: {g:?} vs {expect:?}");
    }
    assert_eq!(rotated.level(), cc.level(), "exact op consumes no level");
    assert_eq!(rotated.scale(), cc.scale());
}

#[test]
fn level_mismatch_rejected() {
    let mut h = Harness::new(&[]);
    let ca = h.encrypt(&ramp(8));
    let mut cb = h.encrypt(&ramp(8));
    cb.drop_to_level(ca.level() - 1).unwrap();
    assert!(matches!(ca.add(&cb), Err(FidesError::LevelMismatch { .. })));
    assert!(matches!(
        ca.mul(&cb, &h.keys),
        Err(FidesError::LevelMismatch { .. })
    ));
}

#[test]
fn fusion_off_produces_identical_results() {
    let params = CkksParameters::toy().with_fusion(fides_core::FusionConfig::none());
    let mut h_off = Harness::with_params(params, &[1]);
    let mut h_on = Harness::with_params(CkksParameters::toy(), &[1]);
    let a = ramp(32);
    let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 0.1).collect();
    for h in [&mut h_off, &mut h_on] {
        let ca = h.encrypt(&a);
        let cb = h.encrypt(&b);
        let mut prod = ca.mul(&cb, &h.keys).unwrap();
        prod.rescale_in_place().unwrap();
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        assert_close(&h.decrypt(&prod), &expect, 1e-4, "fusion ablation");
        let rot = ca.rotate(1, &h.keys).unwrap();
        let expect: Vec<f64> = (0..32).map(|i| a[(i + 1) % 32]).collect();
        assert_close(&h.decrypt(&rot), &expect, 1e-4, "fusion ablation rotate");
    }
}

#[test]
fn graph_fusion_reduces_launches_without_changing_results() {
    let fusion_off = fides_core::FusionConfig {
        elementwise: false,
        ..fides_core::FusionConfig::default()
    };
    let mut h_fused = Harness::with_params(CkksParameters::toy(), &[]);
    let mut h_plain = Harness::with_params(CkksParameters::toy().with_fusion(fusion_off), &[]);
    let a = ramp(32);
    let b: Vec<f64> = a.iter().map(|x| x + 0.125).collect();
    let mut launches = Vec::new();
    let mut frames = Vec::new();
    for h in [&mut h_fused, &mut h_plain] {
        let ca = h.encrypt(&a);
        let cb = h.encrypt(&b);
        h.ctx.gpu().reset_stats();
        let mut prod = ca.mul(&cb, &h.keys).unwrap();
        prod.rescale_in_place().unwrap();
        launches.push(h.ctx.gpu().stats().kernel_launches);
        frames.push(adapter::store_ciphertext(&prod));
    }
    assert!(
        launches[0] < launches[1],
        "fusion must strictly reduce kernel launches ({} vs {})",
        launches[0],
        launches[1]
    );
    assert_eq!(frames[0].c0.limbs, frames[1].c0.limbs);
    assert_eq!(frames[0].c1.limbs, frames[1].c1.limbs);
    let sched = h_fused.ctx.sched_stats();
    assert!(sched.fused_kernels > 0, "ledger records fused kernels");
    assert_eq!(
        sched.recorded_kernels,
        sched.planned_launches + sched.fused_kernels,
        "ledger is self-consistent"
    );
}

#[test]
fn scale_drift_stays_within_tolerance_over_depth() {
    let mut h = Harness::new(&[]);
    let a = ramp(16);
    let mut acc = h.encrypt(&a);
    let other = h.encrypt(&a);
    // Multiply by a fresh ciphertext at matching level each time.
    let depth = h.ctx.max_level().min(3);
    for _ in 0..depth {
        let mut partner = other.duplicate();
        partner.drop_to_level(acc.level()).unwrap();
        // Bring scales together via the standard ladder.
        let drift: f64 = acc.scale() / partner.scale() - 1.0;
        assert!(drift.abs() < 1e-3, "pre-mult drift {drift}");
        acc = acc.mul(&partner, &h.keys).unwrap();
        acc.rescale_in_place().unwrap();
    }
    // The message should still be a^(depth+1) within tolerance.
    let mut expect = a.clone();
    for _ in 0..depth {
        expect = expect.iter().zip(&a).map(|(x, y)| x * y).collect();
    }
    assert_close(&h.decrypt(&acc), &expect, 5e-3, "drifted chain");
}

#[test]
fn cost_only_mode_runs_hmult_schedule_at_paper_scale_quickly() {
    // Full paper parameters in cost-only mode: the complete kernel schedule
    // must execute in well under a second of wall time.
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(CkksParameters::paper_default(), Arc::clone(&gpu));
    let keys = synth_keys(&ctx);
    let a = adapter::placeholder_ciphertext(&ctx, ctx.max_level(), ctx.fresh_scale(), 1 << 15);
    let b = adapter::placeholder_ciphertext(&ctx, ctx.max_level(), ctx.fresh_scale(), 1 << 15);
    let t0 = gpu.sync();
    let mut prod = a.mul(&b, &keys).unwrap();
    prod.rescale_in_place().unwrap();
    let dt = gpu.sync() - t0;
    // HMult + Rescale on the 4090 model lands in the ~1 ms regime (Table V).
    assert!(
        dt > 100.0 && dt < 10_000.0,
        "simulated HMult+Rescale = {dt} µs"
    );
}

/// Builds placeholder (cost-only) switching keys directly on the device.
fn synth_keys(ctx: &Arc<CkksContext>) -> EvalKeySet {
    use fides_client::{Domain, RawKeyDigit, RawPoly, RawSwitchingKey};
    let chain = ctx.max_level() + 1 + ctx.alpha();
    // In cost-only mode limb contents are ignored; build zero-shaped keys.
    let raw = RawSwitchingKey {
        digits: (0..ctx.raw_params().dnum)
            .map(|_| RawKeyDigit {
                b: RawPoly {
                    limbs: vec![Vec::new(); chain],
                    domain: Domain::Eval,
                },
                a: RawPoly {
                    limbs: vec![Vec::new(); chain],
                    domain: Domain::Eval,
                },
            })
            .collect(),
    };
    let mut keys = EvalKeySet::new();
    keys.set_mult(adapter::load_switching_key(ctx, &raw).unwrap());
    keys
}
