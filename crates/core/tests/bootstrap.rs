//! Functional bootstrapping tests: the complete pipeline executed bit-exactly
//! at reduced ring degree, validated by client-side decryption — the
//! integration-test methodology of the paper applied to its headline feature.
//!
//! The pipeline is backend-generic; these tests drive it through the
//! simulated-GPU backend (the workspace-level `bootstrap_roundtrip` suite
//! adds the CPU backend and cross-backend bit-identity).

mod common;

use std::sync::Arc;

use fides_client::{ClientContext, KeyGenerator, RawSwitchingKey, SecretKey};
use fides_core::boot::{chebyshev_coefficients, eval_chebyshev_plain, ChebyshevEvaluator};
use fides_core::{
    adapter, BackendCt, BootstrapConfig, Bootstrapper, CkksContext, CkksParameters, EvalBackend,
    EvalKeySet, GpuSimBackend,
};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Harness {
    ctx: Arc<CkksContext>,
    client: ClientContext,
    sk: SecretKey,
    pk: fides_client::RawPublicKey,
    rng: StdRng,
}

impl Harness {
    fn new(params: CkksParameters) -> Self {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        let ctx = CkksContext::new(params, gpu);
        let client = ClientContext::new(ctx.raw_params().clone());
        let mut kg = KeyGenerator::new(&client, 0xb001);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        Self {
            ctx,
            client,
            sk,
            pk,
            rng: StdRng::seed_from_u64(0x5eed),
        }
    }

    fn keys_with_rotations(&self, shifts: &[i32]) -> EvalKeySet {
        let mut kg = KeyGenerator::new(&self.client, 0xb002);
        // Keys must match self.sk, so generate from the stored secret.
        let relin = kg.relinearization_key(&self.sk);
        let rots: Vec<(i32, RawSwitchingKey)> = shifts
            .iter()
            .map(|&k| (k, kg.rotation_key(&self.sk, k)))
            .collect();
        let conj = kg.conjugation_key(&self.sk);
        adapter::load_eval_keys(&self.ctx, Some(&relin), &rots, Some(&conj)).unwrap()
    }

    /// A gpu-sim backend holding keys for `shifts` (plus relin + conj).
    fn backend(&self, shifts: &[i32]) -> GpuSimBackend {
        GpuSimBackend::new(Arc::clone(&self.ctx), self.keys_with_rotations(shifts))
    }

    fn encrypt_at(&mut self, values: &[f64], level: usize) -> BackendCt {
        let pt = self
            .client
            .encode_real(values, self.ctx.standard_scale(level), level)
            .unwrap();
        let raw = self.client.encrypt(&pt, &self.pk, &mut self.rng).unwrap();
        BackendCt::Device(adapter::load_ciphertext(&self.ctx, &raw).unwrap())
    }

    fn decrypt(&self, ct: &BackendCt) -> Vec<f64> {
        let BackendCt::Device(ct) = ct else {
            panic!("harness produces device ciphertexts")
        };
        let raw = adapter::store_ciphertext(ct);
        self.client
            .decode_real(&self.client.decrypt(&raw, &self.sk).unwrap())
            .unwrap()
    }
}

/// The encrypted Chebyshev evaluator must reproduce plaintext Clenshaw
/// evaluation for a generic smooth function.
#[test]
fn chebyshev_evaluator_matches_plain() {
    let mut h = Harness::new(CkksParameters::toy_boot());
    let backend = h.backend(&[]);
    let degree = 23;
    let coeffs = chebyshev_coefficients(|x| (1.5 * x).sin() * 0.7 + 0.2 * x, -1.0, 1.0, degree);
    let inputs: Vec<f64> = (0..16)
        .map(|i| -1.0 + 2.0 * (i as f64 + 0.5) / 16.0)
        .collect();
    let ct = h.encrypt_at(&inputs, h.ctx.max_level());
    let ev = ChebyshevEvaluator::new(&backend, &ct, degree).unwrap();
    let out = ev.evaluate(&coeffs).unwrap();
    let consumed = h.ctx.max_level() - out.level();
    assert!(
        consumed <= ChebyshevEvaluator::depth_estimate(degree),
        "actual depth {consumed} exceeds estimate {}",
        ChebyshevEvaluator::depth_estimate(degree)
    );
    let got = h.decrypt(&out);
    for (i, (&x, g)) in inputs.iter().zip(&got).enumerate() {
        let expect = eval_chebyshev_plain(&coeffs, -1.0, 1.0, x);
        assert!((g - expect).abs() < 1e-4, "slot {i}: {g} vs {expect}");
    }
}

/// ApproxModEval in isolation: cos series + double angles must compute
/// sin(π·K·u) for u ∈ [−1, 1].
#[test]
fn approx_mod_sine_pipeline() {
    let mut h = Harness::new(CkksParameters::toy_boot());
    let backend = h.backend(&[]);
    let k_range = 128.0f64;
    let r = 6u32;
    let degree = 40usize;
    let coeffs = chebyshev_coefficients(
        |w| ((std::f64::consts::PI * k_range * w - std::f64::consts::FRAC_PI_2) / 64.0).cos(),
        -1.0,
        1.0,
        degree,
    );
    // Inputs small enough that sin stays in its principal behaviour zone.
    let inputs: Vec<f64> = (0..16)
        .map(|i| (i as f64 - 8.0) / (k_range * 4.0))
        .collect();
    let ct = h.encrypt_at(&inputs, h.ctx.max_level());
    let ev = ChebyshevEvaluator::new(&backend, &ct, degree).unwrap();
    let mut c = ev.evaluate(&coeffs).unwrap();
    for _ in 0..r {
        // double angle: 2c² − 1
        let mut sq = backend.square(&c).unwrap();
        backend.rescale(&mut sq).unwrap();
        c = backend
            .add_scalar(&backend.mul_int(&sq, 2).unwrap(), -1.0)
            .unwrap();
    }
    let got = h.decrypt(&c);
    for (i, (&u, g)) in inputs.iter().zip(&got).enumerate() {
        let expect = (std::f64::consts::PI * k_range * u).sin();
        assert!(
            (g - expect).abs() < 1e-3,
            "slot {i}: {g} vs {expect} (u={u})"
        );
    }
}

/// Full bootstrap: message preserved, level refreshed.
#[test]
fn bootstrap_refreshes_levels_and_preserves_message() {
    let mut h = Harness::new(CkksParameters::toy_boot());
    let slots = 8usize;
    let config = BootstrapConfig::for_slots(slots);
    let shifts = fides_core::boot::required_rotations(h.ctx.n(), &config);
    let backend = h.backend(&shifts);
    let boot = Bootstrapper::new(&backend, &h.client, config).unwrap();

    let values: Vec<f64> = (0..slots)
        .map(|i| 0.35 * ((i as f64) * 0.9).sin())
        .collect();
    // Encrypt at the bottom of the chain (level 0): nothing left to compute.
    let mut ct = h.encrypt_at(&values, h.ctx.max_level());
    backend.drop_to_level(&mut ct, 0).unwrap();
    assert_eq!(ct.level(), 0);

    let refreshed = boot.bootstrap(&backend, &ct).unwrap();
    assert!(
        refreshed.level() >= boot.min_output_level(),
        "refreshed level {} below promised {}",
        refreshed.level(),
        boot.min_output_level()
    );
    assert!(
        refreshed.level() >= 3,
        "must regain usable multiplicative depth"
    );

    let got = h.decrypt(&refreshed);
    for (i, (v, g)) in values.iter().zip(&got).enumerate() {
        assert!((v - g).abs() < 0.02, "slot {i}: {g} vs {v}");
    }
}

/// Bootstrapped ciphertexts must support further computation, and the timed
/// entry point must attribute the pipeline to its phases.
#[test]
fn bootstrap_output_is_computable() {
    let mut h = Harness::new(CkksParameters::toy_boot());
    let slots = 8usize;
    let config = BootstrapConfig::for_slots(slots);
    let shifts = fides_core::boot::required_rotations(h.ctx.n(), &config);
    let backend = h.backend(&shifts);
    let boot = Bootstrapper::new(&backend, &h.client, config).unwrap();

    let values: Vec<f64> = (0..slots).map(|i| 0.2 + 0.05 * i as f64).collect();
    let mut ct = h.encrypt_at(&values, h.ctx.max_level());
    backend.drop_to_level(&mut ct, 0).unwrap();
    let (refreshed, phases) = boot.bootstrap_phased(&backend, &ct).unwrap();
    assert!(phases.total_us > 0.0);
    assert!(
        phases.coeff_to_slot_us > 0.0 && phases.eval_mod_us > 0.0 && phases.slot_to_coeff_us > 0.0,
        "every phase must be attributed simulated time: {phases:?}"
    );

    // Square the refreshed ciphertext — impossible before bootstrapping.
    let mut sq = backend.square(&refreshed).unwrap();
    backend.rescale(&mut sq).unwrap();
    let got = h.decrypt(&sq);
    for (i, (v, g)) in values.iter().zip(&got).enumerate() {
        assert!((v * v - g).abs() < 0.03, "slot {i}: {g} vs {}", v * v);
    }
}

/// Setup must reject chains too shallow for the circuit.
#[test]
fn bootstrap_rejects_shallow_chains() {
    let h = Harness::new(CkksParameters::toy());
    let backend = h.backend(&[]);
    let err = Bootstrapper::new(&backend, &h.client, BootstrapConfig::for_slots(8));
    assert!(err.is_err(), "4-level chain cannot host bootstrapping");
}

/// Cost-only mode: the full bootstrap kernel schedule at paper scale.
#[test]
fn bootstrap_cost_only_at_paper_scale() {
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(CkksParameters::paper_default(), Arc::clone(&gpu));
    let client = ClientContext::new(ctx.raw_params().clone());
    let config = BootstrapConfig::for_slots(1 << 14);

    // Placeholder keys (values irrelevant in cost-only mode).
    let mut keys = EvalKeySet::new();
    let chain = ctx.max_level() + 1 + ctx.alpha();
    let mk = || fides_client::RawSwitchingKey {
        digits: (0..ctx.raw_params().dnum)
            .map(|_| fides_client::RawKeyDigit {
                b: fides_client::RawPoly {
                    limbs: vec![Vec::new(); chain],
                    domain: fides_client::Domain::Eval,
                },
                a: fides_client::RawPoly {
                    limbs: vec![Vec::new(); chain],
                    domain: fides_client::Domain::Eval,
                },
            })
            .collect(),
    };
    keys.set_mult(adapter::load_switching_key(&ctx, &mk()).unwrap());
    keys.set_conj(adapter::load_switching_key(&ctx, &mk()).unwrap());
    for shift in fides_core::boot::required_rotations(ctx.n(), &config) {
        let g = fides_client::galois_for_rotation(shift, ctx.n());
        keys.insert_rotation(g, adapter::load_switching_key(&ctx, &mk()).unwrap());
    }

    let backend = GpuSimBackend::new(Arc::clone(&ctx), keys);
    let boot = Bootstrapper::new(&backend, &client, config).unwrap();
    let ct = BackendCt::Device(adapter::placeholder_ciphertext(
        &ctx,
        0,
        ctx.standard_scale(0),
        1 << 14,
    ));
    let t0 = gpu.sync();
    let refreshed = boot.bootstrap(&backend, &ct).unwrap();
    let dt_us = gpu.sync() - t0;
    assert!(refreshed.level() >= boot.min_output_level());
    // Table VI: FIDESlib bootstraps 16384 slots in ~112 ms on the 4090.
    // The simulated figure must land in the same order of magnitude.
    assert!(
        dt_us > 20_000.0 && dt_us < 2_000_000.0,
        "simulated bootstrap = {dt_us} µs, outside the plausible window"
    );
}

/// Repeated bootstraps keep their output scale. Fed back through an
/// LR-shaped chain — `w + (y − c·w)`, whose rescale by `q_l` keeps `w`'s
/// scale and whose `y` is fresh at the ladder's scale — 64 cost-only
/// bootstraps in a row must return bit-equal scales. A bootstrap that
/// shrank its output scale by `σ_out/σ_ref` would drift `w` away from `y`
/// op after op until `y − c·w` failed with a scale mismatch.
#[test]
fn repeated_bootstraps_keep_their_output_scale() {
    let ctx = common::context();
    let client = ClientContext::new(ctx.raw_params().clone());
    let slots = 16;
    let config = BootstrapConfig {
        slots,
        level_budget: (2, 2),
        k_range: 128.0,
        double_angles: 6,
        degree: 31,
    };
    let shifts = fides_core::boot::required_rotations(ctx.n(), &config);
    let backend = GpuSimBackend::new(Arc::clone(&ctx), common::keys(&ctx, &shifts));
    let boot = Bootstrapper::new(&backend, &client, config).unwrap();
    let fresh = |level: usize| {
        BackendCt::Device(adapter::placeholder_ciphertext(
            &ctx,
            level,
            ctx.standard_scale(level),
            slots,
        ))
    };
    // The weights enter at the scale of the level the bootstrap refreshes
    // to, as LR's do.
    let mut w = fresh(boot.min_output_level());
    backend.drop_to_level(&mut w, 0).unwrap();
    let mut scales = Vec::new();
    for i in 0..64 {
        let out = boot.bootstrap(&backend, &w).unwrap();
        scales.push(out.scale());
        let q = backend.modulus_value(out.level()) as f64;
        let mut p = backend.mul_scalar_at(&out, 0.5, q).unwrap();
        backend.rescale(&mut p).unwrap();
        let mut y = fresh(out.level());
        backend.drop_to_level(&mut y, p.level()).unwrap();
        let g = backend
            .sub(&y, &p)
            .unwrap_or_else(|e| panic!("bootstrap {i}: y − c·w: {e}"));
        let mut next = out;
        backend.drop_to_level(&mut next, g.level()).unwrap();
        let mut next = backend.add(&next, &g).unwrap();
        backend.drop_to_level(&mut next, 0).unwrap();
        w = next;
    }
    assert!(
        scales.iter().all(|&s| s == scales[0]),
        "output scales drifted: first {}, last {}",
        scales[0],
        scales[63]
    );
}
