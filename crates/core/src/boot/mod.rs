//! CKKS bootstrapping (§III-F.7): ModRaise → (sparse fold) → CoeffToSlot →
//! conjugate extraction → ApproxModEval (Chebyshev cosine + BSGS/PS +
//! double-angle) → SlotToCoeff.
//!
//! Fully packed ciphertexts (`slots == N/2`) split CoeffToSlot's output into
//! its real and imaginary halves and run ApproxModEval on each. Sparse ones
//! (`slots < N/2`) run it once, as OpenFHE's sparse branch does: the last
//! CoeffToSlot stage packs both real coefficient halves into `2·slots`
//! slots, and the first SlotToCoeff stage unpacks them (see `boot/cts.rs`).
//! The one exception is a CoeffToSlot of a single stage (at most 8 slots by
//! default): that stage also carries the `1/(g·K·q_0)` scaling, whose
//! plaintexts are the least precise of the transform, and a `2·slots`-slot
//! encoding doubles their rounding-noise variance, so those configurations
//! keep the two-half path. The configuration alone picks the path; levels
//! and rotation keys are the same for both.
//!
//! The flow follows OpenFHE's EvalBootstrap as adapted by FIDESlib:
//! CoeffToSlot/SlotToCoeff are generalized into one routine over decomposed
//! DFT stage matrices applied through BSGS ciphertext×plaintext-matrix
//! products with hoisted rotations; ApproxModEval approximates
//! `(q_0/2π)·sin(2π t/q_0)` to recover `m ≪ q_0` from `t = m + q_0·I`.
//!
//! The pipeline is **backend-generic**: every step is expressed through the
//! [`EvalBackend`] trait, so the same [`Bootstrapper`] drives both the
//! simulated-GPU pipeline and the CPU reference backend and produces
//! bit-identical ciphertexts on each (the cross-backend bootstrap tests
//! assert frame equality). On backends with graph execution each phase
//! records into one `ExecGraph`, so the scheduling pass fuses and
//! stream-remaps across the whole transform rather than op by op.

pub(crate) mod chebyshev;
pub(crate) mod cts;
pub(crate) mod poly_eval;
mod trace;

use std::sync::Arc;

use fides_client::{ClientContext, Domain};
use fides_gpu_sim::{KernelDesc, KernelKind, PoolSet};
use fides_math::switch_modulus_centered;

pub use chebyshev::{chebyshev_coefficients, eval_chebyshev_plain, trim_degree};
pub use poly_eval::ChebyshevEvaluator;

use crate::backend::{BackendCt, EvalBackend};
use crate::ciphertext::Ciphertext;
use crate::context::{ChainIdx, RegionInputs, RegionKey};
use crate::error::{FidesError, Result};
use crate::kernels;
use crate::ops::linear::{fold_rotations, BsgsPlan};
use crate::poly::{in_place, LimbPartition, RNSPoly};

/// Bootstrapping configuration.
#[derive(Clone, Debug)]
pub struct BootstrapConfig {
    /// Packed slot count of the ciphertexts to refresh.
    pub slots: usize,
    /// `(CoeffToSlot, SlotToCoeff)` level budgets: stages per transform.
    pub level_budget: (usize, usize),
    /// Range bound `K`: correct as long as `|m + q_0·I| ≤ K·q_0/2`.
    pub k_range: f64,
    /// Double-angle iterations `r`.
    pub double_angles: u32,
    /// Chebyshev approximation degree.
    pub degree: usize,
}

impl BootstrapConfig {
    /// Reasonable defaults for a given slot count: uniform-ternary-safe
    /// range bound, more transform stages for larger slot counts.
    pub fn for_slots(slots: usize) -> Self {
        let budget = if slots >= 1 << 10 {
            3
        } else if slots >= 16 {
            2
        } else {
            1
        };
        Self {
            slots,
            level_budget: (budget, budget),
            k_range: 128.0,
            double_angles: 6,
            degree: 40,
        }
    }

    fn stage_counts(&self) -> (usize, usize) {
        let log_slots = self.slots.trailing_zeros().max(1) as usize;
        (
            self.level_budget.0.min(log_slots),
            self.level_budget.1.min(log_slots),
        )
    }
}

/// Every rotation shift the bootstrap circuit for `config` needs keys for,
/// computed from the transform *structure* alone (no key material, no
/// backend) — the engine builder calls this before key generation.
pub fn required_rotations(n: usize, config: &BootstrapConfig) -> Vec<i32> {
    let n_s = config.slots;
    if n_s < 2 || !n_s.is_power_of_two() || n_s > n / 2 {
        return Vec::new(); // invalid configs are rejected by `Bootstrapper::new`
    }
    let (n_cts, n_stc) = config.stage_counts();
    let g_fold = (n / 2) / n_s;
    let mut shifts: Vec<i32> = Vec::new();
    for i in 0..g_fold.trailing_zeros() {
        shifts.push((n_s << i) as i32);
    }
    let cts = cts::build_cts_stages(n_s, n_cts, 1.0, false);
    let stc = cts::build_stc_stages(n_s, n_stc, 1.0, false);
    for stage in cts.iter().chain(&stc) {
        shifts.extend(cts::stage_shifts(stage));
    }
    shifts.sort_unstable();
    shifts.dedup();
    shifts.retain(|&s| s != 0);
    shifts
}

/// Per-phase timings of one bootstrap invocation (µs). On the simulated-GPU
/// backend these are simulated device times (device-wide sync between
/// phases); on the CPU backend, wall-clock times.
#[derive(Clone, Copy, Debug, Default)]
pub struct BootPhases {
    /// ModRaise: centered modulus switching up the whole chain.
    pub mod_raise_us: f64,
    /// Sparse-packing trace fold (0 for fully packed ciphertexts).
    pub fold_us: f64,
    /// CoeffToSlot: BSGS stage-matrix products with hoisted rotations.
    pub coeff_to_slot_us: f64,
    /// Conjugate extraction + ApproxModEval + recombination. ApproxModEval
    /// runs on both conjugate halves, or once where
    /// [`Bootstrapper::approx_mod_runs`] says so.
    pub eval_mod_us: f64,
    /// SlotToCoeff: the inverse transform.
    pub slot_to_coeff_us: f64,
    /// Whole-pipeline time.
    pub total_us: f64,
}

/// Precomputed bootstrapping state for one `(backend, config)` pair.
///
/// Construction performs all §III-E-style precomputation: stage matrices,
/// their encoded plaintext diagonals (preloaded into the backend's native
/// plaintext form), and the Chebyshev coefficients.
#[derive(Debug)]
pub struct Bootstrapper {
    config: BootstrapConfig,
    /// Ring degree of the session this bootstrapper was built for.
    n: usize,
    cts_plans: Vec<BsgsPlan>,
    stc_plans: Vec<BsgsPlan>,
    /// ApproxModEval runs once on both real coefficient halves, packed into
    /// `2·slots` slots.
    one_eval_mod: bool,
    cheby_coeffs: Vec<f64>,
    fold_iters: u32,
    min_output_level: usize,
    /// Ladder-consistent scale the raised ciphertext is reinterpreted to.
    sigma_ref: f64,
    /// Owner of the keyed graph regions this instance's phases run in.
    regions: u64,
}

/// The bootstrap's keyed graph regions, in pipeline order.
#[derive(Clone, Copy)]
enum Phase {
    ModRaise,
    Fold,
    CoeffToSlot,
    EvalMod,
    SlotToCoeff,
}

impl Bootstrapper {
    /// Builds all precomputed material against `backend`. The client context
    /// performs the plaintext encoding of the DFT diagonals (encoding is a
    /// client-side operation in the FIDESlib architecture); the backend
    /// preloads them into its native form.
    ///
    /// # Errors
    ///
    /// [`FidesError::InvalidParams`] if the parameter chain is too shallow
    /// for the configured transform budgets and approximation depth.
    pub fn new(
        backend: &dyn EvalBackend,
        client: &ClientContext,
        config: BootstrapConfig,
    ) -> Result<Self> {
        let n = client.n();
        let n_s = config.slots;
        if n_s < 2 || !n_s.is_power_of_two() || n_s > n / 2 {
            return Err(FidesError::InvalidParams(format!(
                "invalid slot count {n_s}"
            )));
        }
        let levels_max = backend.max_level();
        let (n_cts, n_stc) = config.stage_counts();
        let cheby_depth = ChebyshevEvaluator::depth_estimate(config.degree);
        let needed = n_cts + cheby_depth + config.double_angles as usize + n_stc;
        if needed >= levels_max {
            return Err(FidesError::InvalidParams(format!(
                "bootstrapping needs {needed} levels, chain has {levels_max}"
            )));
        }
        let min_output_level = levels_max - needed;

        let g_fold = (n / 2) / n_s;
        let fold_iters = g_fold.trailing_zeros();
        let q0 = backend.modulus_value(0) as f64;
        // The raised ciphertext lives at the top of the chain; reinterpret
        // its scale to the ladder value THERE so every downstream operation
        // stays scale-consistent (the ladder drifts away from Δ at low
        // levels, so anchoring at level 0 would inject an off-ladder scale).
        let sigma_ref = backend.standard_scale(levels_max);
        let numeric = backend.is_functional();

        // CtS: α = σ_ref / (g·K·q_0) — yields slots u with t/q_0 = K·u/2
        // after the ×2 of conjugate extraction.
        let alpha = sigma_ref / (g_fold as f64 * config.k_range * q0);
        let mut cts_mats = cts::build_cts_stages(n_s, n_cts, alpha, numeric);
        // StC: β = q_0 / (2π·σ_ref) — converts sin(2πt/q_0) back to m/σ_ref.
        let beta = q0 / (2.0 * std::f64::consts::PI * sigma_ref);
        let mut stc_mats = cts::build_stc_stages(n_s, n_stc, beta, numeric);
        // Sparse: pack both real halves into 2n slots for one ApproxModEval,
        // unless the lifted stage would be the one carrying α.
        let one_eval_mod = fold_iters > 0 && cts_mats.len() > 1;
        if one_eval_mod {
            let last = cts_mats.last_mut().expect("at least one CtS stage");
            *last = cts::lift_last_cts_stage(last);
            stc_mats[0] = cts::lift_first_stc_stage(&stc_mats[0]);
        }

        // Level schedule (worst case; apply() drops to the encoded level).
        let mut lvl = levels_max;
        let mut cts_plans = Vec::with_capacity(cts_mats.len());
        for m in &cts_mats {
            let out = backend.standard_scale(lvl - 1);
            cts_plans.push(cts::encode_stage(backend, client, m, lvl, out)?);
            lvl -= 1;
        }
        lvl -= cheby_depth + config.double_angles as usize;
        let mut stc_plans = Vec::with_capacity(stc_mats.len());
        let (last_stc, first_stcs) = stc_mats.split_last().expect("at least one StC stage");
        for m in first_stcs {
            let out = backend.standard_scale(lvl - 1);
            stc_plans.push(cts::encode_stage(backend, client, m, lvl, out)?);
            lvl -= 1;
        }
        // The last stage lands on σ_ref rather than on the ladder, so that
        // step 8 can hand back the caller's own scale: repeated bootstraps
        // keep their output scale instead of scaling it by s/σ_ref each time.
        // Its input is off the ladder (the level drops of ApproxModEval keep
        // scales), so the scale it receives is found by tracing the
        // circuit's scale bookkeeping once with a provisional last stage.
        let trace = trace::ScaleTrace { inner: backend };
        stc_plans.push(cts::encode_stage(&trace, client, last_stc, lvl, sigma_ref)?);

        // cos((π·K·w − π/2) / 2^r) on w ∈ [−1, 1]: after r double angles this
        // becomes cos(π·K·w − π/2) = sin(2π·t/q_0) with t/q_0 = K·w/2.
        let k = config.k_range;
        let r = config.double_angles;
        let cheby_coeffs = chebyshev_coefficients(
            move |w| {
                ((std::f64::consts::PI * k * w - std::f64::consts::FRAC_PI_2) / 2f64.powi(r as i32))
                    .cos()
            },
            -1.0,
            1.0,
            config.degree,
        );
        let mut boot = Self {
            config,
            n,
            cts_plans,
            stc_plans,
            one_eval_mod,
            cheby_coeffs,
            fold_iters,
            min_output_level,
            sigma_ref,
            regions: RegionKey::new_owner(),
        };
        let probe = trace::meta(0, sigma_ref, n_s);
        let landed = boot.circuit(&trace, &probe, false)?.0.scale();
        let out = sigma_ref * sigma_ref / landed;
        *boot.stc_plans.last_mut().expect("at least one StC stage") =
            cts::encode_stage(backend, client, last_stc, lvl, out)?;
        Ok(boot)
    }

    /// The configuration.
    pub fn config(&self) -> &BootstrapConfig {
        &self.config
    }

    /// Minimum level of refreshed ciphertexts (the "levels remaining after
    /// bootstrapping" of Table VI).
    pub fn min_output_level(&self) -> usize {
        self.min_output_level
    }

    /// How many times a bootstrap evaluates ApproxModEval: once when both
    /// real coefficient halves are packed into `2·slots` slots, else twice.
    pub fn approx_mod_runs(&self) -> usize {
        if self.one_eval_mod {
            1
        } else {
            2
        }
    }

    /// Every rotation shift the bootstrap circuit needs keys for (the client
    /// generates exactly these) — identical to
    /// [`required_rotations`]`(n, config)`, the structure-only form the
    /// engine builder uses before the backend exists.
    pub fn required_rotations(&self) -> Vec<i32> {
        required_rotations(self.n, &self.config)
    }

    /// Refreshes a ciphertext: returns an encryption of (approximately) the
    /// same message at a high level (Bootstrap in Fig. 1). `backend` must be
    /// the backend this bootstrapper was precomputed against.
    ///
    /// # Errors
    ///
    /// Missing keys, slot mismatch, or insufficient levels.
    pub fn bootstrap(&self, backend: &dyn EvalBackend, ct: &BackendCt) -> Result<BackendCt> {
        Ok(self.run(backend, ct, false)?.0)
    }

    /// As [`Bootstrapper::bootstrap`], additionally reporting per-phase
    /// times. Phase boundaries force a device-wide sync on simulated
    /// backends, so the total can exceed an untimed run where phases would
    /// overlap across streams.
    ///
    /// # Errors
    ///
    /// As [`Bootstrapper::bootstrap`].
    pub fn bootstrap_phased(
        &self,
        backend: &dyn EvalBackend,
        ct: &BackendCt,
    ) -> Result<(BackendCt, BootPhases)> {
        let (out, phases) = self.run(backend, ct, true)?;
        Ok((out, phases.expect("timed run reports phases")))
    }

    fn run(
        &self,
        backend: &dyn EvalBackend,
        ct: &BackendCt,
        timed: bool,
    ) -> Result<(BackendCt, Option<BootPhases>)> {
        let (mut out, phases) = self.circuit(backend, ct, timed)?;
        // 8. Restore the caller's scale interpretation. The last StC stage
        // lands on σ_ref, so the output's scale is the caller's own up to
        // the f64 rounding of the stages' scale bookkeeping; dropping that
        // rounding makes repeated bootstraps return bit-equal scales. A
        // larger gap means `ScaleTrace` no longer follows the backend's
        // scale rules.
        let s = out.scale();
        debug_assert!(
            (s / self.sigma_ref - 1.0).abs() < 1e-12,
            "SlotToCoeff output scale {s} is off the reference scale {}",
            self.sigma_ref
        );
        out.set_scale(ct.scale());
        Ok((out, phases))
    }

    /// Steps 1–7: the circuit up to SlotToCoeff's output, at the scale its
    /// last stage lands on.
    fn circuit(
        &self,
        backend: &dyn EvalBackend,
        ct: &BackendCt,
        timed: bool,
    ) -> Result<(BackendCt, Option<BootPhases>)> {
        if ct.slots() != self.config.slots {
            return Err(FidesError::SlotMismatch {
                left: ct.slots(),
                right: self.config.slots,
            });
        }
        let sigma_ref = self.sigma_ref;
        let wall = std::time::Instant::now();
        let now = |on: bool| -> f64 {
            if !on {
                return 0.0;
            }
            backend
                .sync_time_us()
                .unwrap_or_else(|| wall.elapsed().as_secs_f64() * 1e6)
        };
        let mut phases = BootPhases::default();
        let t0 = now(timed);

        // Each phase is one keyed graph region: its schedule depends only
        // on this instance and its input's shape, so a repeat replays the
        // cached plan without recording (`CkksContext::scheduled_keyed`).
        let region = |phase: Phase, input: &BackendCt| {
            let key = RegionKey {
                owner: self.regions,
                phase: phase as u32,
            };
            backend.region_inputs(&[input]).map(|inputs| (key, inputs))
        };

        // 1. ModRaise from the lowest level to the top of the chain.
        let mut work = in_graph_keyed(backend, region(Phase::ModRaise, ct), || {
            let mut low = ct.duplicate();
            backend.drop_to_level(&mut low, 0)?;
            let mut raised = backend.mod_raise(&low)?;
            // Scale reinterpretation; ρ restored at the end.
            raised.set_scale(sigma_ref);
            Ok(raised)
        })?;
        let t1 = now(timed);
        phases.mod_raise_us = t1 - t0;

        // 2. Sparse packing: trace-fold onto the subring.
        if self.fold_iters > 0 {
            work = in_graph_keyed(backend, region(Phase::Fold, &work), || {
                fold_rotations(backend, &work, self.config.slots as i32, self.fold_iters)
            })?;
        }
        let t2 = now(timed);
        phases.fold_us = t2 - t1;

        // 3. CoeffToSlot: one recorded graph across all stages.
        work = in_graph_keyed(backend, region(Phase::CoeffToSlot, &work), || {
            let mut w = work;
            for plan in &self.cts_plans {
                w = plan.apply(backend, &w)?;
            }
            Ok(w)
        })?;
        let t3 = now(timed);
        phases.coeff_to_slot_us = t3 - t2;

        // 4–6. Conjugate extraction, ApproxModEval, recombination a + i·b.
        let comb = in_graph_keyed(backend, region(Phase::EvalMod, &work), || {
            let conj = backend.conjugate(&work)?;
            if self.one_eval_mod {
                // CtS left c = [u | −i·u] in 2n slots, so c + conj(c) =
                // 2a·γ | 2b·γ. The result t′ is real up to noise: t′ + conj(t′)
                // drops its imaginary noise, and StC's first stage halves it
                // while recombining.
                let t = self.approx_mod(backend, &backend.add(&work, &conj)?)?;
                return backend.add(&t, &backend.conjugate(&t)?);
            }
            // re = c + conj(c) = 2a·γ, im = i·(conj(c) − c) = 2b·γ.
            let re = backend.add(&work, &conj)?;
            let im = backend.mul_by_i(&backend.sub(&conj, &work)?)?;

            let re_sin = self.approx_mod(backend, &re)?;
            let im_sin = self.approx_mod(backend, &im)?;

            let lvl = re_sin.level().min(im_sin.level());
            let mut comb = re_sin;
            backend.drop_to_level(&mut comb, lvl)?;
            let mut im_part = backend.mul_by_i(&im_sin)?;
            backend.drop_to_level(&mut im_part, lvl)?;
            backend.add(&comb, &im_part)
        })?;
        let t4 = now(timed);
        phases.eval_mod_us = t4 - t3;

        // 7. SlotToCoeff: again one graph across all stages.
        let comb = in_graph_keyed(backend, region(Phase::SlotToCoeff, &comb), || {
            let mut c = comb;
            for (i, plan) in self.stc_plans.iter().enumerate() {
                c = plan.apply(backend, &c)?;
                if i == 0 && self.one_eval_mod {
                    // y + rotate(y, n) unpacks t′_lo + i·t′_hi.
                    let n_s = self.config.slots as i32;
                    c = backend.add(&c, &backend.rotate(&c, n_s)?)?;
                }
            }
            Ok(c)
        })?;
        let t5 = now(timed);
        phases.slot_to_coeff_us = t5 - t4;
        phases.total_us = t5 - t0;
        Ok((comb, timed.then_some(phases)))
    }

    /// Chebyshev series + double-angle iterations.
    fn approx_mod(&self, backend: &dyn EvalBackend, ct: &BackendCt) -> Result<BackendCt> {
        let ev = ChebyshevEvaluator::new(backend, ct, self.config.degree)?;
        let mut c = ev.evaluate(&self.cheby_coeffs)?;
        for _ in 0..self.config.double_angles {
            c = poly_eval::double_angle_step(backend, &c)?;
        }
        Ok(c)
    }
}

/// Runs `f` inside one deferred-execution graph region of `backend` (no-op
/// on backends without graph execution). Mirrors the engine's `eval_scope`:
/// errors still close (and execute) the region; panics discard it.
fn in_graph<R>(backend: &dyn EvalBackend, f: impl FnOnce() -> Result<R>) -> Result<R> {
    let began = backend.graph_begin();
    struct AbortGuard<'a> {
        backend: &'a dyn EvalBackend,
        armed: bool,
    }
    impl Drop for AbortGuard<'_> {
        fn drop(&mut self) {
            if self.armed {
                self.backend.graph_abort();
            }
        }
    }
    let mut guard = AbortGuard {
        backend,
        armed: began,
    };
    let r = f();
    if began {
        guard.armed = false;
        backend.graph_end();
    }
    r
}

/// As [`in_graph`], in the keyed region `keyed` names when the backend has
/// keyed regions ([`EvalBackend::graph_keyed`]).
fn in_graph_keyed<'a>(
    backend: &dyn EvalBackend,
    keyed: Option<(RegionKey, RegionInputs)>,
    f: impl FnOnce() -> Result<BackendCt> + 'a,
) -> Result<BackendCt> {
    match keyed {
        Some((key, inputs)) => backend.graph_keyed(key, inputs, Box::new(f)),
        None => in_graph(backend, f),
    }
}

/// Device-side ModRaise (the gpu-sim backend's
/// [`mod_raise`](EvalBackend::mod_raise)): both components raised by
/// [`raise_to_top`].
pub(crate) fn raise_device(ct: &Ciphertext) -> Ciphertext {
    let c0 = raise_to_top(ct.c0());
    let c1 = raise_to_top(ct.c1());
    Ciphertext::from_parts(c0, c1, ct.scale(), ct.slots(), ct.noise_log2())
}

/// ModRaise: extends a level-0 polynomial to the full chain by centered
/// modulus switching of its coefficients (the raised plaintext becomes
/// `t = m + q_0·I`).
fn raise_to_top(poly: &RNSPoly) -> RNSPoly {
    assert_eq!(poly.format(), Domain::Eval);
    assert_eq!(poly.num_q(), 1, "ModRaise expects a level-0 polynomial");
    let ctx = Arc::clone(poly.context());
    let gpu = ctx.gpu();
    let n = ctx.n();
    let lb = kernels::limb_bytes(n);
    let target = ctx.max_level();
    let q0 = ctx.moduli_q()[0];
    let src = poly.limb(0).data.buffer();

    // Coefficient form of limb 0.
    let mut coeff0_set = PoolSet::<u64>::run(gpu, 1, n);
    let coeff0 = &mut coeff0_set[0];
    {
        let stream = ctx.stream_for_batch(0);
        gpu.launch(stream, KernelDesc::new(KernelKind::Fill), |d| {
            d.read(src, lb).write(coeff0.buffer(), lb);
        })
        .run(|| coeff0.copy_from_slice(poly.limb(0).data.as_slice()));
        for pass in 0..2u8 {
            let kind = if pass == 0 {
                KernelKind::InttPhase1
            } else {
                KernelKind::InttPhase2
            };
            let desc = KernelDesc::new(kind).ops(ctx.ntt_phase_ops_scaled());
            gpu.launch(stream, desc, |d| {
                d.read(coeff0.buffer(), lb).write(coeff0.buffer(), lb);
            })
            .run(|| {
                let t = ctx.ntt(ChainIdx::Q(0));
                if pass == 0 {
                    t.inverse_pass1(coeff0.as_mut_slice());
                } else {
                    t.inverse_pass2(coeff0.as_mut_slice());
                }
            });
        }
    }
    ctx.sync_batch_streams();

    let mut part = LimbPartition::with_capacity(gpu, target + 1);
    part.push_run(n, (0..target + 1).map(ChainIdx::Q));
    // Limb 0: the original evaluation-form data.
    {
        let stream = ctx.stream_for_batch(0);
        let dst = &mut part.limbs[0].data;
        gpu.launch(stream, KernelDesc::new(KernelKind::Fill), |d| {
            d.read(src, lb).write(dst.buffer(), lb);
        })
        .run(|| dst.copy_from_slice(poly.limb(0).data.as_slice()));
    }
    // Remaining limbs 1..=target: centered switch + NTT.
    for (k, range) in ctx.batch_ranges(target).enumerate() {
        let stream = ctx.stream_for_batch(k);
        let (first, len) = (range.start + 1, range.len());
        let fresh = &mut part.limbs[first..first + len];
        let sw = KernelDesc::new(KernelKind::SwitchModulus)
            .ops(kernels::switch_modulus_ops(n) * len as u64);
        gpu.launch(stream, sw, |d| {
            d.read(coeff0.buffer(), lb);
            for limb in fresh.iter() {
                d.write(limb.data.buffer(), lb);
            }
        })
        .run(|| {
            for limb in fresh.iter_mut() {
                let m = ctx.modulus(limb.chain);
                for (o, &v) in limb.data.as_mut_slice().iter_mut().zip(coeff0.as_slice()) {
                    *o = switch_modulus_centered(v, &q0, m);
                }
            }
        });
        let phase_ops = ctx.ntt_phase_ops_scaled() * len as u64;
        for pass in 0..2u8 {
            let kind = if pass == 0 {
                KernelKind::NttPhase1
            } else {
                KernelKind::NttPhase2
            };
            let desc = KernelDesc::new(kind).ops(phase_ops);
            gpu.launch(stream, desc, |d| {
                in_place(d, fresh.iter().map(|l| &l.data), lb)
            })
            .run(|| {
                for limb in fresh.iter_mut() {
                    let t = ctx.ntt(limb.chain);
                    if pass == 0 {
                        t.forward_pass1(limb.data.as_mut_slice());
                    } else {
                        t.forward_pass2(limb.data.as_mut_slice());
                    }
                }
            });
        }
    }
    ctx.sync_batch_streams();
    RNSPoly {
        ctx: Arc::clone(&ctx),
        part,
        num_q: target + 1,
        num_p: 0,
        format: Domain::Eval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rotation-key sets for the default configurations, as printed before
    /// the one-EvalMod path existed: sparse bootstrapping needs no new key.
    #[test]
    fn required_rotations_are_pinned() {
        let pins: [(usize, usize, &[i32]); 5] = [
            (2048, 8, &[1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512]),
            (2048, 16, &[1, 2, 3, 4, 8, 12, 16, 32, 64, 128, 256, 512]),
            (
                65536,
                64,
                &[
                    1, 2, 3, 4, 8, 16, 24, 32, 40, 48, 56, 60, 64, 128, 256, 512, 1024, 2048, 4096,
                    8192, 16384,
                ],
            ),
            (65536, 16384, &ROT_65536_16384),
            (65536, 32768, &ROT_65536_32768),
        ];
        for (n, slots, want) in pins {
            let got = required_rotations(n, &BootstrapConfig::for_slots(slots));
            assert_eq!(got, want, "N={n} slots={slots}");
        }
    }

    #[test]
    fn required_rotations_empty_below_two_slots() {
        for slots in [0, 1] {
            assert!(required_rotations(2048, &BootstrapConfig::for_slots(slots)).is_empty());
        }
    }

    const ROT_65536_16384: [i32; 135] = [
        1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
        240, 256, 272, 288, 304, 320, 336, 352, 368, 384, 400, 416, 432, 448, 464, 480, 496, 512,
        544, 576, 608, 640, 672, 704, 736, 768, 800, 832, 864, 896, 928, 960, 992, 1024, 1536,
        2048, 2560, 3072, 3584, 4096, 4608, 5120, 5632, 6144, 6656, 7168, 7680, 8192, 8704, 9216,
        9728, 10240, 10752, 11264, 11776, 12288, 12800, 13312, 13824, 14336, 14848, 15360, 15392,
        15424, 15456, 15488, 15520, 15552, 15584, 15616, 15648, 15680, 15712, 15744, 15776, 15808,
        15840, 15872, 15888, 15904, 15920, 15936, 15952, 15968, 15984, 16000, 16016, 16032, 16048,
        16064, 16080, 16096, 16112, 16128, 16144, 16160, 16176, 16192, 16208, 16224, 16240, 16256,
        16272, 16288, 16304, 16320, 16336, 16352, 16360, 16368, 16376, 16384,
    ];

    const ROT_65536_32768: [i32; 106] = [
        1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384,
        416, 448, 480, 512, 544, 576, 608, 640, 672, 704, 736, 768, 800, 832, 864, 896, 928, 960,
        992, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 9216, 10240, 11264, 12288, 13312,
        14336, 15360, 16384, 17408, 18432, 19456, 20480, 21504, 22528, 23552, 24576, 25600, 26624,
        27648, 28672, 29696, 30720, 31744, 31776, 31808, 31840, 31872, 31904, 31936, 31968, 32000,
        32032, 32064, 32096, 32128, 32160, 32192, 32224, 32256, 32288, 32320, 32352, 32384, 32416,
        32448, 32480, 32512, 32544, 32576, 32608, 32640, 32672, 32704, 32736, 32744, 32752, 32760,
    ];
}
