//! Pluggable execution substrates for server-side CKKS.
//!
//! The FIDESlib reproduction originally hard-wired every operation to the
//! simulated-GPU pipeline. The [`EvalBackend`] trait abstracts that
//! substrate so the same encrypted program can run on different engines:
//!
//! * [`GpuSimBackend`] — the paper-faithful path: kernels on the simulated
//!   device ([`fides_gpu_sim`]), with limb batching, stream parallelism,
//!   fusions and the timing ledger.
//! * [`CpuBackend`](crate::cpu_ref::CpuBackend) — a plain-CPU reference
//!   implementation of the identical RNS math, with no kernel or timing
//!   machinery. It exists to (a) cross-check the simulated pipeline
//!   result-for-result and (b) open the multi-backend door the roadmap asks
//!   for (a real CUDA backend would be a third implementation).
//!
//! Backends operate on [`BackendCt`] handles. The variants keep each
//! backend's native representation (device-resident [`Ciphertext`] vs. host
//! limb vectors) without forcing copies through a common format; data only
//! passes through the adapter's [`RawCiphertext`] form at the session
//! boundary (`load` / `store`).
//!
//! Backend methods mirror the raw layered API's semantics exactly — `mul`
//! relinearizes but does **not** rescale, scalar multiplication takes an
//! explicit constant scale, and level alignment is the caller's job. The
//! ergonomic policy layer (auto-rescale, auto-align, operator overloads)
//! lives above this trait in `fides-api`.

use std::fmt;

use fides_client::{RawCiphertext, RawPlaintext};

use crate::adapter;
use crate::boot::Bootstrapper;
use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::{CkksContext, RegionInputs, RegionKey};
use crate::cpu_ref::{HostCiphertext, HostPlaintext};
use crate::error::{FidesError, Result};
use crate::keys::EvalKeySet;
use std::sync::Arc;

/// A ciphertext held by some backend.
///
/// The enum keeps each backend's native representation; a handle created by
/// one backend must only be fed back to that backend (methods report
/// [`FidesError::Unsupported`] otherwise).
#[derive(Debug)]
pub enum BackendCt {
    /// Resident on the simulated GPU.
    Device(Ciphertext),
    /// Plain host limb vectors (CPU reference backend).
    Host(HostCiphertext),
}

impl BackendCt {
    /// Current level.
    pub fn level(&self) -> usize {
        match self {
            BackendCt::Device(ct) => ct.level(),
            BackendCt::Host(ct) => ct.level,
        }
    }

    /// Exact message scale.
    pub fn scale(&self) -> f64 {
        match self {
            BackendCt::Device(ct) => ct.scale(),
            BackendCt::Host(ct) => ct.scale,
        }
    }

    /// Packed slot count.
    pub fn slots(&self) -> usize {
        match self {
            BackendCt::Device(ct) => ct.slots(),
            BackendCt::Host(ct) => ct.slots,
        }
    }

    /// Static noise estimate (log2).
    pub fn noise_log2(&self) -> f64 {
        match self {
            BackendCt::Device(ct) => ct.noise_log2(),
            BackendCt::Host(ct) => ct.noise_log2,
        }
    }

    /// Deep copy.
    pub fn duplicate(&self) -> BackendCt {
        match self {
            BackendCt::Device(ct) => BackendCt::Device(ct.duplicate()),
            BackendCt::Host(ct) => BackendCt::Host(ct.clone()),
        }
    }

    /// Overrides the scale metadata (scale *reinterpretation* — changes the
    /// logical value, not the data; bootstrapping uses it around ModRaise).
    pub fn set_scale(&mut self, scale: f64) {
        assert!(scale > 0.0);
        match self {
            BackendCt::Device(ct) => ct.set_scale(scale),
            BackendCt::Host(ct) => ct.scale = scale,
        }
    }
}

/// An encoded plaintext preloaded into some backend's native evaluation-
/// domain representation (the operand of repeated `PtMult`s, e.g. the DFT
/// diagonals of the bootstrap linear transforms).
///
/// Like [`BackendCt`], a handle created by one backend must only be fed back
/// to that backend.
#[derive(Debug)]
pub enum BackendPt {
    /// Resident on the simulated GPU.
    Device(Plaintext),
    /// Plain host limb vectors (CPU reference backend).
    Host(HostPlaintext),
}

impl BackendPt {
    /// Chain index of the top active prime.
    pub fn level(&self) -> usize {
        match self {
            BackendPt::Device(pt) => pt.level(),
            BackendPt::Host(pt) => pt.level,
        }
    }

    /// Exact encoding scale.
    pub fn scale(&self) -> f64 {
        match self {
            BackendPt::Device(pt) => pt.scale(),
            BackendPt::Host(pt) => pt.scale,
        }
    }

    /// Packed slot count.
    pub fn slots(&self) -> usize {
        match self {
            BackendPt::Device(pt) => pt.slots(),
            BackendPt::Host(pt) => pt.slots,
        }
    }
}

/// An execution substrate for server-side CKKS operations.
///
/// Implementations must agree bit-for-bit on ciphertext data for the shared
/// operations (the engine's cross-backend tests enforce agreement to within
/// CKKS approximation error), but are free to differ in cost models,
/// residency, and optional capabilities (`bootstrap`, hoisting).
pub trait EvalBackend: fmt::Debug + Send + Sync {
    /// Short backend identifier (e.g. `"gpu-sim"`, `"cpu-reference"`).
    fn name(&self) -> &'static str;

    /// Maximum level `L` of the modulus chain.
    fn max_level(&self) -> usize;

    /// Fresh-encryption scale `Δ`.
    fn fresh_scale(&self) -> f64;

    /// The FLEXIBLEAUTO-style standard scale at `level`.
    fn standard_scale(&self, level: usize) -> f64;

    /// The scaling prime `q_level`.
    fn modulus_value(&self, level: usize) -> u64;

    /// Uploads a client ciphertext.
    fn load(&self, raw: &RawCiphertext) -> Result<BackendCt>;

    /// Downloads a ciphertext for client decryption.
    fn store(&self, ct: &BackendCt) -> Result<RawCiphertext>;

    /// HAdd.
    fn add(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt>;

    /// HSub.
    fn sub(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt>;

    /// Negation.
    fn negate(&self, a: &BackendCt) -> Result<BackendCt>;

    /// ScalarAdd (exact, no level consumed);
    /// [`FidesError::ScalarOutOfRange`] when `c·scale` rounds to 2¹²⁷ or
    /// more in magnitude.
    fn add_scalar(&self, a: &BackendCt, c: f64) -> Result<BackendCt>;

    /// PtAdd of a coefficient-domain encoded plaintext.
    fn add_plain(&self, a: &BackendCt, pt: &RawPlaintext) -> Result<BackendCt>;

    /// PtMult of a coefficient-domain encoded plaintext (not rescaled).
    fn mul_plain(&self, a: &BackendCt, pt: &RawPlaintext) -> Result<BackendCt>;

    /// HMult with relinearization (not rescaled).
    fn mul(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt>;

    /// HSquare with relinearization (not rescaled).
    fn square(&self, a: &BackendCt) -> Result<BackendCt>;

    /// ScalarMult with an explicit constant scale (not rescaled);
    /// [`FidesError::ScalarOutOfRange`] when `c·const_scale` rounds to 2¹²⁷
    /// or more in magnitude.
    fn mul_scalar_at(&self, a: &BackendCt, c: f64, const_scale: f64) -> Result<BackendCt>;

    /// Exact small-integer multiplication (no scale change).
    fn mul_int(&self, a: &BackendCt, k: i64) -> Result<BackendCt>;

    /// Rescale in place: drops the top prime, dividing the scale by it.
    fn rescale(&self, a: &mut BackendCt) -> Result<()>;

    /// LevelReduce in place (no rescaling).
    fn drop_to_level(&self, a: &mut BackendCt, level: usize) -> Result<()>;

    /// HRotate by `k` slots (left for positive `k`).
    fn rotate(&self, a: &BackendCt, k: i32) -> Result<BackendCt>;

    /// HConjugate.
    fn conjugate(&self, a: &BackendCt) -> Result<BackendCt>;

    /// Rotations by every shift in `shifts`. Backends with Halevi–Shoup
    /// hoisting share the ModUp across shifts; the default loops.
    ///
    /// Hoisting is bit-identical to per-shift rotation (the automorphism
    /// commutes with the digit decomposition), so implementations are free
    /// to choose either.
    fn hoisted_rotations(&self, a: &BackendCt, shifts: &[i32]) -> Result<Vec<BackendCt>> {
        shifts.iter().map(|&k| self.rotate(a, k)).collect()
    }

    /// Whether operations compute real ciphertext data (`false` for
    /// cost-only simulation, where only the kernel schedule is modelled).
    fn is_functional(&self) -> bool {
        true
    }

    /// Preloads a client-encoded (coefficient-domain) plaintext into the
    /// backend's native evaluation-domain form, for repeated
    /// [`EvalBackend::mul_plain_pre`] application.
    ///
    /// # Errors
    ///
    /// [`FidesError::DomainMismatch`] for evaluation-domain input,
    /// [`FidesError::LevelOutOfRange`] beyond the chain.
    fn load_plain(&self, raw: &RawPlaintext) -> Result<BackendPt>;

    /// Backend-native placeholder plaintext: correct shape and metadata, no
    /// data. Used by cost-only runs, where kernels are data-oblivious.
    ///
    /// # Errors
    ///
    /// [`FidesError::Unsupported`] on backends without a cost-only mode.
    fn placeholder_plain(&self, _level: usize, _scale: f64, _slots: usize) -> Result<BackendPt> {
        Err(FidesError::Unsupported(format!(
            "placeholder plaintexts on the {} backend",
            self.name()
        )))
    }

    /// PtMult of a preloaded plaintext (not rescaled). The plaintext must
    /// sit at the ciphertext's level.
    ///
    /// # Errors
    ///
    /// [`FidesError::LevelMismatch`], or a handle from another backend.
    fn mul_plain_pre(&self, a: &BackendCt, pt: &BackendPt) -> Result<BackendCt>;

    /// ModRaise: extends a level-0 ciphertext to the full chain by centered
    /// modulus switching of its coefficients, turning the plaintext into
    /// `t = m + q_0·I` (the entry step of bootstrapping).
    ///
    /// # Errors
    ///
    /// [`FidesError::LevelMismatch`] unless the input is at level 0.
    fn mod_raise(&self, a: &BackendCt) -> Result<BackendCt>;

    /// Exact multiplication by the imaginary unit (`PtMult` by the monomial
    /// `X^{N/2}`; no scale change, no level consumed).
    ///
    /// # Errors
    ///
    /// A handle from another backend.
    fn mul_by_i(&self, a: &BackendCt) -> Result<BackendCt>;

    /// Bootstrap: refresh an exhausted ciphertext. Optional capability.
    ///
    /// # Errors
    ///
    /// [`FidesError::Unsupported`] unless the backend was configured with
    /// bootstrapping material.
    fn bootstrap(&self, _a: &BackendCt) -> Result<BackendCt> {
        Err(FidesError::Unsupported(format!(
            "bootstrapping on the {} backend",
            self.name()
        )))
    }

    /// Minimum level of bootstrap output, when bootstrapping is available.
    fn min_bootstrap_level(&self) -> Option<usize> {
        None
    }

    /// Human-readable execution-device name, when the backend models one.
    fn device_name(&self) -> Option<String> {
        None
    }

    /// Simulated-device statistics, for backends with a timing ledger.
    fn sim_stats(&self) -> Option<fides_gpu_sim::SimStats> {
        None
    }

    /// Simulated-device makespan in µs (device-wide sync), when timed.
    fn sync_time_us(&self) -> Option<f64> {
        None
    }

    /// Opens a deferred-execution graph region: operations issued until
    /// [`EvalBackend::graph_end`] record into one kernel graph, so the
    /// scheduling pass can fuse and stream across op boundaries. Returns
    /// `false` for backends without graph execution (then `graph_end` must
    /// not be called).
    fn graph_begin(&self) -> bool {
        false
    }

    /// Closes a graph region opened by [`EvalBackend::graph_begin`],
    /// planning and executing the recorded graph.
    fn graph_end(&self) {}

    /// Closes a graph region discarding its recording (the unwind path).
    fn graph_abort(&self) {}

    /// Describes `inputs` for a keyed graph region
    /// ([`EvalBackend::graph_keyed`]); `None` on backends without keyed
    /// regions.
    fn region_inputs(&self, _inputs: &[&BackendCt]) -> Option<RegionInputs> {
        None
    }

    /// Runs `body` as one keyed graph region whose kernel schedule and
    /// output shape are a function of `key` and `inputs` alone (see
    /// [`CkksContext::scheduled_keyed`]), and returns the region's output:
    /// a cost-only repeat rebuilds it and replays its cached plan without
    /// calling `body`. Backends without keyed regions (whose
    /// [`EvalBackend::region_inputs`] is `None`) just run `body`.
    fn graph_keyed<'a>(
        &self,
        _key: RegionKey,
        _inputs: RegionInputs,
        body: Box<dyn FnOnce() -> Result<BackendCt> + 'a>,
    ) -> Result<BackendCt> {
        body()
    }

    /// Scheduling-pass counters, for backends running the graph engine.
    fn sched_stats(&self) -> Option<crate::sched::SchedStats> {
        None
    }
}

/// The paper-faithful backend: every operation runs as kernels on the
/// simulated GPU through the raw layered API.
#[derive(Debug)]
pub struct GpuSimBackend {
    ctx: Arc<CkksContext>,
    keys: EvalKeySet,
    boot: Option<Bootstrapper>,
}

impl GpuSimBackend {
    /// Wraps a server context and its loaded evaluation keys.
    pub fn new(ctx: Arc<CkksContext>, keys: EvalKeySet) -> Self {
        Self {
            ctx,
            keys,
            boot: None,
        }
    }

    /// Attaches precomputed bootstrapping material.
    pub fn with_bootstrapper(mut self, boot: Bootstrapper) -> Self {
        self.boot = Some(boot);
        self
    }

    /// The underlying server context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The loaded evaluation keys.
    pub fn keys(&self) -> &EvalKeySet {
        &self.keys
    }

    fn device<'a>(&self, ct: &'a BackendCt) -> Result<&'a Ciphertext> {
        match ct {
            BackendCt::Device(c) => Ok(c),
            BackendCt::Host(_) => Err(host_handle()),
        }
    }

    fn device_mut<'a>(&self, ct: &'a mut BackendCt) -> Result<&'a mut Ciphertext> {
        match ct {
            BackendCt::Device(c) => Ok(c),
            BackendCt::Host(_) => Err(host_handle()),
        }
    }
}

impl EvalBackend for GpuSimBackend {
    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    fn max_level(&self) -> usize {
        self.ctx.max_level()
    }

    fn fresh_scale(&self) -> f64 {
        self.ctx.fresh_scale()
    }

    fn standard_scale(&self, level: usize) -> f64 {
        self.ctx.standard_scale(level)
    }

    fn modulus_value(&self, level: usize) -> u64 {
        self.ctx.moduli_q()[level].value()
    }

    fn load(&self, raw: &RawCiphertext) -> Result<BackendCt> {
        Ok(BackendCt::Device(adapter::load_ciphertext(&self.ctx, raw)?))
    }

    fn store(&self, ct: &BackendCt) -> Result<RawCiphertext> {
        Ok(adapter::store_ciphertext(self.device(ct)?))
    }

    fn add(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.add(self.device(b)?)?))
    }

    fn sub(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.sub(self.device(b)?)?))
    }

    fn negate(&self, a: &BackendCt) -> Result<BackendCt> {
        let mut out = self.device(a)?.duplicate();
        out.negate_assign();
        Ok(BackendCt::Device(out))
    }

    fn add_scalar(&self, a: &BackendCt, c: f64) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.add_scalar(c)?))
    }

    fn add_plain(&self, a: &BackendCt, pt: &RawPlaintext) -> Result<BackendCt> {
        let dev_pt = adapter::load_plaintext(&self.ctx, pt)?;
        Ok(BackendCt::Device(self.device(a)?.add_plain(&dev_pt)?))
    }

    fn mul_plain(&self, a: &BackendCt, pt: &RawPlaintext) -> Result<BackendCt> {
        let dev_pt = adapter::load_plaintext(&self.ctx, pt)?;
        Ok(BackendCt::Device(self.device(a)?.mul_plain(&dev_pt)?))
    }

    fn mul(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt> {
        Ok(BackendCt::Device(
            self.device(a)?.mul(self.device(b)?, &self.keys)?,
        ))
    }

    fn square(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.square(&self.keys)?))
    }

    fn mul_scalar_at(&self, a: &BackendCt, c: f64, const_scale: f64) -> Result<BackendCt> {
        Ok(BackendCt::Device(
            self.device(a)?.mul_scalar_at(c, const_scale)?,
        ))
    }

    fn mul_int(&self, a: &BackendCt, k: i64) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.mul_int(k)))
    }

    fn rescale(&self, a: &mut BackendCt) -> Result<()> {
        self.device_mut(a)?.rescale_in_place()
    }

    fn drop_to_level(&self, a: &mut BackendCt, level: usize) -> Result<()> {
        self.device_mut(a)?.drop_to_level(level)
    }

    fn rotate(&self, a: &BackendCt, k: i32) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.rotate(k, &self.keys)?))
    }

    fn conjugate(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.conjugate(&self.keys)?))
    }

    fn hoisted_rotations(&self, a: &BackendCt, shifts: &[i32]) -> Result<Vec<BackendCt>> {
        Ok(self
            .device(a)?
            .hoisted_rotations(shifts, &self.keys)?
            .into_iter()
            .map(BackendCt::Device)
            .collect())
    }

    fn is_functional(&self) -> bool {
        self.ctx.gpu().is_functional()
    }

    fn load_plain(&self, raw: &RawPlaintext) -> Result<BackendPt> {
        Ok(BackendPt::Device(adapter::load_plaintext(&self.ctx, raw)?))
    }

    fn placeholder_plain(&self, level: usize, scale: f64, slots: usize) -> Result<BackendPt> {
        Ok(BackendPt::Device(adapter::placeholder_plaintext(
            &self.ctx, level, scale, slots,
        )))
    }

    fn mul_plain_pre(&self, a: &BackendCt, pt: &BackendPt) -> Result<BackendCt> {
        let pt = match pt {
            BackendPt::Device(p) => p,
            BackendPt::Host(_) => {
                return Err(FidesError::Unsupported(
                    "host plaintext handed to the gpu-sim backend".into(),
                ))
            }
        };
        Ok(BackendCt::Device(self.device(a)?.mul_plain(pt)?))
    }

    fn mod_raise(&self, a: &BackendCt) -> Result<BackendCt> {
        let ct = self.device(a)?;
        if ct.level() != 0 {
            return Err(FidesError::LevelMismatch {
                left: ct.level(),
                right: 0,
            });
        }
        Ok(BackendCt::Device(crate::boot::raise_device(ct)))
    }

    fn mul_by_i(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(BackendCt::Device(self.device(a)?.mul_by_i()))
    }

    fn bootstrap(&self, a: &BackendCt) -> Result<BackendCt> {
        let boot = self.boot.as_ref().ok_or_else(|| {
            FidesError::Unsupported(
                "bootstrapping: engine was built without .bootstrap_slots(..)".into(),
            )
        })?;
        boot.bootstrap(self, a)
    }

    fn min_bootstrap_level(&self) -> Option<usize> {
        self.boot.as_ref().map(|b| b.min_output_level())
    }

    fn device_name(&self) -> Option<String> {
        Some(self.ctx.gpu().spec().name.to_string())
    }

    fn sim_stats(&self) -> Option<fides_gpu_sim::SimStats> {
        Some(self.ctx.gpu().stats())
    }

    fn sync_time_us(&self) -> Option<f64> {
        Some(self.ctx.gpu().sync())
    }

    fn graph_begin(&self) -> bool {
        self.ctx.graph_scope_begin();
        true
    }

    fn graph_end(&self) {
        self.ctx.graph_scope_end();
    }

    fn graph_abort(&self) {
        self.ctx.graph_scope_abort();
    }

    fn region_inputs(&self, inputs: &[&BackendCt]) -> Option<RegionInputs> {
        let cts: Vec<&Ciphertext> = inputs
            .iter()
            .map(|ct| self.device(ct).ok())
            .collect::<Option<_>>()?;
        Some(RegionInputs::new(&cts))
    }

    fn graph_keyed<'a>(
        &self,
        key: RegionKey,
        inputs: RegionInputs,
        body: Box<dyn FnOnce() -> Result<BackendCt> + 'a>,
    ) -> Result<BackendCt> {
        let out = self.ctx.scheduled_keyed(key, inputs, || match body()? {
            BackendCt::Device(ct) => Ok(ct),
            BackendCt::Host(_) => Err(host_handle()),
        })?;
        Ok(BackendCt::Device(out))
    }

    fn sched_stats(&self) -> Option<crate::sched::SchedStats> {
        Some(self.ctx.sched_stats())
    }
}

/// The gpu-sim backend's error for a CPU backend's ciphertext.
fn host_handle() -> FidesError {
    FidesError::Unsupported("host ciphertext handed to the gpu-sim backend".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParameters;
    use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};

    fn backend() -> GpuSimBackend {
        let ctx = CkksContext::new(
            CkksParameters::toy(),
            GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly),
        );
        GpuSimBackend::new(ctx, EvalKeySet::new())
    }

    #[test]
    fn metadata_passthrough() {
        let b = backend();
        assert_eq!(b.name(), "gpu-sim");
        assert_eq!(b.max_level(), 4);
        assert_eq!(b.fresh_scale(), 2f64.powi(40));
        assert!(b.sim_stats().is_some());
        assert!(b.min_bootstrap_level().is_none());
    }

    #[test]
    fn bootstrap_without_material_is_typed_error() {
        let b = backend();
        let ct = BackendCt::Device(Ciphertext::zero(b.context(), 0, 1.0, 8));
        assert!(matches!(b.bootstrap(&ct), Err(FidesError::Unsupported(_))));
    }

    #[test]
    fn host_handle_rejected() {
        let b = backend();
        let host = BackendCt::Host(crate::cpu_ref::HostCiphertext {
            c0: vec![],
            c1: vec![],
            level: 0,
            scale: 1.0,
            slots: 1,
            noise_log2: 0.0,
        });
        assert!(matches!(b.store(&host), Err(FidesError::Unsupported(_))));
    }
}
