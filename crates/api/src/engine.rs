//! The engine: builder, session state, encrypt/decrypt.

use std::sync::{Arc, Mutex};

use fides_client::{ClientContext, KeyGenerator, RawPublicKey, SecretKey};
use fides_core::backend::{EvalBackend, GpuSimBackend};
use fides_core::cpu_ref::CpuBackend;
use fides_core::{
    adapter, BootstrapConfig, Bootstrapper, CkksContext, CkksParameters, FidesError, FusionConfig,
    Result,
};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim, SimStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ct::Ct;

/// Which execution substrate the engine builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// The paper-faithful simulated-GPU pipeline (kernels, streams, timing).
    #[default]
    GpuSim,
    /// The plain-CPU reference implementation of the same math.
    Cpu,
}

/// The engine's key material in client (wire) form, retained so sessions
/// can be exported to a serving endpoint (see [`Session`](crate::Session)).
pub(crate) struct RawEvalKeys {
    pub(crate) relin: Option<fides_client::RawSwitchingKey>,
    pub(crate) rotations: Vec<(i32, fides_client::RawSwitchingKey)>,
    pub(crate) conj: Option<fides_client::RawSwitchingKey>,
}

/// Everything one encrypted session owns. [`Ct`] handles share it by `Arc`,
/// so ciphertexts can be combined with plain operators without threading an
/// engine reference around.
pub(crate) struct EngineInner {
    pub(crate) client: ClientContext,
    pub(crate) sk: SecretKey,
    pub(crate) pk: RawPublicKey,
    pub(crate) backend: Box<dyn EvalBackend>,
    pub(crate) rng: Mutex<StdRng>,
    pub(crate) raw_keys: RawEvalKeys,
}

impl EngineInner {
    /// Validates slot capacity and pads `values` to the engine's canonical
    /// packing — the next power of two — before encoding. This is the
    /// **single** padding policy shared by encryption, plaintext
    /// preloading and the wire session layer, so slot packings always
    /// match across the engine and serving paths (CKKS packing makes the
    /// slot count part of the encoding; mismatched packings would decode
    /// to garbage, not errors).
    pub(crate) fn encode_padded_real(
        &self,
        values: &[f64],
        scale: f64,
        level: usize,
    ) -> Result<fides_client::RawPlaintext> {
        let max_slots = self.client.n() / 2;
        if values.len() > max_slots {
            return Err(FidesError::Client(format!(
                "operand has {} values but the ring packs {max_slots} slots",
                values.len()
            )));
        }
        let mut padded = values.to_vec();
        padded.resize(values.len().next_power_of_two().max(1), 0.0);
        Ok(self.client.encode_real(&padded, scale, level)?)
    }
}

// Manual impl: the derived form would dump the secret key (and megabytes of
// key material) into any `{:?}` log line.
impl std::fmt::Debug for EngineInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineInner")
            .field("backend", &self.backend.name())
            .field("max_level", &self.backend.max_level())
            .field("n", &self.client.n())
            .field("sk", &"<redacted>")
            .finish_non_exhaustive()
    }
}

/// A complete CKKS session: parameters, simulator, server context, client
/// context, and evaluation keys, constructed in one validated step.
///
/// Cloning is cheap (the session state is shared).
#[derive(Clone, Debug)]
pub struct CkksEngine {
    pub(crate) inner: Arc<EngineInner>,
}

/// Builder for [`CkksEngine`] — see [`CkksEngine::builder`].
#[derive(Clone, Debug)]
pub struct CkksEngineBuilder {
    log_n: usize,
    levels: usize,
    scale_bits: u32,
    first_mod_bits: u32,
    dnum: Option<usize>,
    limb_batch: Option<usize>,
    fusion: Option<FusionConfig>,
    num_streams: Option<usize>,
    num_devices: Option<usize>,
    workers: Option<usize>,
    device: DeviceSpec,
    exec_mode: ExecMode,
    seed: u64,
    backend: BackendChoice,
    rotations: Vec<i32>,
    conjugation: bool,
    bootstrap: Option<BootstrapConfig>,
}

impl CkksEngine {
    /// Starts a builder with the library defaults:
    /// `[log N, L, Δ] = [12, 6, 2^40]`, simulated RTX 4090, functional
    /// execution, the GPU-sim backend, and no rotation keys.
    ///
    /// ```
    /// use fides_api::CkksEngine;
    ///
    /// let engine = CkksEngine::builder()
    ///     .log_n(10)
    ///     .levels(4)
    ///     .scale_bits(40)
    ///     .rotations(&[1])
    ///     .seed(1)
    ///     .build()?;
    /// let x = engine.encrypt(&[1.0, 2.0, 3.0, 4.0])?;
    /// let shifted = x.rotate(1)?;
    /// assert!((engine.decrypt(&shifted)?[0] - 2.0).abs() < 1e-4);
    /// # Ok::<(), fides_api::FidesError>(())
    /// ```
    pub fn builder() -> CkksEngineBuilder {
        CkksEngineBuilder {
            log_n: 12,
            levels: 6,
            scale_bits: 40,
            first_mod_bits: 60,
            dnum: None,
            limb_batch: None,
            fusion: None,
            num_streams: None,
            num_devices: None,
            workers: None,
            device: DeviceSpec::rtx_4090(),
            exec_mode: ExecMode::Functional,
            seed: 0,
            backend: BackendChoice::GpuSim,
            rotations: Vec::new(),
            conjugation: false,
            bootstrap: None,
        }
    }

    /// Encrypts real values into a session ciphertext at the top level.
    ///
    /// The slot count is padded up to the next power of two; [`decrypt`]
    /// returns exactly `values.len()` entries.
    ///
    /// # Errors
    ///
    /// [`FidesError::Client`] when the (padded) value count exceeds the
    /// ring's `N/2` slot capacity.
    ///
    /// [`decrypt`]: CkksEngine::decrypt
    pub fn encrypt(&self, values: &[f64]) -> Result<Ct> {
        self.encrypt_at(values, self.max_level())
    }

    /// Encrypts real values at an explicit `level` of the chain.
    ///
    /// # Errors
    ///
    /// As [`CkksEngine::encrypt`], plus [`FidesError::LevelOutOfRange`].
    pub fn encrypt_at(&self, values: &[f64], level: usize) -> Result<Ct> {
        if level > self.max_level() {
            return Err(FidesError::LevelOutOfRange {
                level,
                max: self.max_level(),
            });
        }
        let scale = self.inner.backend.standard_scale(level);
        let pt = self.inner.encode_padded_real(values, scale, level)?;
        let raw = {
            let mut rng = self.inner.rng.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.client.encrypt(&pt, &self.inner.pk, &mut *rng)?
        };
        let ct = self.inner.backend.load(&raw)?;
        Ok(Ct {
            inner: Arc::clone(&self.inner),
            ct,
            len: values.len(),
        })
    }

    /// Decrypts a session ciphertext, returning as many values as were
    /// encrypted into it.
    ///
    /// # Errors
    ///
    /// Backend `store` failures (e.g. a handle from another session).
    pub fn decrypt(&self, ct: &Ct) -> Result<Vec<f64>> {
        let raw = self.inner.backend.store(&ct.ct)?;
        let pt = self.inner.client.decrypt(&raw, &self.inner.sk)?;
        let mut out = self.inner.client.decode_real(&pt)?;
        out.truncate(ct.len);
        Ok(out)
    }

    /// The active backend.
    pub fn backend(&self) -> &dyn EvalBackend {
        self.inner.backend.as_ref()
    }

    /// Short name of the active backend (`"gpu-sim"`, `"cpu-reference"`).
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// Maximum level `L` of the modulus chain.
    pub fn max_level(&self) -> usize {
        self.inner.backend.max_level()
    }

    /// Slot capacity `N/2`.
    pub fn max_slots(&self) -> usize {
        self.inner.client.n() / 2
    }

    /// Minimum level a bootstrapped ciphertext comes back at, when the
    /// session was built with bootstrapping.
    pub fn min_bootstrap_level(&self) -> Option<usize> {
        self.inner.backend.min_bootstrap_level()
    }

    /// Bootstrap: refreshes an exhausted ciphertext back to computing depth
    /// (ModRaise → CoeffToSlot → ApproxModEval → SlotToCoeff). The session
    /// must have been built with [`bootstrap_slots`] (or
    /// [`bootstrap_config`]); both backends support it and agree bit for
    /// bit.
    ///
    /// ```
    /// use fides_api::{BackendChoice, CkksEngine};
    ///
    /// let engine = CkksEngine::builder()
    ///     .log_n(10)
    ///     .levels(18)
    ///     .scale_bits(50)
    ///     .first_mod_bits(55)
    ///     .dnum(3)
    ///     .backend(BackendChoice::Cpu)
    ///     .bootstrap_slots(4)
    ///     .seed(7)
    ///     .build()?;
    /// let values = [0.25, -0.125, 0.0625, 0.2];
    /// // Encrypt at the *bottom* of the chain: no multiplications left...
    /// let exhausted = engine.encrypt_at(&values, 0)?;
    /// // ...bootstrap back to computing depth and keep going.
    /// let refreshed = engine.bootstrap(&exhausted)?;
    /// assert!(refreshed.level() >= engine.min_bootstrap_level().unwrap());
    /// let squared = refreshed.try_square()?;
    /// let got = engine.decrypt(&squared)?;
    /// assert!((got[0] - 0.0625).abs() < 1e-3);
    /// # Ok::<(), fides_api::FidesError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`FidesError::Unsupported`] when the session has no bootstrapping
    /// material, [`FidesError::MissingKey`] for missing rotation keys.
    ///
    /// [`bootstrap_slots`]: CkksEngineBuilder::bootstrap_slots
    /// [`bootstrap_config`]: CkksEngineBuilder::bootstrap_config
    pub fn bootstrap(&self, ct: &Ct) -> Result<Ct> {
        ct.bootstrap()
    }

    /// Simulated-device name, when the backend models a device.
    pub fn device_name(&self) -> Option<String> {
        self.inner.backend.device_name()
    }

    /// Snapshot of the simulated-device statistics ledger, when timed.
    pub fn sim_stats(&self) -> Option<SimStats> {
        self.inner.backend.sim_stats()
    }

    /// Simulated-device makespan in µs (device-wide sync), when timed.
    /// The standard timing idiom is two calls around the measured section.
    pub fn sync_time_us(&self) -> Option<f64> {
        self.inner.backend.sync_time_us()
    }

    /// Scheduling-pass counters (graphs planned, kernels fused), when the
    /// backend runs the stream-graph engine.
    pub fn sched_stats(&self) -> Option<fides_core::SchedStats> {
        self.inner.backend.sched_stats()
    }

    /// Runs `f` as **one deferred-execution graph**: every operation inside
    /// records into a single kernel graph, so the scheduling pass fuses and
    /// interleaves across op boundaries before replaying onto the stream
    /// timeline. On backends without graph execution (CPU reference) `f`
    /// simply runs.
    ///
    /// # Errors
    ///
    /// Whatever `f` reports; the recorded graph is still executed (the work
    /// already happened).
    pub fn eval_scope<R>(&self, f: impl FnOnce() -> Result<R>) -> Result<R> {
        let began = self.inner.backend.graph_begin();
        // A panicking closure must not leak the open region: close it
        // discarding the recording on unwind.
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
            backend: self.inner.backend.as_ref(),
            armed: began,
        };
        let r = f();
        if began {
            guard.armed = false;
            self.inner.backend.graph_end();
        }
        r
    }

    /// Evaluates `op` over a batch of ciphertexts inside a single graph:
    /// the per-ciphertext kernel schedules interleave round-robin across
    /// the device streams instead of serializing op by op — the batching
    /// the ROADMAP's heavy-traffic serving story needs.
    ///
    /// # Errors
    ///
    /// The first error `op` reports (remaining items are skipped).
    pub fn eval_batch(&self, cts: &[Ct], op: impl Fn(&Ct) -> Result<Ct>) -> Result<Vec<Ct>> {
        self.eval_scope(|| cts.iter().map(&op).collect())
    }

    /// Evaluates a request-program circuit (the serving layer's
    /// [`OpProgram`](fides_client::wire::OpProgram) register machine) over
    /// session ciphertexts, inside one evaluation graph.
    ///
    /// This is the single-tenant twin of the multi-tenant server's request
    /// path: both call [`fides_core::exec_program`] under the identical
    /// standard-ladder policy, so results are bit-identical to the same
    /// request served by `fides-serve`.
    ///
    /// `plains` are preloaded plaintext operands for the program's
    /// `MulPlain` ops (see [`CkksEngine::preload_plain`]).
    ///
    /// # Errors
    ///
    /// [`FidesError::Client`] for structurally invalid programs; the usual
    /// evaluation errors (missing keys, exhausted levels) otherwise.
    pub fn eval_program(
        &self,
        inputs: &[Ct],
        plains: &[fides_core::BackendPt],
        program: &fides_client::wire::OpProgram,
    ) -> Result<Vec<Ct>> {
        let len = inputs.iter().map(|ct| ct.len()).max().unwrap_or(0);
        let backend_inputs: Vec<_> = inputs
            .iter()
            .map(|ct| ct.backend_ct().duplicate())
            .collect();
        let outs = self.eval_scope(|| {
            fides_core::exec_program(self.inner.backend.as_ref(), backend_inputs, plains, program)
        })?;
        Ok(outs
            .into_iter()
            .map(|ct| Ct {
                inner: Arc::clone(&self.inner),
                ct,
                len,
            })
            .collect())
    }

    /// Encodes `values` at the ladder-exact constant scale for `level` and
    /// preloads them into the backend's evaluation-domain plaintext cache —
    /// the operand form a program's `MulPlain` consumes (multiply, rescale,
    /// land exactly back on the standard-scale ladder).
    ///
    /// Values are zero-padded to the next power of two — the same packing
    /// [`CkksEngine::encrypt`] applies — so the operand matches ciphertexts
    /// that encrypted the same value count (CKKS packing makes the slot
    /// count part of the encoding).
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] at level 0 (a `MulPlain` there could
    /// never rescale), [`FidesError::Client`] when `values` exceed the slot
    /// capacity.
    pub fn preload_plain(&self, values: &[f64], level: usize) -> Result<fides_core::BackendPt> {
        let backend = self.inner.backend.as_ref();
        let scale = fides_core::const_scale_for(backend, level)?;
        let raw = self.inner.encode_padded_real(values, scale, level)?;
        backend.load_plain(&raw)
    }

    /// The client half of this engine as a serving-layer tenant: a handle
    /// that exports the session's evaluation keys as a
    /// [`SessionRequest`](fides_client::wire::SessionRequest), encrypts
    /// request inputs, and decrypts responses — everything a thin client
    /// needs to talk to a `fides-serve` endpoint.
    pub fn session(&self) -> crate::Session {
        crate::Session::new(self.clone())
    }
}

impl CkksEngineBuilder {
    /// log2 of the ring degree `N`.
    pub fn log_n(mut self, log_n: usize) -> Self {
        self.log_n = log_n;
        self
    }

    /// Multiplicative depth (number of scaling primes).
    pub fn levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    /// log2 of the encoding scale `Δ`.
    pub fn scale_bits(mut self, scale_bits: u32) -> Self {
        self.scale_bits = scale_bits;
        self
    }

    /// Bits of the first (decryption) modulus and the auxiliary primes.
    pub fn first_mod_bits(mut self, bits: u32) -> Self {
        self.first_mod_bits = bits;
        self
    }

    /// Key-switching digit count (default: `min(3, L + 1)`).
    pub fn dnum(mut self, dnum: usize) -> Self {
        self.dnum = Some(dnum);
        self
    }

    /// Limbs per kernel launch (GPU-sim backend; §III-F.1).
    pub fn limb_batch(mut self, batch: usize) -> Self {
        self.limb_batch = Some(batch);
        self
    }

    /// Kernel fusion toggles (GPU-sim backend; §III-F.5). The
    /// `elementwise` flag controls the graph-level fusion pass.
    pub fn fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = Some(fusion);
        self
    }

    /// Stream count limb batches cycle over (GPU-sim backend; default 16).
    pub fn num_streams(mut self, streams: usize) -> Self {
        self.num_streams = Some(streams);
        self
    }

    /// Simulated device count (default 1). The engine itself always
    /// evaluates on one device; the knob flows into the parameter set,
    /// where the serving layer shards tenants across that many device
    /// workers and the plan cache keys on the topology.
    pub fn num_devices(mut self, devices: usize) -> Self {
        self.num_devices = Some(devices);
        self
    }

    /// Worker threads for limb-parallel execution (CPU backend; default:
    /// `FIDES_WORKERS` or the machine's parallelism). Results are
    /// bit-identical at every worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The simulated device model (GPU-sim backend).
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Functional (math runs) or cost-only (timing-only) execution
    /// (GPU-sim backend).
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Seed for key generation and encryption randomness. Sessions with the
    /// same seed and parameters are fully reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Declares slot shifts the session will rotate by (keys are generated
    /// at build time; rotating by an undeclared shift reports
    /// [`FidesError::MissingKey`]).
    pub fn rotations(mut self, shifts: &[i32]) -> Self {
        self.rotations.extend_from_slice(shifts);
        self
    }

    /// Generates the conjugation key.
    pub fn conjugation(mut self) -> Self {
        self.conjugation = true;
        self
    }

    /// Prepares bootstrapping for ciphertexts of `slots` slots: generates
    /// the Chebyshev/DFT material and every rotation key the pipeline
    /// needs. Works on both backends — refreshed ciphertexts are
    /// bit-identical across them.
    pub fn bootstrap_slots(self, slots: usize) -> Self {
        self.bootstrap_config(BootstrapConfig::for_slots(slots))
    }

    /// Prepares bootstrapping with an explicit configuration (transform
    /// budgets, approximation degree). Works on both backends.
    pub fn bootstrap_config(mut self, config: BootstrapConfig) -> Self {
        self.bootstrap = Some(config);
        self
    }

    /// Builds the session: validates parameters, generates the prime
    /// chains, constructs the simulator and server context (GPU-sim), runs
    /// key generation, and uploads every evaluation key.
    ///
    /// # Errors
    ///
    /// [`FidesError::InvalidParams`] for inconsistent parameters,
    /// [`FidesError::Unsupported`] for capability mismatches (e.g.
    /// bootstrapping on the CPU backend).
    pub fn build(self) -> Result<CkksEngine> {
        let dnum = self.dnum.unwrap_or_else(|| 3.min(self.levels + 1));
        if self.scale_bits >= self.first_mod_bits {
            return Err(FidesError::InvalidParams(
                "scale must be smaller than the first modulus".into(),
            ));
        }
        // `CkksParameters::new` validates against its default first-modulus
        // size, so re-check the cap the override must respect here.
        if self.first_mod_bits > 60 {
            return Err(FidesError::InvalidParams(
                "first modulus limited to 60 bits".into(),
            ));
        }
        let mut params = CkksParameters::new(self.log_n, self.levels, self.scale_bits, dnum)?
            .with_first_mod_bits(self.first_mod_bits);
        if let Some(batch) = self.limb_batch {
            params = params.with_limb_batch(batch);
        }
        if let Some(fusion) = self.fusion {
            params = params.with_fusion(fusion);
        }
        if let Some(streams) = self.num_streams {
            params = params.with_num_streams(streams);
        }
        if let Some(devices) = self.num_devices {
            params = params.with_num_devices(devices);
        }
        let raw = params.to_raw();
        let client = ClientContext::new(raw.clone());
        let mut kg = KeyGenerator::new(&client, self.seed);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        let relin = kg.relinearization_key(&sk);

        // Bootstrapping needs its circuit's rotation keys (computed from the
        // transform structure alone) and the conjugation key on either
        // backend; the heavyweight precomputation happens after the backend
        // exists, so the encoded diagonals land in its native form.
        let mut shifts = self.rotations.clone();
        if let Some(config) = &self.bootstrap {
            shifts.extend(fides_core::boot::required_rotations(raw.n(), config));
        }
        let rot_keys = dedup_rotation_keys(&mut kg, &sk, &shifts);
        let conj = (self.conjugation || self.bootstrap.is_some()).then(|| kg.conjugation_key(&sk));

        let backend: Box<dyn EvalBackend> = match self.backend {
            BackendChoice::GpuSim => {
                let gpu = GpuSim::new(self.device, self.exec_mode);
                let ctx = CkksContext::from_raw(params, raw, gpu);
                let keys = adapter::load_eval_keys(&ctx, Some(&relin), &rot_keys, conj.as_ref())?;
                let mut backend = GpuSimBackend::new(ctx, keys);
                if let Some(config) = self.bootstrap {
                    let boot = Bootstrapper::new(&backend, &client, config)?;
                    backend = backend.with_bootstrapper(boot);
                }
                Box::new(backend)
            }
            BackendChoice::Cpu => {
                let mut backend = CpuBackend::new(raw);
                if let Some(workers) = self.workers {
                    backend = backend.with_workers(workers);
                }
                backend.set_relin_key(relin.clone());
                for (shift, key) in &rot_keys {
                    backend.insert_rotation_key(*shift, key.clone());
                }
                if let Some(conj) = &conj {
                    backend.set_conj_key(conj.clone());
                }
                if let Some(config) = self.bootstrap {
                    let boot = Bootstrapper::new(&backend, &client, config)?;
                    backend.set_bootstrapper(boot);
                }
                Box::new(backend)
            }
        };

        // Encryption randomness is derived from (but distinct from) the key
        // generation seed, so sessions are reproducible end to end.
        let rng = Mutex::new(StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15));
        Ok(CkksEngine {
            inner: Arc::new(EngineInner {
                client,
                sk,
                pk,
                backend,
                rng,
                raw_keys: RawEvalKeys {
                    relin: Some(relin),
                    rotations: rot_keys,
                    conj,
                },
            }),
        })
    }
}

fn dedup_rotation_keys(
    kg: &mut KeyGenerator<'_>,
    sk: &SecretKey,
    shifts: &[i32],
) -> Vec<(i32, fides_client::RawSwitchingKey)> {
    let mut seen = std::collections::BTreeSet::new();
    shifts
        .iter()
        .filter(|&&k| k != 0 && seen.insert(k))
        .map(|&k| (k, kg.rotation_key(sk, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_parameters() {
        assert!(matches!(
            CkksEngine::builder().log_n(3).build(),
            Err(FidesError::InvalidParams(_))
        ));
        assert!(matches!(
            CkksEngine::builder().levels(0).build(),
            Err(FidesError::InvalidParams(_))
        ));
        assert!(matches!(
            CkksEngine::builder().scale_bits(60).build(),
            Err(FidesError::InvalidParams(_))
        ));
    }

    #[test]
    fn bootstrap_rejects_shallow_chains_on_both_backends() {
        // 3 levels cannot host the transform + ApproxModEval budget; the
        // builder surfaces the validation error instead of panicking later.
        for backend in [BackendChoice::GpuSim, BackendChoice::Cpu] {
            let r = CkksEngine::builder()
                .log_n(10)
                .levels(3)
                .backend(backend)
                .bootstrap_slots(8)
                .build();
            assert!(matches!(r, Err(FidesError::InvalidParams(_))));
        }
    }

    #[test]
    fn bootstrap_rejects_fewer_than_two_slots_on_both_backends() {
        // One slot has no transform stage; the builder must return the typed
        // error rather than panic while sizing the CoeffToSlot stages.
        for backend in [BackendChoice::GpuSim, BackendChoice::Cpu] {
            let r = CkksEngine::builder()
                .log_n(10)
                .levels(20)
                .backend(backend)
                .bootstrap_slots(1)
                .build();
            assert!(matches!(r, Err(FidesError::InvalidParams(_))));
        }
    }

    #[test]
    fn eval_batch_runs_one_graph_across_ops() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .num_streams(8)
            .seed(3)
            .build()
            .unwrap();
        let cts: Vec<_> = (0..4)
            .map(|i| e.encrypt(&[i as f64, 0.5]).unwrap())
            .collect();
        let before = e.sched_stats().unwrap().graphs;
        let doubled = e.eval_batch(&cts, |ct| ct.try_mul_int(2)).unwrap();
        let after = e.sched_stats().unwrap().graphs;
        assert_eq!(after - before, 1, "whole batch = one planned graph");
        for (i, ct) in doubled.iter().enumerate() {
            let got = e.decrypt(ct).unwrap();
            assert!((got[0] - 2.0 * i as f64).abs() < 1e-4);
        }
        // eval_scope passes errors through but still closes the graph.
        let err =
            e.eval_scope(|| -> Result<()> { Err(FidesError::Unsupported("synthetic".into())) });
        assert!(matches!(err, Err(FidesError::Unsupported(_))));
        let x = e.encrypt(&[1.0]).unwrap();
        assert!(e.decrypt(&x).is_ok(), "engine still usable after error");
    }

    #[test]
    fn workers_knob_reaches_cpu_backend() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(2)
            .backend(BackendChoice::Cpu)
            .workers(2)
            .seed(4)
            .build()
            .unwrap();
        assert!(e.sched_stats().is_none(), "no graph engine on the CPU path");
        let x = e.encrypt(&[0.25]).unwrap();
        let y = x.try_add(&x).unwrap();
        assert!((e.decrypt(&y).unwrap()[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn engine_exposes_session_metadata() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(e.backend_name(), "gpu-sim");
        assert_eq!(e.max_level(), 3);
        assert_eq!(e.max_slots(), 512);
        assert!(e.device_name().unwrap().contains("4090"));
        assert!(e.sim_stats().is_some());
        let c = CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .backend(BackendChoice::Cpu)
            .build()
            .unwrap();
        assert_eq!(c.backend_name(), "cpu-reference");
        assert!(c.sim_stats().is_none());
    }
}
