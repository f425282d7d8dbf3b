//! Plain-CPU reference backend with **limb-parallel execution**.
//!
//! Implements the identical server-side CKKS math as the simulated-GPU
//! pipeline — elementwise tensor products, hybrid key switching
//! (ModUp → key inner product → ModDown), fused-equivalent Rescale, and
//! evaluation-domain Galois rotations — directly on host `Vec<u64>` limb
//! vectors, with no kernel descriptors or timing ledger.
//!
//! Where the gpu-sim backend spreads limb batches over device streams, this
//! backend spreads limbs over a worker pool (the vendored rayon stand-in):
//! every per-limb loop — RNS residues are independent between the cross-limb
//! sync points, exactly the property the paper's stream scheduling exploits —
//! runs `par_iter`-style across [`CpuBackend::workers`] threads. Each limb's
//! math is computed identically regardless of which worker runs it and
//! outputs land in disjoint, pre-assigned slots, so results are
//! **bit-identical at every worker count** (the determinism tests sweep
//! workers 1 and 8). The default count honours the `FIDES_WORKERS`
//! environment variable; override per session with
//! [`CpuBackend::with_workers`] or the engine builder's `workers` knob.
//!
//! It exists for three reasons:
//!
//! 1. **Cross-checking.** The GPU simulator's functional mode is intricate
//!    (limb batching, fusion variants, stream fences); this backend computes
//!    the same transformations in the most direct way possible, so any
//!    divergence localizes bugs to the execution machinery rather than the
//!    math.
//! 2. **Multi-backend support.** `CkksEngine` accepts any
//!    [`EvalBackend`]; this is the first
//!    non-simulator implementation and the template for a real-hardware one.
//! 3. **Real wall-clock throughput.** With the worker pool it is the
//!    fastest in-tree way to actually *run* encrypted workloads, and the
//!    second executor of the stream-graph architecture (the plan's limb
//!    batches map onto workers instead of streams).
//!
//! Representation: ciphertext components live in evaluation domain over the
//! active `q` limbs, exactly like [`RawCiphertext`] — loading and storing
//! are plain copies. Switching keys stay in their client
//! ([`RawSwitchingKey`]) form: full-chain limbs in evaluation domain,
//! `q` limbs first, then the `P` extension.

use std::collections::HashMap;
use std::sync::Arc;

use fides_client::{
    galois_for_conjugation, galois_for_rotation, Domain, RawCiphertext, RawParams, RawPlaintext,
    RawPoly, RawSwitchingKey,
};
use fides_math::{
    build_eval_permutation, switch_modulus_centered, Modulus, NttTable, PolyOps, ShoupPrecomp,
};
use fides_rns::{product_inv_mod, BaseConverter, DigitPartition};
use parking_lot::Mutex;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

use crate::backend::{BackendCt, BackendPt, EvalBackend};
use crate::boot::Bootstrapper;
use crate::ciphertext::SCALE_TOLERANCE;
use crate::error::{FidesError, Result};

/// A ciphertext as plain host data: evaluation-domain `q` limbs.
#[derive(Clone, Debug)]
pub struct HostCiphertext {
    /// `c_0` limbs (one per active prime).
    pub c0: Vec<Vec<u64>>,
    /// `c_1` limbs.
    pub c1: Vec<Vec<u64>>,
    /// Chain index of the top active prime.
    pub level: usize,
    /// Exact message scale.
    pub scale: f64,
    /// Packed slot count.
    pub slots: usize,
    /// Static noise estimate (log2).
    pub noise_log2: f64,
}

/// A preloaded plaintext as plain host data: evaluation-domain `q` limbs
/// (the CPU half of [`BackendPt`]).
#[derive(Clone, Debug)]
pub struct HostPlaintext {
    /// Evaluation-domain limbs (one per active prime).
    pub limbs: Vec<Vec<u64>>,
    /// Chain index of the top active prime.
    pub level: usize,
    /// Exact encoding scale.
    pub scale: f64,
    /// Packed slot count.
    pub slots: usize,
}

/// Limb vectors of a polynomial pair `(c_0, c_1)`.
type HostPolyPair = (Vec<Vec<u64>>, Vec<Vec<u64>>);

/// A pool of ring-degree-length limb buffers the NTT/key-switch hot path
/// recycles instead of allocating per op.
///
/// Key switching alone churns through `O(digits × chain)` scratch vectors
/// of `N` words each — digit lifts, base-conversion targets, inner-product
/// accumulators — and at `N = 2¹⁶` every one is a multi-hundred-KB
/// `malloc`/`free` round trip. The pool keeps returned buffers and hands
/// them back (zeroed, copied-into, or dirty-for-full-overwrite as the call
/// site requires), so steady-state evaluation allocates nothing on the hot
/// path. Results are bit-identical by construction: every variant
/// establishes the exact contents the old `vec![..]` produced before the
/// buffer is read.
///
/// Thread-safe (workers take/put under a short lock) and bounded, so a
/// deep circuit cannot hoard memory.
#[derive(Debug, Default)]
struct LimbPool {
    free: Mutex<Vec<Vec<u64>>>,
    reused: std::sync::atomic::AtomicU64,
}

impl LimbPool {
    /// Most buffers the pool retains (≈ two full key-switch footprints at
    /// paper scale; beyond that, freeing is cheaper than hoarding).
    const MAX_FREE: usize = 256;

    fn pop(&self, n: usize) -> Option<Vec<u64>> {
        let v = self.free.lock().pop()?;
        if v.len() == n {
            self.reused
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some(v)
        } else {
            // Foreign ring degree (never happens within one context);
            // drop it rather than resize.
            None
        }
    }

    /// A zero-filled buffer of `n` words (accumulator call sites).
    fn take_zeroed(&self, n: usize) -> Vec<u64> {
        match self.pop(n) {
            Some(mut v) => {
                v.fill(0);
                v
            }
            None => vec![0u64; n],
        }
    }

    /// A buffer holding a copy of `src`.
    fn take_copy(&self, src: &[u64]) -> Vec<u64> {
        match self.pop(src.len()) {
            Some(mut v) => {
                v.copy_from_slice(src);
                v
            }
            None => src.to_vec(),
        }
    }

    /// A possibly-dirty buffer of `n` words — only for call sites that
    /// overwrite every element before reading any.
    fn take_dirty(&self, n: usize) -> Vec<u64> {
        self.pop(n).unwrap_or_else(|| vec![0u64; n])
    }

    /// Returns a buffer to the pool.
    fn put(&self, v: Vec<u64>) {
        let mut free = self.free.lock();
        if free.len() < Self::MAX_FREE {
            free.push(v);
        }
    }

    /// Returns a batch of buffers to the pool.
    fn put_all(&self, vs: impl IntoIterator<Item = Vec<u64>>) {
        let mut free = self.free.lock();
        for v in vs {
            if free.len() >= Self::MAX_FREE {
                break;
            }
            free.push(v);
        }
    }

    /// Buffers served from the pool instead of the allocator.
    fn reuses(&self) -> u64 {
        self.reused.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// ModUp tables for one `(level, digit)` pair (host copy of the context's).
#[derive(Debug)]
struct HostModUp {
    conv: BaseConverter,
    dst_q_indices: Vec<usize>,
}

/// Host-side precomputed tables: the CPU counterpart of `CkksContext`.
#[derive(Debug)]
struct HostContext {
    raw: RawParams,
    moduli_q: Vec<Modulus>,
    moduli_p: Vec<Modulus>,
    ntt_q: Vec<NttTable>,
    ntt_p: Vec<NttTable>,
    partition: DigitPartition,
    /// `[level][digit]` ModUp conversion tables.
    mod_up: Vec<Vec<HostModUp>>,
    /// `[level]`: conversion `P → q_0..q_level` for ModDown.
    mod_down: Vec<BaseConverter>,
    /// `[i]`: `P^{-1} mod q_i`.
    p_inv_mod_q: Vec<ShoupPrecomp>,
    /// FLEXIBLEAUTO-style standard scale per level.
    standard_scale: Vec<f64>,
    /// `NTT(X^{N/2}) mod q_i` — the imaginary-unit monomial used by
    /// bootstrapping's real/imaginary extraction.
    monomial_half: Vec<Vec<u64>>,
    /// Cached evaluation-domain automorphism permutations.
    perms: Mutex<HashMap<usize, Arc<Vec<u32>>>>,
    /// Recycled limb buffers for the NTT/key-switch scratch churn.
    pool: LimbPool,
}

impl HostContext {
    fn new(raw: RawParams) -> Self {
        let n = raw.n();
        let moduli_q: Vec<Modulus> = raw.moduli_q.iter().map(|&q| Modulus::new(q)).collect();
        let moduli_p: Vec<Modulus> = raw.moduli_p.iter().map(|&p| Modulus::new(p)).collect();
        let ntt_q: Vec<NttTable> = moduli_q.iter().map(|&m| NttTable::new(n, m)).collect();
        let ntt_p: Vec<NttTable> = moduli_p.iter().map(|&m| NttTable::new(n, m)).collect();
        let num_q = moduli_q.len();
        let partition = DigitPartition::new(num_q, raw.dnum);

        let mut mod_up = Vec::with_capacity(num_q);
        for level in 0..num_q {
            let digits = partition.digits_at_level(level);
            let mut per_digit = Vec::with_capacity(digits);
            for j in 0..digits {
                let src_range = partition.digit_range_at_level(j, level);
                let src: Vec<Modulus> = src_range.clone().map(|i| moduli_q[i]).collect();
                let dst_q_indices: Vec<usize> =
                    (0..=level).filter(|i| !src_range.contains(i)).collect();
                let mut dst: Vec<Modulus> = dst_q_indices.iter().map(|&i| moduli_q[i]).collect();
                dst.extend(moduli_p.iter().copied());
                per_digit.push(HostModUp {
                    conv: BaseConverter::new(&src, &dst),
                    dst_q_indices,
                });
            }
            mod_up.push(per_digit);
        }

        let mod_down: Vec<BaseConverter> = (0..num_q)
            .map(|level| BaseConverter::new(&moduli_p, &moduli_q[..=level]))
            .collect();

        let p_values = raw.moduli_p.clone();
        let p_inv_mod_q: Vec<ShoupPrecomp> = moduli_q
            .iter()
            .map(|m| ShoupPrecomp::new(product_inv_mod(&p_values, m), m))
            .collect();

        let mut standard_scale = vec![0.0f64; num_q];
        standard_scale[num_q - 1] = raw.scale();
        for l in (0..num_q - 1).rev() {
            let s_next = standard_scale[l + 1];
            standard_scale[l] = s_next * s_next / moduli_q[l + 1].value() as f64;
        }

        // NTT(X^{N/2}) per q prime.
        let monomial_half: Vec<Vec<u64>> =
            ntt_q.iter().map(|t| t.forward_monomial_half()).collect();

        Self {
            raw,
            moduli_q,
            moduli_p,
            ntt_q,
            ntt_p,
            partition,
            mod_up,
            mod_down,
            p_inv_mod_q,
            standard_scale,
            monomial_half,
            perms: Mutex::new(HashMap::new()),
            pool: LimbPool::default(),
        }
    }

    fn n(&self) -> usize {
        self.raw.n()
    }

    fn alpha(&self) -> usize {
        self.moduli_p.len()
    }

    fn max_level(&self) -> usize {
        self.raw.max_level()
    }

    fn perm(&self, g: usize) -> Arc<Vec<u32>> {
        let mut cache = self.perms.lock();
        if let Some(p) = cache.get(&g) {
            return Arc::clone(p);
        }
        let entry = Arc::new(build_eval_permutation(self.n(), g));
        cache.insert(g, Arc::clone(&entry));
        entry
    }

    /// Lifts digit `j` of `d2` (eval domain, `level+1` limbs) to
    /// `Q_ℓ ∪ P` — the host mirror of the GPU ModUp pipeline. Both the
    /// digit scaling and the per-destination conversions run limb-parallel
    /// on the worker pool.
    fn mod_up_digit(&self, d2: &[Vec<u64>], j: usize, level: usize) -> Vec<Vec<u64>> {
        let tables = &self.mod_up[level][j];
        let src_range = self.partition.digit_range_at_level(j, level);
        let n = self.n();
        let alpha = self.alpha();

        // Step 1: coefficient-domain, Eq.1-scaled copies of the digit limbs
        // (pooled scratch, recycled below).
        let scaled: Vec<Vec<u64>> = (0..src_range.len())
            .into_par_iter()
            .map(|di| {
                let i = src_range.start + di;
                let mut x = self.pool.take_copy(&d2[i]);
                self.ntt_q[i].inverse_inplace(&mut x);
                tables.conv.scale_input_inplace(di, &mut x);
                x
            })
            .collect();
        let scaled_refs: Vec<&[u64]> = scaled.iter().map(|v| v.as_slice()).collect();

        // Step 2: own digit limbs pass through in evaluation form; converted
        // limbs are NTT'd back per destination chain, one worker per
        // destination. Pooled dirty buffers: the base conversion overwrites
        // every word before any is read.
        let base = tables.dst_q_indices.len();
        let converted: Vec<Vec<u64>> = (0..base + alpha)
            .into_par_iter()
            .map(|dpos| {
                let mut t = self.pool.take_dirty(n);
                tables.conv.convert_scaled_limb(&scaled_refs, dpos, &mut t);
                if dpos < base {
                    self.ntt_q[tables.dst_q_indices[dpos]].forward_inplace(&mut t);
                } else {
                    self.ntt_p[dpos - base].forward_inplace(&mut t);
                }
                t
            })
            .collect();
        drop(scaled_refs);
        self.pool.put_all(scaled);

        let total = level + 1 + alpha;
        let mut out: Vec<Option<Vec<u64>>> = (0..total).map(|_| None).collect();
        for i in src_range.clone() {
            out[i] = Some(self.pool.take_copy(&d2[i]));
        }
        let mut converted = converted.into_iter();
        for &qi in &tables.dst_q_indices {
            out[qi] = Some(converted.next().expect("converted q limb"));
        }
        for k in 0..alpha {
            out[level + 1 + k] = Some(converted.next().expect("converted p limb"));
        }
        out.into_iter()
            .map(|o| o.expect("all limbs assigned"))
            .collect()
    }

    /// ModDown by `P`: `x ← P^{-1}·(x − Conv_{P→Q_ℓ}([x]_P))`, truncating
    /// the extension limbs.
    fn mod_down(&self, poly: &mut Vec<Vec<u64>>, level: usize) {
        let n = self.n();
        let conv = &self.mod_down[level];
        let mut p_limbs: Vec<Vec<u64>> = poly.drain(level + 1..).collect();
        p_limbs.par_iter_mut().enumerate().for_each(|(k, pl)| {
            self.ntt_p[k].inverse_inplace(pl);
            conv.scale_input_inplace(k, pl);
        });
        let p_refs: Vec<&[u64]> = p_limbs.iter().map(|v| v.as_slice()).collect();
        poly.par_iter_mut().enumerate().for_each(|(i, limb)| {
            let mut t = self.pool.take_dirty(n);
            conv.convert_scaled_limb(&p_refs, i, &mut t);
            self.ntt_q[i].forward_inplace(&mut t);
            let m = &self.moduli_q[i];
            let inv = &self.p_inv_mod_q[i];
            m.sub_shoup_mul_assign_slices(inv, limb, &t);
            self.pool.put(t);
        });
        drop(p_refs);
        self.pool.put_all(p_limbs);
    }

    /// Full key switch of eval-domain `d2`; returns the `(c_0, c_1)` delta.
    fn key_switch(
        &self,
        d2: &[Vec<u64>],
        level: usize,
        key: &RawSwitchingKey,
    ) -> Result<HostPolyPair> {
        let digits = self.partition.digits_at_level(level);
        if key.digits.len() < digits {
            return Err(FidesError::KeyShape {
                expected: digits,
                found: key.digits.len(),
            });
        }
        let chain = self.max_level() + 1 + self.alpha();
        for d in &key.digits[..digits] {
            for limbs in [&d.b.limbs, &d.a.limbs] {
                if limbs.len() != chain {
                    return Err(FidesError::KeyShape {
                        expected: chain,
                        found: limbs.len(),
                    });
                }
            }
        }
        let n = self.n();
        let alpha = self.alpha();
        let num_q_full = self.max_level() + 1;
        let total = level + 1 + alpha;
        let mut acc0: Vec<Vec<u64>> = (0..total).map(|_| self.pool.take_zeroed(n)).collect();
        let mut acc1: Vec<Vec<u64>> = (0..total).map(|_| self.pool.take_zeroed(n)).collect();
        for j in 0..digits {
            let lifted = self.mod_up_digit(d2, j, level);
            // Inner products accumulate limb-parallel: each worker owns a
            // disjoint (acc0[idx], acc1[idx]) pair.
            let chain_of = |idx: usize| {
                if idx <= level {
                    (&self.moduli_q[idx], idx)
                } else {
                    (
                        &self.moduli_p[idx - (level + 1)],
                        num_q_full + (idx - (level + 1)),
                    )
                }
            };
            acc0.par_iter_mut().enumerate().for_each(|(idx, acc)| {
                let (m, key_idx) = chain_of(idx);
                m.mul_add_assign_slices(acc, &lifted[idx], &key.digits[j].b.limbs[key_idx]);
            });
            acc1.par_iter_mut().enumerate().for_each(|(idx, acc)| {
                let (m, key_idx) = chain_of(idx);
                m.mul_add_assign_slices(acc, &lifted[idx], &key.digits[j].a.limbs[key_idx]);
            });
            self.pool.put_all(lifted);
        }
        self.mod_down(&mut acc0, level);
        self.mod_down(&mut acc1, level);
        Ok((acc0, acc1))
    }

    /// Rescale: drop the top prime of each component, dividing the scale.
    fn rescale_limbs(&self, limbs: &mut Vec<Vec<u64>>) {
        let l = limbs.len() - 1;
        let q_last = self.moduli_q[l];
        let mut last = limbs.pop().expect("at least two limbs");
        self.ntt_q[l].inverse_inplace(&mut last);
        limbs.par_iter_mut().enumerate().for_each(|(i, limb)| {
            let m = &self.moduli_q[i];
            let mut t = self.pool.take_dirty(last.len());
            for (dst, &v) in t.iter_mut().zip(&last) {
                *dst = switch_modulus_centered(v, &q_last, m);
            }
            self.ntt_q[i].forward_inplace(&mut t);
            let inv = ShoupPrecomp::new(m.inv_mod(m.reduce_u64(q_last.value())), m);
            m.sub_shoup_mul_assign_slices(&inv, limb, &t);
            self.pool.put(t);
        });
        self.pool.put(last);
    }
}

/// The plain-CPU reference backend, executing limb batches on a worker
/// pool.
#[derive(Debug)]
pub struct CpuBackend {
    hctx: HostContext,
    relin: Option<RawSwitchingKey>,
    /// Rotation keys by Galois element.
    rotations: HashMap<usize, RawSwitchingKey>,
    conj: Option<RawSwitchingKey>,
    /// Precomputed bootstrapping material, when configured.
    boot: Option<Bootstrapper>,
    /// Worker pool per-limb loops run on.
    pool: ThreadPool,
}

impl CpuBackend {
    /// Creates a backend over the shared parameter description. The worker
    /// count defaults to `FIDES_WORKERS` (when set) or the machine's
    /// available parallelism.
    pub fn new(raw: RawParams) -> Self {
        Self {
            hctx: HostContext::new(raw),
            relin: None,
            rotations: HashMap::new(),
            conj: None,
            boot: None,
            pool: ThreadPoolBuilder::new()
                .build()
                .expect("thread pool construction is infallible"),
        }
    }

    /// Pins the worker count (`0` restores the default resolution). Results
    /// are bit-identical at every worker count; only wall-clock changes.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.pool = ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("thread pool construction is infallible");
        self
    }

    /// The worker count per-limb loops use.
    pub fn workers(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Limb buffers the NTT/key-switch hot path served from the recycle
    /// pool instead of the allocator (diagnostic counter; monotone over
    /// the backend's lifetime).
    pub fn limb_pool_reuses(&self) -> u64 {
        self.hctx.pool.reuses()
    }

    /// Installs the relinearization key.
    pub fn set_relin_key(&mut self, key: RawSwitchingKey) {
        self.relin = Some(key);
    }

    /// Installs a rotation key for slot shift `k`.
    pub fn insert_rotation_key(&mut self, k: i32, key: RawSwitchingKey) {
        let g = galois_for_rotation(k, self.hctx.n());
        self.rotations.insert(g, key);
    }

    /// Installs the conjugation key.
    pub fn set_conj_key(&mut self, key: RawSwitchingKey) {
        self.conj = Some(key);
    }

    /// Attaches precomputed bootstrapping material (built against this
    /// backend with [`Bootstrapper::new`]).
    pub fn set_bootstrapper(&mut self, boot: Bootstrapper) {
        self.boot = Some(boot);
    }

    fn host<'a>(&self, ct: &'a BackendCt) -> Result<&'a HostCiphertext> {
        match ct {
            BackendCt::Host(c) => Ok(c),
            BackendCt::Device(_) => Err(FidesError::Unsupported(
                "device ciphertext handed to the cpu-reference backend".into(),
            )),
        }
    }

    fn host_mut<'a>(&self, ct: &'a mut BackendCt) -> Result<&'a mut HostCiphertext> {
        match ct {
            BackendCt::Host(c) => Ok(c),
            BackendCt::Device(_) => Err(FidesError::Unsupported(
                "device ciphertext handed to the cpu-reference backend".into(),
            )),
        }
    }

    fn check_compatible(a: &HostCiphertext, b: &HostCiphertext) -> Result<()> {
        if a.level != b.level {
            return Err(FidesError::LevelMismatch {
                left: a.level,
                right: b.level,
            });
        }
        if a.slots != b.slots {
            return Err(FidesError::SlotMismatch {
                left: a.slots,
                right: b.slots,
            });
        }
        let drift = (a.scale / b.scale - 1.0).abs();
        if drift > SCALE_TOLERANCE {
            return Err(FidesError::ScaleMismatch {
                left: a.scale,
                right: b.scale,
            });
        }
        Ok(())
    }

    /// Per-limb residues of `round(c · const_scale)`.
    fn scalar_residues(&self, c: f64, const_scale: f64, level: usize) -> Result<Vec<u64>> {
        crate::ops::scalar_residues(c, const_scale, &self.hctx.moduli_q[..=level])
    }

    fn apply_galois(
        &self,
        ct: &HostCiphertext,
        g: usize,
        key: &RawSwitchingKey,
    ) -> Result<HostCiphertext> {
        let perm = self.hctx.perm(g);
        let n = self.hctx.n();
        let permute = |limbs: &[Vec<u64>]| -> Vec<Vec<u64>> {
            (0..limbs.len())
                .into_par_iter()
                .map(|i| {
                    let mut out = vec![0u64; n];
                    fides_math::automorphism_eval(&limbs[i], &perm, &mut out);
                    out
                })
                .collect()
        };
        let a0 = permute(&ct.c0);
        let a1 = permute(&ct.c1);
        let (ks0, ks1) = self.hctx.key_switch(&a1, ct.level, key)?;
        self.hctx.pool.put_all(a1);
        let mut c0 = a0;
        c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
            self.hctx.moduli_q[i].add_assign_slices(limb, &ks0[i]);
        });
        self.hctx.pool.put_all(ks0);
        Ok(HostCiphertext {
            c0,
            c1: ks1,
            level: ct.level,
            scale: ct.scale,
            slots: ct.slots,
            noise_log2: ct.noise_log2 + 1.0,
        })
    }

    /// NTTs an encoded (coefficient-domain) plaintext's limbs.
    fn plain_to_eval(&self, pt: &RawPlaintext) -> Result<Vec<Vec<u64>>> {
        if pt.poly.domain != Domain::Coeff {
            return Err(FidesError::DomainMismatch {
                expected: "coefficient",
                found: "evaluation",
            });
        }
        Ok((0..pt.poly.limbs.len())
            .into_par_iter()
            .map(|i| {
                let mut x = pt.poly.limbs[i].clone();
                self.hctx.ntt_q[i].forward_inplace(&mut x);
                x
            })
            .collect())
    }

    /// Runs `f` with this backend's worker count installed (every
    /// `par_iter` inside resolves to [`Self::workers`] threads).
    fn on_pool<R>(&self, f: impl FnOnce() -> R) -> R {
        self.pool.install(f)
    }

    /// ModRaise of one component: the coefficient form of limb 0 is switched
    /// (centered) onto every upper prime — the host mirror of the device
    /// `raise_to_top` kernel sequence, limb-parallel over destinations.
    fn raise_limbs(&self, limbs: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let target = self.hctx.max_level();
        let q0 = self.hctx.moduli_q[0];
        let mut coeff0 = limbs[0].clone();
        self.hctx.ntt_q[0].inverse_inplace(&mut coeff0);
        let mut out = Vec::with_capacity(target + 1);
        // Limb 0: the original evaluation-form data.
        out.push(limbs[0].clone());
        // Remaining limbs: centered switch + NTT, one worker per limb.
        let upper: Vec<Vec<u64>> = (1..target + 1)
            .into_par_iter()
            .map(|i| {
                let m = &self.hctx.moduli_q[i];
                let mut t: Vec<u64> = coeff0
                    .iter()
                    .map(|&v| switch_modulus_centered(v, &q0, m))
                    .collect();
                self.hctx.ntt_q[i].forward_inplace(&mut t);
                t
            })
            .collect();
        out.extend(upper);
        out
    }
}

impl EvalBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu-reference"
    }

    fn max_level(&self) -> usize {
        self.hctx.max_level()
    }

    fn fresh_scale(&self) -> f64 {
        self.hctx.raw.scale()
    }

    fn standard_scale(&self, level: usize) -> f64 {
        self.hctx.standard_scale[level]
    }

    fn modulus_value(&self, level: usize) -> u64 {
        self.hctx.moduli_q[level].value()
    }

    fn load(&self, raw: &RawCiphertext) -> Result<BackendCt> {
        if raw.c0.domain != Domain::Eval {
            return Err(FidesError::DomainMismatch {
                expected: "evaluation",
                found: "coefficient",
            });
        }
        if raw.level > self.hctx.max_level() {
            return Err(FidesError::LevelOutOfRange {
                level: raw.level,
                max: self.hctx.max_level(),
            });
        }
        crate::adapter::check_ct_shape(raw, self.hctx.n())?;
        Ok(BackendCt::Host(HostCiphertext {
            c0: raw.c0.limbs.clone(),
            c1: raw.c1.limbs.clone(),
            level: raw.level,
            scale: raw.scale,
            slots: raw.slots,
            noise_log2: raw.noise_log2,
        }))
    }

    fn store(&self, ct: &BackendCt) -> Result<RawCiphertext> {
        let ct = self.host(ct)?;
        Ok(RawCiphertext {
            c0: RawPoly {
                limbs: ct.c0.clone(),
                domain: Domain::Eval,
            },
            c1: RawPoly {
                limbs: ct.c1.clone(),
                domain: Domain::Eval,
            },
            level: ct.level,
            scale: ct.scale,
            slots: ct.slots,
            noise_log2: ct.noise_log2,
        })
    }

    fn add(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt> {
        let (a, b) = (self.host(a)?, self.host(b)?);
        Self::check_compatible(a, b)?;
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].add_assign_slices(limb, &b.c0[i]);
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].add_assign_slices(limb, &b.c1[i]);
            });
        });
        out.noise_log2 = a.noise_log2.max(b.noise_log2) + 0.5;
        Ok(BackendCt::Host(out))
    }

    fn sub(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt> {
        let (a, b) = (self.host(a)?, self.host(b)?);
        Self::check_compatible(a, b)?;
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].sub_assign_slices(limb, &b.c0[i]);
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].sub_assign_slices(limb, &b.c1[i]);
            });
        });
        out.noise_log2 = a.noise_log2.max(b.noise_log2) + 0.5;
        Ok(BackendCt::Host(out))
    }

    fn negate(&self, a: &BackendCt) -> Result<BackendCt> {
        let a = self.host(a)?;
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].neg_assign(limb);
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].neg_assign(limb);
            });
        });
        Ok(BackendCt::Host(out))
    }

    fn add_scalar(&self, a: &BackendCt, c: f64) -> Result<BackendCt> {
        let a = self.host(a)?;
        let scalars = self.scalar_residues(c, a.scale, a.level)?;
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].scalar_add_assign(limb, scalars[i]);
            });
        });
        out.noise_log2 += 0.1;
        Ok(BackendCt::Host(out))
    }

    fn add_plain(&self, a: &BackendCt, pt: &RawPlaintext) -> Result<BackendCt> {
        let a = self.host(a)?;
        if pt.level != a.level {
            return Err(FidesError::LevelMismatch {
                left: a.level,
                right: pt.level,
            });
        }
        let drift = (a.scale / pt.scale - 1.0).abs();
        if drift > SCALE_TOLERANCE {
            return Err(FidesError::ScaleMismatch {
                left: a.scale,
                right: pt.scale,
            });
        }
        let mut out = a.clone();
        self.on_pool(|| -> Result<()> {
            let eval = self.plain_to_eval(pt)?;
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].add_assign_slices(limb, &eval[i]);
            });
            Ok(())
        })?;
        out.noise_log2 += 0.25;
        Ok(BackendCt::Host(out))
    }

    fn mul_plain(&self, a: &BackendCt, pt: &RawPlaintext) -> Result<BackendCt> {
        let a = self.host(a)?;
        if pt.level != a.level {
            return Err(FidesError::LevelMismatch {
                left: a.level,
                right: pt.level,
            });
        }
        let mut out = a.clone();
        self.on_pool(|| -> Result<()> {
            let eval = self.plain_to_eval(pt)?;
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].mul_assign_slices(limb, &eval[i]);
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].mul_assign_slices(limb, &eval[i]);
            });
            Ok(())
        })?;
        out.scale = a.scale * pt.scale;
        out.noise_log2 = a.noise_log2 + 1.0;
        Ok(BackendCt::Host(out))
    }

    fn mul(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt> {
        let (a, b) = (self.host(a)?, self.host(b)?);
        if a.level != b.level {
            return Err(FidesError::LevelMismatch {
                left: a.level,
                right: b.level,
            });
        }
        if a.slots != b.slots {
            return Err(FidesError::SlotMismatch {
                left: a.slots,
                right: b.slots,
            });
        }
        let key = self
            .relin
            .as_ref()
            .ok_or_else(|| FidesError::MissingKey("relinearization".into()))?;
        let n = self.hctx.n();
        let (d0, d1) = self.on_pool(|| -> Result<HostPolyPair> {
            // Tensor product, one worker per limb.
            let tensored: Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> = (0..a.level + 1)
                .into_par_iter()
                .map(|i| {
                    let m = &self.hctx.moduli_q[i];
                    let mut x0 = vec![0u64; n];
                    m.mul_slices(&a.c0[i], &b.c0[i], &mut x0);
                    let mut x1 = vec![0u64; n];
                    m.mul_slices(&a.c0[i], &b.c1[i], &mut x1);
                    m.mul_add_assign_slices(&mut x1, &a.c1[i], &b.c0[i]);
                    let mut x2 = vec![0u64; n];
                    m.mul_slices(&a.c1[i], &b.c1[i], &mut x2);
                    (x0, x1, x2)
                })
                .collect();
            let mut d0 = Vec::with_capacity(a.level + 1);
            let mut d1 = Vec::with_capacity(a.level + 1);
            let mut d2 = Vec::with_capacity(a.level + 1);
            for (x0, x1, x2) in tensored {
                d0.push(x0);
                d1.push(x1);
                d2.push(x2);
            }
            let (ks0, ks1) = self.hctx.key_switch(&d2, a.level, key)?;
            self.hctx.pool.put_all(d2);
            d0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].add_assign_slices(limb, &ks0[i]);
            });
            d1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].add_assign_slices(limb, &ks1[i]);
            });
            self.hctx.pool.put_all(ks0);
            self.hctx.pool.put_all(ks1);
            Ok((d0, d1))
        })?;
        Ok(BackendCt::Host(HostCiphertext {
            c0: d0,
            c1: d1,
            level: a.level,
            scale: a.scale * b.scale,
            slots: a.slots,
            noise_log2: a.noise_log2 + b.noise_log2 + (n as f64).log2() / 2.0,
        }))
    }

    fn square(&self, a: &BackendCt) -> Result<BackendCt> {
        self.mul(a, a)
    }

    fn mul_scalar_at(&self, a: &BackendCt, c: f64, const_scale: f64) -> Result<BackendCt> {
        let a = self.host(a)?;
        let scalars = self.scalar_residues(c, const_scale, a.level)?;
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].scalar_mul_assign(limb, scalars[i]);
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].scalar_mul_assign(limb, scalars[i]);
            });
        });
        out.scale = a.scale * const_scale;
        out.noise_log2 = a.noise_log2 + 1.0;
        Ok(BackendCt::Host(out))
    }

    fn mul_int(&self, a: &BackendCt, k: i64) -> Result<BackendCt> {
        let a = self.host(a)?;
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                let m = &self.hctx.moduli_q[i];
                m.scalar_mul_assign(limb, m.from_i64(k));
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                let m = &self.hctx.moduli_q[i];
                m.scalar_mul_assign(limb, m.from_i64(k));
            });
        });
        out.noise_log2 = a.noise_log2 + (k.unsigned_abs() as f64).log2().max(0.0);
        Ok(BackendCt::Host(out))
    }

    fn rescale(&self, a: &mut BackendCt) -> Result<()> {
        let ct = self.host_mut(a)?;
        if ct.level == 0 {
            return Err(FidesError::NotEnoughLevels {
                needed: 1,
                available: 0,
            });
        }
        let q_l = self.hctx.moduli_q[ct.level].value() as f64;
        self.pool.install(|| {
            self.hctx.rescale_limbs(&mut ct.c0);
            self.hctx.rescale_limbs(&mut ct.c1);
        });
        ct.level -= 1;
        ct.scale /= q_l;
        ct.noise_log2 = (ct.noise_log2 - q_l.log2()).max(4.0);
        Ok(())
    }

    fn drop_to_level(&self, a: &mut BackendCt, level: usize) -> Result<()> {
        let ct = self.host_mut(a)?;
        if level > ct.level {
            return Err(FidesError::NotEnoughLevels {
                needed: level,
                available: ct.level,
            });
        }
        ct.c0.truncate(level + 1);
        ct.c1.truncate(level + 1);
        ct.level = level;
        Ok(())
    }

    fn rotate(&self, a: &BackendCt, k: i32) -> Result<BackendCt> {
        let ct = self.host(a)?;
        if k == 0 {
            return Ok(BackendCt::Host(ct.clone()));
        }
        let g = galois_for_rotation(k, self.hctx.n());
        let key = self
            .rotations
            .get(&g)
            .ok_or_else(|| FidesError::MissingKey(format!("rotation(g={g})")))?;
        Ok(BackendCt::Host(
            self.on_pool(|| self.apply_galois(ct, g, key))?,
        ))
    }

    fn conjugate(&self, a: &BackendCt) -> Result<BackendCt> {
        let ct = self.host(a)?;
        let g = galois_for_conjugation(self.hctx.n());
        let key = self
            .conj
            .as_ref()
            .ok_or_else(|| FidesError::MissingKey("conjugation".into()))?;
        Ok(BackendCt::Host(
            self.on_pool(|| self.apply_galois(ct, g, key))?,
        ))
    }

    fn hoisted_rotations(&self, a: &BackendCt, shifts: &[i32]) -> Result<Vec<BackendCt>> {
        let ct = self.host(a)?;
        let n = self.hctx.n();
        // Check all keys up front.
        for &k in shifts {
            if k != 0 {
                let g = galois_for_rotation(k, n);
                if !self.rotations.contains_key(&g) {
                    return Err(FidesError::MissingKey(format!("rotation(g={g})")));
                }
            }
        }
        let level = ct.level;
        let num_q_full = self.hctx.max_level() + 1;
        let alpha = self.hctx.alpha();
        let digits = self.hctx.partition.digits_at_level(level);
        self.on_pool(|| {
            // Hoisted: decompose + ModUp of c1 once, shared across shifts
            // (Halevi–Shoup, §III-F.6); the automorphism commutes with the
            // digit decomposition, so permuting the lifted limbs afterwards
            // is bit-identical to rotate-then-keyswitch.
            let lifted: Vec<Vec<Vec<u64>>> = (0..digits)
                .map(|j| self.hctx.mod_up_digit(&ct.c1, j, level))
                .collect();
            let mut out = Vec::with_capacity(shifts.len());
            for &k in shifts {
                if k == 0 {
                    out.push(BackendCt::Host(ct.clone()));
                    continue;
                }
                let g = galois_for_rotation(k, n);
                let key = &self.rotations[&g];
                let perm = self.hctx.perm(g);
                let total = level + 1 + alpha;
                let mut acc0: Vec<Vec<u64>> =
                    (0..total).map(|_| self.hctx.pool.take_zeroed(n)).collect();
                let mut acc1: Vec<Vec<u64>> =
                    (0..total).map(|_| self.hctx.pool.take_zeroed(n)).collect();
                let chain_of = |idx: usize| {
                    if idx <= level {
                        (&self.hctx.moduli_q[idx], idx)
                    } else {
                        (
                            &self.hctx.moduli_p[idx - (level + 1)],
                            num_q_full + (idx - (level + 1)),
                        )
                    }
                };
                for (j, lift) in lifted.iter().enumerate() {
                    // Permute the lifted digit, then accumulate the key inner
                    // products limb-parallel (disjoint output slots).
                    let permuted: Vec<Vec<u64>> = (0..lift.len())
                        .into_par_iter()
                        .map(|idx| {
                            let mut p = self.hctx.pool.take_dirty(n);
                            fides_math::automorphism_eval(&lift[idx], &perm, &mut p);
                            p
                        })
                        .collect();
                    acc0.par_iter_mut().enumerate().for_each(|(idx, acc)| {
                        let (m, key_idx) = chain_of(idx);
                        m.mul_add_assign_slices(
                            acc,
                            &permuted[idx],
                            &key.digits[j].b.limbs[key_idx],
                        );
                    });
                    acc1.par_iter_mut().enumerate().for_each(|(idx, acc)| {
                        let (m, key_idx) = chain_of(idx);
                        m.mul_add_assign_slices(
                            acc,
                            &permuted[idx],
                            &key.digits[j].a.limbs[key_idx],
                        );
                    });
                    self.hctx.pool.put_all(permuted);
                }
                self.hctx.mod_down(&mut acc0, level);
                self.hctx.mod_down(&mut acc1, level);
                let mut c0: Vec<Vec<u64>> = (0..ct.c0.len())
                    .into_par_iter()
                    .map(|i| {
                        let mut p = vec![0u64; n];
                        fides_math::automorphism_eval(&ct.c0[i], &perm, &mut p);
                        p
                    })
                    .collect();
                c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                    self.hctx.moduli_q[i].add_assign_slices(limb, &acc0[i]);
                });
                self.hctx.pool.put_all(acc0);
                out.push(BackendCt::Host(HostCiphertext {
                    c0,
                    c1: acc1,
                    level,
                    scale: ct.scale,
                    slots: ct.slots,
                    noise_log2: ct.noise_log2 + 1.0,
                }));
            }
            for lift in lifted {
                self.hctx.pool.put_all(lift);
            }
            Ok(out)
        })
    }

    fn load_plain(&self, raw: &RawPlaintext) -> Result<BackendPt> {
        if raw.level > self.hctx.max_level() {
            return Err(FidesError::LevelOutOfRange {
                level: raw.level,
                max: self.hctx.max_level(),
            });
        }
        let limbs = self.on_pool(|| self.plain_to_eval(raw))?;
        Ok(BackendPt::Host(HostPlaintext {
            limbs,
            level: raw.level,
            scale: raw.scale,
            slots: raw.slots,
        }))
    }

    fn mul_plain_pre(&self, a: &BackendCt, pt: &BackendPt) -> Result<BackendCt> {
        let a = self.host(a)?;
        let pt = match pt {
            BackendPt::Host(p) => p,
            BackendPt::Device(_) => {
                return Err(FidesError::Unsupported(
                    "device plaintext handed to the cpu-reference backend".into(),
                ))
            }
        };
        if pt.level != a.level {
            return Err(FidesError::LevelMismatch {
                left: a.level,
                right: pt.level,
            });
        }
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].mul_assign_slices(limb, &pt.limbs[i]);
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].mul_assign_slices(limb, &pt.limbs[i]);
            });
        });
        out.scale = a.scale * pt.scale;
        out.noise_log2 = a.noise_log2 + 1.0;
        Ok(BackendCt::Host(out))
    }

    fn mod_raise(&self, a: &BackendCt) -> Result<BackendCt> {
        let ct = self.host(a)?;
        if ct.level != 0 {
            return Err(FidesError::LevelMismatch {
                left: ct.level,
                right: 0,
            });
        }
        let (c0, c1) = self.on_pool(|| (self.raise_limbs(&ct.c0), self.raise_limbs(&ct.c1)));
        Ok(BackendCt::Host(HostCiphertext {
            c0,
            c1,
            level: self.hctx.max_level(),
            scale: ct.scale,
            slots: ct.slots,
            noise_log2: ct.noise_log2,
        }))
    }

    fn mul_by_i(&self, a: &BackendCt) -> Result<BackendCt> {
        let a = self.host(a)?;
        let mut out = a.clone();
        self.on_pool(|| {
            out.c0.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].mul_assign_slices(limb, &self.hctx.monomial_half[i]);
            });
            out.c1.par_iter_mut().enumerate().for_each(|(i, limb)| {
                self.hctx.moduli_q[i].mul_assign_slices(limb, &self.hctx.monomial_half[i]);
            });
        });
        Ok(BackendCt::Host(out))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_client::{ClientContext, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        ClientContext,
        CpuBackend,
        fides_client::RawPublicKey,
        fides_client::SecretKey,
    ) {
        let raw = RawParams::generate(10, 4, 40, 60, 2);
        let client = ClientContext::new(raw.clone());
        let mut kg = KeyGenerator::new(&client, 21);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        let mut backend = CpuBackend::new(raw);
        backend.set_relin_key(kg.relinearization_key(&sk));
        backend.insert_rotation_key(1, kg.rotation_key(&sk, 1));
        (client, backend, pk, sk)
    }

    fn enc(
        client: &ClientContext,
        backend: &CpuBackend,
        pk: &fides_client::RawPublicKey,
        values: &[f64],
        seed: u64,
    ) -> BackendCt {
        let mut rng = StdRng::seed_from_u64(seed);
        let level = backend.max_level();
        let pt = client
            .encode_real(values, backend.standard_scale(level), level)
            .unwrap();
        backend
            .load(&client.encrypt(&pt, pk, &mut rng).unwrap())
            .unwrap()
    }

    fn dec(
        client: &ClientContext,
        backend: &CpuBackend,
        sk: &fides_client::SecretKey,
        ct: &BackendCt,
    ) -> Vec<f64> {
        client
            .decode_real(&client.decrypt(&backend.store(ct).unwrap(), sk).unwrap())
            .unwrap()
    }

    #[test]
    fn add_sub_roundtrip() {
        let (client, backend, pk, sk) = setup();
        let xs = [0.5, -0.25, 0.125, 0.75];
        let ys = [0.1, 0.2, -0.3, 0.4];
        let a = enc(&client, &backend, &pk, &xs, 1);
        let b = enc(&client, &backend, &pk, &ys, 2);
        let sum = dec(&client, &backend, &sk, &backend.add(&a, &b).unwrap());
        let diff = dec(&client, &backend, &sk, &backend.sub(&a, &b).unwrap());
        for i in 0..4 {
            assert!(
                (sum[i] - (xs[i] + ys[i])).abs() < 1e-5,
                "slot {i}: {}",
                sum[i]
            );
            assert!((diff[i] - (xs[i] - ys[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn mul_with_relinearization_and_rescale() {
        let (client, backend, pk, sk) = setup();
        let xs = [0.5, -0.25, 0.125, 0.75];
        let ys = [0.4, 0.8, -0.5, -0.2];
        let a = enc(&client, &backend, &pk, &xs, 3);
        let b = enc(&client, &backend, &pk, &ys, 4);
        let mut prod = backend.mul(&a, &b).unwrap();
        backend.rescale(&mut prod).unwrap();
        assert_eq!(prod.level(), backend.max_level() - 1);
        let got = dec(&client, &backend, &sk, &prod);
        for i in 0..4 {
            assert!(
                (got[i] - xs[i] * ys[i]).abs() < 1e-4,
                "slot {i}: {} vs {}",
                got[i],
                xs[i] * ys[i]
            );
        }
    }

    #[test]
    fn rotation_matches_plain_shift() {
        let (client, backend, pk, sk) = setup();
        let xs: Vec<f64> = (0..8).map(|i| i as f64 * 0.1).collect();
        let a = enc(&client, &backend, &pk, &xs, 5);
        let rot = backend.rotate(&a, 1).unwrap();
        let got = dec(&client, &backend, &sk, &rot);
        for i in 0..8 {
            let expect = xs[(i + 1) % 8];
            assert!(
                (got[i] - expect).abs() < 1e-4,
                "slot {i}: {} vs {expect}",
                got[i]
            );
        }
    }

    #[test]
    fn scalar_paths() {
        let (client, backend, pk, sk) = setup();
        let xs = [0.5, -0.25, 0.125, 0.75];
        let a = enc(&client, &backend, &pk, &xs, 6);
        let plus = dec(
            &client,
            &backend,
            &sk,
            &backend.add_scalar(&a, 0.25).unwrap(),
        );
        let twice = dec(&client, &backend, &sk, &backend.mul_int(&a, 2).unwrap());
        for i in 0..4 {
            assert!((plus[i] - (xs[i] + 0.25)).abs() < 1e-5);
            assert!((twice[i] - 2.0 * xs[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn malformed_frames_and_keys_are_typed_errors() {
        let raw = RawParams::generate(10, 2, 40, 60, 2);
        let client = ClientContext::new(raw.clone());
        let mut kg = KeyGenerator::new(&client, 31);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        let mut backend = CpuBackend::new(raw);
        let a = enc(&client, &backend, &pk, &[0.1], 8);

        // Frame whose header level contradicts its limb count.
        let mut frame = backend.store(&a).unwrap();
        frame.c1.limbs.pop();
        assert!(matches!(
            backend.load(&frame),
            Err(FidesError::Malformed(_))
        ));

        // Relin key generated for a shallower chain: typed KeyShape, not a
        // panic, exactly like the GPU adapter path.
        let short_raw = RawParams::generate(10, 1, 40, 60, 2);
        let short_client = ClientContext::new(short_raw);
        let mut short_kg = KeyGenerator::new(&short_client, 32);
        let short_sk = short_kg.secret_key();
        backend.set_relin_key(short_kg.relinearization_key(&short_sk));
        assert!(matches!(
            backend.mul(&a, &a),
            Err(FidesError::KeyShape { .. })
        ));
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        // The same circuit on 1 and 8 workers must produce identical limb
        // data: per-limb work is assigned to disjoint output slots, so the
        // split is invisible to the math.
        let raw = RawParams::generate(10, 4, 40, 60, 2);
        let client = ClientContext::new(raw.clone());
        let mut kg = KeyGenerator::new(&client, 77);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        let relin = kg.relinearization_key(&sk);
        let rot = kg.rotation_key(&sk, 1);
        let mut frames = Vec::new();
        for workers in [1usize, 8] {
            let mut backend = CpuBackend::new(raw.clone()).with_workers(workers);
            assert_eq!(backend.workers(), workers);
            backend.set_relin_key(relin.clone());
            backend.insert_rotation_key(1, rot.clone());
            let a = enc(&client, &backend, &pk, &[0.5, -0.25, 0.125, 0.75], 42);
            let b = enc(&client, &backend, &pk, &[0.1, 0.2, -0.3, 0.4], 43);
            let mut prod = backend.mul(&a, &b).unwrap();
            backend.rescale(&mut prod).unwrap();
            let rot = backend.rotate(&prod, 1).unwrap();
            let sum = backend.add(&rot, &rot).unwrap();
            frames.push(backend.store(&sum).unwrap());
        }
        assert_eq!(frames[0].c0.limbs, frames[1].c0.limbs);
        assert_eq!(frames[0].c1.limbs, frames[1].c1.limbs);
    }

    #[test]
    fn limb_pool_recycles_key_switch_scratch() {
        let (client, backend, pk, sk) = setup();
        let a = enc(&client, &backend, &pk, &[0.5, -0.25, 0.125, 0.75], 91);
        let before = backend.limb_pool_reuses();
        let mut prod = backend.mul(&a, &a).unwrap();
        backend.rescale(&mut prod).unwrap();
        let rot = backend.rotate(&prod, 1).unwrap();
        assert!(
            backend.limb_pool_reuses() > before,
            "the NTT/key-switch hot path must recycle limb buffers"
        );
        // Pooling is invisible to the math: the result still decrypts.
        let got = dec(&client, &backend, &sk, &rot);
        assert!(got[0].is_finite());
    }

    #[test]
    fn missing_keys_are_typed_errors() {
        let raw = RawParams::generate(10, 2, 40, 60, 2);
        let client = ClientContext::new(raw.clone());
        let mut kg = KeyGenerator::new(&client, 9);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        let backend = CpuBackend::new(raw);
        let a = enc(&client, &backend, &pk, &[0.1], 7);
        assert!(matches!(
            backend.mul(&a, &a),
            Err(FidesError::MissingKey(_))
        ));
        assert!(matches!(
            backend.rotate(&a, 1),
            Err(FidesError::MissingKey(_))
        ));
        assert!(matches!(
            backend.conjugate(&a),
            Err(FidesError::MissingKey(_))
        ));
        assert!(matches!(
            backend.bootstrap(&a),
            Err(FidesError::Unsupported(_))
        ));
        let _ = sk;
    }
}
