//! The server-side crypto context (`CKKS::Context` in FIDESlib).
//!
//! Holds every precomputed table the GPU kernels consume: NTT tables per
//! prime, base-conversion matrices per (level, digit), rescale and ModDown
//! scalars, the digit partition, evaluation-domain automorphism permutations
//! and the standard-scale ladder. The paper stores these in CUDA constant /
//! global memory behind a singleton (§III-E); the Rust port shares one
//! immutable context through an [`Arc`], which models the same "precompute
//! once at context creation" discipline while staying re-entrant.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fides_client::{Domain, RawParams};
use fides_gpu_sim::{BufferId, Capture, GpuSim, OwnWork, PoolBuf, VectorGpu};
use fides_math::{build_eval_permutation, Modulus, Ntt2d, NttTable, ShoupPrecomp};
use fides_rns::{product_inv_mod, product_mod, BaseConverter, DigitPartition};
use parking_lot::Mutex;

use crate::ciphertext::Ciphertext;
use crate::error::Result;
use crate::kernels;
use crate::params::CkksParameters;
use crate::poly::{Limb, LimbPartition, RNSPoly};
use crate::sched::cache::{OwnRuns, RegionHit, RegionShape, RunBinding};
use crate::sched::{
    BoundPlan, CostModel, ExecGraph, ExecPlan, GpuReplayExecutor, PlanCache, PlanConfig, SchedStats,
};

/// Index into the combined modulus chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChainIdx {
    /// Scaling prime `q_i`.
    Q(usize),
    /// Auxiliary prime `p_k`.
    P(usize),
}

/// ModUp tables for one (level, digit) pair.
#[derive(Debug)]
pub(crate) struct ModUpTables {
    /// Conversion from the active digit primes to the complement.
    pub(crate) conv: BaseConverter,
    /// Chain `q` indices of the conversion destination, in destination
    /// order (the `p` limbs follow in natural order).
    pub(crate) dst_q_indices: Vec<usize>,
}

/// Evaluation-domain automorphism permutation, resident on the device.
#[derive(Debug)]
pub struct EvalPerm {
    /// Host copy used by kernel bodies.
    pub host: Vec<u32>,
    /// Device residency (gives the table a BufferId for the L2 model).
    pub dev: VectorGpu<u32>,
}

/// Default number of CUDA streams the server cycles kernel batches over
/// (override per session with
/// [`CkksParameters::with_num_streams`](crate::CkksParameters::with_num_streams)).
pub const NUM_STREAMS: usize = 16;

/// Names a keyed scheduled region ([`CkksContext::scheduled_keyed`]): the
/// instance that issues it and which of its regions it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionKey {
    /// The issuing instance, from [`RegionKey::new_owner`].
    pub owner: u64,
    /// Which of the owner's regions.
    pub phase: u32,
}

impl RegionKey {
    /// An owner id no other instance in this process holds.
    pub fn new_owner() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }
}

/// A keyed region's declared inputs, described before the region runs (so
/// the region may consume them): each ciphertext's slots, scale and noise
/// estimate bits, and each component's limb counts and domain, their
/// buffers' aliasing pattern, and their distinct buffers in declaration
/// order (each ciphertext's `c0` limbs, then `c1`'s).
#[derive(Clone, Debug)]
pub struct RegionInputs {
    shape: Vec<u64>,
    ids: Vec<BufferId>,
}

impl RegionInputs {
    /// Describes `inputs`.
    pub fn new(inputs: &[&Ciphertext]) -> Self {
        let mut shape = vec![inputs.len() as u64];
        let mut ids: Vec<BufferId> = Vec::new();
        let mut aliasing = Vec::new();
        for ct in inputs {
            shape.extend([
                ct.slots() as u64,
                ct.scale().to_bits(),
                ct.noise_log2().to_bits(),
            ]);
            for poly in [ct.c0(), ct.c1()] {
                shape.extend([
                    poly.num_q() as u64,
                    poly.num_p() as u64,
                    u64::from(poly.format() == Domain::Eval),
                ]);
                for limb in &poly.part.limbs {
                    let buf = limb.data.buffer();
                    let j = ids.iter().position(|&b| b == buf).unwrap_or_else(|| {
                        ids.push(buf);
                        ids.len() - 1
                    });
                    aliasing.push(j as u64);
                }
            }
        }
        shape.extend(aliasing);
        Self { shape, ids }
    }
}

/// What a keyed region's output is, as a body-free hit rebuilds it: per
/// component its limb counts, domain and each limb's prime and own ordinal
/// (its index among the ids the region allocated), plus the ciphertext's
/// scale, slots and noise estimate.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct OutputTemplate {
    parts: [PartTemplate; 2],
    scale_bits: u64,
    slots: usize,
    noise_bits: u64,
}

#[derive(Clone, Debug, PartialEq)]
struct PartTemplate {
    num_q: usize,
    num_p: usize,
    format: Domain,
    limbs: Vec<(u64, ChainIdx)>,
}

impl OutputTemplate {
    /// `out`'s template, when `out` is exactly what its region kept: every
    /// limb one of the region's own allocations, and every own allocation
    /// still alive a limb of `out`. `None` otherwise.
    pub(crate) fn of(out: &Ciphertext, own: &OwnWork) -> Option<Self> {
        let runs = OwnRuns::new(&own.own_ids);
        let part = |poly: &RNSPoly| -> Option<PartTemplate> {
            let limbs = poly.part.limbs.iter().map(|limb| {
                let k = runs.ordinal(limb.data.buffer())?;
                Some((k as u64, limb.chain))
            });
            Some(PartTemplate {
                num_q: poly.num_q(),
                num_p: poly.num_p(),
                format: poly.format(),
                limbs: limbs.collect::<Option<_>>()?,
            })
        };
        let parts = [part(out.c0())?, part(out.c1())?];
        let limbs = out.c0().num_limbs() + out.c1().num_limbs();
        let bytes = limbs as u64 * kernels::limb_bytes(out.context().n());
        (own.live_ids == limbs as u64 && own.effect.live_bytes == bytes).then(|| Self {
            parts,
            scale_bits: out.scale().to_bits(),
            slots: out.slots(),
            noise_bits: out.noise_log2().to_bits(),
        })
    }

    /// The output on a run whose own ids start at `first`.
    fn build(&self, ctx: &Arc<CkksContext>, first: u64) -> Ciphertext {
        let gpu = ctx.gpu();
        let [c0, c1] = self.parts.each_ref().map(|part| {
            let limbs = part.limbs.iter().map(|&(k, chain)| Limb {
                data: PoolBuf::on_id(gpu, first + k, ctx.n()),
                chain,
            });
            RNSPoly {
                ctx: Arc::clone(ctx),
                part: LimbPartition::from_limbs(gpu, limbs.collect()),
                num_q: part.num_q,
                num_p: part.num_p,
                format: part.format,
            }
        });
        Ciphertext::from_parts(
            c0,
            c1,
            f64::from_bits(self.scale_bits),
            self.slots,
            f64::from_bits(self.noise_bits),
        )
    }
}

/// The immutable server context.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParameters,
    raw: RawParams,
    gpu: Arc<GpuSim>,
    moduli_q: Vec<Modulus>,
    moduli_p: Vec<Modulus>,
    ntt_q: Vec<Ntt2d>,
    ntt_p: Vec<Ntt2d>,
    partition: DigitPartition,
    /// `[level][digit]` ModUp conversion tables.
    mod_up: Vec<Vec<ModUpTables>>,
    /// `[level]`: conversion `P → q_0..q_level` for ModDown.
    mod_down: Vec<BaseConverter>,
    /// `[l][i]`: `q_l^{-1} mod q_i` for `i < l` (Rescale).
    rescale_inv: Vec<Vec<ShoupPrecomp>>,
    /// `[i]`: `P^{-1} mod q_i` (ModDown).
    p_inv_mod_q: Vec<ShoupPrecomp>,
    /// `[i]`: `P mod q_i`.
    p_mod_q: Vec<u64>,
    /// FLEXIBLEAUTO-style standard scale per level.
    standard_scale: Vec<f64>,
    /// Cache of evaluation-domain automorphism permutations by Galois
    /// element.
    perms: Mutex<HashMap<usize, Arc<EvalPerm>>>,
    /// `NTT(X^{N/2}) mod q_i` — the imaginary-unit monomial used by
    /// bootstrapping's real/imaginary extraction.
    monomial_half: Vec<Vec<u64>>,
    /// Cumulative scheduling-pass counters (graphs planned, kernels fused).
    sched_ledger: Mutex<SchedStats>,
    /// Bounded LRU of finished plans, keyed by structural graph
    /// fingerprint: repeated `eval_scope` bodies replay without planning.
    plan_cache: Mutex<PlanCache>,
    /// What [`Self::plan_config`] hands out. Parameters and device spec are
    /// fixed for the context's lifetime, so this is derived once, not per
    /// scheduled region.
    plan_cfg: PlanConfig,
    /// `0..num_streams`: the signal and waiter list of every
    /// [`Self::sync_batch_streams`] barrier.
    batch_streams: Vec<usize>,
}

impl CkksContext {
    /// Builds the full context (all precomputation of §III-E happens here).
    pub fn new(params: CkksParameters, gpu: Arc<GpuSim>) -> Arc<Self> {
        let raw = params.to_raw();
        Self::from_raw(params, raw, gpu)
    }

    /// Builds the context from an explicit prime chain (used when the client
    /// dictated the chain).
    pub fn from_raw(params: CkksParameters, raw: RawParams, gpu: Arc<GpuSim>) -> Arc<Self> {
        let n = raw.n();
        let moduli_q: Vec<Modulus> = raw.moduli_q.iter().map(|&q| Modulus::new(q)).collect();
        let moduli_p: Vec<Modulus> = raw.moduli_p.iter().map(|&p| Modulus::new(p)).collect();
        let ntt_q: Vec<Ntt2d> = moduli_q
            .iter()
            .map(|&m| Ntt2d::new(NttTable::new(n, m)))
            .collect();
        let ntt_p: Vec<Ntt2d> = moduli_p
            .iter()
            .map(|&m| Ntt2d::new(NttTable::new(n, m)))
            .collect();
        let num_q = moduli_q.len();
        let partition = DigitPartition::new(num_q, raw.dnum);

        // ModUp converters per (level, digit).
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
                per_digit.push(ModUpTables {
                    conv: BaseConverter::new(&src, &dst),
                    dst_q_indices,
                });
            }
            mod_up.push(per_digit);
        }

        // ModDown converters P → Q_l.
        let mod_down: Vec<BaseConverter> = (0..num_q)
            .map(|level| BaseConverter::new(&moduli_p, &moduli_q[..=level]))
            .collect();

        // Rescale scalars.
        let rescale_inv: Vec<Vec<ShoupPrecomp>> = (0..num_q)
            .map(|l| {
                (0..l)
                    .map(|i| {
                        let m = &moduli_q[i];
                        ShoupPrecomp::new(m.inv_mod(m.reduce_u64(moduli_q[l].value())), m)
                    })
                    .collect()
            })
            .collect();

        let p_values = raw.moduli_p.clone();
        let p_inv_mod_q: Vec<ShoupPrecomp> = moduli_q
            .iter()
            .map(|m| ShoupPrecomp::new(product_inv_mod(&p_values, m), m))
            .collect();
        let p_mod_q: Vec<u64> = moduli_q.iter().map(|m| product_mod(&p_values, m)).collect();

        // Standard (FLEXIBLEAUTO-style) scale ladder.
        let mut standard_scale = vec![0.0f64; num_q];
        let delta = raw.scale();
        standard_scale[num_q - 1] = delta;
        for l in (0..num_q - 1).rev() {
            let s_next = standard_scale[l + 1];
            standard_scale[l] = s_next * s_next / moduli_q[l + 1].value() as f64;
        }

        // NTT(X^{N/2}) per q prime.
        let monomial_half: Vec<Vec<u64>> = ntt_q
            .iter()
            .map(|t| t.table().forward_monomial_half())
            .collect();

        let plan_cfg = PlanConfig {
            fuse_elementwise: params.fusion.elementwise,
            num_streams: params.num_streams,
            cost: CostModel::from_spec(&gpu.spec()),
            devices: params.num_devices,
            ..PlanConfig::default()
        };
        let batch_streams: Vec<usize> = (0..params.num_streams.max(1)).collect();

        Arc::new(Self {
            params,
            raw,
            gpu,
            moduli_q,
            moduli_p,
            ntt_q,
            ntt_p,
            partition,
            mod_up,
            mod_down,
            rescale_inv,
            p_inv_mod_q,
            p_mod_q,
            standard_scale,
            perms: Mutex::new(HashMap::new()),
            monomial_half,
            sched_ledger: Mutex::new(SchedStats::default()),
            plan_cache: Mutex::new(PlanCache::default()),
            plan_cfg,
            batch_streams,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParameters {
        &self.params
    }

    /// The shared client/server parameter description.
    pub fn raw_params(&self) -> &RawParams {
        &self.raw
    }

    /// The simulated device.
    pub fn gpu(&self) -> &Arc<GpuSim> {
        &self.gpu
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.raw.n()
    }

    /// Maximum level `L`.
    pub fn max_level(&self) -> usize {
        self.raw.max_level()
    }

    /// Number of auxiliary primes `α`.
    pub fn alpha(&self) -> usize {
        self.moduli_p.len()
    }

    /// Scaling moduli.
    pub fn moduli_q(&self) -> &[Modulus] {
        &self.moduli_q
    }

    /// Auxiliary moduli.
    pub fn moduli_p(&self) -> &[Modulus] {
        &self.moduli_p
    }

    /// The digit partition.
    pub fn partition(&self) -> &DigitPartition {
        &self.partition
    }

    /// Modulus for a chain index.
    pub fn modulus(&self, c: ChainIdx) -> &Modulus {
        match c {
            ChainIdx::Q(i) => &self.moduli_q[i],
            ChainIdx::P(k) => &self.moduli_p[k],
        }
    }

    /// NTT tables for a chain index.
    pub fn ntt(&self, c: ChainIdx) -> &Ntt2d {
        match c {
            ChainIdx::Q(i) => &self.ntt_q[i],
            ChainIdx::P(k) => &self.ntt_p[k],
        }
    }

    /// The standard scale `σ_ℓ` the FLEXIBLEAUTO-style ladder assigns to
    /// `level`.
    pub fn standard_scale(&self, level: usize) -> f64 {
        self.standard_scale[level]
    }

    /// Fresh-encryption scale `Δ`.
    pub fn fresh_scale(&self) -> f64 {
        self.raw.scale()
    }

    pub(crate) fn mod_up_tables(&self, level: usize, digit: usize) -> &ModUpTables {
        &self.mod_up[level][digit]
    }

    pub(crate) fn mod_down_conv(&self, level: usize) -> &BaseConverter {
        &self.mod_down[level]
    }

    pub(crate) fn rescale_scalar(&self, l: usize, i: usize) -> &ShoupPrecomp {
        &self.rescale_inv[l][i]
    }

    pub(crate) fn p_inv_mod_q(&self, i: usize) -> &ShoupPrecomp {
        &self.p_inv_mod_q[i]
    }

    /// `P mod q_i`.
    pub fn p_mod_q(&self, i: usize) -> u64 {
        self.p_mod_q[i]
    }

    /// `NTT(X^{N/2})` for prime `q_i` (the "multiply by i" monomial).
    pub(crate) fn monomial_half(&self, i: usize) -> &[u64] {
        &self.monomial_half[i]
    }

    /// The cached evaluation-domain permutation for Galois element `g`.
    pub fn eval_perm(&self, g: usize) -> Arc<EvalPerm> {
        let mut cache = self.perms.lock();
        if let Some(p) = cache.get(&g) {
            return Arc::clone(p);
        }
        let host = build_eval_permutation(self.n(), g);
        let mut dev = VectorGpu::<u32>::new(&self.gpu, host.len());
        dev.copy_from_slice(&host);
        let entry = Arc::new(EvalPerm { host, dev });
        cache.insert(g, Arc::clone(&entry));
        entry
    }

    /// int32 ops of one NTT phase over one limb, scaled by the configured
    /// radix cost factor.
    pub(crate) fn ntt_phase_ops_scaled(&self) -> u64 {
        (crate::kernels::ntt_phase_ops(self.n()) as f64 * self.params.ntt_op_factor) as u64
    }

    /// Limb-batch ranges over `count` limbs (§III-F.1).
    pub fn batch_ranges(
        &self,
        count: usize,
    ) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
        let b = self.params.limb_batch.max(1);
        (0..count.div_ceil(b)).map(move |k| (k * b)..((k + 1) * b).min(count))
    }

    /// Stream assignment for batch `k` (round-robin over the configured
    /// stream count).
    pub fn stream_for_batch(&self, k: usize) -> usize {
        k % self.params.num_streams.max(1)
    }

    /// Synchronizes every stream used by batched kernels (cross-limb
    /// dependency barrier). Inside a scheduled region this records a graph
    /// barrier instead of fencing immediately.
    pub fn sync_batch_streams(&self) {
        self.gpu.fence(&self.batch_streams, &self.batch_streams);
    }

    /// Runs `f` as one scheduled region of the stream-graph engine: kernel
    /// launches inside `f` are recorded into an [`ExecGraph`] instead of
    /// timed, then a planning pass fuses elementwise chains and assigns
    /// streams, and the resulting plan replays onto the device before this
    /// returns. Regions nest — inner regions contribute their kernels to the
    /// outermost graph, so wrapping a whole circuit fuses across op
    /// boundaries.
    ///
    /// Capture is per-thread (see [`GpuSim::begin_capture`]); if `f`
    /// unwinds, the region is closed and its recording discarded rather
    /// than leaked.
    pub fn scheduled<R>(&self, f: impl FnOnce() -> R) -> R {
        self.graph_scope_begin();
        let mut guard = CloseGuard {
            ctx: self,
            armed: true,
        };
        let r = f();
        guard.armed = false;
        self.graph_scope_end();
        r
    }

    /// Opens a scheduled region without a closure (for callers holding
    /// borrows a closure cannot capture, e.g. the engine's batch API).
    /// Pair with [`Self::graph_scope_end`] (or [`Self::graph_scope_abort`]
    /// on the unwind path).
    pub fn graph_scope_begin(&self) {
        self.gpu.begin_capture();
    }

    /// Closes a scheduled region opened by [`Self::graph_scope_begin`]. The
    /// outermost close plans and replays the recorded graph; nested closes
    /// (and closes from threads that own no capture) are no-ops.
    ///
    /// Planning goes through the context's [`PlanCache`] first: a region
    /// whose structural shape matches an already-planned graph (same op
    /// descriptors, streams, barrier shapes and buffer aliasing — buffer
    /// *identities* are translated during replay) replays the shared cached
    /// plan with zero planning work and no copy. Hits and misses land in
    /// [`Self::sched_stats`] and the device ledger. The replay is memoised
    /// ([`GpuSim::replay_memoised`]): a plan that enters an L2 state it was
    /// recorded from (a state is recorded the second time an unmatched
    /// replay enters it) reuses that replay's L2 classification instead of
    /// re-running the L2 model, counted in
    /// [`SimStats::replay_memo_hits`](fides_gpu_sim::SimStats::replay_memo_hits).
    /// The replayed capture
    /// log goes back to the device
    /// ([`GpuSim::recycle_capture_log`]), so a repeated region records
    /// into the capacity the last one grew.
    pub fn graph_scope_end(&self) {
        let capture = self.gpu.end_capture();
        if capture.events.is_empty() {
            return;
        }
        let graph = ExecGraph::from_capture(capture);
        // The cache stays locked through the replay: the memo belongs to
        // the bound entry, and names lines through the bind's numbering.
        let mut cache = self.plan_cache.lock();
        let bound = self.bind_one(&mut cache, &graph);
        GpuReplayExecutor::new(&self.gpu).execute_memoised(&bound, &mut cache);
        drop(cache);
        // The next region records into this one's arenas.
        self.gpu.recycle_capture_log(graph.log);
        self.book(bound.plan(), bound.is_hit(), false);
    }

    /// Looks `graph` up in (or plans it into) the locked `cache`.
    fn bind_one(&self, cache: &mut PlanCache, graph: &ExecGraph) -> BoundPlan {
        cache
            .bind(&self.plan_cfg, &[graph], false)
            .pop()
            .expect("one region, one plan")
    }

    /// Books one replayed region in the scheduling ledger.
    fn book(&self, plan: &ExecPlan, hit: bool, record_free: bool) {
        let mut ledger = self.sched_ledger.lock();
        ledger.absorb(plan.stats());
        if hit {
            ledger.plan_cache_hits += 1;
        } else {
            ledger.plan_cache_misses += 1;
        }
        ledger.record_free_hits += u64::from(record_free);
    }

    /// Closes a scheduled region **discarding** its recording (no plan, no
    /// replay) — the unwind path, where replaying timing for work that
    /// panicked midway would be meaningless.
    pub fn graph_scope_abort(&self) {
        let _ = self.gpu.end_capture();
    }

    /// As [`Self::scheduled`], for a region whose kernel schedule and
    /// output shape are a function of `key` and the shapes of `inputs`
    /// alone: every buffer it reads is one of `inputs`' limbs, one it
    /// allocates itself, or one that outlives it (keys, diagonals,
    /// permutations). The inputs are described before `f` runs, so `f` may
    /// consume them.
    ///
    /// In cost-only mode such a region is looked up before it runs. Once a
    /// recording of it has succeeded and resolved to a plan-cache hit, the
    /// cache keeps that entry for the region's shape — `key`, each input's
    /// level, limb counts, domains, slots, scale and noise bits, and how
    /// the inputs alias — with each binding position classed as own
    /// allocation, input buffer or constant, what the recording did to the
    /// device pool ([`OwnWork::effect`]), and, when the output is exactly
    /// what the recording kept, the output's template. A later outermost
    /// run of the same shape with a template does not call `f`: it drops
    /// `f` (releasing what `f` would have consumed), applies the pool
    /// effect ([`GpuSim::apply_pool_effect`]), builds its output from the
    /// template on the ids that gives, and replays the cached plan through
    /// the same memoised path, counted in [`SchedStats::record_free_hits`]
    /// and as a plan-cache hit. Nothing is recorded and no graph is walked.
    /// Any other run records as [`Self::scheduled`] does, and a recording
    /// whose `f` failed registers nothing. In functional mode `f` runs for
    /// its data, so the region is an ordinary [`Self::scheduled`] one.
    ///
    /// Lock order: the plan cache's lock, then the device lock.
    ///
    /// # Panics
    ///
    /// If a recorded run of a registered shape did other work than its
    /// registration: other launches, fingerprint, binding, pool effect or
    /// output template, or an error where the registration has a template.
    /// Release builds only record the runs they cannot rebuild; debug
    /// builds record every run, so this is the check that catches a region
    /// reading a buffer it did not declare.
    pub fn scheduled_keyed(
        self: &Arc<Self>,
        key: RegionKey,
        inputs: RegionInputs,
        f: impl FnOnce() -> Result<Ciphertext>,
    ) -> Result<Ciphertext> {
        if self.gpu.is_functional() {
            return self.scheduled(f);
        }
        let RegionInputs { shape, ids } = inputs;
        let mut shape: RegionShape = shape;
        shape.extend([key.owner, u64::from(key.phase)]);
        let hit = self.plan_cache.lock().region(&shape);
        // Debug builds record every hit, to check it.
        let body_free = hit
            .as_ref()
            .and_then(|hit| Some((hit, hit.region.output()?)))
            .filter(|_| !cfg!(debug_assertions) && !self.gpu.capturing_on_current_thread());
        if let Some((hit, out)) = body_free {
            drop(f);
            return Ok(self.replay_body_free(hit, out, &ids));
        }
        let outermost = self.gpu.begin_capture();
        let mut guard = CloseGuard {
            ctx: self,
            armed: true,
        };
        let r = f();
        guard.armed = false;
        if outermost {
            let (capture, own) = self.gpu.end_capture_owned();
            self.close_keyed(shape, &ids, hit, capture, &own, &r);
        } else {
            // Part of an enclosing region, which plans it.
            self.graph_scope_end();
        }
        r
    }

    /// A body-free run of the registered shape `hit`: the region's pool
    /// effect, its output built from `out`, and the cached plan replayed
    /// onto the ids the effect handed out and `inputs`.
    fn replay_body_free(
        self: &Arc<Self>,
        hit: &RegionHit,
        out: &OutputTemplate,
        inputs: &[BufferId],
    ) -> Ciphertext {
        let own = [self.gpu.apply_pool_effect(hit.region.effect())];
        let ct = out.build(self, own[0].start);
        let binding = RunBinding::new(&hit.region, &own, inputs);
        let mut cache = self.plan_cache.lock();
        let memo = cache.hit_region(hit);
        GpuReplayExecutor::new(&self.gpu).execute_region(hit.plan(), hit.planned(), &binding, memo);
        drop(cache);
        self.book(hit.plan(), true, true);
        ct
    }

    /// The outermost close of a recorded keyed region: plans the recording
    /// as [`Self::graph_scope_end`] does, checking it against `hit`, or
    /// registering the shape when it hit the plan cache.
    fn close_keyed(
        &self,
        shape: RegionShape,
        inputs: &[BufferId],
        hit: Option<RegionHit>,
        capture: Capture,
        own: &OwnWork,
        out: &Result<Ciphertext>,
    ) {
        if let (Some(hit), Err(e)) = (&hit, out) {
            assert!(
                hit.region.output().is_none(),
                "a keyed region failed on a hit of its key: {e}"
            );
        }
        if capture.events.is_empty() {
            return;
        }
        let graph = ExecGraph::from_capture(capture);
        let launches = graph.kernel_count() as u64;
        let output = out.as_ref().ok().and_then(|ct| OutputTemplate::of(ct, own));
        let mut cache = self.plan_cache.lock();
        let bound = self.bind_one(&mut cache, &graph);
        let record_free = match (&hit, out) {
            (Some(hit), Ok(_)) => {
                let region = &hit.region;
                let binding = RunBinding::new(region, &own.own_ids, inputs);
                assert!(
                    launches == region.launches
                        && own.effect == *region.effect()
                        && output.as_ref() == region.output(),
                    "a keyed region did other work than its cached plan: {launches} launches \
                     and {:?} against {} and {:?}",
                    own.effect,
                    region.launches,
                    region.effect(),
                );
                assert_eq!(
                    bound.fp(),
                    hit.fp(),
                    "a keyed region's key missed its shape"
                );
                assert!(
                    binding.to_vec() == bound.current_binding(),
                    "a keyed region read a buffer it did not declare"
                );
                // What a release build rebuilds without recording.
                output.is_some()
            }
            (None, Ok(_)) if bound.is_hit() => {
                cache.register_region(shape, &bound, launches, own, inputs, output);
                false
            }
            _ => false,
        };
        GpuReplayExecutor::new(&self.gpu).execute_memoised(&bound, &mut cache);
        drop(cache);
        self.gpu.recycle_capture_log(graph.log);
        self.book(bound.plan(), bound.is_hit(), record_free);
    }

    /// The planning configuration this context schedules with: fusion and
    /// stream knobs from the parameters, plus a [`CostModel`] calibrated
    /// from the *active* device spec (not hard-coded constants) and the
    /// configured device count — both feed the plan-cache fingerprint, so
    /// changing the device or the topology invalidates cached plans.
    pub fn plan_config(&self) -> PlanConfig {
        self.plan_cfg
    }

    /// Snapshot of the cumulative scheduling counters.
    pub fn sched_stats(&self) -> SchedStats {
        *self.sched_ledger.lock()
    }

    /// Clears the scheduling counters.
    pub fn reset_sched_stats(&self) {
        *self.sched_ledger.lock() = SchedStats::default();
    }

    /// Every plan the context's cache holds, least recently used first
    /// (see [`PlanCache::export_entries`]).
    pub fn cached_plans(&self) -> Vec<(u64, Arc<ExecPlan>, Arc<[BufferId]>)> {
        self.plan_cache.lock().export_entries()
    }
}

/// Close-on-unwind guard: a panicking op must not leave the capture region
/// open (every later launch would record forever).
struct CloseGuard<'a> {
    ctx: &'a CkksContext,
    armed: bool,
}

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.ctx.graph_scope_abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{DeviceSpec, ExecMode};

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParameters::toy(),
            GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional),
        )
    }

    #[test]
    fn context_tables_consistent() {
        let c = ctx();
        assert_eq!(c.max_level(), 4);
        assert_eq!(c.moduli_q().len(), 5);
        assert_eq!(c.alpha(), 3); // ceil(5/2)
                                  // Rescale scalar is the inverse of q_l mod q_i.
        let l = 4;
        for i in 0..l {
            let m = &c.moduli_q()[i];
            let q_l = m.reduce_u64(c.moduli_q()[l].value());
            let inv = c.rescale_scalar(l, i).mul(q_l, m);
            assert_eq!(inv, 1);
        }
        // P scalars.
        for i in 0..=c.max_level() {
            let m = &c.moduli_q()[i];
            assert_eq!(c.p_inv_mod_q(i).mul(c.p_mod_q(i), m), 1);
        }
    }

    #[test]
    fn standard_scale_ladder() {
        let c = ctx();
        let top = c.standard_scale(c.max_level());
        assert_eq!(top, 2f64.powi(40));
        for l in 0..c.max_level() {
            let s = c.standard_scale(l);
            assert!((s / top - 1.0).abs() < 0.01, "σ_{l} = {s} drifted from Δ");
        }
    }

    #[test]
    fn batch_ranges_cover_and_respect_batch() {
        let c = ctx(); // limb_batch = 2
        let ranges: Vec<_> = c.batch_ranges(5).collect();
        assert_eq!(ranges, vec![0..2, 2..4, 4..5]);
        assert_eq!(c.batch_ranges(0).len(), 0);
    }

    #[test]
    fn scheduled_region_fuses_elementwise_chains() {
        use crate::poly::RNSPoly;
        use fides_client::Domain;
        let c = ctx(); // limb_batch 2, fusion on
        let gpu = Arc::clone(c.gpu());
        let mut a = RNSPoly::zero(&c, 4, false, Domain::Eval); // 5 limbs → 3 batches
        let b = RNSPoly::zero(&c, 4, false, Domain::Eval);
        gpu.reset_stats();
        c.reset_sched_stats();
        // Two chained adds per batch stream: 6 recorded elementwise
        // kernels. Stage-1 fusion collapses each stream's pair, and — the
        // kernels being far below the host submission interval at toy
        // scale — the scheduler packs the three
        // independent chains onto one stream and merges them too (their
        // slice traffic is alias-light), so the whole region is a single
        // launch.
        c.scheduled(|| {
            a.add_assign_poly(&b);
            a.add_assign_poly(&b);
        });
        let sched = c.sched_stats();
        assert_eq!(sched.graphs, 1);
        assert_eq!(sched.recorded_kernels, 6);
        assert_eq!(sched.fused_kernels, 5);
        assert_eq!(gpu.stats().kernel_launches, 1, "region fuses to one launch");
    }

    #[test]
    fn scheduled_region_is_reentrant() {
        use crate::poly::RNSPoly;
        use fides_client::Domain;
        let c = ctx();
        let mut a = RNSPoly::zero(&c, 2, false, Domain::Eval);
        let b = RNSPoly::zero(&c, 2, false, Domain::Eval);
        c.reset_sched_stats();
        c.scheduled(|| {
            c.scheduled(|| a.add_assign_poly(&b));
            c.scheduled(|| a.add_assign_poly(&b));
        });
        // One graph owned by the outermost region; inner regions contribute.
        assert_eq!(c.sched_stats().graphs, 1);
    }

    #[test]
    fn panicking_scheduled_region_is_closed_not_leaked() {
        use crate::poly::RNSPoly;
        use fides_client::Domain;
        let c = ctx();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.scheduled(|| panic!("op failed midway"));
        }));
        assert!(result.is_err());
        assert!(
            !c.gpu().is_capturing(),
            "unwind must close the capture region"
        );
        // Subsequent ops schedule normally.
        let mut a = RNSPoly::zero(&c, 2, false, Domain::Eval);
        let b = RNSPoly::zero(&c, 2, false, Domain::Eval);
        c.reset_sched_stats();
        c.scheduled(|| a.add_assign_poly(&b));
        assert_eq!(c.sched_stats().graphs, 1, "engine usable after panic");
    }

    #[test]
    fn stream_count_is_configurable() {
        let params = CkksParameters::toy().with_num_streams(2);
        let c = CkksContext::new(
            params,
            GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly),
        );
        assert_eq!(c.stream_for_batch(0), 0);
        assert_eq!(c.stream_for_batch(1), 1);
        assert_eq!(c.stream_for_batch(2), 0, "wraps at the configured count");
    }

    #[test]
    fn eval_perm_cached() {
        let c = ctx();
        let p1 = c.eval_perm(5);
        let p2 = c.eval_perm(5);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(p1.host.len(), c.n());
    }

    #[test]
    fn mod_up_tables_shapes() {
        let c = ctx();
        // Level 4, digit 0: src = q0..q1 (alpha... digit size ceil(5/2)=3 → digit0 = 0..3).
        let t = c.mod_up_tables(4, 0);
        assert_eq!(t.conv.src().len(), 3);
        assert_eq!(t.dst_q_indices, vec![3, 4]);
        assert_eq!(t.conv.dst().len(), 2 + 3); // 2 q + 3 p
                                               // Level 1: only digit 0 active with 2 primes.
        let t = c.mod_up_tables(1, 0);
        assert_eq!(t.conv.src().len(), 2);
        assert!(t.dst_q_indices.is_empty());
    }

    #[test]
    fn monomial_is_imaginary_unit_squared_minus_one() {
        // NTT(X^{N/2}) ⊙ NTT(X^{N/2}) = NTT(X^N) = NTT(-1).
        let c = ctx();
        let m = &c.moduli_q()[0];
        let mono = c.monomial_half(0);
        let sq0 = m.mul_mod(mono[0], mono[0]);
        assert_eq!(
            sq0,
            m.value() - 1,
            "X^{{N/2}} squared must be -1 in eval domain"
        );
    }
}
