//! Device-resident RNS polynomials: the `RNSPoly → LimbPartition → Limb →
//! VectorGPU` composition of the paper's Fig. 2.
//!
//! Every method that touches limb data is expressed as simulated kernel
//! launches: limbs are grouped into batches (§III-F.1), each batch becomes
//! one kernel on a stream chosen round-robin, and NTTs are charged as the two
//! hierarchical passes of Fig. 3. Cross-limb operations (base conversion,
//! rescale) fence the batch streams first.
//!
//! Inside a scheduled region ([`CkksContext::scheduled`]) these launches are
//! *recorded* into the flat event log of the lazy [`ExecGraph`](crate::sched) —
//! with the limb batch, stream and fence structure intact — instead of timed
//! eagerly; the planning pass then fuses elementwise chains and replays the
//! plan. Functional results are identical either way (the kernels are
//! data-oblivious); only the timing model sees the difference.
//!
//! A polynomial's [`LimbPartition`] owns its limbs' device ids as one set:
//! the limbs hold no device handle, each place that creates a batch of
//! limbs takes their ids as one run, and every drop or truncation returns
//! its limbs to the pool under one device lock.

use std::sync::Arc;

use fides_client::Domain;
use fides_gpu_sim::{Accesses, BufferId, GpuSim, KernelDesc, KernelKind, PoolBuf, PoolSet};
use fides_math::{automorphism_eval, Modulus, PolyOps};

use crate::context::{ChainIdx, CkksContext};
use crate::kernels;

/// One RNS limb: a polynomial under a single prime, resident on the device.
#[derive(Debug)]
pub struct Limb {
    /// The device buffer (one contiguous array per limb — the
    /// stack-of-arrays layout of §III-D), released by its partition.
    pub(crate) data: PoolBuf<u64>,
    /// Which prime this limb reduces modulo.
    pub(crate) chain: ChainIdx,
}

impl Limb {
    /// The prime index of this limb.
    pub fn chain(&self) -> ChainIdx {
        self.chain
    }
}

/// The portion of a polynomial resident on one device. The current FIDESlib
/// release is single-GPU, so every [`RNSPoly`] holds exactly one partition
/// (multi-GPU support would shard limbs across partitions).
///
/// The partition holds the one device handle its limbs need and owns their
/// pool ids: dropping it, or truncating it, releases the limbs it gives up
/// under one device lock.
#[derive(Debug)]
pub struct LimbPartition {
    gpu: Arc<GpuSim>,
    pub(crate) limbs: Vec<Limb>,
}

impl LimbPartition {
    /// An empty partition on `gpu` with room for `capacity` limbs.
    pub(crate) fn with_capacity(gpu: &Arc<GpuSim>, capacity: usize) -> Self {
        Self {
            gpu: Arc::clone(gpu),
            limbs: Vec::with_capacity(capacity),
        }
    }

    /// Takes ownership of limbs allocated from `gpu`'s pool.
    pub(crate) fn from_limbs(gpu: &Arc<GpuSim>, limbs: Vec<Limb>) -> Self {
        Self {
            gpu: Arc::clone(gpu),
            limbs,
        }
    }

    /// Appends one zeroed limb of `n` coefficients per chain index, their
    /// ids taken as one run.
    pub(crate) fn push_run<I>(&mut self, n: usize, chains: I)
    where
        I: IntoIterator<Item = ChainIdx>,
        I::IntoIter: ExactSizeIterator,
    {
        let chains = chains.into_iter();
        let run = PoolBuf::run(&self.gpu, chains.len(), n);
        self.limbs
            .extend(run.zip(chains).map(|(data, chain)| Limb { data, chain }));
    }

    /// Releases every limb of `a`, then every limb of `b`, under one device
    /// lock (both on `a`'s device).
    pub(crate) fn release_pair(a: &mut Self, b: &mut Self) {
        debug_assert!(Arc::ptr_eq(&a.gpu, &b.gpu), "one device");
        if !(a.limbs.is_empty() && b.limbs.is_empty()) {
            let limbs = a.limbs.drain(..).chain(b.limbs.drain(..));
            a.gpu.release(limbs.map(|l| l.data.into_release()));
        }
    }

    /// Keeps the first `len` limbs and releases the rest, in order.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.truncate_after(std::iter::empty(), len);
    }

    /// Releases `first` (an op's last temporaries, freed at the same point),
    /// then every limb from `len` on, in order, under one device lock.
    pub(crate) fn truncate_after(
        &mut self,
        first: impl IntoIterator<Item = (BufferId, u64)>,
        len: usize,
    ) {
        let mut first = first.into_iter().peekable();
        let len = len.min(self.limbs.len());
        if first.peek().is_some() || len < self.limbs.len() {
            let rest = self.limbs.drain(len..).map(|l| l.data.into_release());
            self.gpu.release(first.chain(rest));
        }
    }
}

impl Drop for LimbPartition {
    fn drop(&mut self) {
        self.truncate(0);
    }
}

/// A device-resident RNS polynomial of degree `N` over the active chain
/// `q_0..q_level` plus (during key switching) the extension base `P`.
#[derive(Debug)]
pub struct RNSPoly {
    pub(crate) ctx: Arc<CkksContext>,
    pub(crate) part: LimbPartition,
    pub(crate) num_q: usize,
    pub(crate) num_p: usize,
    pub(crate) format: Domain,
}

impl RNSPoly {
    /// Allocates an all-zero polynomial with `level + 1` q-limbs and,
    /// optionally, the `α` extension limbs.
    pub fn zero(ctx: &Arc<CkksContext>, level: usize, with_p: bool, format: Domain) -> Self {
        let num_p = if with_p { ctx.alpha() } else { 0 };
        let mut part = LimbPartition::with_capacity(ctx.gpu(), level + 1 + ctx.alpha());
        let chain = |i: usize| match i.checked_sub(level + 1) {
            None => ChainIdx::Q(i),
            Some(k) => ChainIdx::P(k),
        };
        part.push_run(ctx.n(), (0..level + 1 + num_p).map(chain));
        Self {
            ctx: Arc::clone(ctx),
            part,
            num_q: level + 1,
            num_p,
            format,
        }
    }

    /// Builds a polynomial from host limb data ordered `q_0..q_level` (an
    /// adapter-layer upload; the PCIe transfer is charged separately).
    pub fn from_host_q_limbs(ctx: &Arc<CkksContext>, limbs: Vec<Vec<u64>>, format: Domain) -> Self {
        let num_q = limbs.len();
        let device_limbs = PoolBuf::upload_run(ctx.gpu(), limbs)
            .enumerate()
            .map(|(i, data)| Limb {
                data,
                chain: ChainIdx::Q(i),
            })
            .collect();
        Self {
            ctx: Arc::clone(ctx),
            part: LimbPartition::from_limbs(ctx.gpu(), device_limbs),
            num_q,
            num_p: 0,
            format,
        }
    }

    /// Level of the polynomial (`num_q − 1`).
    pub fn level(&self) -> usize {
        self.num_q - 1
    }

    /// Number of q-limbs.
    pub fn num_q(&self) -> usize {
        self.num_q
    }

    /// Number of extension limbs.
    pub fn num_p(&self) -> usize {
        self.num_p
    }

    /// Representation domain.
    pub fn format(&self) -> Domain {
        self.format
    }

    /// Total limbs (q + p).
    pub fn num_limbs(&self) -> usize {
        self.part.limbs.len()
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// Copies limb data back to the host (`q` limbs only).
    pub fn to_host_q_limbs(&self) -> Vec<Vec<u64>> {
        self.part.limbs[..self.num_q]
            .iter()
            .map(|l| l.data.to_vec())
            .collect()
    }

    pub(crate) fn limb(&self, i: usize) -> &Limb {
        &self.part.limbs[i]
    }

    fn n(&self) -> usize {
        self.ctx.n()
    }

    /// Deep copy through simulated device-to-device copy kernels.
    pub fn duplicate(&self) -> Self {
        let [copy] = Self::duplicate_all([self]);
        copy
    }

    /// Deep copies of `polys` (`K ≥ 1`, one context), in order, every
    /// copy's limb ids taken as one run (a ciphertext's two components).
    pub(crate) fn duplicate_all<const K: usize>(polys: [&RNSPoly; K]) -> [RNSPoly; K] {
        let gpu = polys[0].ctx.gpu();
        let total = polys.iter().map(|p| p.num_limbs()).sum();
        let mut run = PoolBuf::run(gpu, total, polys[0].n());
        polys.map(|p| {
            let limbs = p.part.limbs.iter().zip(&mut run);
            let limbs = limbs.map(|(l, data)| Limb {
                data,
                chain: l.chain,
            });
            p.copy_into(LimbPartition::from_limbs(gpu, limbs.collect()))
        })
    }

    /// Copies every limb into `part`'s through per-batch copy kernels.
    fn copy_into(&self, mut part: LimbPartition) -> Self {
        let ctx = Arc::clone(&self.ctx);
        let gpu = ctx.gpu();
        let lb = kernels::limb_bytes(self.n());
        for (k, range) in ctx.batch_ranges(self.part.limbs.len()).enumerate() {
            let stream = ctx.stream_for_batch(k);
            let src = &self.part.limbs[range.clone()];
            let dst = &mut part.limbs[range];
            gpu.launch(stream, KernelDesc::new(KernelKind::Fill), |d| {
                for (s, t) in src.iter().zip(dst.iter()) {
                    d.read(s.data.buffer(), lb).write(t.data.buffer(), lb);
                }
            })
            .run(|| {
                for (s, t) in src.iter().zip(dst.iter_mut()) {
                    t.data.copy_from_slice(s.data.as_slice());
                }
            });
        }
        Self {
            ctx,
            part,
            num_q: self.num_q,
            num_p: self.num_p,
            format: self.format,
        }
    }

    /// Generic batched elementwise kernel over `self` (in place), reading
    /// zero or more other polynomials at the same limb positions.
    pub(crate) fn zip_kernel(
        &mut self,
        others: &[&RNSPoly],
        ops_per_limb: u64,
        f: impl Fn(&Modulus, &mut [u64], &[&[u64]]),
    ) {
        for o in others {
            assert_eq!(
                o.part.limbs.len(),
                self.part.limbs.len(),
                "limb count mismatch"
            );
            assert_eq!(o.format, self.format, "format mismatch");
        }
        let ctx = Arc::clone(&self.ctx);
        let gpu = ctx.gpu();
        let lb = kernels::limb_bytes(self.n());
        for (k, range) in ctx.batch_ranges(self.part.limbs.len()).enumerate() {
            let stream = ctx.stream_for_batch(k);
            let desc =
                KernelDesc::new(KernelKind::Elementwise).ops(ops_per_limb * range.len() as u64);
            let limbs = &mut self.part.limbs;
            gpu.launch(stream, desc, |d| {
                for i in range.clone() {
                    let own = limbs[i].data.buffer();
                    d.read(own, lb).write(own, lb);
                    for o in others {
                        d.read(o.part.limbs[i].data.buffer(), lb);
                    }
                }
            })
            .run(|| {
                for i in range.clone() {
                    let srcs: Vec<&[u64]> = others
                        .iter()
                        .map(|o| o.part.limbs[i].data.as_slice())
                        .collect();
                    let limb = &mut limbs[i];
                    f(ctx.modulus(limb.chain), limb.data.as_mut_slice(), &srcs);
                }
            });
        }
    }

    /// `self += other`.
    pub fn add_assign_poly(&mut self, other: &RNSPoly) {
        let ops = kernels::add_ops(self.n());
        self.zip_kernel(&[other], ops, |m, dst, srcs| {
            m.add_assign_slices(dst, srcs[0])
        });
    }

    /// `self -= other`.
    pub fn sub_assign_poly(&mut self, other: &RNSPoly) {
        let ops = kernels::add_ops(self.n());
        self.zip_kernel(&[other], ops, |m, dst, srcs| {
            m.sub_assign_slices(dst, srcs[0])
        });
    }

    /// `self = -self`.
    pub fn neg_assign(&mut self) {
        let ops = kernels::add_ops(self.n());
        self.zip_kernel(&[], ops, |m, dst, _| m.neg_assign(dst));
    }

    /// `self ⊙= other` (pointwise modular multiplication; both eval domain).
    pub fn mul_assign_poly(&mut self, other: &RNSPoly) {
        assert_eq!(
            self.format,
            Domain::Eval,
            "dyadic product needs evaluation domain"
        );
        let ops = kernels::mul_ops(self.n());
        self.zip_kernel(&[other], ops, |m, dst, srcs| {
            m.mul_assign_slices(dst, srcs[0])
        });
    }

    /// `self += a ⊙ b` (fused multiply-accumulate, the dot-product fusion of
    /// §III-F.5).
    pub fn mul_add_assign_poly(&mut self, a: &RNSPoly, b: &RNSPoly) {
        assert_eq!(self.format, Domain::Eval);
        let ops = kernels::mul_add_ops(self.n());
        self.zip_kernel(&[a, b], ops, |m, dst, srcs| {
            m.mul_add_assign_slices(dst, srcs[0], srcs[1])
        });
    }

    /// `out = a ⊙ b` into a fresh polynomial.
    pub fn mul_poly(a: &RNSPoly, b: &RNSPoly) -> RNSPoly {
        let mut out = a.duplicate();
        out.mul_assign_poly(b);
        out
    }

    /// Per-limb scalar multiply: `self[i] ⊙= scalars[i]` (limb order).
    pub fn scalar_mul_assign(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.part.limbs.len());
        let ops = kernels::mul_ops(self.n());
        let scalars = scalars.to_vec();
        self.indexed_kernel(ops, move |idx, m, dst| {
            m.scalar_mul_assign(dst, scalars[idx])
        });
    }

    /// Per-limb scalar add: `self[i] += scalars[i]` (limb order). In
    /// evaluation domain this adds a constant to every slot (ScalarAdd).
    pub fn scalar_add_assign(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.part.limbs.len());
        let ops = kernels::add_ops(self.n());
        let scalars = scalars.to_vec();
        self.indexed_kernel(ops, move |idx, m, dst| {
            m.scalar_add_assign(dst, scalars[idx])
        });
    }

    /// Elementwise kernel that knows the limb position (for per-limb
    /// constants).
    pub(crate) fn indexed_kernel(
        &mut self,
        ops_per_limb: u64,
        f: impl Fn(usize, &Modulus, &mut [u64]),
    ) {
        let ctx = Arc::clone(&self.ctx);
        let gpu = ctx.gpu();
        let lb = kernels::limb_bytes(self.n());
        for (k, range) in ctx.batch_ranges(self.part.limbs.len()).enumerate() {
            let stream = ctx.stream_for_batch(k);
            let desc =
                KernelDesc::new(KernelKind::Elementwise).ops(ops_per_limb * range.len() as u64);
            let limbs = &mut self.part.limbs[range.clone()];
            gpu.launch(stream, desc, |d| {
                in_place(d, limbs.iter().map(|l| &l.data), lb)
            })
            .run(|| {
                for (i, limb) in range.zip(limbs.iter_mut()) {
                    f(i, ctx.modulus(limb.chain), limb.data.as_mut_slice());
                }
            });
        }
    }

    /// Forward NTT over all limbs: two hierarchical passes per limb batch.
    pub fn ntt_inplace(&mut self) {
        assert_eq!(
            self.format,
            Domain::Coeff,
            "forward NTT expects coefficient domain"
        );
        self.ntt_passes(true);
        self.format = Domain::Eval;
    }

    /// Inverse NTT over all limbs.
    pub fn intt_inplace(&mut self) {
        assert_eq!(
            self.format,
            Domain::Eval,
            "inverse NTT expects evaluation domain"
        );
        self.ntt_passes(false);
        self.format = Domain::Coeff;
    }

    fn ntt_passes(&mut self, forward: bool) {
        let ctx = Arc::clone(&self.ctx);
        let gpu = ctx.gpu();
        let n = self.n();
        let lb = kernels::limb_bytes(n);
        let phase_ops = ctx.ntt_phase_ops_scaled();
        for (k, range) in ctx.batch_ranges(self.part.limbs.len()).enumerate() {
            let stream = ctx.stream_for_batch(k);
            let limbs = &mut self.part.limbs[range.clone()];
            for pass in 0..2u8 {
                let kind = match (forward, pass) {
                    (true, 0) => KernelKind::NttPhase1,
                    (true, _) => KernelKind::NttPhase2,
                    (false, 0) => KernelKind::InttPhase1,
                    (false, _) => KernelKind::InttPhase2,
                };
                let desc = KernelDesc::new(kind)
                    .ops(phase_ops * range.len() as u64)
                    .access_efficiency(ctx.params().access_efficiency);
                gpu.launch(stream, desc, |d| {
                    in_place(d, limbs.iter().map(|l| &l.data), lb)
                })
                .run(|| {
                    for limb in limbs.iter_mut() {
                        let t = ctx.ntt(limb.chain);
                        let data = limb.data.as_mut_slice();
                        match (forward, pass) {
                            (true, 0) => t.forward_pass1(data),
                            (true, _) => t.forward_pass2(data),
                            (false, 0) => t.inverse_pass1(data),
                            (false, _) => t.inverse_pass2(data),
                        }
                    }
                });
            }
        }
    }

    /// Applies the Galois automorphism `X → X^g` in evaluation domain
    /// (a pure index permutation), returning a fresh polynomial.
    pub fn automorph_eval(&self, g: usize) -> RNSPoly {
        assert_eq!(self.format, Domain::Eval, "eval-domain automorphism");
        let ctx = Arc::clone(&self.ctx);
        let gpu = ctx.gpu();
        let perm = ctx.eval_perm(g);
        let n = self.n();
        let lb = kernels::limb_bytes(n);
        let mut part = LimbPartition::with_capacity(gpu, self.part.limbs.len());
        part.push_run(n, self.part.limbs.iter().map(|l| l.chain));
        for (k, range) in ctx.batch_ranges(self.part.limbs.len()).enumerate() {
            let stream = ctx.stream_for_batch(k);
            let desc = KernelDesc::new(KernelKind::Automorphism)
                .ops(kernels::add_ops(n) * range.len() as u64);
            let src = &self.part.limbs[range.clone()];
            let dst = &mut part.limbs[range];
            gpu.launch(stream, desc, |d| {
                d.read(perm.dev.buffer(), (n * 4) as u64);
                for (s, t) in src.iter().zip(dst.iter()) {
                    d.read(s.data.buffer(), lb).write(t.data.buffer(), lb);
                }
            })
            .run(|| {
                for (s, t) in src.iter().zip(dst.iter_mut()) {
                    automorphism_eval(s.data.as_slice(), &perm.host, t.data.as_mut_slice());
                }
            });
        }
        RNSPoly {
            ctx,
            part,
            num_q: self.num_q,
            num_p: self.num_p,
            format: self.format,
        }
    }

    /// Drops limbs above `level` (OpenFHE's LevelReduce — no rescaling).
    pub fn drop_to_level(&mut self, level: usize) {
        assert!(
            self.num_p == 0,
            "cannot drop levels on an extended polynomial"
        );
        assert!(level < self.num_q, "target level must be below current");
        self.part.truncate(level + 1);
        self.num_q = level + 1;
    }

    /// Removes the extension limbs (after ModDown), releasing ModDown's
    /// last temporaries `tmps` first, under the same device lock.
    pub(crate) fn truncate_p(&mut self, tmps: PoolSet<'_, u64>) {
        self.part.truncate_after(tmps.into_release(), self.num_q);
        self.num_p = 0;
    }
}

/// Records an in-place pass over `vecs`: each read, then written back.
pub(crate) fn in_place<'a>(
    d: &mut Accesses<'_>,
    vecs: impl IntoIterator<Item = &'a PoolBuf<u64>>,
    limb_bytes: u64,
) {
    for v in vecs {
        d.read(v.buffer(), limb_bytes).write(v.buffer(), limb_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParameters;
    use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};
    use fides_math::sample_uniform_poly;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParameters::toy(),
            GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional),
        )
    }

    fn random_poly(c: &Arc<CkksContext>, level: usize, fmt: Domain, seed: u64) -> RNSPoly {
        let mut rng = StdRng::seed_from_u64(seed);
        let limbs: Vec<Vec<u64>> = (0..=level)
            .map(|i| sample_uniform_poly(&mut rng, c.n(), &c.moduli_q()[i]))
            .collect();
        RNSPoly::from_host_q_limbs(c, limbs, fmt)
    }

    #[test]
    fn zero_poly_shape() {
        let c = ctx();
        let p = RNSPoly::zero(&c, 2, true, Domain::Eval);
        assert_eq!(p.level(), 2);
        assert_eq!(p.num_q(), 3);
        assert_eq!(p.num_p(), c.alpha());
        assert_eq!(p.num_limbs(), 3 + c.alpha());
    }

    #[test]
    fn add_sub_roundtrip() {
        let c = ctx();
        let a = random_poly(&c, 3, Domain::Eval, 1);
        let b = random_poly(&c, 3, Domain::Eval, 2);
        let mut s = a.duplicate();
        s.add_assign_poly(&b);
        s.sub_assign_poly(&b);
        assert_eq!(s.to_host_q_limbs(), a.to_host_q_limbs());
    }

    #[test]
    fn ntt_roundtrip_all_limbs() {
        let c = ctx();
        let a = random_poly(&c, 4, Domain::Coeff, 3);
        let mut x = a.duplicate();
        x.ntt_inplace();
        assert_eq!(x.format(), Domain::Eval);
        x.intt_inplace();
        assert_eq!(x.to_host_q_limbs(), a.to_host_q_limbs());
    }

    #[test]
    fn eval_product_is_ring_product() {
        let c = ctx();
        let a = random_poly(&c, 1, Domain::Coeff, 4);
        let b = random_poly(&c, 1, Domain::Coeff, 5);
        // Reference via schoolbook on limb 0.
        let m = c.moduli_q()[0];
        let expect = fides_math::negacyclic_schoolbook_mul(
            &a.to_host_q_limbs()[0],
            &b.to_host_q_limbs()[0],
            &m,
        );
        let mut ea = a.duplicate();
        let mut eb = b.duplicate();
        ea.ntt_inplace();
        eb.ntt_inplace();
        ea.mul_assign_poly(&eb);
        ea.intt_inplace();
        assert_eq!(ea.to_host_q_limbs()[0], expect);
    }

    #[test]
    fn mul_add_fusion_matches_separate_ops() {
        let c = ctx();
        let a = random_poly(&c, 2, Domain::Eval, 6);
        let b = random_poly(&c, 2, Domain::Eval, 7);
        let acc0 = random_poly(&c, 2, Domain::Eval, 8);
        let mut fused = acc0.duplicate();
        fused.mul_add_assign_poly(&a, &b);
        let mut manual = acc0.duplicate();
        let prod = RNSPoly::mul_poly(&a, &b);
        manual.add_assign_poly(&prod);
        assert_eq!(fused.to_host_q_limbs(), manual.to_host_q_limbs());
    }

    #[test]
    fn automorph_eval_matches_coeff_path() {
        let c = ctx();
        let a = random_poly(&c, 1, Domain::Coeff, 9);
        let g = 5usize;
        // Reference: coeff automorph then NTT.
        let mut expect_limbs = Vec::new();
        for (i, limb) in a.to_host_q_limbs().iter().enumerate() {
            let m = c.moduli_q()[i];
            let mut out = vec![0u64; c.n()];
            fides_math::automorphism_coeff(limb, g, &m, &mut out);
            c.ntt(ChainIdx::Q(i)).table().forward_inplace(&mut out);
            expect_limbs.push(out);
        }
        let mut ea = a.duplicate();
        ea.ntt_inplace();
        let rotated = ea.automorph_eval(g);
        assert_eq!(rotated.to_host_q_limbs(), expect_limbs);
    }

    #[test]
    fn scalar_ops() {
        let c = ctx();
        let mut a = random_poly(&c, 1, Domain::Eval, 10);
        let orig = a.to_host_q_limbs();
        let scalars: Vec<u64> = vec![3, 7];
        a.scalar_mul_assign(&scalars);
        let now = a.to_host_q_limbs();
        for i in 0..2 {
            let m = c.moduli_q()[i];
            for (x, y) in orig[i].iter().zip(&now[i]) {
                assert_eq!(m.mul_mod(*x, scalars[i]), *y);
            }
        }
        a.neg_assign();
        a.scalar_add_assign(&[1, 1]);
        let neg = a.to_host_q_limbs();
        for i in 0..2 {
            let m = c.moduli_q()[i];
            assert_eq!(neg[i][0], m.add_mod(m.neg_mod(now[i][0]), 1));
        }
    }

    #[test]
    fn kernel_ledger_reflects_batching() {
        let c = ctx(); // limb_batch = 2
        let gpu = Arc::clone(c.gpu());
        gpu.reset_stats();
        let mut a = random_poly(&c, 4, Domain::Eval, 11); // 5 limbs → 3 batches
        let b = random_poly(&c, 4, Domain::Eval, 12);
        let before = gpu.stats().kernel_launches;
        a.add_assign_poly(&b);
        let after = gpu.stats().kernel_launches;
        assert_eq!(
            after - before,
            3,
            "5 limbs at batch 2 → 3 elementwise kernels"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dropped without being released")]
    fn a_limb_dropped_outside_its_partition_panics_in_debug_builds() {
        let c = ctx();
        let mut p = RNSPoly::zero(&c, 1, false, Domain::Eval);
        drop(p.part.limbs.pop());
    }

    #[test]
    fn drop_to_level_truncates() {
        let c = ctx();
        let mut a = random_poly(&c, 4, Domain::Eval, 13);
        a.drop_to_level(1);
        assert_eq!(a.num_q(), 2);
        assert_eq!(a.num_limbs(), 2);
    }

    #[test]
    fn cost_only_mode_runs_full_kernel_schedule() {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let c = CkksContext::new(CkksParameters::toy(), Arc::clone(&gpu));
        let mut a = RNSPoly::zero(&c, 4, false, Domain::Coeff);
        a.ntt_inplace();
        let b = a.duplicate();
        a.mul_assign_poly(&b);
        let stats = gpu.stats();
        // 5 limbs / batch 2 = 3 batches; NTT = 2 kernels per batch.
        assert_eq!(stats.per_kind["ntt_phase1"].count, 3);
        assert_eq!(stats.per_kind["ntt_phase2"].count, 3);
        assert!(stats.per_kind["elementwise"].count >= 3);
        assert!(gpu.sync() > 0.0);
    }
}
