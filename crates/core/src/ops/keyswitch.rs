//! Hybrid key switching: ModUp, key inner product, ModDown (§III-F.3, F.5).
//!
//! The kernel pipeline mirrors FIDESlib's HMult fusion schedule:
//!
//! 1. per digit, the relevant limbs are copied and iNTT'd with the Eq. 1
//!    scaling (`(C/c_i)^{-1}`) fused into the second iNTT pass;
//! 2. the base-conversion kernel lifts the digit to `Q_ℓ ∪ P` (the digit's
//!    own limbs are reused directly in evaluation form);
//! 3. the NTT of each lifted limb fuses the two switching-key inner-product
//!    multiplications (`x̃ ⊙ ksk_{0}`, `x̃ ⊙ ksk_{1}`);
//! 4. both accumulators are ModDown'ed by `P` with the `P^{-1}(x − NTT(x'))`
//!    sequence fused into the NTT kernels.
//!
//! With the corresponding [`FusionConfig`](crate::params::FusionConfig) flags
//! off, every step launches separate kernels (the ablation baseline).

use std::sync::Arc;

use fides_client::Domain;
use fides_gpu_sim::{KernelDesc, KernelKind, PoolBuf, PoolSet};
use fides_math::PolyOps;

use crate::context::ChainIdx;
use crate::kernels;
use crate::keys::KeySwitchingKey;
use crate::poly::{in_place, Limb, LimbPartition, RNSPoly};

/// Lifts digit `j` of `d2` (evaluation domain, level `ℓ`) to the extended
/// base `Q_ℓ ∪ P`. Returns an extended polynomial in evaluation domain.
pub(crate) fn mod_up_digit(d2: &RNSPoly, j: usize) -> RNSPoly {
    assert_eq!(d2.format(), Domain::Eval);
    assert_eq!(d2.num_p(), 0);
    let ctx = Arc::clone(d2.context());
    let gpu = ctx.gpu();
    let n = ctx.n();
    let lb = kernels::limb_bytes(n);
    let level = d2.level();
    let tables = ctx.mod_up_tables(level, j);
    let src_range = ctx.partition().digit_range_at_level(j, level);
    let src_len = src_range.len();
    assert!(src_len > 0, "digit {j} inactive at level {level}");
    let fused = ctx.params().fusion.key_switch;
    let digit = &d2.part.limbs[src_range.clone()];
    let eff = ctx.params().access_efficiency;
    let alpha = ctx.alpha();
    let num_dst_q = tables.dst_q_indices.len();
    // Every id the lift takes, as one run: the scaled copies (released when
    // the lift returns), then the lifted polynomial's own-digit limbs and
    // its converted limbs.
    let mut run = PoolBuf::run(gpu, 2 * src_len + num_dst_q + alpha, n);

    // Step 1: coefficient-domain, Eq.1-scaled copies of the digit limbs.
    let mut scaled = PoolSet::from_bufs(gpu, run.by_ref().take(src_len));
    for (k, range) in ctx.batch_ranges(src_len).enumerate() {
        let stream = ctx.stream_for_batch(k);
        let src = &digit[range.clone()];
        let fresh = &mut scaled[range.clone()];
        // Copy kernel.
        gpu.launch(stream, KernelDesc::new(KernelKind::Fill), |d| {
            for (s, t) in src.iter().zip(fresh.iter()) {
                d.read(s.data.buffer(), lb).write(t.buffer(), lb);
            }
        })
        .run(|| {
            for (s, t) in src.iter().zip(fresh.iter_mut()) {
                t.copy_from_slice(s.data.as_slice());
            }
        });
        // iNTT pass 1.
        let phase_ops = ctx.ntt_phase_ops_scaled() * range.len() as u64;
        let d1 = KernelDesc::new(KernelKind::InttPhase1)
            .ops(phase_ops)
            .access_efficiency(eff);
        gpu.launch(stream, d1, |d| in_place(d, fresh.iter(), lb))
            .run(|| {
                for (s, t) in src.iter().zip(fresh.iter_mut()) {
                    ctx.ntt(s.chain).inverse_pass1(t.as_mut_slice());
                }
            });
        // iNTT pass 2, with the Eq. 1 scaling fused (or separate).
        let mut ops2 = phase_ops;
        if fused {
            ops2 += kernels::shoup_ops(n) * range.len() as u64;
        }
        let d2k = KernelDesc::new(KernelKind::InttPhase2)
            .ops(ops2)
            .access_efficiency(eff);
        gpu.launch(stream, d2k, |d| in_place(d, fresh.iter(), lb))
            .run(|| {
                for ((di, s), t) in range.clone().zip(src).zip(fresh.iter_mut()) {
                    ctx.ntt(s.chain).inverse_pass2(t.as_mut_slice());
                    if fused {
                        tables.conv.scale_input_inplace(di, t.as_mut_slice());
                    }
                }
            });
        if !fused {
            let ds = KernelDesc::new(KernelKind::Elementwise)
                .ops(kernels::shoup_ops(n) * range.len() as u64);
            gpu.launch(stream, ds, |d| in_place(d, fresh.iter(), lb))
                .run(|| {
                    for (di, t) in range.clone().zip(fresh.iter_mut()) {
                        tables.conv.scale_input_inplace(di, t.as_mut_slice());
                    }
                });
        }
    }
    ctx.sync_batch_streams();

    // Step 2: assemble the lifted polynomial.
    let total = level + 1 + alpha;
    let mut slots: Vec<Option<Limb>> = (0..total).map(|_| None).collect();
    let limb = |slot: &Option<Limb>| slot.as_ref().expect("limb assigned").data.buffer();
    // Own digit limbs: direct evaluation-domain copies.
    for ((slot, s), data) in slots[src_range.clone()]
        .iter_mut()
        .zip(digit)
        .zip(run.by_ref())
    {
        *slot = Some(Limb {
            data,
            chain: s.chain,
        });
    }
    for (k, range) in ctx.batch_ranges(src_len).enumerate() {
        let stream = ctx.stream_for_batch(k);
        let at = src_range.start + range.start..src_range.start + range.end;
        let src = &d2.part.limbs[at.clone()];
        let dst = &mut slots[at];
        gpu.launch(stream, KernelDesc::new(KernelKind::Fill), |d| {
            for (s, t) in src.iter().zip(dst.iter()) {
                d.read(s.data.buffer(), lb).write(limb(t), lb);
            }
        })
        .run(|| {
            for (s, t) in src.iter().zip(dst.iter_mut()) {
                let t = t.as_mut().expect("limb assigned");
                t.data.copy_from_slice(s.data.as_slice());
            }
        });
    }

    // Converted limbs: destination position → chain index and slot.
    let dst_chain = |dpos: usize| match tables.dst_q_indices.get(dpos) {
        Some(&i) => ChainIdx::Q(i),
        None => ChainIdx::P(dpos - num_dst_q),
    };
    let slot_of = |dpos: usize| match dst_chain(dpos) {
        ChainIdx::Q(i) => i,
        ChainIdx::P(kk) => level + 1 + kk,
    };
    for (dpos, data) in run.enumerate() {
        slots[slot_of(dpos)] = Some(Limb {
            data,
            chain: dst_chain(dpos),
        });
    }
    for (k, range) in ctx.batch_ranges(num_dst_q + alpha).enumerate() {
        let stream = ctx.stream_for_batch(k);
        // Base-conversion kernel for this batch of destination limbs.
        let conv_desc = KernelDesc::new(KernelKind::BaseConv)
            .ops(kernels::base_conv_ops(n, src_len) * range.len() as u64);
        gpu.launch(stream, conv_desc, |d| {
            for s in &scaled {
                d.read(s.buffer(), lb);
            }
            for dpos in range.clone() {
                d.write(limb(&slots[slot_of(dpos)]), lb);
            }
        })
        .run(|| {
            let scaled_refs: Vec<&[u64]> = scaled.iter().map(|s| s.as_slice()).collect();
            for dpos in range.clone() {
                let dst = slots[slot_of(dpos)].as_mut().expect("limb assigned");
                tables
                    .conv
                    .convert_scaled_limb(&scaled_refs, dpos, dst.data.as_mut_slice());
            }
        });
        // NTT the converted limbs back to evaluation domain.
        let phase_ops = ctx.ntt_phase_ops_scaled() * range.len() as u64;
        for pass in 0..2u8 {
            let kind = if pass == 0 {
                KernelKind::NttPhase1
            } else {
                KernelKind::NttPhase2
            };
            let nd = KernelDesc::new(kind).ops(phase_ops).access_efficiency(eff);
            gpu.launch(stream, nd, |d| {
                for dpos in range.clone() {
                    let b = limb(&slots[slot_of(dpos)]);
                    d.read(b, lb).write(b, lb);
                }
            })
            .run(|| {
                for dpos in range.clone() {
                    let dst = slots[slot_of(dpos)].as_mut().expect("limb assigned");
                    let t = ctx.ntt(dst.chain);
                    if pass == 0 {
                        t.forward_pass1(dst.data.as_mut_slice());
                    } else {
                        t.forward_pass2(dst.data.as_mut_slice());
                    }
                }
            });
        }
    }
    ctx.sync_batch_streams();

    let limbs: Vec<Limb> = slots
        .into_iter()
        .map(|s| s.expect("all limbs assigned"))
        .collect();
    RNSPoly {
        ctx: Arc::clone(&ctx),
        part: LimbPartition::from_limbs(gpu, limbs),
        num_q: level + 1,
        num_p: alpha,
        format: Domain::Eval,
    }
}

/// Fused inner product: `acc0 += lifted ⊙ b_j`, `acc1 += lifted ⊙ a_j` for
/// one digit, over the extended basis.
pub(crate) fn ksk_inner_product(
    acc0: &mut RNSPoly,
    acc1: &mut RNSPoly,
    lifted: &RNSPoly,
    ksk: &KeySwitchingKey,
    digit: usize,
) {
    let ctx = Arc::clone(lifted.context());
    let gpu = ctx.gpu();
    let n = ctx.n();
    let lb = kernels::limb_bytes(n);
    let num_q_full = ctx.max_level() + 1;
    let fused = ctx.params().fusion.dot_product;
    let total = lifted.num_limbs();
    assert_eq!(acc0.num_limbs(), total);
    assert_eq!(acc1.num_limbs(), total);

    for (k, range) in ctx.batch_ranges(total).enumerate() {
        let stream = ctx.stream_for_batch(k);
        let launches: usize = if fused { 1 } else { 2 };
        for li in 0..launches {
            let ops = kernels::mul_add_ops(n) * range.len() as u64 * if fused { 2 } else { 1 };
            gpu.launch(
                stream,
                KernelDesc::new(KernelKind::Elementwise).ops(ops),
                |d| {
                    for i in range.clone() {
                        let chain = lifted.limb(i).chain;
                        let (kb, ka) = ksk.limbs_for(digit, chain, num_q_full);
                        d.read(lifted.limb(i).data.buffer(), lb);
                        if fused || li == 0 {
                            let acc = acc0.limb(i).data.buffer();
                            d.read(kb.data.buffer(), lb).read(acc, lb).write(acc, lb);
                        }
                        if fused || li == 1 {
                            let acc = acc1.limb(i).data.buffer();
                            d.read(ka.data.buffer(), lb).read(acc, lb).write(acc, lb);
                        }
                    }
                },
            )
            .run(|| {
                for i in range.clone() {
                    let chain = lifted.limb(i).chain;
                    let m = ctx.modulus(chain);
                    let (kb, ka) = ksk.limbs_for(digit, chain, num_q_full);
                    let src = lifted.limb(i).data.as_slice();
                    if fused || li == 0 {
                        m.mul_add_assign_slices(
                            acc0.part.limbs[i].data.as_mut_slice(),
                            src,
                            kb.data.as_slice(),
                        );
                    }
                    if fused || li == 1 {
                        m.mul_add_assign_slices(
                            acc1.part.limbs[i].data.as_mut_slice(),
                            src,
                            ka.data.as_slice(),
                        );
                    }
                }
            });
        }
    }
}

/// ModDown by `P`: `x ← P^{-1}·(x − Conv_{P→Q_ℓ}([x]_P))`, dropping the
/// extension limbs.
pub(crate) fn mod_down(poly: &mut RNSPoly) {
    assert_eq!(poly.format(), Domain::Eval);
    let alpha = poly.num_p();
    assert!(alpha > 0, "mod_down needs extension limbs");
    let ctx = Arc::clone(poly.context());
    let gpu = ctx.gpu();
    let n = ctx.n();
    let lb = kernels::limb_bytes(n);
    let level = poly.level();
    let num_q = poly.num_q();
    let conv = ctx.mod_down_conv(level);
    let fused = ctx.params().fusion.mod_down;
    let eff = ctx.params().access_efficiency;
    let (q_limbs, p_limbs) = poly.part.limbs.split_at_mut(num_q);

    // Step 1: iNTT the P limbs with the Eq. 1 scaling fused into pass 2.
    for (k, range) in ctx.batch_ranges(alpha).enumerate() {
        let stream = ctx.stream_for_batch(k);
        let phase_ops = ctx.ntt_phase_ops_scaled() * range.len() as u64;
        let batch = &mut p_limbs[range.clone()];
        for pass in 0..2u8 {
            let kind = if pass == 0 {
                KernelKind::InttPhase1
            } else {
                KernelKind::InttPhase2
            };
            let mut ops = phase_ops;
            if pass == 1 {
                ops += kernels::shoup_ops(n) * range.len() as u64;
            }
            let desc = KernelDesc::new(kind).ops(ops).access_efficiency(eff);
            gpu.launch(stream, desc, |d| {
                in_place(d, batch.iter().map(|l| &l.data), lb)
            })
            .run(|| {
                for (i, limb) in range.clone().zip(batch.iter_mut()) {
                    let t = ctx.ntt(ChainIdx::P(i));
                    let data = limb.data.as_mut_slice();
                    if pass == 0 {
                        t.inverse_pass1(data);
                    } else {
                        t.inverse_pass2(data);
                        conv.scale_input_inplace(i, data);
                    }
                }
            });
        }
    }
    ctx.sync_batch_streams();

    // Step 2: per q limb, convert, NTT, and combine (fused into the NTT
    // kernels when enabled).
    // Per-batch temporaries: freed (and evicted from L2) as each batch
    // ends, under the lock that takes the next batch's, or the one that
    // drops the extension limbs.
    let mut tmps = PoolSet::<u64>::with_capacity(gpu, num_q);
    for (k, range) in ctx.batch_ranges(num_q).enumerate() {
        let stream = ctx.stream_for_batch(k);
        let conv_desc = KernelDesc::new(KernelKind::BaseConv)
            .ops(kernels::base_conv_ops(n, alpha) * range.len() as u64);
        tmps.replace_run(range.len(), n);
        let batch = &mut q_limbs[range.clone()];
        gpu.launch(stream, conv_desc, |d| {
            for l in p_limbs.iter() {
                d.read(l.data.buffer(), lb);
            }
            for t in &tmps {
                d.write(t.buffer(), lb);
            }
        })
        .run(|| {
            let p_refs: Vec<&[u64]> = p_limbs.iter().map(|l| l.data.as_slice()).collect();
            for (i, tmp) in range.clone().zip(tmps.iter_mut()) {
                conv.convert_scaled_limb(&p_refs, i, tmp.as_mut_slice());
            }
        });
        let phase_ops = ctx.ntt_phase_ops_scaled() * range.len() as u64;
        for pass in 0..2u8 {
            let kind = if pass == 0 {
                KernelKind::NttPhase1
            } else {
                KernelKind::NttPhase2
            };
            let combine = pass == 1 && fused;
            let mut ops = phase_ops;
            if combine {
                ops += (kernels::add_ops(n) + kernels::shoup_ops(n)) * range.len() as u64;
            }
            let desc = KernelDesc::new(kind).ops(ops).access_efficiency(eff);
            gpu.launch(stream, desc, |d| {
                for (tmp, limb) in tmps.iter().zip(batch.iter()) {
                    d.read(tmp.buffer(), lb).write(tmp.buffer(), lb);
                    if combine {
                        let b = limb.data.buffer();
                        d.read(b, lb).write(b, lb);
                    }
                }
            })
            .run(|| {
                for ((i, tmp), limb) in range.clone().zip(tmps.iter_mut()).zip(batch.iter_mut()) {
                    let t = ctx.ntt(ChainIdx::Q(i));
                    if pass == 0 {
                        t.forward_pass1(tmp.as_mut_slice());
                    } else {
                        t.forward_pass2(tmp.as_mut_slice());
                        if fused {
                            combine_mod_down(&ctx, i, limb.data.as_mut_slice(), tmp.as_slice());
                        }
                    }
                }
            });
        }
        if !fused {
            let desc = KernelDesc::new(KernelKind::Elementwise)
                .ops((kernels::add_ops(n) + kernels::shoup_ops(n)) * range.len() as u64);
            gpu.launch(stream, desc, |d| {
                for (tmp, limb) in tmps.iter().zip(batch.iter()) {
                    let b = limb.data.buffer();
                    d.read(tmp.buffer(), lb).read(b, lb).write(b, lb);
                }
            })
            .run(|| {
                for ((i, tmp), limb) in range.clone().zip(tmps.iter()).zip(batch.iter_mut()) {
                    combine_mod_down(&ctx, i, limb.data.as_mut_slice(), tmp.as_slice());
                }
            });
        }
    }
    ctx.sync_batch_streams();
    poly.truncate_p(tmps);
}

fn combine_mod_down(
    ctx: &crate::context::CkksContext,
    q_idx: usize,
    x: &mut [u64],
    converted: &[u64],
) {
    let m = &ctx.moduli_q()[q_idx];
    let inv = ctx.p_inv_mod_q(q_idx);
    for (xi, &c) in x.iter_mut().zip(converted) {
        *xi = inv.mul(m.sub_mod(*xi, c), m);
    }
}

/// Full key switch of an evaluation-domain polynomial `d2` with `ksk`:
/// returns the pair to add onto `(c_0, c_1)`.
pub(crate) fn key_switch_core(d2: &RNSPoly, ksk: &KeySwitchingKey) -> (RNSPoly, RNSPoly) {
    let ctx = Arc::clone(d2.context());
    let level = d2.level();
    let digits = ctx.partition().digits_at_level(level);
    assert!(ksk.dnum() >= digits, "switching key has too few digits");
    let mut acc0 = RNSPoly::zero(&ctx, level, true, Domain::Eval);
    let mut acc1 = RNSPoly::zero(&ctx, level, true, Domain::Eval);
    for j in 0..digits {
        let lifted = mod_up_digit(d2, j);
        ksk_inner_product(&mut acc0, &mut acc1, &lifted, ksk, j);
    }
    mod_down(&mut acc0);
    mod_down(&mut acc1);
    (acc0, acc1)
}
