//! Rescale: drop the top prime and divide the message by it (§III-F.3).
//!
//! Pipeline (with the Rescale fusion of §III-F.5): iNTT the last limb, then
//! for every remaining limb one fused NTT pair computes
//! `q_ℓ^{-1}·(x_i − NTT(SwitchModulus(x_ℓ)))`.

use std::sync::Arc;

use fides_client::Domain;
use fides_gpu_sim::{KernelDesc, KernelKind, PoolSet};
use fides_math::switch_modulus_centered;

use crate::context::ChainIdx;
use crate::kernels;
use crate::poly::RNSPoly;

/// Rescales a single polynomial in place, dropping its top limb.
pub(crate) fn rescale_poly(poly: &mut RNSPoly) {
    assert_eq!(
        poly.format(),
        Domain::Eval,
        "rescale operates on evaluation-domain polynomials"
    );
    assert_eq!(poly.num_p(), 0);
    assert!(poly.num_q() >= 2, "cannot rescale at the last level");
    let ctx = Arc::clone(poly.context());
    let gpu = ctx.gpu();
    let n = ctx.n();
    let lb = kernels::limb_bytes(n);
    let l = poly.num_q() - 1;
    let fused = ctx.params().fusion.rescale;
    let q_last = ctx.moduli_q()[l];

    // iNTT a copy of the dropped limb.
    let mut last_set = PoolSet::<u64>::run(gpu, 1, n);
    let last = &mut last_set[0];
    {
        let stream = ctx.stream_for_batch(l);
        let top = poly.limb(l).data.buffer();
        gpu.launch(stream, KernelDesc::new(KernelKind::Fill), |d| {
            d.read(top, lb).write(last.buffer(), lb);
        })
        .run(|| last.copy_from_slice(poly.limb(l).data.as_slice()));
        for pass in 0..2u8 {
            let kind = if pass == 0 {
                KernelKind::InttPhase1
            } else {
                KernelKind::InttPhase2
            };
            let desc = KernelDesc::new(kind).ops(ctx.ntt_phase_ops_scaled());
            gpu.launch(stream, desc, |d| {
                d.read(last.buffer(), lb).write(last.buffer(), lb);
            })
            .run(|| {
                let t = ctx.ntt(ChainIdx::Q(l));
                if pass == 0 {
                    t.inverse_pass1(last.as_mut_slice());
                } else {
                    t.inverse_pass2(last.as_mut_slice());
                }
            });
        }
    }
    ctx.sync_batch_streams();

    // Fused per-limb pipeline on the remaining limbs.
    // Per-batch temporaries: freed (and evicted from L2) as each batch
    // ends, under the lock that takes the next batch's, or the one that
    // drops the top limb.
    let mut tmps = PoolSet::<u64>::with_capacity(gpu, l);
    for (k, range) in ctx.batch_ranges(l).enumerate() {
        let stream = ctx.stream_for_batch(k);
        tmps.replace_run(range.len(), n);
        let limbs = &mut poly.part.limbs[range.clone()];
        if !fused {
            // Separate SwitchModulus kernel.
            let desc = KernelDesc::new(KernelKind::SwitchModulus)
                .ops(kernels::switch_modulus_ops(n) * range.len() as u64);
            gpu.launch(stream, desc, |d| {
                d.read(last.buffer(), lb);
                for t in tmps.iter() {
                    d.write(t.buffer(), lb);
                }
            })
            .run(|| {
                for (i, tmp) in range.clone().zip(tmps.iter_mut()) {
                    let m = &ctx.moduli_q()[i];
                    for (o, &v) in tmp.as_mut_slice().iter_mut().zip(last.as_slice()) {
                        *o = switch_modulus_centered(v, &q_last, m);
                    }
                }
            });
        }
        let phase_ops = ctx.ntt_phase_ops_scaled() * range.len() as u64;
        for pass in 0..2u8 {
            let kind = if pass == 0 {
                KernelKind::NttPhase1
            } else {
                KernelKind::NttPhase2
            };
            let mut ops = phase_ops;
            if pass == 0 && fused {
                ops += kernels::switch_modulus_ops(n) * range.len() as u64;
            }
            if pass == 1 && fused {
                ops += (kernels::add_ops(n) + kernels::shoup_ops(n)) * range.len() as u64;
            }
            gpu.launch(stream, KernelDesc::new(kind).ops(ops), |d| {
                if pass == 0 && fused {
                    // SwitchModulus fused into the first NTT pass: reads the
                    // dropped limb instead of a precomputed tmp.
                    d.read(last.buffer(), lb);
                }
                for (tmp, limb) in tmps.iter().zip(limbs.iter()) {
                    d.read(tmp.buffer(), lb).write(tmp.buffer(), lb);
                    if pass == 1 && fused {
                        let b = limb.data.buffer();
                        d.read(b, lb).write(b, lb);
                    }
                }
            })
            .run(|| {
                for ((i, tmp), limb) in range.clone().zip(tmps.iter_mut()).zip(limbs.iter_mut()) {
                    let t = ctx.ntt(ChainIdx::Q(i));
                    if pass == 0 {
                        if fused {
                            let m = &ctx.moduli_q()[i];
                            for (o, &v) in tmp.as_mut_slice().iter_mut().zip(last.as_slice()) {
                                *o = switch_modulus_centered(v, &q_last, m);
                            }
                        }
                        t.forward_pass1(tmp.as_mut_slice());
                    } else {
                        t.forward_pass2(tmp.as_mut_slice());
                        if fused {
                            combine_rescale(&ctx, l, i, limb.data.as_mut_slice(), tmp.as_slice());
                        }
                    }
                }
            });
        }
        if !fused {
            let desc = KernelDesc::new(KernelKind::Elementwise)
                .ops((kernels::add_ops(n) + kernels::shoup_ops(n)) * range.len() as u64);
            gpu.launch(stream, desc, |d| {
                for (tmp, limb) in tmps.iter().zip(limbs.iter()) {
                    let b = limb.data.buffer();
                    d.read(tmp.buffer(), lb).read(b, lb).write(b, lb);
                }
            })
            .run(|| {
                for ((i, tmp), limb) in range.clone().zip(tmps.iter()).zip(limbs.iter_mut()) {
                    combine_rescale(&ctx, l, i, limb.data.as_mut_slice(), tmp.as_slice());
                }
            });
        }
    }
    ctx.sync_batch_streams();
    poly.part.truncate_after(tmps.into_release(), l);
    poly.num_q = l;
}

fn combine_rescale(
    ctx: &crate::context::CkksContext,
    l: usize,
    i: usize,
    x: &mut [u64],
    switched: &[u64],
) {
    let m = &ctx.moduli_q()[i];
    let inv = ctx.rescale_scalar(l, i);
    for (xi, &s) in x.iter_mut().zip(switched) {
        *xi = inv.mul(m.sub_mod(*xi, s), m);
    }
}
