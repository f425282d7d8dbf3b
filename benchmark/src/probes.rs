//! Probes: the layer below a workload, called directly at the workload's
//! own size. They run after the traced window, on the workload's own backend
//! where there is one, so a per-layer number is comparable with the spans
//! above it.

use std::collections::BTreeMap;
use std::time::Instant;

use fides_client::wire::{OpProgram, ProgramOp};
use fides_client::RawCiphertext;
use fides_core::{const_scale_for, exec_program, BackendCt, BackendPt, EvalBackend};
use fides_math::{generate_ntt_primes, Modulus, Ntt2d, NttTable, PolyOps};
use fides_rns::{BaseConverter, DigitPartition};

use crate::gen::Rng;
use crate::stats::median;
use crate::workloads::Layer;

const REPS: usize = 9;

/// Median wall microseconds of `f` over [`REPS`] calls after one warm-up.
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

/// Forward then inverse transform of every limb of `poly`, microseconds each.
fn time_ntt<T>(
    tables: &[T],
    poly: &mut [Vec<u64>],
    forward: fn(&T, &mut [u64]),
    inverse: fn(&T, &mut [u64]),
) -> (f64, f64) {
    let mut all_limbs = |transform: fn(&T, &mut [u64])| {
        time_us(|| {
            for (table, limb) in tables.iter().zip(poly.iter_mut()) {
                transform(table, limb);
            }
        })
    };
    (all_limbs(forward), all_limbs(inverse))
}

/// Which NTT implementation the workload's backend runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum NttFlavor {
    /// `Ntt2d`, the two-pass transform the gpu-sim functional kernels call.
    Hierarchical,
    /// `NttTable`, what the CPU reference backend calls.
    Flat,
}

/// The shape of a hybrid key switch at the top of a chain.
#[derive(Clone, Copy)]
pub struct ChainShape {
    pub log_n: usize,
    /// Limbs of `Q` at the top level (`L + 1`).
    pub q_limbs: usize,
    pub dnum: usize,
}

impl ChainShape {
    pub fn alpha(self) -> usize {
        self.q_limbs.div_ceil(self.dnum)
    }
}

/// Kernel costs measured by [`math_rns`], per coefficient.
#[derive(Clone, Copy, Default)]
pub struct KernelCosts {
    pub ntt_fwd_ns: f64,
    pub ntt_inv_ns: f64,
    pub mul_ns: f64,
    pub mac_ns: f64,
    /// Base conversion, per (source limb x destination limb x coefficient).
    pub conv_ns_per_term: f64,
}

/// `math.*` and `rns.*`: NTT both ways, elementwise multiply, the key-switch
/// multiply-accumulate, and the ModUp-shaped base conversion (one digit of
/// `alpha` limbs lifted to the rest of `Q ∪ P`), over one polynomial of
/// `q_limbs` limbs.
pub fn math_rns(layer: &mut Layer, shape: ChainShape, flavor: NttFlavor) -> KernelCosts {
    let n = 1usize << shape.log_n;
    let alpha = shape.alpha();
    let primes = generate_ntt_primes(45, shape.q_limbs + alpha, n);
    let moduli: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p)).collect();
    let q = &moduli[..shape.q_limbs];
    let mut rng = Rng::new(0x6d61_7468);
    let mut poly = |moduli: &[Modulus]| -> Vec<Vec<u64>> {
        moduli
            .iter()
            .map(|m| (0..n).map(|_| rng.next_u64() % m.value()).collect())
            .collect()
    };
    let coeffs = (n * shape.q_limbs) as f64;
    let per_coeff = |us: f64| us * 1e3 / coeffs;

    let mut a = poly(q);
    let (fwd_us, inv_us) = match flavor {
        NttFlavor::Hierarchical => {
            let tables: Vec<Ntt2d> = q.iter().map(|&m| Ntt2d::with_modulus(n, m)).collect();
            time_ntt(
                &tables,
                &mut a,
                Ntt2d::forward_inplace,
                Ntt2d::inverse_inplace,
            )
        }
        NttFlavor::Flat => {
            let tables: Vec<NttTable> = q.iter().map(|&m| NttTable::new(n, m)).collect();
            time_ntt(
                &tables,
                &mut a,
                NttTable::forward_inplace,
                NttTable::inverse_inplace,
            )
        }
    };

    let b = poly(q);
    let mul_us = time_us(|| {
        for ((m, al), bl) in q.iter().zip(a.iter_mut()).zip(&b) {
            m.mul_assign_slices(al, bl);
        }
    });

    // acc += digit_d * key_d over the dnum digits, as the key-switch inner
    // product does.
    let digits: Vec<Vec<Vec<u64>>> = (0..shape.dnum).map(|_| poly(q)).collect();
    let mut acc = poly(q);
    let mac_us = time_us(|| {
        for d in &digits {
            for ((m, accl), (dl, kl)) in q.iter().zip(acc.iter_mut()).zip(d.iter().zip(&b)) {
                m.mul_add_assign_slices(accl, dl, kl);
            }
        }
    });

    let (src, dst) = (&moduli[..alpha], &moduli[alpha..]);
    let conv = BaseConverter::new(src, dst);
    let input = poly(src);
    let refs: Vec<&[u64]> = input.iter().map(|v| v.as_slice()).collect();
    let mut out = vec![vec![0u64; n]; dst.len()];
    let conv_us = time_us(|| conv.convert(&refs, &mut out));
    std::hint::black_box((&a, &acc, &out));

    let costs = KernelCosts {
        ntt_fwd_ns: per_coeff(fwd_us),
        ntt_inv_ns: per_coeff(inv_us),
        mul_ns: per_coeff(mul_us),
        mac_ns: per_coeff(mac_us) / shape.dnum as f64,
        conv_ns_per_term: conv_us * 1e3 / (n * src.len() * dst.len()) as f64,
    };
    layer.insert("math.ntt_fwd_ns_per_coeff", costs.ntt_fwd_ns);
    layer.insert("math.ntt_inv_ns_per_coeff", costs.ntt_inv_ns);
    layer.insert("math.mul_ns_per_coeff", costs.mul_ns);
    layer.insert("math.keyswitch_mac_ns_per_coeff", costs.mac_ns);
    layer.insert(
        "rns.base_conv_ns_per_coeff",
        conv_us * 1e3 / (n * src.len()) as f64,
    );
    costs
}

/// Wall microseconds the math and rns kernels of one HMult at the top level
/// would take back to back, from the kernel shapes of the tensor product and
/// the hybrid key switch (ModUp per digit, inner product, two ModDowns).
pub fn hmult_kernel_us(shape: ChainShape, k: KernelCosts) -> f64 {
    let n = (1usize << shape.log_n) as f64;
    let (q, alpha) = (shape.q_limbs, shape.alpha());
    let part = DigitPartition::new(q, shape.dnum);
    let digit_sizes: Vec<usize> = (0..part.digits_at_level(q - 1))
        .map(|j| part.digit_range_at_level(j, q - 1).len())
        .collect();
    let d = digit_sizes.len();
    let ext = q + alpha;
    // INTT: every digit limb once, plus the P limbs of both accumulators.
    let intt = (q + 2 * alpha) as f64;
    // NTT: each digit's lifted limbs, plus the Q limbs of both ModDowns.
    let ntt = (digit_sizes.iter().map(|s| ext - s).sum::<usize>() + 2 * q) as f64;
    // Inner product: two accumulators over the extended basis per digit.
    let mac = (2 * d * ext) as f64;
    // Tensor product (4 multiplies) and the two ModDown combines.
    let mul = (4 * q + 2 * q) as f64;
    let conv_terms =
        (digit_sizes.iter().map(|s| s * (ext - s)).sum::<usize>() + 2 * alpha * q) as f64;
    n * (intt * k.ntt_inv_ns
        + ntt * k.ntt_fwd_ns
        + mac * k.mac_ns
        + mul * k.mul_ns
        + conv_terms * k.conv_ns_per_term)
        / 1e3
}

/// Inputs for [`core_ops`]: two ciphertexts and a plaintext at the top
/// level of the workload's backend.
pub struct OpInputs<'a> {
    pub a: &'a BackendCt,
    pub b: &'a BackendCt,
    pub plain: &'a BackendPt,
    /// A wire ciphertext for `load`; cost-only backends have none.
    pub raw: Option<&'a RawCiphertext>,
    /// A shift the backend holds a rotation key for, if it holds any.
    pub rotation: Option<i32>,
    /// Eight such shifts for the hoisted-rotation probe, or empty.
    pub hoisted: &'a [i32],
}

/// `core.op.*`, `core.load_us`, `core.store_us`: one `EvalBackend` call
/// each. Wall time is the median of [`REPS`] calls; simulated time (where
/// the backend has a clock) is one call between two device syncs.
pub fn core_ops(layer: &mut Layer, backend: &dyn EvalBackend, inp: &OpInputs) {
    let mut probe = |wall: &'static str, sim: Option<&'static str>, f: &mut dyn FnMut()| {
        layer.insert(wall, time_us(&mut *f));
        if let (Some(sim), Some(t0)) = (sim, backend.sync_time_us()) {
            f();
            let t1 = backend.sync_time_us().expect("clock present a moment ago");
            layer.insert(sim, t1 - t0);
        }
    };
    probe(
        "core.op.hmult_us",
        Some("core.op.hmult_sim_us"),
        &mut || {
            backend.mul(inp.a, inp.b).expect("hmult");
        },
    );
    if let Some(k) = inp.rotation {
        probe(
            "core.op.hrotate_us",
            Some("core.op.hrotate_sim_us"),
            &mut || {
                backend.rotate(inp.a, k).expect("hrotate");
            },
        );
    }
    probe(
        "core.op.mul_plain_us",
        Some("core.op.ptmult_sim_us"),
        &mut || {
            backend.mul_plain_pre(inp.a, inp.plain).expect("mul_plain");
        },
    );
    probe("core.op.hadd_us", Some("core.op.hadd_sim_us"), &mut || {
        backend.add(inp.a, inp.b).expect("hadd");
    });
    // Rescale consumes its operand: the duplicate is part of the probe on
    // every backend alike.
    probe(
        "core.op.rescale_us",
        Some("core.op.rescale_sim_us"),
        &mut || {
            let mut c = inp.a.duplicate();
            backend.rescale(&mut c).expect("rescale");
        },
    );
    if let Some(raw) = inp.raw {
        probe("core.load_us", None, &mut || {
            backend.load(raw).expect("load");
        });
        probe("core.store_us", None, &mut || {
            backend.store(inp.a).expect("store");
        });
    }
    if !inp.hoisted.is_empty() {
        if let Some(t0) = backend.sync_time_us() {
            backend
                .hoisted_rotations(inp.a, inp.hoisted)
                .expect("hoisted rotations");
            let t1 = backend.sync_time_us().expect("clock present a moment ago");
            layer.insert("core.op.hoisted_rot8_sim_us", t1 - t0);
        }
    }
}

/// `core.exec_program_us_per_req`: load -> `exec_program` -> store, the
/// work a server does for one request minus the serving layer.
pub fn exec_program_us(
    backend: &dyn EvalBackend,
    inputs: &[RawCiphertext],
    plains: &[BackendPt],
    program: &OpProgram,
) -> f64 {
    time_us(|| {
        let cts: Vec<BackendCt> = inputs
            .iter()
            .map(|raw| backend.load(raw).expect("load"))
            .collect();
        let outs = exec_program(backend, cts, plains, program).expect("program runs");
        for out in &outs {
            backend.store(out).expect("store");
        }
    })
}

/// Microseconds of `program`'s ops probed one by one, each at the level it
/// runs at (plus load and store): the children of `exec_program`. Levels
/// follow the standard-ladder policy `exec_program` applies — multiplies
/// rescale and drop a level, binary ops meet at the lower operand.
pub fn program_children_us(
    backend: &dyn EvalBackend,
    input: &RawCiphertext,
    plains: &[BackendPt],
    program: &OpProgram,
) -> f64 {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Kind {
        Mul,
        Square,
        MulScalar,
        MulPlain(u32),
        Add,
        AddScalar,
        Negate,
        MulInt,
        Rotate(i32),
        Conjugate,
        Rescale,
    }
    let top = backend.load(input).expect("load");
    let at_level = |level: usize| -> BackendCt {
        let mut c = top.duplicate();
        backend.drop_to_level(&mut c, level).expect("level exists");
        c
    };
    let mut memo: BTreeMap<(Kind, usize), f64> = BTreeMap::new();
    let mut cost = |kind: Kind, level: usize| -> f64 {
        *memo.entry((kind, level)).or_insert_with(|| {
            let x = at_level(level);
            match kind {
                Kind::Mul => time_us(|| drop(backend.mul(&x, &x))),
                Kind::Square => time_us(|| drop(backend.square(&x))),
                Kind::MulScalar => {
                    let scale = const_scale_for(backend, level).expect("level above 0");
                    time_us(|| drop(backend.mul_scalar_at(&x, 0.5, scale)))
                }
                Kind::MulPlain(slot) => {
                    time_us(|| drop(backend.mul_plain_pre(&x, &plains[slot as usize])))
                }
                Kind::Add => time_us(|| drop(backend.add(&x, &x))),
                Kind::AddScalar => time_us(|| drop(backend.add_scalar(&x, 0.5))),
                Kind::Negate => time_us(|| drop(backend.negate(&x))),
                Kind::MulInt => time_us(|| drop(backend.mul_int(&x, 3))),
                Kind::Rotate(k) => time_us(|| drop(backend.rotate(&x, k))),
                Kind::Conjugate => time_us(|| drop(backend.conjugate(&x))),
                Kind::Rescale => time_us(|| {
                    let mut c = x.duplicate();
                    drop(backend.rescale(&mut c));
                }),
            }
        })
    };
    let mut levels: Vec<usize> = vec![top.level(); program.inputs as usize];
    let mut total = 0.0;
    for op in &program.ops {
        let lv = |r: u32| levels[r as usize];
        let (kind, level, rescales) = match *op {
            ProgramOp::Add { a, b } | ProgramOp::Sub { a, b } => {
                (Kind::Add, lv(a).min(lv(b)), false)
            }
            ProgramOp::Mul { a, b } => (Kind::Mul, lv(a).min(lv(b)), true),
            ProgramOp::Square { a } => (Kind::Square, lv(a), true),
            ProgramOp::Negate { a } => (Kind::Negate, lv(a), false),
            ProgramOp::AddScalar { a, .. } => (Kind::AddScalar, lv(a), false),
            ProgramOp::MulScalar { a, .. } => (Kind::MulScalar, lv(a), true),
            ProgramOp::MulInt { a, .. } => (Kind::MulInt, lv(a), false),
            ProgramOp::Rotate { a, k } => (Kind::Rotate(k), lv(a), false),
            ProgramOp::Conjugate { a } => (Kind::Conjugate, lv(a), false),
            ProgramOp::MulPlain { a, plain } => (Kind::MulPlain(plain), lv(a), true),
        };
        total += cost(kind, level);
        if rescales {
            total += cost(Kind::Rescale, level);
        }
        levels.push(if rescales { level - 1 } else { level });
    }
    let load_us = time_us(|| drop(backend.load(input)));
    let out_level = levels[program.outputs[0] as usize];
    let out = at_level(out_level);
    let store_us = time_us(|| drop(backend.store(&out)));
    total + load_us * program.inputs as f64 + store_us * program.outputs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmult_shape_counts_match_the_hybrid_key_switch() {
        // [11,6,*,3]: 7 Q limbs, alpha 3, digits of 3/3/1 limbs.
        let shape = ChainShape {
            log_n: 11,
            q_limbs: 7,
            dnum: 3,
        };
        assert_eq!(shape.alpha(), 3);
        let unit = |f: fn(&mut KernelCosts)| {
            let mut k = KernelCosts::default();
            f(&mut k);
            hmult_kernel_us(shape, k) * 1e3 / 2048.0
        };
        assert_eq!(unit(|k| k.ntt_inv_ns = 1.0), 13.0); // 7 + 2*3
        assert_eq!(unit(|k| k.ntt_fwd_ns = 1.0), 37.0); // (7+7+9) + 2*7
        assert_eq!(unit(|k| k.mac_ns = 1.0), 60.0); // 2 * 3 digits * 10
        assert_eq!(unit(|k| k.mul_ns = 1.0), 42.0);
        assert_eq!(unit(|k| k.conv_ns_per_term = 1.0), 93.0); // 21+21+9 + 2*21
    }

    #[test]
    fn math_probe_fills_every_math_and_rns_metric() {
        let mut layer = Layer::new();
        let shape = ChainShape {
            log_n: 8,
            q_limbs: 3,
            dnum: 2,
        };
        let k = math_rns(&mut layer, shape, NttFlavor::Flat);
        assert_eq!(layer.len(), 5);
        assert!(layer.values().all(|&v| v > 0.0), "{layer:?}");
        assert!(hmult_kernel_us(shape, k) > 0.0);
    }
}
