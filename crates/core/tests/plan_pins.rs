//! The planner's output, pinned to the byte.
//!
//! Every [`ExecPlan`] the planner emits is persisted verbatim (server
//! snapshots, the golden `plan_v1.bin` fixture) and replayed against the
//! simulated device, so a refactor of `sched::{dag, mem, plan}` must keep
//! each plan byte-identical. These tests hash the `encode_plan_entry` bytes
//! — fingerprint, steps, stats, memory plan, slot binding and buffer
//! binding — of three sets of plans with 64-bit FNV-1a and compare against
//! constants computed before the planner was rewritten on dense buffer
//! indices:
//!
//! * 64 seeded random graphs (the generator of `sched::persist`'s unit
//!   tests), planned with fusion on and off;
//! * every region of one logistic-regression iteration at logN 11;
//! * every region of one bootstrap at logN 11.

mod common;

use std::sync::Arc;

use common::{context, keys};
use fides_client::ClientContext;
use fides_core::sched::{encode_plan_entry, fingerprint, ExecGraph, PlanConfig, Planner};
use fides_core::{
    adapter, boot, BackendCt, BootstrapConfig, Bootstrapper, CkksContext, EvalBackend,
    GpuSimBackend,
};
use fides_gpu_sim::{BufferId, EventLog, KernelDesc, KernelKind};

/// 64-bit FNV-1a over a sequence of plan entries, each prefixed by its
/// length so entry boundaries are part of the digest.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn entry(&mut self, payload: &[u8]) {
        self.bytes(&(payload.len() as u64).to_le_bytes());
        self.bytes(payload);
    }
}

/// A random graph: launches on streams 0..8 with 0..40 aliased accesses
/// each, random kinds, op counts and efficiencies, and fences over random
/// stream subsets (xorshift from `seed`) — the generator of
/// `sched::persist`'s unit tests.
fn random_graph(seed: u64) -> ExecGraph {
    let mut x = seed | 1;
    let mut below = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let mut log = EventLog::default();
    for _ in 0..below(120) {
        if below(6) == 0 {
            let signals: Vec<usize> = (0..8).filter(|_| below(3) == 0).collect();
            let waiters: Vec<usize> = (0..8).filter(|_| below(3) == 0).collect();
            log.fence(signals, waiters);
            continue;
        }
        let stream = below(8) as usize;
        let mut desc = KernelDesc::new(KernelKind::ALL[below(10) as usize])
            .ops(below(1 << 30))
            .access_efficiency((1 + below(100)) as f64 / 100.0);
        if below(10) == 0 {
            desc.kind = None;
        }
        let accesses = below(41);
        log.launch(stream, desc, |d| {
            for _ in 0..accesses {
                let (buf, bytes) = (BufferId(below(24)), 1 << below(28));
                if below(2) == 0 {
                    d.read(buf, bytes);
                } else {
                    d.write(buf, bytes);
                }
            }
        });
    }
    ExecGraph::from(log)
}

#[test]
fn random_graph_plans_are_pinned() {
    let mut digest = Digest::new();
    for seed in 0..64u64 {
        let graph = random_graph(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for fuse_elementwise in [true, false] {
            let cfg = PlanConfig {
                fuse_elementwise,
                ..PlanConfig::default()
            };
            let (fp, binding) = fingerprint(&graph, &cfg);
            let plan = Planner::new(cfg).plan(&graph);
            digest.entry(&encode_plan_entry(fp, &plan, &binding));
        }
    }
    assert_eq!(digest.0, RANDOM_PINS, "random-graph plans changed");
}

/// Digest of every plan the context cached, least recently used first.
fn cached_digest(ctx: &CkksContext) -> (usize, u64) {
    let plans = ctx.cached_plans();
    let mut digest = Digest::new();
    for (fp, plan, binding) in &plans {
        digest.entry(&encode_plan_entry(*fp, plan, binding));
    }
    (plans.len(), digest.0)
}

/// The LR batch shape at logN 11: 32 samples × 32 features fill the 1024
/// slots.
const FEATURES: i32 = 32;
const BATCH: i32 = 32;

#[test]
fn lr_iteration_region_plans_are_pinned() {
    let ctx = context();
    let mut shifts = Vec::new();
    let mut k = 1;
    while k < FEATURES {
        shifts.extend([k, -k]);
        k <<= 1;
    }
    let mut k = FEATURES;
    while k < BATCH * FEATURES {
        shifts.push(k);
        k <<= 1;
    }
    let keys = keys(&ctx, &shifts);
    let slots = (BATCH * FEATURES) as usize;
    let top = ctx.max_level();
    let fresh = || adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), slots);
    let (w, x, y) = (fresh(), fresh(), fresh());

    // The op sequence of `LrTrainer::iteration`: X·w folded over features,
    // masked and replicated, the cubic sigmoid, the error, the gradient
    // folded over samples, and the update.
    let mut prod = x.mul(&w, &keys).unwrap();
    prod.rescale_in_place().unwrap();
    let mut k = 1;
    while k < FEATURES {
        let rot = prod.rotate(k, &keys).unwrap();
        prod.add_assign_ct(&rot).unwrap();
        k <<= 1;
    }
    let mask =
        adapter::placeholder_plaintext(&ctx, prod.level(), ctx.standard_scale(prod.level()), slots);
    let mut z = prod.mul_plain(&mask).unwrap();
    z.rescale_in_place().unwrap();
    let mut k = 1;
    while k < FEATURES {
        let rot = z.rotate(-k, &keys).unwrap();
        z.add_assign_ct(&rot).unwrap();
        k <<= 1;
    }
    let mut z2 = z.square(&keys).unwrap();
    z2.rescale_in_place().unwrap();
    let cz = z.mul_scalar_rescale(0.5).unwrap();
    let mut p = z2.mul(&cz, &keys).unwrap();
    p.rescale_in_place().unwrap();
    let mut c1z = z.mul_scalar_rescale(0.25).unwrap();
    c1z.drop_to_level(p.level()).unwrap();
    p.add_assign_ct(&c1z).unwrap();
    p.add_scalar_assign(0.5).unwrap();
    let mut y_now = y.duplicate();
    y_now.drop_to_level(p.level()).unwrap();
    let e = y_now.sub(&p).unwrap();
    let mut x_low = x.duplicate();
    x_low.drop_to_level(e.level()).unwrap();
    let mut g = e.mul(&x_low, &keys).unwrap();
    g.rescale_in_place().unwrap();
    let mut k = FEATURES;
    while k < BATCH * FEATURES {
        let rot = g.rotate(k, &keys).unwrap();
        g.add_assign_ct(&rot).unwrap();
        k <<= 1;
    }
    let g = g.mul_scalar_rescale(0.125).unwrap();
    let mut out = w.duplicate();
    out.drop_to_level(g.level()).unwrap();
    out.add_assign_ct(&g).unwrap();

    assert_eq!(cached_digest(&ctx), LR_PINS, "LR-iteration plans changed");
}

#[test]
fn bootstrap_region_plans_are_pinned() {
    let ctx = context();
    let client = ClientContext::new(ctx.raw_params().clone());
    let cfg = BootstrapConfig {
        slots: ctx.n() / 2,
        level_budget: (2, 2),
        k_range: 128.0,
        double_angles: 6,
        degree: 31,
    };
    let keys = keys(&ctx, &boot::required_rotations(ctx.n(), &cfg));
    let backend = GpuSimBackend::new(Arc::clone(&ctx), keys);
    let slots = cfg.slots;
    let booter = Bootstrapper::new(&backend, &client, cfg).expect("chain deep enough");
    let backend = backend.with_bootstrapper(booter);
    let ct = adapter::placeholder_ciphertext(&ctx, 0, ctx.standard_scale(0), slots);
    backend.bootstrap(&BackendCt::Device(ct)).unwrap();

    assert_eq!(
        cached_digest(&ctx),
        BOOT_PINS,
        "bootstrap-region plans changed"
    );
}

/// `(plan count, digest)` pins, computed on the planner before its
/// dense-index rewrite.
const RANDOM_PINS: u64 = 6_227_912_317_327_963_222;
const LR_PINS: (usize, u64) = (21, 10_024_188_425_932_153_045);
const BOOT_PINS: (usize, u64) = (4, 17_782_851_739_823_483_951);
