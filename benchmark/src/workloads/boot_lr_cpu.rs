//! `boot_lr_cpu`: bootstrapped logistic-regression training on the CPU
//! reference backend.
//!
//! The paper's headline circuits — bootstrapping, and LR training past the
//! chain's level budget — on the **second backend**: `cpu_ref` and its
//! worker pool use `fides-math`/`fides-rns` differently from the gpu-sim
//! functional kernels (27-limb chains, hoisted BSGS rotations, Chebyshev,
//! ModRaise), so a math-layer gain for serving that costs the reference
//! backend shows here. Wall clock only: this backend has no simulated one.
//! It is also the only place precision after a bootstrap is measured.
//!
//! Set-up trains until the chain is spent (4 iterations at 6 levels each on
//! 26 levels), so every timed op is the steady state: one bootstrap plus one
//! iteration (~1.3 s). Op = one training iteration.

use std::time::Instant;

use fides_api::{BackendChoice, BootstrapConfig, CkksEngine, Ct};
use fides_client::ClientContext;
use fides_core::{Bootstrapper, CkksParameters};
use fides_workloads::{BootstrappedLrTrainer, EngineLrTrainer, LrConfig};

use super::{ms, repeat_setup, Checker, Layer, Measured, RunConfig};
use crate::gen::Rng;
use crate::json::Json;
use crate::probes::{self, ChainShape, NttFlavor};
use crate::trace::Tracer;

const LOG_N: usize = 11;
const LEVELS: usize = 26;
const SCALE_BITS: u32 = 50;
const FIRST_MOD_BITS: u32 = 55;
const DNUM: usize = 3;
const LR: LrConfig = LrConfig {
    batch: 4,
    features: 4,
    learning_rate: 1.0,
};
/// One bootstrap + iteration must land this close to the plaintext mirror
/// of the same step (measured: ~1e-3, about 10 bits).
const TOLERANCE: f64 = 0.01;

fn boot_config() -> BootstrapConfig {
    BootstrapConfig {
        slots: LR.slots(),
        level_budget: (2, 2),
        k_range: 128.0,
        double_angles: 6,
        degree: 40,
    }
}

struct State {
    engine: CkksEngine,
    rows: Vec<Vec<f64>>,
    labels: Vec<f64>,
    x: Ct,
    y: Ct,
    w: Ct,
    iterations: usize,
}

fn setup(cfg: &RunConfig) -> State {
    let engine = CkksEngine::builder()
        .log_n(LOG_N)
        .levels(LEVELS)
        .scale_bits(SCALE_BITS)
        .first_mod_bits(FIRST_MOD_BITS)
        .dnum(DNUM)
        .backend(BackendChoice::Cpu)
        .rotations(&LR.required_rotations())
        .bootstrap_config(boot_config())
        .seed(0xb007)
        .build()
        .expect("bootstrapped LR parameters are valid");

    // A seeded, linearly separable batch: labels follow a hidden direction.
    let mut rng = Rng::new(cfg.seed).fork(1);
    let hidden: Vec<f64> = (0..LR.features).map(|_| rng.range(-1.0, 1.0)).collect();
    let rows: Vec<Vec<f64>> = (0..LR.batch)
        .map(|_| (0..LR.features).map(|_| rng.range(-0.3, 0.3)).collect())
        .collect();
    let labels: Vec<f64> = rows
        .iter()
        .map(|r| {
            let side: f64 = r.iter().zip(&hidden).map(|(a, b)| a * b).sum();
            f64::from(side > 0.0)
        })
        .collect();

    let (x, y, mut w, mut iterations);
    {
        let trainer = BootstrappedLrTrainer::new(&engine, LR).expect("session can refresh");
        let t = trainer.trainer();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        x = t.encrypt_features(&row_refs).expect("encrypt");
        y = t.encrypt_labels(&labels).expect("encrypt");
        w = t.encrypt_weights(&[0.0; LR.features]).expect("encrypt");
        iterations = 0;
        while w.level() >= EngineLrTrainer::LEVELS_PER_ITERATION {
            w = t.iteration(&w, &x, &y).expect("iteration");
            iterations += 1;
        }
    }
    State {
        engine,
        rows,
        labels,
        x,
        y,
        w,
        iterations,
    }
}

pub fn run(cfg: &RunConfig) -> Measured {
    let tracer = Tracer::new(cfg.trace);
    let (mut state, setup_s) = repeat_setup(cfg, || setup(cfg));
    let engine = state.engine.clone();
    let trainer = BootstrappedLrTrainer::new(&engine, LR).expect("session can refresh");

    // Correctness is checked op by op: the weights an op leaves behind must
    // be one plaintext iteration (the same polynomial sigmoid) away from the
    // weights it started with. Checking each step against the previous
    // decryption keeps the tolerance independent of how many ops a window
    // holds; errors that accumulate over a whole run would not be.
    let row_refs: Vec<&[f64]> = state.rows.iter().map(|r| r.as_slice()).collect();
    let decrypt = |w: &Ct| trainer.trainer().decrypt_weights(w);
    let mut weights = decrypt(&state.w).expect("decrypt");
    let mut checker = Checker::default();
    let (mut latencies_ms, mut bootstraps, mut failed) = (Vec::new(), 0u64, 0u64);
    let spans_before = tracer.len();
    let t0 = Instant::now();
    let mut op = 0u64;
    while op == 0 || t0.elapsed() < cfg.window() {
        let op_t0 = Instant::now();
        if state.w.level() < EngineLrTrainer::LEVELS_PER_ITERATION {
            state.w = tracer
                .span("api.bootstrap", op, || engine.bootstrap(&state.w))
                .expect("bootstrap");
            bootstraps += 1;
        }
        state.w = tracer
            .span("workloads.lr.iteration", op, || {
                trainer.trainer().iteration(&state.w, &state.x, &state.y)
            })
            .expect("iteration");
        state.iterations += 1;
        let latency = ms(op_t0.elapsed());

        if cfg.corrupt && op == 0 {
            let mut raw = state.w.to_raw().expect("store");
            raw.c0.limbs[0][0] ^= 1 << 20;
            let damaged = engine.backend().load(&raw).expect("load");
            state.w = Ct::from_backend(&engine, damaged, state.w.len());
        }
        let want = LR.iteration_plain(&weights, &row_refs, &state.labels);
        let wrong_before = checker.wrong;
        match tracer.span("client.decrypt", op, || decrypt(&state.w)) {
            Ok(got) => {
                for (g, e) in got.iter().zip(&want) {
                    checker.check(*g, *e, TOLERANCE);
                }
                weights = got;
            }
            Err(_) => checker.wrong += 1,
        }
        if checker.wrong > wrong_before {
            failed += 1;
        } else {
            latencies_ms.push(latency);
        }
        op += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let window_spans = tracer.len() - spans_before;
    let ops = op;

    let mut layer = Layer::new();
    if cfg.trace {
        let spans = tracer.summary();
        let mean_ms = |name: &str| spans.get(name).map_or(0.0, |s| s.mean_us() / 1e3);
        layer.insert("api.bootstrap_wall_ms", mean_ms("api.bootstrap"));
        layer.insert(
            "workloads.lr.iteration_wall_ms",
            mean_ms("workloads.lr.iteration"),
        );
        layer.insert(
            "workloads.lr.bootstraps_per_op",
            bootstraps as f64 / ops as f64,
        );
        layer.insert("failed_share", failed as f64 / ops as f64);
        layer.insert("precision_bits_min", checker.precision_bits());
        boot_phases(&mut layer, &engine, &state.w);
        let shape = ChainShape {
            log_n: LOG_N,
            q_limbs: LEVELS + 1,
            dnum: DNUM,
        };
        probes::math_rns(&mut layer, shape, NttFlavor::Flat);
        let values: Vec<f64> = state.rows.concat();
        let a = engine.encrypt(&values).expect("encrypt");
        let b = engine.encrypt(&values).expect("encrypt");
        let raw = a.to_raw().expect("store");
        let plain = engine
            .preload_plain(&values, engine.max_level())
            .expect("preload");
        probes::core_ops(
            &mut layer,
            engine.backend(),
            &probes::OpInputs {
                a: a.backend_ct(),
                b: b.backend_ct(),
                plain: &plain,
                raw: Some(&raw),
                rotation: Some(1),
                hoisted: &[],
            },
        );
    }

    Measured {
        setup_s,
        wall_s,
        latencies_ms,
        tail_percentile: 50.0,
        attempted: ops,
        failed,
        layer,
        window_spans,
        params: Json::obj([
            (
                "chain",
                Json::str(format!("[{LOG_N},{LEVELS},{SCALE_BITS},{DNUM}]")),
            ),
            ("backend", Json::str("cpu, default workers")),
            ("loop", Json::str("closed, one iteration at a time")),
            ("lr", Json::str("4x4, learning rate 1.0")),
        ]),
        counts: Json::obj([
            ("iterations_total", Json::Num(state.iterations as f64)),
            ("bootstraps", Json::Num(bootstraps as f64)),
        ]),
        spans: tracer.into_spans(),
    }
}

/// `core.boot.*_wall_ms`: one phased bootstrap of the run's own weight
/// ciphertext on the engine's backend, through a second `Bootstrapper` built
/// for the same configuration (the engine keeps its own private).
fn boot_phases(layer: &mut Layer, engine: &CkksEngine, w: &Ct) {
    let raw = CkksParameters::new(LOG_N, LEVELS, SCALE_BITS, DNUM)
        .expect("valid")
        .with_first_mod_bits(FIRST_MOD_BITS)
        .to_raw();
    let client = ClientContext::new(raw);
    let booter =
        Bootstrapper::new(engine.backend(), &client, boot_config()).expect("chain deep enough");
    let (_, phases) = booter
        .bootstrap_phased(engine.backend(), w.backend_ct())
        .expect("bootstrap");
    layer.insert("core.boot.mod_raise_wall_ms", phases.mod_raise_us / 1e3);
    layer.insert("core.boot.fold_wall_ms", phases.fold_us / 1e3);
    layer.insert("core.boot.cts_wall_ms", phases.coeff_to_slot_us / 1e3);
    layer.insert("core.boot.eval_mod_wall_ms", phases.eval_mod_us / 1e3);
    layer.insert("core.boot.stc_wall_ms", phases.slot_to_coeff_us / 1e3);
}
