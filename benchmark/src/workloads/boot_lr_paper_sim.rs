//! `boot_lr_paper_sim`: the paper's LR iteration + bootstrap at the paper's
//! scale, cost-only.
//!
//! `[logN, L, delta, dnum] = [16, 26, 59, 4]`, 1,024 x 32 mini-batches,
//! synthetic keys, placeholder ciphertexts: the only scale where the cost
//! model is bandwidth- rather than launch-bound, and the simulated times are
//! the paper's own Table VII (with Table V ops and Table VIII phases as its
//! per-layer rungs). No functional math runs, so host wall time is pure
//! record -> fingerprint -> plan cache -> rebind -> replay: `core::sched`
//! and `gpu-sim` do all the work and `math` none — the mirror image of
//! `boot_lr_cpu`. Op = one iteration, dropped to level 0, then bootstrapped.
//!
//! There are no values to check; the run asserts the output level and scale,
//! and that every timed op took the identical simulated time and launch
//! count. The seed has nothing to vary here: placeholders carry no data.

use std::sync::Arc;
use std::time::Instant;

use fides_baselines::synth_keys_with_rotations;
use fides_client::ClientContext;
use fides_core::{
    adapter, boot, BackendCt, BootstrapConfig, Bootstrapper, Ciphertext, CkksContext,
    CkksParameters, EvalBackend, GpuSimBackend, SCALE_TOLERANCE,
};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};
use fides_workloads::{LrConfig, LrTrainer};

use super::{ms, repeat_setup, sched_layer, sim_layer, Layer, Measured, RunConfig, SchedCounts};
use crate::json::Json;
use crate::probes;
use crate::trace::Tracer;

const LIMB_BATCH: usize = 12;
/// Shifts for the hoisted-rotation probe (Table V's HoistedRotate row).
const HOISTED: [i32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

struct State {
    gpu: Arc<GpuSim>,
    ctx: Arc<CkksContext>,
    client: ClientContext,
    backend: GpuSimBackend,
    booter: Bootstrapper,
    w: Ciphertext,
    x: Ciphertext,
    y: Ciphertext,
    /// Wall milliseconds and plan-cache misses of the first, cold op.
    cold_ms: f64,
    cold_misses: u64,
    warm_ms: f64,
}

struct OpOutcome {
    wall_ms: f64,
    iteration_sim_us: f64,
    bootstrap_sim_us: f64,
    launches: u64,
    level: usize,
    scale: f64,
}

impl State {
    fn op(&self, tracer: &Tracer, op: u64) -> OpOutcome {
        let cfg = LrConfig::paper();
        let trainer = LrTrainer::new(&self.ctx, &self.client, cfg);
        let launches_before = self.gpu.stats().kernel_launches;
        let s0 = self.gpu.sync();
        let t0 = Instant::now();
        let w1 = tracer
            .span("workloads.lr.iteration", op, || {
                trainer.iteration(&self.w, &self.x, &self.y, self.backend.keys())
            })
            .expect("iteration");
        let s1 = self.gpu.sync();
        let mut low = w1;
        low.drop_to_level(0).expect("level 0 exists");
        let out = tracer
            .span("core.bootstrap", op, || {
                self.booter
                    .bootstrap(&self.backend, &BackendCt::Device(low))
            })
            .expect("bootstrap");
        let s2 = self.gpu.sync();
        OpOutcome {
            wall_ms: ms(t0.elapsed()),
            iteration_sim_us: s1 - s0,
            bootstrap_sim_us: s2 - s1,
            launches: self.gpu.stats().kernel_launches - launches_before,
            level: out.level(),
            scale: out.scale(),
        }
    }
}

fn setup() -> State {
    let params = CkksParameters::paper_lr().with_limb_batch(LIMB_BATCH);
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(params, Arc::clone(&gpu));
    let client = ClientContext::new(ctx.raw_params().clone());
    let cfg = LrConfig::paper();
    // Leaves at least the 6 levels the next iteration needs.
    let boot_cfg = BootstrapConfig {
        slots: cfg.slots(),
        level_budget: (2, 2),
        k_range: 128.0,
        double_angles: 6,
        degree: 31,
    };
    let mut shifts = LrTrainer::new(&ctx, &client, cfg).required_rotations();
    shifts.extend(boot::required_rotations(ctx.n(), &boot_cfg));
    shifts.extend(HOISTED);
    let keys = synth_keys_with_rotations(&ctx, &shifts);
    let backend = GpuSimBackend::new(Arc::clone(&ctx), keys);
    let booter = Bootstrapper::new(&backend, &client, boot_cfg).expect("chain deep enough");
    assert!(booter.min_output_level() >= LrTrainer::LEVELS_PER_ITERATION);
    let top = ctx.max_level();
    let placeholder =
        || adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), cfg.slots());
    let (w, x, y) = (placeholder(), placeholder(), placeholder());
    let mut state = State {
        gpu,
        ctx,
        client,
        backend,
        booter,
        w,
        x,
        y,
        cold_ms: 0.0,
        cold_misses: 0,
        warm_ms: 0.0,
    };
    // Two warm-up ops: the first plans every graph shape (cold), the second
    // replays them from the plan cache (warm).
    let quiet = Tracer::new(false);
    let misses = |s: &State| s.ctx.sched_stats().plan_cache_misses;
    let before = misses(&state);
    state.cold_ms = state.op(&quiet, 0).wall_ms;
    state.cold_misses = misses(&state) - before;
    state.warm_ms = state.op(&quiet, 1).wall_ms;
    state
}

pub fn run(cfg: &RunConfig) -> Measured {
    let tracer = Tracer::new(cfg.trace);
    let (state, setup_s) = repeat_setup(cfg, setup);

    state.gpu.reset_stats();
    let sched_before = SchedCounts::from(state.ctx.sched_stats());
    let mut outcomes: Vec<OpOutcome> = Vec::new();
    let spans_before = tracer.len();
    let t0 = Instant::now();
    while outcomes.is_empty() || t0.elapsed() < cfg.window() {
        outcomes.push(state.op(&tracer, outcomes.len() as u64));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let window_spans = tracer.len() - spans_before;
    let sim_stats = state.gpu.stats();
    let sched = SchedCounts::from(state.ctx.sched_stats()).since(sched_before);

    // Correctness, as far as a cost-only run has any: the refreshed
    // ciphertext sits where the bootstrap promises, and the simulator is
    // deterministic op over op.
    if cfg.corrupt {
        outcomes[0].level = 0;
    }
    let want_level = state.booter.min_output_level();
    let first = &outcomes[0];
    // Each time is a difference of the growing simulated clock, so equal
    // work agrees to the simulated nanosecond, not to the last bit.
    let same = |a: f64, b: f64| (a - b).abs() < 1e-3;
    let failed = outcomes
        .iter()
        .filter(|o| {
            let want_scale = state.ctx.standard_scale(o.level);
            o.level < want_level
                || (o.scale / want_scale - 1.0).abs() > SCALE_TOLERANCE
                || o.launches != first.launches
                || !same(o.iteration_sim_us, first.iteration_sim_us)
                || !same(o.bootstrap_sim_us, first.bootstrap_sim_us)
        })
        .count() as u64;

    let mut layer = Layer::new();
    if cfg.trace {
        let ops = outcomes.len() as f64;
        layer.insert(
            "sim_us_per_op",
            outcomes
                .iter()
                .map(|o| o.iteration_sim_us + o.bootstrap_sim_us)
                .sum::<f64>()
                / ops,
        );
        layer.insert("workloads.lr.iteration_sim_us", first.iteration_sim_us);
        layer.insert("workloads.lr.bootstrap_sim_us", first.bootstrap_sim_us);
        layer.insert("workloads.lr.bootstraps_per_op", 1.0);
        layer.insert("failed_share", failed as f64 / ops);
        sim_layer(&mut layer, &sim_stats, ops);
        sched_layer(&mut layer, sched, ops);
        layer.insert(
            "core.sched.host_us_per_launch",
            wall_s * 1e6 / sched.planned.max(1) as f64,
        );
        layer.insert(
            "core.sched.plan_ms_per_miss",
            (state.cold_ms - state.warm_ms).max(0.0) / state.cold_misses.max(1) as f64,
        );
        boot_phases(&mut layer, &state);
        let plain = state
            .backend
            .placeholder_plain(
                state.ctx.max_level(),
                state.ctx.standard_scale(state.ctx.max_level()),
                LrConfig::paper().slots(),
            )
            .expect("placeholder plaintext");
        let (a, b) = (
            BackendCt::Device(state.w.duplicate()),
            BackendCt::Device(state.x.duplicate()),
        );
        probes::core_ops(
            &mut layer,
            &state.backend,
            &probes::OpInputs {
                a: &a,
                b: &b,
                plain: &plain,
                raw: None,
                rotation: Some(1),
                hoisted: &HOISTED,
            },
        );
    }

    Measured {
        setup_s,
        wall_s,
        latencies_ms: outcomes.iter().map(|o| o.wall_ms).collect(),
        tail_percentile: 50.0,
        attempted: outcomes.len() as u64,
        failed,
        layer,
        window_spans,
        params: Json::obj([
            ("chain", Json::str("[16,26,59,4]")),
            ("limb_batch", Json::Num(LIMB_BATCH as f64)),
            ("exec", Json::str("gpu-sim RTX 4090, cost-only")),
            (
                "loop",
                Json::str("closed, one iteration+bootstrap at a time"),
            ),
            ("lr", Json::str("1024x32, paper configuration")),
        ]),
        counts: Json::obj([("launches_per_op", Json::Num(first.launches as f64))]),
        spans: tracer.into_spans(),
    }
}

/// `core.boot.*_sim_us`: one phased bootstrap (Table VIII's breakdown).
fn boot_phases(layer: &mut Layer, state: &State) {
    let low = adapter::placeholder_ciphertext(
        &state.ctx,
        0,
        state.ctx.standard_scale(0),
        LrConfig::paper().slots(),
    );
    let (_, phases) = state
        .booter
        .bootstrap_phased(&state.backend, &BackendCt::Device(low))
        .expect("bootstrap");
    layer.insert("core.boot.mod_raise_sim_us", phases.mod_raise_us);
    layer.insert("core.boot.fold_sim_us", phases.fold_us);
    layer.insert("core.boot.cts_sim_us", phases.coeff_to_slot_us);
    layer.insert("core.boot.eval_mod_sim_us", phases.eval_mod_us);
    layer.insert("core.boot.stc_sim_us", phases.slot_to_coeff_us);
}
