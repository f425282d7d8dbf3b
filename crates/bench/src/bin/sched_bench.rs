//! Scheduler snapshot: the PR 5 perf record (`BENCH_PR5.json`).
//!
//! Measures:
//!
//! * the **batch-16 serve workload** of BENCH_PR4 (4 tenants × 4 `serve_lr`
//!   requests in one tick, 8 streams): simulated time, launches, stream
//!   occupancy, and the liveness pass's device-memory plan
//!   (`peak_device_bytes` / `allocations`);
//! * the **PR 2 LR-iteration graph** at paper scale (`[16, 26, 59, 4]`,
//!   cost-only): simulated time and occupancy;
//! * a **16-tick steady-state run**: plan-cache hit rate (tick 1 plans,
//!   ticks 2–16 replay the cached plan), asserted inline to be ≥ 90%.
//!
//! ```text
//! cargo run --release --bin sched_bench [OUT_PATH]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use fides_api::CkksEngine;
use fides_baselines::synth_keys_with_rotations;
use fides_bench::{print_table, sim_time_us};
use fides_client::wire::EvalRequest;
use fides_core::{adapter, CkksContext, CkksParameters};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};
use fides_serve::{Server, ServerConfig};
use fides_workloads::serve_lr::{synthetic_features, synthetic_model, ServeLrModel};
use fides_workloads::{LrConfig, LrTrainer};

const OUT_PATH: &str = "BENCH_PR5.json";
/// The serve workload is the BENCH_PR4 serve mix scaled to `2^15` ring
/// degree and run **cost-only** (like every paper-scale bench in this
/// repo): at `2^11` every kernel sits on the simulator's 1.6 µs latency
/// floor, which pins stream occupancy to `floor / (streams ×
/// launch_overhead)` no matter what the scheduler does. At `2^15` kernel
/// execution exceeds the floor, so the schedule — not the floor —
/// determines occupancy.
const LOG_N_SERVE: usize = 15;
/// The steady-state cache run keeps BENCH_PR4's fast functional `2^11`
/// scale (cache behaviour is scale-independent).
const LOG_N_STEADY: usize = 11;
const LEVELS: usize = 6;
const DIM: usize = 32;
const TENANTS: usize = 4;
const REQS_PER_TENANT: usize = 4;
const NUM_STREAMS: usize = 8;
const STEADY_TICKS: usize = 16;

struct ServeRow {
    sim_us: f64,
    launches: u64,
    fused: u64,
    occupancy_pct: f64,
    peak_device_bytes: u64,
    allocations: u64,
}

fn serve_params(log_n: usize) -> CkksParameters {
    CkksParameters::new(log_n, LEVELS, 40, 3)
        .expect("bench params")
        .with_num_streams(NUM_STREAMS)
}

fn tenants(log_n: usize) -> Vec<(ServeLrModel, fides_api::Session)> {
    (0..TENANTS)
        .map(|t| {
            let model = synthetic_model(DIM, t as u64 + 1);
            let engine = CkksEngine::builder()
                .log_n(log_n)
                .levels(LEVELS)
                .scale_bits(40)
                .rotations(&model.required_rotations())
                .seed(900 + t as u64)
                .build()
                .expect("tenant engine");
            (model, engine.session())
        })
        .collect()
}

/// Opens every tenant's session and returns the 16 pre-encrypted requests.
fn requests(server: &Server, tenants: &[(ServeLrModel, fides_api::Session)]) -> Vec<EvalRequest> {
    let mut reqs = Vec::new();
    for (t, (model, session)) in tenants.iter().enumerate() {
        let plains = model.session_plains(session.engine().max_level());
        let refs: Vec<(&[f64], usize)> = plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
        let sid = server
            .open_session(session.session_request(&refs).expect("session request"))
            .expect("open session");
        let program = model.scoring_program(0);
        for r in 0..REQS_PER_TENANT {
            let features = synthetic_features(DIM, t as u64, r as u64);
            reqs.push(
                session
                    .eval_request(sid, &[&features], &program)
                    .expect("encrypt request"),
            );
        }
    }
    reqs
}

fn run_serve() -> ServeRow {
    // Cost-only: kernel bodies never run (CKKS server kernels are
    // data-oblivious, so the schedule is identical), which makes the
    // paper-scale ring affordable.
    let server = Server::new(
        ServerConfig::new(serve_params(LOG_N_SERVE))
            .backend(fides_serve::ServeBackend::GpuSim {
                device: DeviceSpec::rtx_4090(),
                mode: ExecMode::CostOnly,
            })
            .batch_size(16),
    )
    .expect("server");
    let tenants = tenants(LOG_N_SERVE);
    let reqs = requests(&server, &tenants);

    let sync_before = server.sync_us().unwrap();
    server.reset_sim_stats();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|req| server.submit(req.clone()).unwrap())
        .collect();
    while server.run_tick() > 0 {}
    let sim = server.sim_stats().expect("gpu-sim substrate");
    let sim_us = server.sync_us().unwrap() - sync_before;
    let stats = server.stats();

    for t in &tickets {
        let resp = t.try_take().expect("tick served every request");
        assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
    }

    ServeRow {
        sim_us,
        launches: sim.kernel_launches,
        fused: stats.fused_kernels,
        occupancy_pct: sim.stream_occupancy() * 100.0,
        peak_device_bytes: sim.peak_device_bytes,
        allocations: sim.allocations,
    }
}

/// Steady-state plan-cache measurement: the same batch of 16 requests
/// submitted for `STEADY_TICKS` consecutive ticks on one server.
fn run_steady_state() -> (u64, u64, f64) {
    let server =
        Server::new(ServerConfig::new(serve_params(LOG_N_STEADY)).batch_size(16)).expect("server");
    let tenants = tenants(LOG_N_STEADY);
    let reqs = requests(&server, &tenants);
    for _ in 0..STEADY_TICKS {
        let tickets: Vec<_> = reqs
            .iter()
            .map(|req| server.submit(req.clone()).unwrap())
            .collect();
        assert_eq!(server.run_tick(), reqs.len(), "one tick drains the batch");
        for t in &tickets {
            assert!(t.try_take().expect("served").error.is_none());
        }
    }
    let stats = server.stats();
    (
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.plan_cache_hit_rate() * 100.0,
    )
}

/// The PR 2 LR-iteration graph at paper scale, cost-only.
fn run_lr_iteration() -> (f64, f64) {
    let params = CkksParameters::paper_lr().with_limb_batch(12);
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(params, Arc::clone(&gpu));
    let client = fides_client::ClientContext::new(ctx.raw_params().clone());
    let cfg = LrConfig::paper();
    let trainer = LrTrainer::new(&ctx, &client, cfg);
    let keys = synth_keys_with_rotations(&ctx, &trainer.required_rotations());
    let top = ctx.max_level();
    let w = adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), cfg.slots());
    let x = adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), cfg.slots());
    let y = adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), cfg.slots());
    let _ = trainer.iteration(&w, &x, &y, &keys).unwrap();
    gpu.sync();
    gpu.reset_stats();
    let us = sim_time_us(&gpu, || {
        let _ = trainer.iteration(&w, &x, &y, &keys).unwrap();
    });
    let s = gpu.stats();
    println!(
        "  lr: sim {us:.1} us, occ {:.3}%, launches {}, dram {} MB, l2hit {} MB",
        s.stream_occupancy() * 100.0,
        s.kernel_launches,
        s.dram_read_bytes >> 20,
        s.l2_hit_bytes >> 20
    );
    let per: Vec<u64> = s.per_stream.iter().map(|p| p.launches).collect();
    println!("  per-stream launches: {per:?}");
    (us, s.stream_occupancy() * 100.0)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| OUT_PATH.into());

    println!("serve batch-16 workload...");
    let serve = run_serve();

    println!("steady-state plan-cache run ({STEADY_TICKS} ticks)...");
    let (hits, misses, hit_rate_pct) = run_steady_state();
    assert!(
        hit_rate_pct >= 90.0,
        "steady-state plan-cache hit rate must be ≥ 90%: {hit_rate_pct:.1}% ({hits} hits / {misses} misses)"
    );

    println!("LR-iteration graph at paper scale...");
    let (lr_us, lr_occ) = run_lr_iteration();

    print_table(
        "scheduler (batch-16 serve workload + LR iteration)",
        &[
            "workload", "sim ms", "launches", "fused", "occup %", "peak MB", "allocs",
        ],
        &[
            vec![
                "serve b16".into(),
                format!("{:.2}", serve.sim_us / 1e3),
                serve.launches.to_string(),
                serve.fused.to_string(),
                format!("{:.1}", serve.occupancy_pct),
                format!("{:.2}", serve.peak_device_bytes as f64 / 1e6),
                serve.allocations.to_string(),
            ],
            vec![
                "lr_iter".into(),
                format!("{:.2}", lr_us / 1e3),
                "-".into(),
                "-".into(),
                format!("{lr_occ:.1}"),
                "-".into(),
                "-".into(),
            ],
        ],
    );
    println!(
        "\nplan cache: {hits} hits / {misses} misses over {STEADY_TICKS} ticks ({hit_rate_pct:.1}%)"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 5,");
    let _ = writeln!(json, "  \"schema\": \"fideslib-bench-sched-v2-v1\",");
    let _ = writeln!(json, "  \"gpu_sim\": {{");
    let _ = writeln!(json, "    \"device\": \"RTX 4090 (simulated)\",");
    let _ = writeln!(
        json,
        "    \"serve_params\": \"[logN, L, dnum] = [{LOG_N_SERVE}, {LEVELS}, 3], serve_lr dim {DIM}, \
         {TENANTS} tenants x {REQS_PER_TENANT} requests, {NUM_STREAMS} streams, batch 16 \
         (steady-state cache run at logN {LOG_N_STEADY})\","
    );
    let _ = writeln!(json, "    \"serve_batch16\": [");
    let _ = writeln!(
        json,
        "      {{\"sim_us\": {:.2}, \"kernel_launches\": {}, \"fused_kernels\": {}, \
         \"stream_occupancy_pct\": {:.2}, \"peak_device_bytes\": {}, \"allocations\": {}}}",
        serve.sim_us,
        serve.launches,
        serve.fused,
        serve.occupancy_pct,
        serve.peak_device_bytes,
        serve.allocations,
    );
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"lr_iteration\": [");
    let _ = writeln!(
        json,
        "      {{\"sim_us\": {lr_us:.2}, \"stream_occupancy_pct\": {lr_occ:.2}}}"
    );
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"plan_cache\": {{");
    let _ = writeln!(json, "      \"steady_ticks\": {STEADY_TICKS},");
    let _ = writeln!(json, "      \"hits\": {hits},");
    let _ = writeln!(json, "      \"misses\": {misses},");
    let _ = writeln!(json, "      \"hit_rate_pct\": {hit_rate_pct:.2}");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_PR5.json");
    println!("wrote {out_path}");
}
