//! The serving layer's scheduling invariants: the steady-state plan-cache
//! hit rate, and batch-16's launch reduction with bit-identical frames —
//! 4 tenants × 4 `serve_lr` requests over 8 streams at a test-sized ring.

use fides_api::CkksEngine;
use fides_client::wire::EvalRequest;
use fides_core::{CkksParameters, FusionConfig};
use fides_gpu_sim::ExecMode;
use fides_serve::{Server, ServerConfig};
use fides_workloads::serve_lr::{synthetic_features, synthetic_model, ServeLrModel};

const LOG_N: usize = 10;
const LEVELS: usize = 6;
const DIM: usize = 16;
const TENANTS: usize = 4;
const REQS_PER_TENANT: usize = 4;
const NUM_STREAMS: usize = 8;
const STEADY_TICKS: u64 = 16;

fn params(fusion: bool) -> CkksParameters {
    CkksParameters::new(LOG_N, LEVELS, 40, 3)
        .unwrap()
        .with_num_streams(NUM_STREAMS)
        .with_fusion(FusionConfig {
            elementwise: fusion,
            ..FusionConfig::default()
        })
}

fn tenants() -> Vec<(ServeLrModel, fides_api::Session)> {
    (0..TENANTS)
        .map(|t| {
            let model = synthetic_model(DIM, t as u64 + 1);
            let engine = CkksEngine::builder()
                .log_n(LOG_N)
                .levels(LEVELS)
                .scale_bits(40)
                .rotations(&model.required_rotations())
                .seed(900 + t as u64)
                .build()
                .unwrap();
            (model, engine.session())
        })
        .collect()
}

/// Opens every tenant on `server` and returns the 16 requests. Seeded
/// tenants encrypt deterministically, so every server sees the same
/// ciphertext bytes.
fn requests(server: &Server, tenants: &[(ServeLrModel, fides_api::Session)]) -> Vec<EvalRequest> {
    let mut reqs = Vec::new();
    for (t, (model, session)) in tenants.iter().enumerate() {
        let plains = model.session_plains(session.engine().max_level());
        let refs: Vec<(&[f64], usize)> = plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
        let sid = server
            .open_session(session.session_request(&refs).unwrap())
            .unwrap();
        let program = model.scoring_program(0);
        for r in 0..REQS_PER_TENANT {
            let features = synthetic_features(DIM, t as u64, r as u64);
            reqs.push(session.eval_request(sid, &[&features], &program).unwrap());
        }
    }
    reqs
}

#[test]
fn steady_state_ticks_hit_the_plan_cache_and_replay_the_whole_plan() {
    // Cost-only: cache behaviour depends on the graph's shape, never on the
    // math, and the kernel schedule is identical either way.
    let server = Server::new(ServerConfig {
        mode: ExecMode::CostOnly,
        ..ServerConfig::new(params(true)).batch_size(16)
    })
    .unwrap();
    let reqs = requests(&server, &tenants());
    server.reset_sim_stats();

    let mut per_tick_launches = Vec::new();
    for tick in 0..STEADY_TICKS {
        let (sim_before, planned_before) = (
            server.sim_stats().unwrap().kernel_launches,
            server.stats().planned_launches,
        );
        let tickets: Vec<_> = reqs
            .iter()
            .map(|req| server.submit(req.clone()).unwrap())
            .collect();
        assert_eq!(
            server.run_tick(),
            reqs.len(),
            "tick {tick} drains the batch"
        );
        for t in &tickets {
            assert!(t.try_take().expect("served").error.is_none());
        }
        let launched = server.sim_stats().unwrap().kernel_launches - sim_before;
        assert_eq!(
            launched,
            server.stats().planned_launches - planned_before,
            "tick {tick}: the device saw every planned launch, once"
        );
        per_tick_launches.push(launched);
    }
    assert!(
        per_tick_launches.iter().all(|&l| l == per_tick_launches[0]),
        "hit ticks replay the plan the miss tick planned: {per_tick_launches:?}"
    );

    let stats = server.stats();
    assert_eq!(stats.plan_cache_misses, 1, "only the first tick plans");
    assert_eq!(stats.plan_cache_hits, STEADY_TICKS - 1);
    assert!(
        stats.plan_cache_hit_rate() >= 0.90,
        "steady-state plan-cache hit rate must be ≥ 90%: {:.1}% ({} hits / {} misses)",
        stats.plan_cache_hit_rate() * 100.0,
        stats.plan_cache_hits,
        stats.plan_cache_misses
    );
    let sim = server.sim_stats().unwrap();
    assert_eq!(
        (sim.plan_cache_hits, sim.plan_cache_misses),
        (stats.plan_cache_hits, stats.plan_cache_misses),
        "the device ledger books the same lookups"
    );
}

/// Serves the 16 requests at `batch`; returns the output frames in request
/// order and the launches the serving phase issued.
fn serve(batch: usize, fusion: bool) -> (Vec<Vec<u8>>, u64) {
    let server = Server::new(ServerConfig::new(params(fusion)).batch_size(batch)).unwrap();
    let reqs = requests(&server, &tenants());
    // Session setup and key loading stay out of the launch count.
    server.reset_sim_stats();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|req| server.submit(req.clone()).unwrap())
        .collect();
    while server.run_tick() > 0 {}
    let frames = tickets
        .iter()
        .map(|ticket| {
            let resp = ticket.try_take().expect("a tick served every request");
            assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
            resp.outputs[0].to_bytes()
        })
        .collect();
    (frames, server.sim_stats().unwrap().kernel_launches)
}

#[test]
fn batch16_strictly_reduces_launches_and_no_config_changes_a_frame() {
    let (reference, serial_launches) = serve(1, true);
    let mut batched_launches = None;
    for fusion in [true, false] {
        for batch in [1usize, 4, 16] {
            if (batch, fusion) == (1, true) {
                continue; // the reference itself
            }
            let (frames, launches) = serve(batch, fusion);
            assert_eq!(
                frames, reference,
                "batch {batch} fusion {fusion} drifted from the serial reference"
            );
            if (batch, fusion) == (16, true) {
                batched_launches = Some(launches);
            }
        }
    }
    let batched_launches = batched_launches.expect("the batch-16 fused row ran");
    assert!(
        batched_launches < serial_launches,
        "batch-16 must strictly reduce launches vs 16 serial requests: \
         {batched_launches} vs {serial_launches}"
    );
}
