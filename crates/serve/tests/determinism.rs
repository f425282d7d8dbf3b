//! The serving layer's correctness bar: batched multi-tenant execution is
//! **bit-identical** to the same requests served one at a time, and to the
//! same circuits run on a fresh single-tenant engine — gpu-sim or the CPU
//! reference — across thread interleavings, worker counts, planning pool
//! sizes and batch sizes.
//!
//! This holds structurally (CKKS server kernels are data-oblivious, so the
//! batch schedule affects only timing), and these tests pin the structure
//! down frame-byte by frame-byte. Worker and pool counts are pinned inside
//! the tests; the device count is the `FIDES_DEVICES` axis of the CI
//! matrix.

use std::collections::BTreeMap;

use fides_api::{BackendChoice, CkksEngine, CkksEngineBuilder};
use fides_client::persist::{kind, RecordReader};
use fides_client::wire::EvalRequest;
use fides_core::CkksParameters;
use fides_serve::{Server, ServerConfig};
use fides_workloads::serve_lr::{synthetic_features, synthetic_model, ServeLrModel};

const DIM: usize = 16;
const LOG_N: usize = 10;
const LEVELS: usize = 6;

struct Tenant {
    model: ServeLrModel,
    session: fides_api::Session,
}

/// Tenant `t`'s engine builder: any backend built from it with the same
/// seed holds the same keys.
fn tenant_engine(t: usize, model: &ServeLrModel) -> CkksEngineBuilder {
    CkksEngine::builder()
        .log_n(LOG_N)
        .levels(LEVELS)
        .scale_bits(40)
        .rotations(&model.required_rotations())
        .seed(500 + t as u64)
}

fn tenants(n: usize) -> Vec<Tenant> {
    (0..n)
        .map(|t| {
            let model = synthetic_model(DIM, t as u64 + 1);
            let engine = tenant_engine(t, &model).build().unwrap();
            Tenant {
                model,
                session: engine.session(),
            }
        })
        .collect()
}

/// Device count under test: the `FIDES_DEVICES` axis of the CI matrix.
/// Every test in this suite must produce bit-identical frames at any
/// device count — sharding tenants across simulated devices changes the
/// schedule, never the math.
fn num_devices() -> usize {
    std::env::var("FIDES_DEVICES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn params() -> CkksParameters {
    CkksParameters::new(LOG_N, LEVELS, 40, 3)
        .unwrap()
        .with_num_devices(num_devices())
}

/// Kernel launches summed over every device shard (at one device this is
/// exactly `sim_stats()`).
fn total_launches(server: &Server) -> u64 {
    (0..server.num_devices())
        .map(|d| server.sim_stats_device(d).unwrap().kernel_launches)
        .sum()
}

fn open_all(server: &Server, tenants: &[Tenant]) -> Vec<u64> {
    tenants
        .iter()
        .map(|t| {
            let plains = t.model.session_plains(t.session.engine().max_level());
            let refs: Vec<(&[f64], usize)> =
                plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
            server
                .open_session(t.session.session_request(&refs).unwrap())
                .unwrap()
        })
        .collect()
}

/// The tenant's requests, pre-encrypted once so every server (and the
/// engine reference) evaluates the *same* ciphertext bytes.
fn requests(
    tenants: &[Tenant],
    sids: &[u64],
    per_tenant: usize,
) -> Vec<(usize, usize, EvalRequest)> {
    let mut out = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let program = tenant.model.scoring_program(0);
        for r in 0..per_tenant {
            let features = synthetic_features(DIM, t as u64, r as u64);
            let req = tenant
                .session
                .eval_request(sids[t], &[&features], &program)
                .unwrap();
            out.push((t, r, req));
        }
    }
    out
}

/// The request's circuit run through `eval_program` on `engine` (no
/// server, no batching), as output frames. The engine and session layers
/// share one padding policy, so `preload_plain` over the model's values
/// gives the identical encoding the session uploaded.
fn engine_frames(engine: &CkksEngine, model: &ServeLrModel, req: &EvalRequest) -> Vec<Vec<u8>> {
    let inputs: Vec<_> = req
        .inputs
        .iter()
        .map(|raw| fides_api::Ct::from_backend(engine, engine.backend().load(raw).unwrap(), 1))
        .collect();
    let plains: Vec<_> = model
        .session_plains(engine.max_level())
        .iter()
        .map(|(v, l)| engine.preload_plain(v, *l).unwrap())
        .collect();
    engine
        .eval_program(&inputs, &plains, &req.program)
        .unwrap()
        .iter()
        .map(|ct| ct.to_raw().unwrap().to_bytes())
        .collect()
}

/// Serves every request through `server` from `threads` OS threads with
/// interleaved hand-offs, returning output frames keyed by (tenant,
/// request).
fn serve_threaded(
    server: &Server,
    reqs: &[(usize, usize, EvalRequest)],
    threads: usize,
) -> BTreeMap<(usize, usize), Vec<Vec<u8>>> {
    let results = std::sync::Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let results = &results;
            let server = server.clone();
            let mine: Vec<_> = reqs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % threads == worker)
                .map(|(_, x)| x)
                .collect();
            scope.spawn(move || {
                for (t, r, req) in mine {
                    let resp = server.eval(req.clone()).unwrap();
                    assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
                    let frames: Vec<Vec<u8>> =
                        resp.outputs.iter().map(|ct| ct.to_bytes()).collect();
                    results.lock().unwrap().insert((*t, *r), frames);
                }
            });
        }
    });
    results.into_inner().unwrap()
}

#[test]
fn batched_bit_identical_to_serial_and_engine() {
    let tenants = tenants(3);
    let per_tenant = 2;

    // Reference: every request evaluated on its own fresh engine via
    // eval_program (single-tenant, no server, no batching).
    let batched_server = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let serial_server = Server::new(ServerConfig::new(params()).batch_size(1)).unwrap();
    let b_sids = open_all(&batched_server, &tenants);
    let s_sids = open_all(&serial_server, &tenants);
    let reqs = requests(&tenants, &b_sids, per_tenant);

    // Batched: everything queued, then drained in one tick of 6.
    let tickets: Vec<_> = reqs
        .iter()
        .map(|(t, r, req)| (*t, *r, batched_server.submit(req.clone()).unwrap()))
        .collect();
    assert_eq!(batched_server.run_tick(), 6, "one tick serves the queue");

    for (t, r, ticket) in &tickets {
        let batched = ticket.try_take().expect("served");
        assert!(batched.error.is_none());

        // Serial: same wire request (session ids match by construction).
        let mut serial_req = reqs
            .iter()
            .find(|(tt, rr, _)| tt == t && rr == r)
            .unwrap()
            .2
            .clone();
        serial_req.session_id = s_sids[*t];
        let serial = serial_server.eval(serial_req).unwrap();
        assert!(serial.error.is_none());
        assert_eq!(
            batched.outputs.len(),
            serial.outputs.len(),
            "tenant {t} request {r}"
        );
        for (a, b) in batched.outputs.iter().zip(&serial.outputs) {
            assert_eq!(a.to_bytes(), b.to_bytes(), "batched vs serial frames");
        }

        // Engine: the same ciphertext inputs through eval_program on the
        // tenant's own engine (same keys — the session exported them).
        let tenant = &tenants[*t];
        let (_, _, wire_req) = reqs.iter().find(|(tt, rr, _)| tt == t && rr == r).unwrap();
        let batched: Vec<Vec<u8>> = batched.outputs.iter().map(|ct| ct.to_bytes()).collect();
        assert_eq!(
            batched,
            engine_frames(tenant.session.engine(), &tenant.model, wire_req),
            "batched vs single-tenant engine frames (tenant {t} request {r})"
        );
    }
}

#[test]
fn threads_interleaved_match_serial_across_batch_sizes() {
    let tenants = tenants(4);
    let per_tenant = 2;

    // The serial reference: batch size 1, single thread.
    let reference = Server::new(ServerConfig::new(params()).batch_size(1)).unwrap();
    let ref_sids = open_all(&reference, &tenants);
    let reqs = requests(&tenants, &ref_sids, per_tenant);
    let mut expected = BTreeMap::new();
    for (t, r, req) in &reqs {
        let resp = reference.eval(req.clone()).unwrap();
        assert!(resp.error.is_none());
        expected.insert(
            (*t, *r),
            resp.outputs
                .iter()
                .map(|ct| ct.to_bytes())
                .collect::<Vec<_>>(),
        );
    }

    for batch_size in [1usize, 16] {
        let server = Server::new(ServerConfig::new(params()).batch_size(batch_size)).unwrap();
        let sids = open_all(&server, &tenants);
        // Rewrite session ids for this server (fresh registry).
        let mut my_reqs = reqs.clone();
        for (t, _, req) in &mut my_reqs {
            req.session_id = sids[*t];
        }
        let got = serve_threaded(&server, &my_reqs, 4);
        assert_eq!(
            got, expected,
            "batch size {batch_size}: threaded frames drifted from serial"
        );
        let stats = server.stats();
        assert_eq!(stats.requests, reqs.len() as u64);
        assert_eq!(stats.failed, 0);
    }
}

/// The CPU reference backend stays the server's oracle: every frame the
/// gpu-sim server serves equals `eval_program` on a CPU engine built from
/// the tenant's seed (hence its keys), at every limb-parallel worker count.
#[test]
fn served_frames_match_cpu_engine_across_worker_counts() {
    let tenants = tenants(2);
    let server = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let sids = open_all(&server, &tenants);
    let reqs = requests(&tenants, &sids, 2);
    let served = serve_threaded(&server, &reqs, 4);

    for workers in [1usize, 8] {
        for (t, tenant) in tenants.iter().enumerate() {
            let cpu = tenant_engine(t, &tenant.model)
                .backend(BackendChoice::Cpu)
                .workers(workers)
                .build()
                .unwrap();
            for (_, r, req) in reqs.iter().filter(|(tt, _, _)| *tt == t) {
                assert_eq!(
                    served[&(t, *r)],
                    engine_frames(&cpu, &tenant.model, req),
                    "cpu workers {workers}: tenant {t} request {r} drifted from gpu-sim"
                );
            }
        }
    }
}

/// A miss tick plans its shard graphs on the rayon pool
/// (`PlanCache::bind` → `plan_parallel`, sized by
/// `rayon::current_num_threads`). Two shards give every tick two graphs to
/// plan; the frames and the cached plans must not depend on the pool size.
#[test]
fn planning_pool_size_changes_neither_frames_nor_plans() {
    let tenants = tenants(2);
    // Encrypted once: both servers evaluate the same ciphertext bytes.
    let reqs = requests(&tenants, &[0; 2], 1);
    let serve_in_pool = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let server =
                Server::new(ServerConfig::new(params().with_num_devices(2)).batch_size(16))
                    .unwrap();
            let sids = open_all(&server, &tenants);
            // The hash ring homes the two tenants on different shards.
            // Tenant t sends its request k·(t + 1) times, and a shard's
            // graph shape is its request count: 1 and 2 at k = 1, 3 and 6
            // at k = 3. So the first two ticks each plan two new shapes at
            // once, and the third hits both.
            let mix = |k: usize| -> Vec<(u64, &EvalRequest)> {
                reqs.iter()
                    .flat_map(|(t, _, req)| std::iter::repeat_n((sids[*t], req), k * (t + 1)))
                    .collect()
            };
            let mut frames = Vec::new();
            for k in [1, 3, 1] {
                let tickets: Vec<_> = mix(k)
                    .into_iter()
                    .map(|(sid, req)| {
                        let mut req = req.clone();
                        req.session_id = sid;
                        server.submit(req).unwrap()
                    })
                    .collect();
                assert_eq!(server.run_tick(), tickets.len());
                for ticket in tickets {
                    let resp = ticket.try_take().expect("served");
                    assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
                    frames.extend(resp.outputs.iter().map(|ct| ct.to_bytes()));
                }
            }
            let stats = server.stats();
            assert_eq!(stats.per_device_requests, [5, 10], "one tenant per shard");
            assert_eq!(stats.plan_cache_misses, 4, "two shapes on two shards");
            let mut image = Vec::new();
            server.snapshot(&mut image).unwrap();
            let mut reader = RecordReader::new(image.as_slice()).unwrap();
            let mut plans = Vec::new();
            while let Some(rec) = reader.read_record().unwrap() {
                if rec.kind == kind::PLAN {
                    plans.push(rec.payload.to_vec());
                }
            }
            assert_eq!(plans.len(), 4, "four distinct shard graphs");
            (frames, plans)
        })
    };
    let (frames_1, plans_1) = serve_in_pool(1);
    let (frames_8, plans_8) = serve_in_pool(8);
    // `assert!`, not `assert_eq!`: a failure should not print megabytes.
    assert!(frames_1 == frames_8, "pool size changed frames");
    assert!(plans_1 == plans_8, "pool size changed cached plans");
}

#[test]
fn cross_tenant_batching_strictly_reduces_launches() {
    let tenants = tenants(4);
    let per_tenant = 4; // 16 requests total

    let batched = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let serial = Server::new(ServerConfig::new(params()).batch_size(1)).unwrap();
    let b_sids = open_all(&batched, &tenants);
    let s_sids = open_all(&serial, &tenants);
    let reqs = requests(&tenants, &b_sids, per_tenant);

    // Launch deltas measured from after session setup, so key loading
    // doesn't blur the comparison. Launches are summed over shards so the
    // comparison holds at every point of the FIDES_DEVICES matrix.
    let b_before = total_launches(&batched);
    let tickets: Vec<_> = reqs
        .iter()
        .map(|(_, _, req)| batched.submit(req.clone()).unwrap())
        .collect();
    assert_eq!(batched.run_tick(), 16);
    let b_launches = total_launches(&batched) - b_before;
    let mut batched_frames = Vec::new();
    for ticket in &tickets {
        let resp = ticket.try_take().unwrap();
        assert!(resp.error.is_none());
        batched_frames.push(resp.outputs[0].to_bytes());
    }

    let s_before = total_launches(&serial);
    let mut serial_frames = Vec::new();
    for (t, _, req) in &reqs {
        let mut req = req.clone();
        req.session_id = s_sids[*t];
        let resp = serial.eval(req).unwrap();
        assert!(resp.error.is_none());
        serial_frames.push(resp.outputs[0].to_bytes());
    }
    let s_launches = total_launches(&serial) - s_before;

    assert_eq!(batched_frames, serial_frames, "results must not change");
    assert!(
        b_launches < s_launches,
        "batch-16 must strictly reduce sim launches: batched {b_launches} vs serial {s_launches}"
    );
    let stats = batched.stats();
    assert!(
        stats.fused_kernels > 0,
        "fusion must engage across the batch"
    );
    assert_eq!(stats.max_batch, 16);
}

#[test]
fn plan_cache_steady_state_hits_and_invalidation() {
    // Steady state: the same batch shape tick after tick. Tick 1 plans
    // (miss); every later tick must replay the cached plan (hit) — and
    // the responses must stay bit-identical to the planned tick's, since
    // a cache hit replays a *rebound* plan over fresh buffers.
    //
    // Pinned to one device: each shard plans its own merged graph, so the
    // miss/hit counts below are per-shard quantities. Topology keying of
    // the cache (N=1 plan never replays at N=2) is pinned by fides-core's
    // `cache_invalidates_across_topologies_and_hits_within_one`, the key's
    // value by `fingerprint_is_stable_across_releases`; cross-placement
    // frame identity by the `placement` suite.
    let tenants = tenants(2);
    let server =
        Server::new(ServerConfig::new(params().with_num_devices(1)).batch_size(16)).unwrap();
    let sids = open_all(&server, &tenants);
    let reqs = requests(&tenants, &sids, 4); // 8 requests per tick

    let mut reference: Option<Vec<Vec<u8>>> = None;
    let mut cold = None;
    for tick in 0..16 {
        let tickets: Vec<_> = reqs
            .iter()
            .map(|(_, _, req)| server.submit(req.clone()).unwrap())
            .collect();
        assert_eq!(
            server.run_tick(),
            reqs.len(),
            "tick {tick} drains the batch"
        );
        if tick == 0 {
            // The phase timers the benchmark's per-tick attribution reads.
            let stats = server.stats();
            assert!(stats.plan_us > 0, "the cold tick's planning is timed");
            assert!(stats.replay_us > 0, "the cold tick's replay is timed");
            cold = Some(stats);
        }
        let frames: Vec<Vec<u8>> = tickets
            .iter()
            .map(|t| {
                let resp = t.try_take().expect("served");
                assert!(resp.error.is_none());
                resp.outputs[0].to_bytes()
            })
            .collect();
        match &reference {
            None => reference = Some(frames),
            Some(reference) => assert_eq!(
                &frames, reference,
                "tick {tick}: cached-plan replay changed results"
            ),
        }
    }
    let stats = server.stats();
    let cold = cold.expect("the cold tick ran");
    assert_eq!(stats.batches, cold.batches + 15, "one batch per tick");
    assert_eq!(
        stats.per_device_plan_us.iter().sum::<u64>(),
        cold.per_device_plan_us.iter().sum::<u64>(),
        "cache hits run no planning pass"
    );
    assert_eq!(stats.plan_cache_misses, 1, "only the first tick plans");
    assert_eq!(
        stats.plan_cache_hits, 15,
        "steady-state ticks hit the cache"
    );
    assert!(
        stats.plan_cache_hit_rate() >= 0.90,
        "steady-state hit rate {:.2} below the 90% bar",
        stats.plan_cache_hit_rate()
    );

    // Graph-shape change: a tick with a different request mix must miss.
    let ticket = server.submit(reqs[0].2.clone()).unwrap();
    assert_eq!(server.run_tick(), 1);
    assert!(ticket.try_take().unwrap().error.is_none());
    assert_eq!(
        server.stats().plan_cache_misses,
        2,
        "a different batch shape must re-plan"
    );

    // Config changes key the cache too: a server with a different stream
    // count or fusion config fingerprints the same recording differently
    // (pinned by fides-core's `config_affects_fingerprint` unit test), so
    // its first identical-shape tick plans from scratch.
    let other = Server::new(
        ServerConfig::new(
            params()
                .with_num_devices(1)
                .with_num_streams(2)
                .with_fusion(fides_core::FusionConfig {
                    elementwise: false,
                    ..fides_core::FusionConfig::default()
                }),
        )
        .batch_size(16),
    )
    .unwrap();
    let other_sids = open_all(&other, &tenants);
    let mut other_reqs = reqs.clone();
    for (t, _, req) in &mut other_reqs {
        req.session_id = other_sids[*t];
    }
    let tickets: Vec<_> = other_reqs
        .iter()
        .map(|(_, _, req)| other.submit(req.clone()).unwrap())
        .collect();
    assert_eq!(other.run_tick(), other_reqs.len());
    let other_frames: Vec<Vec<u8>> = tickets
        .iter()
        .map(|t| t.try_take().unwrap().outputs[0].to_bytes())
        .collect();
    assert_eq!(other.stats().plan_cache_misses, 1);
    assert_eq!(
        Some(other_frames),
        reference,
        "scheduling config must never change results"
    );
}

#[test]
fn registry_evicts_lru_and_rejects_foreign_chains() {
    let tenants = tenants(3);
    let server = Server::new(ServerConfig::new(params()).max_sessions(2)).unwrap();
    let sids = open_all(&server, &tenants);
    assert_eq!(server.session_count(), 2, "bounded registry");
    // Tenant 0 was the LRU victim: its requests now fail cleanly.
    let reqs = requests(&tenants, &sids, 1);
    let resp = server.eval(reqs[0].2.clone()).unwrap();
    assert!(
        resp.error
            .as_deref()
            .unwrap_or("")
            .contains("unknown session"),
        "evicted session must fail cleanly, got {:?}",
        resp.error
    );
    // Later tenants still work.
    let resp = server.eval(reqs[2].2.clone()).unwrap();
    assert!(resp.error.is_none());

    // A foreign parameter chain is rejected before key loading.
    let foreign = CkksEngine::builder()
        .log_n(LOG_N)
        .levels(LEVELS - 1)
        .seed(1)
        .build()
        .unwrap();
    let err = server.open_session(foreign.session().session_request(&[]).unwrap());
    assert!(matches!(
        err,
        Err(fides_serve::ServeError::ParamsMismatch { .. })
    ));
    assert_eq!(server.stats().sessions_evicted, 1);
}

/// The network front preserves the determinism bar end to end: N client
/// threads over **real sockets** — each opening its session and
/// pipelining its requests through frames, the event loop, the admission
/// queue and the DRR scheduler — get responses byte-identical to the
/// same requests through the in-process `eval` path, at every device count
/// of the CI matrix (`FIDES_DEVICES`).
#[test]
fn socket_serving_matches_in_process() {
    use fides_client::net::NetClient;
    use fides_serve::{NetServer, NetServerConfig};

    let tenants = tenants(3);
    let per_tenant = 2;

    // In-process reference.
    let reference = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let ref_sids = open_all(&reference, &tenants);
    let reqs = requests(&tenants, &ref_sids, per_tenant);
    let mut expected = BTreeMap::new();
    for (t, r, req) in &reqs {
        let resp = reference.eval(req.clone()).unwrap();
        assert!(resp.error.is_none());
        expected.insert((*t, *r), resp.to_bytes());
    }

    // Socket server over a fresh Server with the same chain.
    let server = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let (addr, shutdown, join) =
        NetServer::spawn(server, "127.0.0.1:0", NetServerConfig::default()).unwrap();

    // One client thread per tenant: open a session over the socket, then
    // pipeline the tenant's whole burst on one connection.
    let got = std::sync::Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for (t, tenant) in tenants.iter().enumerate() {
            let got = &got;
            let reqs = &reqs;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let plains = tenant
                    .model
                    .session_plains(tenant.session.engine().max_level());
                let refs: Vec<(&[f64], usize)> =
                    plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
                let sid = client
                    .open_session(&tenant.session.session_request(&refs).unwrap())
                    .unwrap();
                let mut mine: Vec<(usize, EvalRequest)> = reqs
                    .iter()
                    .filter(|(tt, _, _)| *tt == t)
                    .map(|(_, r, req)| (*r, req.clone()))
                    .collect();
                for (_, req) in &mut mine {
                    req.session_id = sid;
                }
                let burst: Vec<EvalRequest> = mine.iter().map(|(_, rq)| rq.clone()).collect();
                let resps = client.eval_pipelined(&burst).unwrap();
                for ((r, _), resp) in mine.iter().zip(resps) {
                    let resp = resp.expect("admitted and served");
                    assert!(
                        resp.error.is_none(),
                        "socket request failed: {:?}",
                        resp.error
                    );
                    got.lock().unwrap().insert((t, *r), resp.to_bytes());
                }
            });
        }
    });
    shutdown.shutdown();
    join.join().unwrap();

    assert_eq!(
        got.into_inner().unwrap(),
        expected,
        "socket frames drifted from the in-process eval path"
    );
}
