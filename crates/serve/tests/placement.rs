//! Multi-device placement invariants: where the router homes a tenant —
//! and whether it later migrates them — must never show up in the
//! response bytes.
//!
//! The serve layer shards tenants across simulated devices by consistent
//! hashing on the session id (key residency = placement). Since session
//! ids follow open order, *permuting the open order re-homes every
//! tenant*; these tests drive that axis and the migration path directly
//! and hold every response frame against a single-device reference.

use std::collections::BTreeMap;

use fides_api::CkksEngine;
use fides_client::wire::EvalRequest;
use fides_core::CkksParameters;
use fides_gpu_sim::ExecMode;
use fides_serve::{Server, ServerConfig, ShardRouter};
use fides_workloads::serve_lr::{synthetic_features, synthetic_model, ServeLrModel};

const DIM: usize = 16;
const LOG_N: usize = 10;
const LEVELS: usize = 6;
const TENANTS: usize = 6;
const REQS_PER_TENANT: usize = 2;

struct Tenant {
    model: ServeLrModel,
    session: fides_api::Session,
}

fn tenants() -> Vec<Tenant> {
    (0..TENANTS)
        .map(|t| {
            let model = synthetic_model(DIM, t as u64 + 1);
            let engine = CkksEngine::builder()
                .log_n(LOG_N)
                .levels(LEVELS)
                .scale_bits(40)
                .rotations(&model.required_rotations())
                .seed(700 + t as u64)
                .build()
                .unwrap();
            Tenant {
                model,
                session: engine.session(),
            }
        })
        .collect()
}

fn params(devices: usize) -> CkksParameters {
    CkksParameters::new(LOG_N, LEVELS, 40, 3)
        .unwrap()
        .with_num_devices(devices)
}

/// Opens every tenant's session in `open_order`; returns session ids in
/// canonical tenant order.
fn open_in_order(server: &Server, tenants: &[Tenant], open_order: &[usize]) -> Vec<u64> {
    let mut sids = vec![0u64; tenants.len()];
    for &t in open_order {
        let tenant = &tenants[t];
        let plains = tenant
            .model
            .session_plains(tenant.session.engine().max_level());
        let refs: Vec<(&[f64], usize)> = plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
        sids[t] = server
            .open_session(tenant.session.session_request(&refs).unwrap())
            .unwrap();
    }
    sids
}

/// The request mix, encrypted once (encryption is randomized) so every
/// server evaluates the same ciphertext bytes; session ids are rewritten
/// per server.
fn requests(tenants: &[Tenant], sids: &[u64]) -> Vec<(usize, usize, EvalRequest)> {
    let mut out = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let program = tenant.model.scoring_program(0);
        for r in 0..REQS_PER_TENANT {
            let features = synthetic_features(DIM, t as u64, r as u64);
            out.push((
                t,
                r,
                tenant
                    .session
                    .eval_request(sids[t], &[&features], &program)
                    .unwrap(),
            ));
        }
    }
    out
}

fn serve_batch(
    server: &Server,
    reqs: &[(usize, usize, EvalRequest)],
    sids: &[u64],
) -> BTreeMap<(usize, usize), Vec<u8>> {
    let tickets: Vec<_> = reqs
        .iter()
        .map(|(t, r, req)| {
            let mut req = req.clone();
            req.session_id = sids[*t];
            (*t, *r, server.submit(req).unwrap())
        })
        .collect();
    while server.run_tick() > 0 {}
    tickets
        .into_iter()
        .map(|(t, r, ticket)| {
            let resp = ticket.try_take().expect("served");
            assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
            ((t, r), resp.outputs[0].to_bytes())
        })
        .collect()
}

#[test]
fn frames_identical_across_device_counts_and_placements() {
    let tenants = tenants();

    // Reference: one device, canonical open order.
    let identity: Vec<usize> = (0..TENANTS).collect();
    let reference_server = Server::new(ServerConfig::new(params(1)).batch_size(16)).unwrap();
    let ref_sids = open_in_order(&reference_server, &tenants, &identity);
    let reqs = requests(&tenants, &ref_sids);
    let expected = serve_batch(&reference_server, &reqs, &ref_sids);

    // Every (device count, open order) combination must reproduce the
    // reference frames bit for bit. Reversing or rotating the open order
    // gives every tenant a different session id — and therefore a
    // different consistent-hash home shard.
    let rotated: Vec<usize> = (0..TENANTS).map(|t| (t + 3) % TENANTS).collect();
    let reversed: Vec<usize> = (0..TENANTS).rev().collect();
    let mut spread_seen = false;
    for devices in [2usize, 4] {
        for order in [&identity, &reversed, &rotated] {
            let server = Server::new(ServerConfig::new(params(devices)).batch_size(16)).unwrap();
            assert_eq!(server.num_devices(), devices);
            let sids = open_in_order(&server, &tenants, order);
            let got = serve_batch(&server, &reqs, &sids);
            assert_eq!(
                got, expected,
                "devices {devices}, open order {order:?}: frames drifted from single-device"
            );
            let per_device = server.stats().per_device_requests;
            assert_eq!(
                per_device.iter().sum::<u64>(),
                reqs.len() as u64,
                "every request must be accounted to a shard"
            );
            spread_seen |= per_device.iter().filter(|&&c| c > 0).count() >= 2;
        }
    }
    assert!(
        spread_seen,
        "no configuration sharded the batch across two devices — the test is vacuous"
    );
}

/// Lowest acceptable aggregate-throughput gain of 2 and of 4 devices over
/// one. Measured at commit 1e77bb7: 1.999× for both (the batch is
/// launch-bound and the router homes at most 3 of the 6 tenants on one
/// shard at either count; README's 8-tenant mix reads 1.600× / 2.665× at
/// this ring, 1.600× / 2.662× at `2^15`).
const MIN_SHARDING_SPEEDUP: f64 = 1.5;

/// Sharding must pay on the simulated clock: the same batch finishes in a
/// strictly shorter fleet makespan on 2 and on 4 devices than on one (the
/// floor is above 1). Cost-only — the clock does not depend on the math
/// running.
#[test]
fn sharding_raises_aggregate_simulated_throughput() {
    let tenants = tenants();
    let identity: Vec<usize> = (0..TENANTS).collect();
    let req_per_sim_s = |devices: usize| {
        let server = Server::new(ServerConfig {
            mode: ExecMode::CostOnly,
            ..ServerConfig::new(params(devices)).batch_size(16)
        })
        .unwrap();
        let sids = open_in_order(&server, &tenants, &identity);
        let reqs = requests(&tenants, &sids);
        let start_us = server.sync_us().unwrap();
        serve_batch(&server, &reqs, &sids);
        reqs.len() as f64 / ((server.sync_us().unwrap() - start_us) * 1e-6)
    };
    let single = req_per_sim_s(1);
    for devices in [2usize, 4] {
        let speedup = req_per_sim_s(devices) / single;
        assert!(
            speedup >= MIN_SHARDING_SPEEDUP,
            "{devices} devices serve {speedup:.3}x the requests per simulated second of one \
             (floor {MIN_SHARDING_SPEEDUP})"
        );
    }
}

#[test]
fn sustained_imbalance_migrates_tenant_without_changing_frames() {
    let tenants = tenants();
    let server = Server::new(ServerConfig::new(params(2)).batch_size(16)).unwrap();
    let identity: Vec<usize> = (0..TENANTS).collect();
    let sids = open_in_order(&server, &tenants, &identity);
    let reqs = requests(&tenants, &sids);

    // Homes are a pure function of session ids, so a probe ring
    // replays the server's placement decisions exactly.
    let probe = ShardRouter::new(2);
    let homes: Vec<usize> = sids.iter().map(|&sid| probe.home(sid)).collect();
    let hot = usize::from(homes.iter().filter(|&&d| d == 1).count() > TENANTS / 2);
    let hot_tenants: Vec<usize> = (0..TENANTS).filter(|&t| homes[t] == hot).collect();
    assert!(
        hot_tenants.len() >= 2,
        "placements {homes:?} left no hot shard"
    );

    // Pre-migration reference frames for the hot tenants' requests.
    let expected: Vec<Vec<u8>> = hot_tenants
        .iter()
        .map(|&t| {
            let resp = server.eval(reqs[t * REQS_PER_TENANT].2.clone()).unwrap();
            assert!(resp.error.is_none());
            resp.outputs[0].to_bytes()
        })
        .collect();
    assert_eq!(
        server.stats().migrations,
        0,
        "reference evals must not migrate"
    );

    // Drive sustained imbalance: every tick serves two requests, both on
    // the hot shard. After four consecutive imbalanced ticks the router
    // moves the hot shard's cheapest tenant and the server re-uploads its
    // keys over the cluster link.
    for _ in 0..4 {
        let a = server
            .submit(reqs[hot_tenants[0] * REQS_PER_TENANT].2.clone())
            .unwrap();
        let b = server
            .submit(reqs[hot_tenants[1] * REQS_PER_TENANT].2.clone())
            .unwrap();
        assert_eq!(server.run_tick(), 2);
        assert!(a.try_take().unwrap().error.is_none());
        assert!(b.try_take().unwrap().error.is_none());
    }
    let stats = server.stats();
    assert_eq!(
        stats.migrations, 1,
        "4 sustained imbalanced ticks move one tenant"
    );
    assert!(stats.migration_bytes > 0, "the key re-upload is priced");

    // The moved tenant now evaluates on the other device — with freshly
    // re-loaded keys — and every hot tenant's response is still
    // bit-identical to its pre-migration frame.
    for (i, &t) in hot_tenants.iter().enumerate() {
        let resp = server.eval(reqs[t * REQS_PER_TENANT].2.clone()).unwrap();
        assert!(resp.error.is_none());
        assert_eq!(
            resp.outputs[0].to_bytes(),
            expected[i],
            "tenant {t}: migration changed response frames"
        );
    }
}
