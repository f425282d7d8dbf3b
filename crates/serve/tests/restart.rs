//! The restart axis of the determinism matrix: killing a server
//! mid-workload, restoring its snapshot into a fresh process-equivalent
//! `Server`, and continuing the workload must be **invisible in the
//! frames** — every post-restore response is byte-identical to an
//! uninterrupted run — and the restored plan cache is warm, so the first
//! post-restore tick replans nothing.
//!
//! Like the rest of the suite, everything here must hold at every device
//! count of the CI matrix (`FIDES_DEVICES`).

use std::collections::BTreeMap;

use fides_api::CkksEngine;
use fides_client::wire::EvalRequest;
use fides_core::CkksParameters;
use fides_serve::{ServeError, Server, ServerConfig, WarmupShape};
use fides_workloads::serve_lr::{synthetic_features, synthetic_model, ServeLrModel};

const DIM: usize = 16;
const LOG_N: usize = 10;
const LEVELS: usize = 6;

struct Tenant {
    model: ServeLrModel,
    session: fides_api::Session,
}

fn tenants(n: usize) -> Vec<Tenant> {
    (0..n)
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

/// Pre-encrypted requests (encryption is randomized, so every server must
/// see the *same* ciphertext bytes for frames to be comparable).
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

fn rewrite_sids(
    reqs: &[(usize, usize, EvalRequest)],
    sids: &[u64],
) -> Vec<(usize, usize, EvalRequest)> {
    let mut out = reqs.to_vec();
    for (t, _, req) in &mut out {
        req.session_id = sids[*t];
    }
    out
}

/// One batched tick over the whole request mix, returning output frames
/// keyed by (tenant, request).
fn serve_round(
    server: &Server,
    reqs: &[(usize, usize, EvalRequest)],
) -> BTreeMap<(usize, usize), Vec<Vec<u8>>> {
    let tickets: Vec<_> = reqs
        .iter()
        .map(|(t, r, req)| (*t, *r, server.submit(req.clone()).unwrap()))
        .collect();
    assert_eq!(server.run_tick(), reqs.len(), "the tick drains the batch");
    tickets
        .iter()
        .map(|(t, r, ticket)| {
            let resp = ticket.try_take().expect("served");
            assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
            (
                (*t, *r),
                resp.outputs.iter().map(|ct| ct.to_bytes()).collect(),
            )
        })
        .collect()
}

#[test]
fn kill_and_restore_mid_workload_is_invisible_in_frames() {
    let tenants = tenants(3);
    let per_tenant = 2;
    let rounds = 4;
    let interrupt_after = 2;

    // Uninterrupted reference: one server serves every round.
    let reference = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let ref_sids = open_all(&reference, &tenants);
    let reqs = requests(&tenants, &ref_sids, per_tenant);
    let expected: Vec<_> = (0..rounds)
        .map(|_| serve_round(&reference, &reqs))
        .collect();
    // Steady state: identical batch shape every round, so the reference
    // frames repeat exactly (pinned so the comparison below is honest).
    for round in 1..rounds {
        assert_eq!(expected[round], expected[0], "reference drifted by round");
    }

    // The interrupted run: serve the first rounds, then snapshot ("kill").
    let victim = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let victim_sids = open_all(&victim, &tenants);
    let my_reqs = rewrite_sids(&reqs, &victim_sids);
    for exp in expected.iter().take(interrupt_after) {
        assert_eq!(
            &serve_round(&victim, &my_reqs),
            exp,
            "pre-interrupt frames must match the reference"
        );
    }
    let mut image = Vec::new();
    victim.snapshot(&mut image).expect("snapshot");
    drop(victim);

    // A fresh same-config server restores the image and continues.
    let restored = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let n = restored.restore(&image[..]).expect("restore");
    assert_eq!(n, tenants.len() as u64, "every session restored");
    let stats = restored.stats();
    assert_eq!(stats.restored_sessions, tenants.len() as u64);
    assert_eq!(stats.plan_cache_misses, 0, "restore itself plans nothing");

    // Session ids survive the restart verbatim: the same wire requests
    // work unmodified.
    for exp in expected.iter().skip(interrupt_after) {
        assert_eq!(
            &serve_round(&restored, &my_reqs),
            exp,
            "post-restore frames drifted from the uninterrupted run"
        );
    }

    // The restored cache was warm: the first post-restore tick replayed
    // restored plans instead of planning.
    let stats = restored.stats();
    assert_eq!(
        stats.plan_cache_misses, 0,
        "warm restart must not replan the steady-state shape"
    );
    assert!(
        stats.plan_cache_hits >= 1,
        "post-restore ticks hit the cache"
    );
    assert!(
        stats.warm_plan_hits >= 1,
        "hits must land on restored (warm) entries"
    );
}

#[test]
fn warmup_primes_the_first_tick_without_changing_frames() {
    let tenants = tenants(2);
    let per_tenant = 2;

    // Reference: a cold server's first tick (plans from scratch).
    let cold = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let cold_sids = open_all(&cold, &tenants);
    let reqs = requests(&tenants, &cold_sids, per_tenant);
    let expected = serve_round(&cold, &reqs);
    assert!(cold.stats().plan_cache_misses >= 1, "cold tick plans");

    // Warmed: declare the upcoming batch shape, then serve the real batch.
    let warm = Server::new(ServerConfig::new(params()).batch_size(16)).unwrap();
    let warm_sids = open_all(&warm, &tenants);
    let shape = WarmupShape {
        requests: tenants
            .iter()
            .enumerate()
            .flat_map(|(t, tenant)| {
                let sid = warm_sids[t];
                let program = tenant.model.scoring_program(0);
                (0..per_tenant)
                    .map(|_| (sid, program.clone(), DIM))
                    .collect::<Vec<_>>()
            })
            .collect(),
    };
    let planned = warm.warmup(&[shape]).expect("warmup");
    assert!(planned >= 1, "warmup must build at least one plan");
    let after_warmup = warm.stats();

    let my_reqs = rewrite_sids(&reqs, &warm_sids);
    let got = serve_round(&warm, &my_reqs);
    assert_eq!(got, expected, "warmup must never change results");

    let stats = warm.stats();
    assert_eq!(
        stats.plan_cache_misses, after_warmup.plan_cache_misses,
        "the warmed tick must not plan"
    );
    assert!(
        stats.warm_plan_hits > after_warmup.warm_plan_hits,
        "the warmed tick hits a warm entry"
    );

    // Unknown sessions are a typed error.
    let missing = WarmupShape {
        requests: vec![(9999, tenants[0].model.scoring_program(0), DIM)],
    };
    assert!(matches!(
        warm.warmup(&[missing]),
        Err(ServeError::UnknownSession(9999))
    ));
}

#[test]
fn restore_rejects_mismatch_truncation_and_corruption() {
    let tenants = tenants(1);
    let server = Server::new(ServerConfig::new(params())).unwrap();
    let _sids = open_all(&server, &tenants);
    let mut image = Vec::new();
    server.snapshot(&mut image).expect("snapshot");

    // Foreign chain: typed params mismatch, nothing restored.
    let foreign = Server::new(ServerConfig::new(
        CkksParameters::new(LOG_N, LEVELS - 1, 40, 3)
            .unwrap()
            .with_num_devices(num_devices()),
    ))
    .unwrap();
    assert!(matches!(
        foreign.restore(&image[..]),
        Err(ServeError::ParamsMismatch { .. })
    ));
    assert_eq!(foreign.session_count(), 0);

    // Truncation and bit corruption: typed errors, never panics — and
    // restore is atomic, so a failed restore leaves no partial state
    // behind (no half-registered sessions, no warm plans).
    let fresh = || Server::new(ServerConfig::new(params())).unwrap();
    for cut in [0, 7, image.len() / 2, image.len() - 1] {
        let s = fresh();
        assert!(s.restore(&image[..cut]).is_err(), "truncated to {cut}");
        assert_eq!(s.session_count(), 0, "truncation to {cut} half-committed");
        assert_eq!(s.stats().restored_sessions, 0);
    }
    let step = (image.len() / 64).max(1);
    for i in (0..image.len()).step_by(step) {
        let mut bad = image.clone();
        bad[i] ^= 0x40;
        let s = fresh();
        assert!(
            s.restore(&bad[..]).is_err(),
            "byte {i} corruption restored cleanly"
        );
        assert_eq!(s.session_count(), 0, "byte {i} corruption half-committed");
    }
}
