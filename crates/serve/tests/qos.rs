//! Fairness and starvation tests for the admission queue's deficit
//! round-robin: a tenant flooding 10× the others' load must not starve
//! them, per-tick completions must respect the configured weights, and —
//! because the scheduler only reorders *which* tick serves a request —
//! a quiet tenant's response frames must be bit-identical to an entirely
//! unloaded run.

use fides_api::CkksEngine;
use fides_client::wire::{EvalRequest, OpProgram, ProgramOp};
use fides_core::CkksParameters;
use fides_serve::{QosPolicy, Server, ServerConfig, Ticket};

const LOG_N: usize = 10;
const LEVELS: usize = 3;
const BATCH: usize = 8;
const QUIET: usize = 3;
const FLOOD_FACTOR: usize = 10;

struct Tenant {
    session: fides_api::Session,
    sid: u64,
    reqs: Vec<EvalRequest>,
}

fn square_program() -> OpProgram {
    let mut p = OpProgram::new(1);
    let sq = p.push(ProgramOp::Square { a: 0 });
    p.output(sq);
    p
}

/// Opens `1 + QUIET` tenants on `server`: tenant 0 pre-encrypts
/// `FLOOD_FACTOR × per_quiet` requests, the rest `per_quiet` each.
fn setup(server: &Server, per_quiet: usize) -> Vec<Tenant> {
    let program = square_program();
    (0..1 + QUIET)
        .map(|t| {
            let engine = CkksEngine::builder()
                .log_n(LOG_N)
                .levels(LEVELS)
                .scale_bits(40)
                .seed(900 + t as u64)
                .build()
                .unwrap();
            let session = engine.session();
            let sid = server
                .open_session(session.session_request(&[]).unwrap())
                .unwrap();
            let n = if t == 0 {
                per_quiet * FLOOD_FACTOR
            } else {
                per_quiet
            };
            let reqs = (0..n)
                .map(|r| {
                    let x = 0.1 + 0.01 * (t * 31 + r) as f64;
                    session.eval_request(sid, &[&[x, -x]], &program).unwrap()
                })
                .collect();
            Tenant { session, sid, reqs }
        })
        .collect()
}

fn server_with(qos: QosPolicy) -> Server {
    let params = CkksParameters::new(LOG_N, LEVELS, 40, 3).unwrap();
    Server::new(
        ServerConfig::new(params)
            .batch_size(BATCH)
            .admission_capacity(4096)
            .qos(qos),
    )
    .unwrap()
}

/// Submits every request (flooder's full burst first — the worst case
/// for arrival-order scheduling), then drives ticks one at a time,
/// recording each request's completion tick. Returns
/// `(per-tenant completion ticks, per-tenant response frames)`.
#[allow(clippy::type_complexity)]
fn run_to_completion(server: &Server, tenants: &[Tenant]) -> (Vec<Vec<usize>>, Vec<Vec<Vec<u8>>>) {
    let mut tickets: Vec<Vec<Ticket>> = tenants
        .iter()
        .map(|t| {
            t.reqs
                .iter()
                .map(|r| server.submit(r.clone()).unwrap())
                .collect()
        })
        .collect();
    let total: usize = tenants.iter().map(|t| t.reqs.len()).sum();
    let mut ticks = vec![Vec::new(); tenants.len()];
    let mut frames = vec![Vec::new(); tenants.len()];
    let mut done = 0;
    let mut tick = 0;
    while done < total {
        tick += 1;
        assert!(tick < 256, "scheduler stopped making progress");
        assert!(
            server.run_tick() > 0,
            "tick served nothing with work queued"
        );
        for (t, tenant_tickets) in tickets.iter_mut().enumerate() {
            let mut i = 0;
            while i < tenant_tickets.len() {
                if let Some(resp) = tenant_tickets[i].try_take() {
                    assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
                    ticks[t].push(tick);
                    frames[t].push(resp.to_bytes());
                    tenant_tickets.remove(i);
                    done += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    (ticks, frames)
}

/// The flood scenario under DRR: no quiet tenant starves, equal-weight
/// quiet tenants finish in lockstep, and the flooder still gets every
/// spare slot (work conservation).
#[test]
fn drr_flood_does_not_starve_quiet_tenants() {
    let server = server_with(QosPolicy::Drr { quantum: 1 });
    let tenants = setup(&server, QUIET);
    let (ticks, _) = run_to_completion(&server, &tenants);

    // Every quiet tenant completes all its work within the first few
    // ticks — one request per rotation round, BATCH/(1+QUIET) rounds per
    // tick while all lanes are active — even though the flooder's 10×
    // burst was queued ahead of it.
    // Generous bound: the exact schedule gives 2 ticks. `ticks` holds
    // exactly the flooder (index 0) plus the quiet tenants.
    let quiet_bound = 2 * QUIET;
    for (t, tenant_ticks) in ticks.iter().enumerate().skip(1) {
        let worst = *tenant_ticks.iter().max().unwrap();
        assert!(
            worst <= quiet_bound,
            "tenant {t} finished at tick {worst}, DRR bound is {quiet_bound}"
        );
    }
    // Equal weights → per-tick completions of quiet tenants match
    // exactly (they drain in the same rotation rounds).
    for t in 2..=QUIET {
        assert_eq!(
            ticks[1], ticks[t],
            "equal-weight lanes must drain in lockstep"
        );
    }
    // Work conservation: the flooder owns every tick after the quiet
    // lanes drain, so the total tick count is the FIFO-optimal one.
    let total: usize = tenants.iter().map(|t| t.reqs.len()).sum();
    let last = *ticks[0].iter().max().unwrap();
    assert_eq!(
        last,
        total.div_ceil(BATCH),
        "spare slots must not be wasted"
    );

    // While all four lanes were active (tick 1), the flooder's share of
    // the tick is its weight share — BATCH/4 — not the whole batch.
    let flood_t1 = ticks[0].iter().filter(|&&k| k == 1).count();
    assert_eq!(
        flood_t1,
        BATCH / (1 + QUIET),
        "flooder exceeded its weight share"
    );
}

/// FIFO baseline on the identical workload: the flooder's head-of-line
/// burst delays every quiet tenant past the DRR bound — the contrast
/// that justifies the DRR default.
#[test]
fn fifo_baseline_starves_quiet_tenants() {
    let server = server_with(QosPolicy::Fifo);
    let tenants = setup(&server, QUIET);
    let flood = tenants[0].reqs.len();
    let (ticks, _) = run_to_completion(&server, &tenants);
    let quiet_first: usize = (1..=QUIET)
        .map(|t| *ticks[t].iter().min().unwrap())
        .min()
        .unwrap();
    assert!(
        quiet_first > flood / BATCH,
        "FIFO should serve the whole burst first (quiet first at tick {quiet_first})"
    );
}

/// Weights scale the per-tick share: a weight-3 lane gets 3× the slots
/// of a weight-1 lane while both are backlogged.
#[test]
fn weights_shape_per_tick_shares() {
    let server = server_with(QosPolicy::Drr { quantum: 1 });
    let tenants = setup(&server, BATCH); // both lanes stay backlogged
    server.set_session_weight(tenants[1].sid, 3);
    // Only tenants 0 (weight 1, 10× load) and 1 (weight 3) submit.
    let sub: Vec<Vec<Ticket>> = tenants[..2]
        .iter()
        .map(|t| {
            t.reqs
                .iter()
                .map(|r| server.submit(r.clone()).unwrap())
                .collect()
        })
        .collect();
    server.run_tick();
    let first_tick: Vec<usize> = sub
        .iter()
        .map(|ts| ts.iter().filter(|t| t.try_take().is_some()).count())
        .collect();
    assert_eq!(
        first_tick,
        vec![BATCH / 4, 3 * BATCH / 4],
        "weight 1 vs 3 must split the tick 1:3"
    );
}

/// The scheduler moves requests between ticks, never into different
/// results: a quiet tenant's frames under flood are byte-identical to
/// the same requests on an unloaded server with the same chain.
#[test]
fn quiet_tenant_frames_unchanged_by_flood() {
    let loaded = server_with(QosPolicy::Drr { quantum: 1 });
    let tenants = setup(&loaded, QUIET);
    let (_, frames) = run_to_completion(&loaded, &tenants);

    let unloaded = server_with(QosPolicy::Drr { quantum: 1 });
    for (t, tenant) in tenants.iter().enumerate().skip(1) {
        let sid = unloaded
            .open_session(tenant.session.session_request(&[]).unwrap())
            .unwrap();
        for (r, req) in tenant.reqs.iter().enumerate() {
            let mut req = req.clone();
            req.session_id = sid;
            let resp = unloaded.eval(req).unwrap();
            // Completion order within run_to_completion is per-tick scan
            // order, which preserves each tenant's submission order.
            assert_eq!(
                resp.to_bytes(),
                frames[t][r],
                "tenant {t} request {r}: flood changed the result bytes"
            );
        }
    }
}

/// Open-loop generator at `load_pct` percent of the batch capacity per
/// tick for `ROUNDS` ticks, then a drain: every tick each quiet tenant
/// submits one request and the flooder the rest of the offered load
/// (both cycling through a few pre-encrypted requests — only the clock is
/// read here). Nothing is shed — the queue is deep enough — so overload
/// shows up as queueing delay.
/// Returns the p99 simulated latency (cluster makespan at completion
/// minus at submission) over `(all, quiet-tenant)` requests.
fn open_loop_sim_p99(policy: QosPolicy, load_pct: usize) -> (f64, f64) {
    const ROUNDS: usize = 4;
    let server = server_with(policy);
    let tenants = setup(&server, 1);
    let flood_per_tick = (BATCH * load_pct)
        .div_ceil(100)
        .saturating_sub(QUIET)
        .max(1);
    let mut inflight: Vec<(usize, f64, Ticket)> = Vec::new();
    let mut latencies = [Vec::new(), Vec::new()];
    let mut round = 0;
    while round < ROUNDS || !inflight.is_empty() {
        if round < ROUNDS {
            let submitted_us = server.sync_us().unwrap();
            for (t, tenant) in tenants.iter().enumerate() {
                let per_tick = if t == 0 { flood_per_tick } else { 1 };
                for req in tenant.reqs.iter().cycle().take(per_tick) {
                    inflight.push((t, submitted_us, server.submit(req.clone()).unwrap()));
                }
            }
        }
        round += 1;
        assert!(round < 256, "scheduler stopped making progress");
        server.run_tick();
        let now_us = server.sync_us().unwrap();
        inflight.retain(|(t, submitted_us, ticket)| match ticket.try_take() {
            Some(resp) => {
                assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
                latencies[0].push(now_us - submitted_us);
                if *t > 0 {
                    latencies[1].push(now_us - submitted_us);
                }
                false
            }
            None => true,
        });
    }
    let [all, quiet] = latencies.map(|mut l| {
        l.sort_by(f64::total_cmp);
        l[((l.len() - 1) as f64 * 0.99).round() as usize]
    });
    (all, quiet)
}

/// Latency under load on the simulated clock: p99 never improves as the
/// offered load rises, and at 2× overload DRR keeps the quiet tenants'
/// p99 at most 0.7× what arrival-order scheduling gives them.
#[test]
fn sim_latency_is_monotone_in_load_and_drr_shields_quiet_tenants() {
    let mut quiet_at_200 = Vec::new();
    for policy in [QosPolicy::Drr { quantum: 1 }, QosPolicy::Fifo] {
        let curve: Vec<(f64, f64)> = [50, 100, 150, 200]
            .iter()
            .map(|&load_pct| open_loop_sim_p99(policy, load_pct))
            .collect();
        // Latencies are differences of a growing f64 clock: allow the last
        // bits to differ where two loads queue identically.
        for pair in curve.windows(2) {
            assert!(
                pair[1].0 >= pair[0].0 * 0.999,
                "{policy:?}: p99 fell as offered load rose: {curve:?}"
            );
        }
        quiet_at_200.push(curve[3].1);
    }
    let ratio = quiet_at_200[0] / quiet_at_200[1];
    assert!(
        ratio <= 0.7,
        "DRR must shield quiet tenants at 200% load: quiet p99 {:.0} vs FIFO {:.0} sim us ({ratio:.3})",
        quiet_at_200[0],
        quiet_at_200[1]
    );
}
