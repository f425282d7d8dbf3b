//! Latency under load: the PR 8 perf snapshot for the network-front
//! admission and QoS layers.
//!
//! Drives the serve-layer admission queue with two deterministic load
//! generators over the simulated-GPU substrate:
//!
//! * **Open loop** — a fixed offered load per batch tick (0.5× … 2× the
//!   batch capacity), mixing one flooding tenant with three quiet
//!   tenants submitting one request per tick each. Requests the bounded
//!   queue cannot admit are shed (counted, not retried) — exactly the
//!   production overload posture.
//! * **Closed loop** — a fixed concurrency of outstanding requests,
//!   refilled as responses complete: the classic saturation probe.
//!
//! Latency is **simulated time**: the cluster makespan (`sync_us`) at
//! completion minus at submission. It is deterministic, so the p50/p99
//! percentiles are CI-gateable; wall-clock throughput is reported but
//! never gated. Three invariants are asserted inline:
//!
//! 1. p99 sim latency is **monotone non-decreasing in offered load**
//!    (more load can only push percentiles up);
//! 2. under 2× overload, the quiet tenants' p99 with DRR scheduling is
//!    **≤ 0.7×** the FIFO baseline's (the whole point of per-tenant
//!    fair queuing);
//! 3. every delivered frame is **bit-identical** to the same request on
//!    an unloaded serial server — load changes scheduling, never math.
//!
//! ```text
//! cargo run --release --bin load_bench [OUT_PATH]
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use fides_api::CkksEngine;
use fides_bench::print_table;
use fides_client::wire::EvalRequest;
use fides_core::CkksParameters;
use fides_serve::{QosPolicy, ServeStats, Server, ServerConfig, Ticket};

const OUT_PATH: &str = "BENCH_PR8.json";
const LOG_N: usize = 10;
const LEVELS: usize = 4;
const BATCH: usize = 8;
const QUIET_TENANTS: usize = 3;
const ROUNDS: usize = 24;
/// Offered load as percent of batch capacity per tick.
const LOADS_PCT: [usize; 4] = [50, 100, 150, 200];
const CAPACITY: usize = 64;

struct Tenant {
    session: fides_api::Session,
    reqs: Vec<EvalRequest>,
}

fn square_program() -> fides_client::wire::OpProgram {
    let mut p = fides_client::wire::OpProgram::new(1);
    let sq = p.push(fides_client::wire::ProgramOp::Square { a: 0 });
    p.output(sq);
    p
}

/// Pre-encrypts every tenant's request stream once per configuration.
/// Engines are freshly seeded and requests are generated in index order,
/// so request `r` of tenant `t` has identical ciphertext bytes in every
/// configuration (and in the serial reference) regardless of how many
/// requests a given run pre-encrypts — that is what makes cross-run
/// frame comparison meaningful.
fn tenants(flood_n: usize, quiet_n: usize) -> Vec<Tenant> {
    let program = square_program();
    (0..1 + QUIET_TENANTS)
        .map(|t| {
            let engine = CkksEngine::builder()
                .log_n(LOG_N)
                .levels(LEVELS)
                .scale_bits(40)
                .seed(4400 + t as u64)
                .build()
                .expect("tenant engine");
            let session = engine.session();
            let n = if t == 0 { flood_n } else { quiet_n };
            let reqs = (0..n)
                .map(|r| {
                    let x = 0.05 + 0.001 * (t * 131 + r) as f64;
                    // Session id is rewritten per server at open time.
                    session
                        .eval_request(0, &[&[x, -x, x * 0.5]], &program)
                        .expect("encrypt")
                })
                .collect();
            Tenant { session, reqs }
        })
        .collect()
}

fn open_all(server: &Server, tenants: &[Tenant]) -> Vec<u64> {
    tenants
        .iter()
        .map(|t| {
            server
                .open_session(t.session.session_request(&[]).expect("session request"))
                .expect("open session")
        })
        .collect()
}

fn server_with(qos: QosPolicy) -> Server {
    let params = CkksParameters::new(LOG_N, LEVELS, 40, 3).expect("bench params");
    Server::new(
        ServerConfig::new(params)
            .batch_size(BATCH)
            .admission_capacity(CAPACITY)
            .qos(qos),
    )
    .expect("server")
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct InFlight {
    tenant: usize,
    req: usize,
    submitted_us: f64,
    ticket: Ticket,
}

struct OpenLoopRow {
    policy: &'static str,
    load_pct: usize,
    offered: usize,
    served: usize,
    shed: usize,
    p50_sim_us: f64,
    p99_sim_us: f64,
    quiet_p50_sim_us: f64,
    quiet_p99_sim_us: f64,
    ticks: usize,
    wall_req_per_sec: f64,
    /// (tenant, request index) → frame bytes, for the identity check.
    frames: HashMap<(usize, usize), Vec<u8>>,
    /// Tick-engine phase timers at the end of the run.
    stats: ServeStats,
}

/// Open-loop generator: each tick, the quiet tenants submit one request
/// apiece and the flooder fills the rest of the offered load; shed
/// requests are dropped. Latency clock is the simulated makespan.
fn run_open_loop(policy: QosPolicy, name: &'static str, load_pct: usize) -> OpenLoopRow {
    let per_tick = (BATCH * load_pct).div_ceil(100);
    let flood_per_tick = per_tick.saturating_sub(QUIET_TENANTS).max(1);
    let tenants = tenants(ROUNDS * flood_per_tick, ROUNDS);
    let server = server_with(policy);
    let sids = open_all(&server, &tenants);
    server.reset_sim_stats();

    let mut inflight: Vec<InFlight> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut quiet_latencies: Vec<f64> = Vec::new();
    let mut frames = HashMap::new();
    let mut offered = 0usize;
    let mut shed = 0usize;
    let mut next_req = vec![0usize; tenants.len()];
    let mut ticks = 0usize;
    let wall = Instant::now();

    let submit = |t: usize,
                  next_req: &mut Vec<usize>,
                  inflight: &mut Vec<InFlight>,
                  offered: &mut usize,
                  shed: &mut usize| {
        let r = next_req[t];
        if r >= tenants[t].reqs.len() {
            return;
        }
        next_req[t] += 1;
        *offered += 1;
        let mut req = tenants[t].reqs[r].clone();
        req.session_id = sids[t];
        let submitted_us = server.sync_us().expect("gpu-sim substrate");
        match server.submit(req) {
            Ok(ticket) => inflight.push(InFlight {
                tenant: t,
                req: r,
                submitted_us,
                ticket,
            }),
            Err(_) => *shed += 1,
        }
    };
    let reap = |server: &Server,
                inflight: &mut Vec<InFlight>,
                latencies: &mut Vec<f64>,
                quiet_latencies: &mut Vec<f64>,
                frames: &mut HashMap<(usize, usize), Vec<u8>>| {
        let now_us = server.sync_us().expect("gpu-sim substrate");
        inflight.retain_mut(|f| match f.ticket.try_take() {
            Some(resp) => {
                assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
                let lat = now_us - f.submitted_us;
                latencies.push(lat);
                if f.tenant > 0 {
                    quiet_latencies.push(lat);
                }
                frames.insert((f.tenant, f.req), resp.to_bytes());
                false
            }
            None => true,
        });
    };

    for _ in 0..ROUNDS {
        for t in 1..=QUIET_TENANTS {
            submit(t, &mut next_req, &mut inflight, &mut offered, &mut shed);
        }
        for _ in 0..flood_per_tick {
            submit(0, &mut next_req, &mut inflight, &mut offered, &mut shed);
        }
        server.run_tick();
        ticks += 1;
        reap(
            &server,
            &mut inflight,
            &mut latencies,
            &mut quiet_latencies,
            &mut frames,
        );
    }
    // Drain the backlog (no new arrivals — the generator stopped).
    while !inflight.is_empty() {
        server.run_tick();
        ticks += 1;
        reap(
            &server,
            &mut inflight,
            &mut latencies,
            &mut quiet_latencies,
            &mut frames,
        );
    }
    let wall_s = wall.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quiet_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let served = latencies.len();
    assert_eq!(served + shed, offered, "no request may vanish untracked");
    OpenLoopRow {
        policy: name,
        load_pct,
        offered,
        served,
        shed,
        p50_sim_us: percentile(&latencies, 0.50),
        p99_sim_us: percentile(&latencies, 0.99),
        quiet_p50_sim_us: percentile(&quiet_latencies, 0.50),
        quiet_p99_sim_us: percentile(&quiet_latencies, 0.99),
        ticks,
        wall_req_per_sec: served as f64 / wall_s,
        frames,
        stats: server.stats(),
    }
}

struct ClosedLoopRow {
    concurrency: usize,
    served: usize,
    p50_sim_us: f64,
    p99_sim_us: f64,
    throughput_req_per_sim_s: f64,
    wall_req_per_sec: f64,
    stats: ServeStats,
}

/// Closed-loop generator: keep `concurrency` requests outstanding
/// (refilling round-robin across tenants as responses land) until
/// `total` complete.
fn run_closed_loop(concurrency: usize, total: usize) -> ClosedLoopRow {
    let tenants = tenants(total, total);
    let server = server_with(QosPolicy::default());
    let sids = open_all(&server, &tenants);
    server.reset_sim_stats();
    let sim_start = server.sync_us().expect("gpu-sim substrate");

    let mut latencies: Vec<f64> = Vec::new();
    let mut inflight: Vec<(f64, Ticket)> = Vec::new();
    let mut next = vec![0usize; tenants.len()];
    let mut issued = 0usize;
    let mut turn = 0usize;
    let wall = Instant::now();
    while latencies.len() < total {
        while inflight.len() < concurrency && issued < total {
            let t = turn % tenants.len();
            turn += 1;
            let r = next[t];
            next[t] += 1;
            let mut req = tenants[t].reqs[r].clone();
            req.session_id = sids[t];
            let submitted = server.sync_us().expect("gpu-sim substrate");
            let ticket = server
                .submit(req)
                .expect("closed loop stays under capacity");
            inflight.push((submitted, ticket));
            issued += 1;
        }
        server.run_tick();
        let now_us = server.sync_us().expect("gpu-sim substrate");
        inflight.retain_mut(|(submitted, ticket)| match ticket.try_take() {
            Some(resp) => {
                assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
                latencies.push(now_us - *submitted);
                false
            }
            None => true,
        });
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let sim_s = (server.sync_us().expect("gpu-sim substrate") - sim_start) / 1e6;

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ClosedLoopRow {
        concurrency,
        served: latencies.len(),
        p50_sim_us: percentile(&latencies, 0.50),
        p99_sim_us: percentile(&latencies, 0.99),
        throughput_req_per_sim_s: latencies.len() as f64 / sim_s,
        wall_req_per_sec: latencies.len() as f64 / wall_s,
        stats: server.stats(),
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| OUT_PATH.into());

    // Open loop: DRR and the FIFO baseline across the load sweep.
    let mut open_rows: Vec<OpenLoopRow> = Vec::new();
    for load_pct in LOADS_PCT {
        open_rows.push(run_open_loop(
            QosPolicy::Drr { quantum: 1 },
            "drr",
            load_pct,
        ));
    }
    for load_pct in LOADS_PCT {
        open_rows.push(run_open_loop(QosPolicy::Fifo, "fifo", load_pct));
    }

    // Invariant 1: p99 monotone non-decreasing in offered load, per
    // policy (tiny float jitter tolerated at one part in a thousand).
    for policy in ["drr", "fifo"] {
        let curve: Vec<&OpenLoopRow> = open_rows.iter().filter(|r| r.policy == policy).collect();
        for pair in curve.windows(2) {
            assert!(
                pair[1].p99_sim_us >= pair[0].p99_sim_us * 0.999,
                "{policy}: p99 must not improve as offered load rises \
                 ({}% -> {}%: {:.0} -> {:.0} sim us)",
                pair[0].load_pct,
                pair[1].load_pct,
                pair[0].p99_sim_us,
                pair[1].p99_sim_us
            );
        }
    }

    // Invariant 2: at 2x overload, DRR keeps the quiet tenants' p99 at
    // most 0.7x the FIFO baseline's.
    let drr2 = open_rows
        .iter()
        .find(|r| r.policy == "drr" && r.load_pct == 200)
        .unwrap();
    let fifo2 = open_rows
        .iter()
        .find(|r| r.policy == "fifo" && r.load_pct == 200)
        .unwrap();
    let qos_ratio = drr2.quiet_p99_sim_us / fifo2.quiet_p99_sim_us;
    assert!(
        qos_ratio <= 0.7,
        "DRR must shield quiet tenants under overload: quiet p99 ratio {qos_ratio:.3} > 0.7"
    );

    // Invariant 3: every delivered frame matches the unloaded serial
    // reference bit for bit. Shed requests consume stream indices, so
    // size the reference by the highest index actually served.
    {
        let needed = open_rows
            .iter()
            .flat_map(|row| row.frames.keys().map(|&(_, r)| r + 1))
            .max()
            .unwrap();
        let tenants = tenants(needed, needed);
        let reference = server_with(QosPolicy::default());
        let sids = open_all(&reference, &tenants);
        let mut expected: HashMap<(usize, usize), Vec<u8>> = HashMap::new();
        for row in &open_rows {
            for (&(t, r), frame) in &row.frames {
                let bytes = expected.entry((t, r)).or_insert_with(|| {
                    let mut req = tenants[t].reqs[r].clone();
                    req.session_id = sids[t];
                    reference
                        .eval(req)
                        .expect("reference admits everything")
                        .to_bytes()
                });
                assert_eq!(
                    bytes, frame,
                    "policy {} load {}%: tenant {t} request {r} frame drifted from \
                     the unloaded serial run",
                    row.policy, row.load_pct
                );
            }
        }
    }

    // Closed loop at increasing concurrency.
    let closed_rows: Vec<ClosedLoopRow> = [1usize, 8, 32]
        .iter()
        .map(|&c| run_closed_loop(c, 48))
        .collect();

    print_table(
        "open-loop latency under load (sim us; 1 flooder + 3 quiet tenants)",
        &[
            "policy",
            "load %",
            "offered",
            "served",
            "shed",
            "p50",
            "p99",
            "quiet p50",
            "quiet p99",
            "ticks",
        ],
        &open_rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    r.load_pct.to_string(),
                    r.offered.to_string(),
                    r.served.to_string(),
                    r.shed.to_string(),
                    format!("{:.0}", r.p50_sim_us),
                    format!("{:.0}", r.p99_sim_us),
                    format!("{:.0}", r.quiet_p50_sim_us),
                    format!("{:.0}", r.quiet_p99_sim_us),
                    r.ticks.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "closed-loop latency vs concurrency (sim us)",
        &["concurrency", "served", "p50", "p99", "req per sim s"],
        &closed_rows
            .iter()
            .map(|r| {
                vec![
                    r.concurrency.to_string(),
                    r.served.to_string(),
                    format!("{:.0}", r.p50_sim_us),
                    format!("{:.0}", r.p99_sim_us),
                    format!("{:.1}", r.throughput_req_per_sim_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n2x overload, quiet-tenant p99: DRR {:.0} vs FIFO {:.0} sim us \
         (ratio {qos_ratio:.3} <= 0.7); all frames bit-identical to the unloaded run",
        drr2.quiet_p99_sim_us, fifo2.quiet_p99_sim_us
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 8,");
    let _ = writeln!(json, "  \"schema\": \"fideslib-bench-load-v1\",");
    let _ = writeln!(json, "  \"gpu_sim\": {{");
    let _ = writeln!(
        json,
        "    \"device\": \"RTX 4090 (simulated, functional)\","
    );
    let _ = writeln!(
        json,
        "    \"params\": \"[logN, L, dnum] = [{LOG_N}, {LEVELS}, 3], batch {BATCH}, \
         capacity {CAPACITY}, 1 flooder + {QUIET_TENANTS} quiet tenants, {ROUNDS} rounds\","
    );
    let _ = writeln!(json, "    \"open_loop\": [");
    for (i, r) in open_rows.iter().enumerate() {
        let comma = if i + 1 == open_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{\"policy\": \"{}\", \"offered_load_pct\": {}, \"offered\": {}, \
             \"served\": {}, \"shed\": {}, \"p50_sim_us\": {:.2}, \"p99_sim_us\": {:.2}, \
             \"quiet_p50_sim_us\": {:.2}, \"quiet_p99_sim_us\": {:.2}, \"ticks\": {}, \
             \"wall_req_per_sec\": {:.2}}}{comma}",
            r.policy,
            r.load_pct,
            r.offered,
            r.served,
            r.shed,
            r.p50_sim_us,
            r.p99_sim_us,
            r.quiet_p50_sim_us,
            r.quiet_p99_sim_us,
            r.ticks,
            r.wall_req_per_sec,
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"closed_loop\": [");
    for (i, r) in closed_rows.iter().enumerate() {
        let comma = if i + 1 == closed_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{\"concurrency\": {}, \"served\": {}, \"p50_sim_us\": {:.2}, \
             \"p99_sim_us\": {:.2}, \"req_per_sim_s\": {:.2}, \
             \"wall_req_per_sec\": {:.2}}}{comma}",
            r.concurrency,
            r.served,
            r.p50_sim_us,
            r.p99_sim_us,
            r.throughput_req_per_sim_s,
            r.wall_req_per_sec,
        );
    }
    let _ = writeln!(json, "    ],");
    // Tick-engine phase timers summed over every run above. Wall-clock
    // (`wall_` keys are report-only in the perf gate).
    {
        let all = open_rows
            .iter()
            .map(|r| &r.stats)
            .chain(closed_rows.iter().map(|r| &r.stats));
        let (mut plan, mut replay, mut flush) = (0u64, 0u64, 0u64);
        for s in all {
            plan += s.plan_us;
            replay += s.replay_us;
            flush += s.flush_us;
        }
        let _ = writeln!(json, "    \"tick_engine\": {{");
        let _ = writeln!(json, "      \"wall_plan_us\": {plan},");
        let _ = writeln!(json, "      \"wall_replay_us\": {replay},");
        let _ = writeln!(json, "      \"wall_flush_us\": {flush}");
        let _ = writeln!(json, "    }},");
    }
    let _ = writeln!(json, "    \"overload_2x\": {{");
    let _ = writeln!(
        json,
        "      \"drr_quiet_p99_sim_us\": {:.2},",
        drr2.quiet_p99_sim_us
    );
    let _ = writeln!(
        json,
        "      \"fifo_quiet_p99_sim_us\": {:.2},",
        fifo2.quiet_p99_sim_us
    );
    let _ = writeln!(json, "      \"quiet_p99_ratio\": {qos_ratio:.4},");
    let _ = writeln!(json, "      \"bit_identical\": true");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_PR8.json");
    println!("wrote {out_path}");
}
