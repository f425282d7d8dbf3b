//! `affine_flood_ticks`: an in-process `Server` under a tick-indexed open
//! loop.
//!
//! One flooder and seven quiet tenants send `x -> a*x + b` requests (one
//! `MulScalar`, one `AddScalar`: a rescale but no key switch) as wire bytes.
//! Per-request math is ~70x smaller than an LR score, so what this workload
//! times is the serving layer's fixed costs — codec, admission, DRR, plan
//! cache lookup, replay, flush — and, because arrivals are scheduled in
//! ticks rather than wall seconds, the shed counts and simulated latency
//! percentiles repeat exactly on any machine.
//!
//! A cycle is four phases of [`TICKS_PER_PHASE`] ticks offering 50/100/150/
//! 200% of the batch capacity per tick, then a drain. Cycles repeat until
//! the window closes, so a longer window means more identical cycles, not a
//! different schedule. A request the bounded queue sheds is not retried: the
//! typed `Overloaded` reply is the correct answer to overload and is checked,
//! not failed. Op = one offered request.

use std::time::Instant;

use fides_serve::{QosPolicy, ServeError, Server, ServerConfig, Ticket};

use super::serving::{
    self, affine_program, tenant, AffineSample, Chain, Tenant, WirePath, AFFINE_VALUES,
    SAMPLE_EVERY,
};
use super::{ms, repeat_setup, sched_layer, sim_layer, Layer, Measured, RunConfig};
use crate::gen::{flood_cycle, FloodTick, Rng, FLOOD_LOADS_PCT};
use crate::json::Json;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

const CHAIN: Chain = Chain {
    log_n: 10,
    levels: 4,
};
const BATCH: usize = 16;
const CAPACITY: usize = 64;
const QUIET: usize = 7;
const TICKS_PER_PHASE: usize = 25;

struct Pooled {
    frame: Vec<u8>,
    values: [f64; AFFINE_VALUES],
}

struct State {
    server: Server,
    tenants: Vec<Tenant>,
    /// Each tenant's affine map.
    maps: Vec<(f64, f64)>,
    pools: Vec<Vec<Pooled>>,
    cycle: Vec<FloodTick>,
}

fn server() -> Server {
    Server::new(
        ServerConfig::new(CHAIN.params())
            .batch_size(BATCH)
            .admission_capacity(CAPACITY)
            .qos(QosPolicy::Drr { quantum: 1 }),
    )
    .expect("server")
}

fn setup(cfg: &RunConfig, tracer: &Tracer) -> State {
    let rng = Rng::new(cfg.seed);
    let server = server();
    let tenants: Vec<Tenant> = (0..=QUIET as u64)
        .map(|t| tenant(CHAIN, t, false))
        .collect();
    let mut values = rng.fork(1);
    let (mut maps, mut pools) = (Vec::new(), Vec::new());
    for (t, tn) in tenants.iter().enumerate() {
        let sid = serving::open_session(&server, tracer, &tn.upload, t as u64).expect("open");
        let map = (values.range(0.5, 1.5), values.range(-0.25, 0.25));
        let program = affine_program(map.0, map.1);
        let pool_len = cfg.scaled(if t == 0 { 32 } else { 8 }, 2);
        let pool = (0..pool_len)
            .map(|_| {
                let v: [f64; AFFINE_VALUES] = std::array::from_fn(|_| values.range(-1.0, 1.0));
                let req = tracer.span("client.encrypt", t as u64, || {
                    tn.session
                        .eval_request(sid, &[&v], &program)
                        .expect("encrypt")
                });
                Pooled {
                    frame: req.to_bytes(),
                    values: v,
                }
            })
            .collect();
        maps.push(map);
        pools.push(pool);
    }
    let cycle = flood_cycle(
        &mut rng.fork(2),
        BATCH,
        QUIET,
        cfg.scaled(TICKS_PER_PHASE, 2),
    );
    let state = State {
        server,
        tenants,
        maps,
        pools,
        cycle,
    };
    // One untimed cycle plans every batch shape the schedule produces.
    let quiet = Tracer::new(false);
    let mut path = WirePath::new(state.server.clone(), &quiet);
    run_cycle(&state, &mut path, &mut Recorder::new(false), 0);
    state
}

struct InFlight {
    op: u64,
    tenant: usize,
    pooled: usize,
    load_pct: u32,
    submitted: Instant,
    submitted_tick: u64,
    submitted_sim_us: f64,
    ticket: Ticket,
}

struct Served {
    tenant: usize,
    load_pct: u32,
    wall_ms: f64,
    sim_us: f64,
    wait_ticks: u64,
}

struct Recorder {
    /// Read the simulated clock at submit and completion. Only traced runs
    /// do: the read is a device-wide sync, which an untraced run should not
    /// add to the path it times.
    sim_clock: bool,
    offered: u64,
    shed: u64,
    errors: u64,
    served: Vec<Served>,
    samples: Vec<AffineSample>,
    cursors: Vec<usize>,
    ticks: u64,
}

impl Recorder {
    fn new(sim_clock: bool) -> Self {
        Self {
            sim_clock,
            offered: 0,
            shed: 0,
            errors: 0,
            served: Vec::new(),
            samples: Vec::new(),
            cursors: vec![0; QUIET + 1],
            ticks: 0,
        }
    }
}

fn run_cycle(state: &State, path: &mut WirePath, rec: &mut Recorder, sample_offset: u64) {
    let server = state.server.clone();
    let now_sim = |rec: &Recorder| -> f64 {
        if rec.sim_clock {
            server.sync_us().expect("gpu-sim substrate")
        } else {
            0.0
        }
    };
    let mut inflight: Vec<InFlight> = Vec::new();
    let reap = |path: &mut WirePath, rec: &mut Recorder, inflight: &mut Vec<InFlight>| {
        let sim_now = now_sim(rec);
        inflight.retain(|f| {
            let Some((resp, _bytes)) = path.take(&f.ticket, f.op) else {
                return true;
            };
            if resp.error.is_some() || resp.outputs.len() != 1 {
                rec.errors += 1;
                return false;
            }
            rec.served.push(Served {
                tenant: f.tenant,
                load_pct: f.load_pct,
                wall_ms: ms(f.submitted.elapsed()),
                sim_us: sim_now - f.submitted_sim_us,
                wait_ticks: rec.ticks - f.submitted_tick,
            });
            if (rec.served.len() as u64 + sample_offset).is_multiple_of(SAMPLE_EVERY) {
                rec.samples.push(AffineSample {
                    tenant: f.tenant,
                    values: state.pools[f.tenant][f.pooled].values,
                    resp,
                });
            }
            false
        });
    };
    for tick in &state.cycle {
        for &t in &tick.arrivals {
            let t = t as usize;
            let pooled = rec.cursors[t] % state.pools[t].len();
            rec.cursors[t] += 1;
            rec.offered += 1;
            let op = rec.offered;
            let submitted_sim_us = now_sim(rec);
            let submitted = Instant::now();
            match path.submit(&state.pools[t][pooled].frame, op) {
                Ok(ticket) => inflight.push(InFlight {
                    op,
                    tenant: t,
                    pooled,
                    load_pct: tick.load_pct,
                    submitted,
                    submitted_tick: rec.ticks,
                    submitted_sim_us,
                    ticket,
                }),
                Err(ServeError::Overloaded { retry_after_ticks }) if retry_after_ticks >= 1 => {
                    rec.shed += 1;
                }
                Err(_) => rec.errors += 1,
            }
        }
        path.tick(rec.ticks);
        rec.ticks += 1;
        reap(path, rec, &mut inflight);
    }
    // The generator has stopped: drain the backlog. A tick that serves
    // nothing with requests still in flight would spin forever, so it ends
    // the drain and the stragglers count as missing.
    while !inflight.is_empty() {
        let served = path.tick(rec.ticks);
        rec.ticks += 1;
        reap(path, rec, &mut inflight);
        if served == 0 {
            rec.errors += inflight.len() as u64;
            break;
        }
    }
}

pub fn run(cfg: &RunConfig) -> Measured {
    let tracer = Tracer::new(cfg.trace);
    let (state, setup_s) = repeat_setup(cfg, || setup(cfg, &tracer));

    let mut path = WirePath::new(state.server.clone(), &tracer);
    let mut rec = Recorder::new(cfg.trace);
    state.server.reset_sim_stats();
    let stats_before = state.server.stats();
    let sim_start = if cfg.trace {
        state.server.sync_us().expect("gpu-sim substrate")
    } else {
        0.0
    };
    let sample_offset = Rng::new(cfg.seed).fork(3).below(SAMPLE_EVERY as usize) as u64;
    let spans_before = tracer.len();
    let t0 = Instant::now();
    let mut cycles = 0u64;
    while cycles == 0 || t0.elapsed() < cfg.window() {
        run_cycle(&state, &mut path, &mut rec, sample_offset);
        cycles += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let window_spans = tracer.len() - spans_before;
    let stats_after = state.server.stats();

    // Correctness: every sampled response decrypts to its tenant's affine
    // map of the values that were encrypted.
    let (checker, wrong_samples) = serving::check_affine(
        &tracer,
        &state.tenants,
        &state.maps,
        &mut rec.samples,
        cfg.corrupt,
    );
    let failed = rec.errors + wrong_samples;

    let mut layer = Layer::new();
    if cfg.trace {
        let served = rec.served.len() as f64;
        let spans = tracer.summary();
        serving::tick_layer(&mut layer, &spans, &stats_before, &stats_after, &path);
        serving::batch_layer(&mut layer, &stats_before, &stats_after);
        serving::client_layer(&mut layer, &spans);
        let sim_end = state.server.sync_us().expect("gpu-sim substrate");
        layer.insert("sim_us_per_op", (sim_end - sim_start) / served.max(1.0));
        let sim_stats = state.server.sim_stats().expect("gpu-sim substrate");
        sim_layer(&mut layer, &sim_stats, served);
        sched_layer(
            &mut layer,
            super::SchedCounts::from(&stats_after).since((&stats_before).into()),
            served,
        );
        let p95 = |mut v: Vec<f64>| percentile(sorted(&mut v), 95.0);
        let sim_of = |keep: &dyn Fn(&Served) -> bool| -> Vec<f64> {
            rec.served
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.sim_us)
                .collect()
        };
        layer.insert("sim_op_p95_us", p95(sim_of(&|_| true)));
        layer.insert("serve.quiet_sim_p95_us", p95(sim_of(&|s| s.tenant > 0)));
        for (load, name) in FLOOD_LOADS_PCT.into_iter().zip([
            "serve.sim_p95_us.load050",
            "serve.sim_p95_us.load100",
            "serve.sim_p95_us.load150",
            "serve.sim_p95_us.load200",
        ]) {
            layer.insert(name, p95(sim_of(&|s| s.load_pct == load)));
        }
        layer.insert(
            "serve.queue_wait_ticks_p95",
            p95(rec.served.iter().map(|s| s.wait_ticks as f64).collect()),
        );
        layer.insert(
            "serve.shed_share",
            rec.shed as f64 / rec.offered.max(1) as f64,
        );
        layer.insert("failed_share", failed as f64 / rec.offered.max(1) as f64);
        layer.insert("precision_bits_min", checker.precision_bits());
        let (a, b) = state.maps[0];
        serving::probes(
            &mut layer,
            CHAIN,
            &state.tenants[0],
            &affine_program(a, b),
            &state.pools[0][0].values,
        );
        serving::explained_tick(&mut layer, &spans, &stats_before, &stats_after);
    }

    Measured {
        setup_s,
        wall_s,
        latencies_ms: rec.served.iter().map(|s| s.wall_ms).collect(),
        // ~13k samples support p99. p95 would sit on the cliff between the
        // requests that waited five ticks and those that waited six, and flip
        // sides with the seed.
        tail_percentile: 99.0,
        attempted: rec.offered,
        failed,
        layer,
        window_spans,
        params: Json::obj([
            ("chain", Json::str(CHAIN.describe())),
            ("loop", Json::str("open, tick-indexed")),
            ("batch_size", Json::Num(BATCH as f64)),
            ("admission_capacity", Json::Num(CAPACITY as f64)),
            ("qos", Json::str("Drr{quantum:1}")),
            ("tenants", Json::str("1 flooder + 7 quiet")),
            ("ticks_per_phase", Json::Num(TICKS_PER_PHASE as f64)),
            ("loads_pct", Json::str("50/100/150/200")),
        ]),
        counts: Json::obj([
            ("cycles", Json::Num(cycles as f64)),
            ("shed", Json::Num(rec.shed as f64)),
            ("checked_samples", Json::Num(rec.samples.len() as f64)),
        ]),
        spans: tracer.into_spans(),
    }
}
