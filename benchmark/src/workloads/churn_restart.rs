//! `churn_restart`: tenant churn over a bounded registry, with restarts.
//!
//! Twelve tenants (LR key sets, a ~6 MB upload each) share a server that
//! holds eight sessions. A visit sends one affine request as wire bytes; a
//! tenant whose session was evicted gets `UnknownSession` back, re-uploads
//! its keys and retries once. Every [`EPOCH`] visits the server is
//! snapshotted, dropped, rebuilt and restored. The other workloads only read
//! the codec, registry and durability layers; this one writes them: 6 MB
//! session decodes, LRU eviction, persist encode + CRC + decode, key re-load,
//! warm plan restore. Op = one visit.
//!
//! A cycle is one epoch of visits, the restart, and the first visit after
//! it. The visit order is a fixed skewed multiset (visits proportional to
//! 1/rank) shuffled by the seed, and every cycle replays it, so every seed
//! offers the same load and — set-up having run one cycle already — every
//! cycle starts from the same registry and does the same work: counters and
//! simulated times do not depend on how many cycles the window holds.

use std::time::Instant;

use fides_api::Session;
use fides_client::wire::EvalRequest;
use fides_gpu_sim::SimStats;
use fides_serve::{ServeError, ServeStats, Server, ServerConfig};

use super::serving::{
    self, affine_program, tenant, AffineSample, Chain, Tenant, WirePath, AFFINE_VALUES,
    SAMPLE_EVERY,
};
use super::{
    mb, ms, repeat_setup, sched_layer, sim_layer, Layer, Measured, RunConfig, SchedCounts,
};
use crate::gen::{visit_epoch, Rng};
use crate::json::Json;
use crate::stats::median;
use crate::trace::Tracer;

const CHAIN: Chain = Chain {
    log_n: 11,
    levels: 6,
};
const TENANTS: usize = 12;
const MAX_SESSIONS: usize = 8;
/// Visits between restarts.
const EPOCH: usize = 200;

struct Pooled {
    req: EvalRequest,
    values: [f64; AFFINE_VALUES],
}

struct State {
    server: Server,
    tenants: Vec<Tenant>,
    maps: Vec<(f64, f64)>,
    pools: Vec<Vec<Pooled>>,
    sids: Vec<u64>,
    /// The epoch's visit order, replayed every cycle.
    order: Vec<u16>,
    cursors: Vec<usize>,
}

fn server() -> Server {
    Server::new(ServerConfig::new(CHAIN.params()).max_sessions(MAX_SESSIONS)).expect("server")
}

/// What the cycles of a window add up to.
#[derive(Default)]
struct Tally {
    /// Read the simulated clock around each segment (traced runs only: the
    /// read is a device-wide sync).
    sim_clock: bool,
    sample_offset: u64,
    visits: u64,
    errors: u64,
    retries: u64,
    latencies_ms: Vec<f64>,
    samples: Vec<AffineSample>,
    /// `ServeStats` deltas summed over every server the window used.
    totals: ServeStats,
    evictions: u64,
    sim_us: f64,
    restart_gaps_ms: Vec<f64>,
    snapshot_bytes: u64,
    post_restore_misses: u64,
    /// The simulated-device ledger of the last completed epoch.
    epoch_sim: Option<SimStats>,
}

impl Tally {
    /// Runs `f` against `server`, adding its counter and clock deltas.
    fn segment<R>(&mut self, server: &Server, f: impl FnOnce(&mut Tally) -> R) -> R {
        let clock = |on: bool| on.then(|| server.sync_us()).flatten();
        let before = server.stats();
        let sim_before = clock(self.sim_clock);
        let out = f(self);
        let after = server.stats();
        serving::add_delta(&mut self.totals, &before, &after);
        self.evictions += after.sessions_evicted - before.sessions_evicted;
        if let (Some(t0), Some(t1)) = (sim_before, clock(self.sim_clock)) {
            self.sim_us += t1 - t0;
        }
        out
    }
}

impl State {
    /// One visit: the tenant's next pooled request under its current session
    /// id, re-uploading once if the session was evicted.
    fn visit(&mut self, path: &mut WirePath, tally: &mut Tally, t: usize, keep_sample: bool) {
        let op = tally.visits;
        tally.visits += 1;
        let pooled = self.cursors[t] % self.pools[t].len();
        self.cursors[t] += 1;
        let t0 = Instant::now();
        let mut attempt = |sid: u64, path: &mut WirePath| {
            let req = &mut self.pools[t][pooled].req;
            req.session_id = sid;
            let frame = path
                .tracer
                .span("client.wire.encode_req", op, || req.to_bytes());
            path.eval(&frame, op)
        };
        let mut reply = attempt(self.sids[t], path);
        let evicted = ServeError::UnknownSession(self.sids[t]).to_string();
        if matches!(&reply, Ok((resp, _)) if resp.error.as_deref() == Some(evicted.as_str())) {
            tally.retries += 1;
            reply = serving::open_session(&path.server, path.tracer, &self.tenants[t].upload, op)
                .and_then(|sid| {
                    self.sids[t] = sid;
                    attempt(sid, path)
                });
        }
        match reply {
            Ok((resp, _bytes)) if resp.error.is_none() && resp.outputs.len() == 1 => {
                tally.latencies_ms.push(ms(t0.elapsed()));
                if keep_sample {
                    tally.samples.push(AffineSample {
                        tenant: t,
                        values: self.pools[t][pooled].values,
                        resp,
                    });
                }
            }
            _ => tally.errors += 1,
        }
    }

    /// One cycle: the epoch's visits, then snapshot -> fresh server ->
    /// restore -> first visit. The restart gap runs from the snapshot call
    /// to that visit's response.
    fn cycle(&mut self, path: &mut WirePath, tally: &mut Tally) {
        let old = self.server.clone();
        tally.segment(&old, |tally| {
            for i in 0..self.order.len() {
                let sampled = (tally.visits + tally.sample_offset).is_multiple_of(SAMPLE_EVERY);
                self.visit(path, tally, self.order[i] as usize, sampled);
            }
        });
        tally.epoch_sim = old.sim_stats();
        drop(old);

        let tracer = path.tracer;
        let restart = tally.restart_gaps_ms.len() as u64;
        let gap = Instant::now();
        let mut image = Vec::new();
        tracer
            .span("serve.snapshot", restart, || {
                self.server.snapshot(&mut image)
            })
            .expect("snapshot");
        tally.snapshot_bytes = image.len() as u64;
        // The old server's last handles go here, before any key is restored.
        let fresh = server();
        path.server = fresh.clone();
        self.server = fresh.clone();
        tracer
            .span("serve.restore", restart, || fresh.restore(&image[..]))
            .expect("restore");
        drop(image);
        fresh.reset_sim_stats();
        tally.segment(&fresh, |tally| {
            tracer.span("serve.first_visit_after_restore", restart, || {
                self.visit(path, tally, self.order[0] as usize, true)
            })
        });
        tally.restart_gaps_ms.push(ms(gap.elapsed()));
        tally.post_restore_misses += fresh.stats().plan_cache_misses;
    }
}

fn setup(cfg: &RunConfig, tracer: &Tracer) -> State {
    let rng = Rng::new(cfg.seed);
    let server = server();
    let tenants: Vec<Tenant> = (0..TENANTS as u64)
        .map(|t| tenant(CHAIN, t, true))
        .collect();
    let mut values = rng.fork(1);
    let (mut maps, mut pools, mut sids) = (Vec::new(), Vec::new(), Vec::new());
    for (t, tn) in tenants.iter().enumerate() {
        sids.push(serving::open_session(&server, tracer, &tn.upload, t as u64).expect("open"));
        let map = (values.range(0.5, 1.5), values.range(-0.25, 0.25));
        let program = affine_program(map.0, map.1);
        let pool = (0..cfg.scaled(6, 2))
            .map(|_| {
                let v: [f64; AFFINE_VALUES] = std::array::from_fn(|_| values.range(-1.0, 1.0));
                let req = tracer.span("client.encrypt", t as u64, || {
                    tn.session
                        .eval_request(0, &[&v], &program)
                        .expect("encrypt")
                });
                Pooled { req, values: v }
            })
            .collect();
        maps.push(map);
        pools.push(pool);
    }
    let mut ranking: Vec<u16> = (0..TENANTS as u16).collect();
    rng.fork(2).shuffle(&mut ranking);
    let order = visit_epoch(&mut rng.fork(3), &ranking, cfg.scaled(EPOCH, TENANTS));
    let mut state = State {
        server,
        tenants,
        maps,
        pools,
        sids,
        order,
        cursors: vec![0; TENANTS],
    };
    // One untimed cycle settles the registry into the LRU state every later
    // cycle starts from, and plans the one-request batch shape.
    let quiet = Tracer::new(false);
    let mut path = WirePath::new(state.server.clone(), &quiet);
    let mut tally = Tally::default();
    state.cycle(&mut path, &mut tally);
    assert_eq!(tally.errors, 0, "warm-up visits must be served");
    state
}

pub fn run(cfg: &RunConfig) -> Measured {
    let tracer = Tracer::new(cfg.trace);
    let (mut state, setup_s) = repeat_setup(cfg, || setup(cfg, &tracer));

    let mut path = WirePath::new(state.server.clone(), &tracer);
    let mut tally = Tally {
        sim_clock: cfg.trace,
        sample_offset: Rng::new(cfg.seed).fork(4).below(SAMPLE_EVERY as usize) as u64,
        ..Tally::default()
    };
    state.server.reset_sim_stats();
    let spans_before = tracer.len();
    let t0 = Instant::now();
    while tally.visits == 0 || t0.elapsed() < cfg.window() {
        state.cycle(&mut path, &mut tally);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let window_spans = tracer.len() - spans_before;

    let (checker, wrong_samples) = serving::check_affine(
        &tracer,
        &state.tenants,
        &state.maps,
        &mut tally.samples,
        cfg.corrupt,
    );
    let failed = tally.errors + wrong_samples;

    let mut layer = Layer::new();
    if cfg.trace {
        let visits = tally.visits as f64;
        let spans = tracer.summary();
        let zero = ServeStats::default();
        serving::tick_layer(&mut layer, &spans, &zero, &tally.totals, &path);
        serving::batch_layer(&mut layer, &zero, &tally.totals);
        serving::client_layer(&mut layer, &spans);
        sched_layer(&mut layer, SchedCounts::from(&tally.totals), visits);
        // Each server has its own simulated-device ledger: the breakdown is
        // the last epoch's (plus the post-restore visit that opened it).
        let epoch_sim = tally.epoch_sim.as_ref().expect("gpu-sim substrate");
        sim_layer(&mut layer, epoch_sim, (state.order.len() + 1) as f64);
        layer.insert("sim_us_per_op", tally.sim_us / visits);
        layer.insert("serve.evict_retry_share", tally.retries as f64 / visits);
        let mean_ms = |name: &str| spans.get(name).map_or(0.0, |s| s.mean_us() / 1e3);
        layer.insert("serve.snapshot_ms", mean_ms("serve.snapshot"));
        layer.insert("serve.restore_ms", mean_ms("serve.restore"));
        layer.insert(
            "serve.first_tick_after_restore_ms",
            mean_ms("serve.first_visit_after_restore"),
        );
        layer.insert("serve.snapshot_mb", mb(tally.snapshot_bytes));
        layer.insert(
            "serve.post_restore_plan_misses",
            tally.post_restore_misses as f64,
        );
        layer.insert("restart_gap_ms", median(&mut tally.restart_gaps_ms.clone()));
        layer.insert("failed_share", failed as f64 / visits);
        layer.insert("precision_bits_min", checker.precision_bits());
        persist_probe(&mut layer, &state.tenants[0]);
        let (a, b) = state.maps[0];
        serving::probes(
            &mut layer,
            CHAIN,
            &state.tenants[0],
            &affine_program(a, b),
            &state.pools[0][0].values,
        );
        serving::explained_tick(&mut layer, &spans, &zero, &tally.totals);
    }

    Measured {
        setup_s,
        wall_s,
        latencies_ms: tally.latencies_ms,
        tail_percentile: 95.0,
        attempted: tally.visits,
        failed,
        layer,
        window_spans,
        params: Json::obj([
            ("chain", Json::str(CHAIN.describe())),
            ("loop", Json::str("closed, one visit at a time")),
            ("tenants", Json::Num(TENANTS as f64)),
            ("max_sessions", Json::Num(MAX_SESSIONS as f64)),
            ("visits_per_restart", Json::Num(EPOCH as f64)),
            (
                "upload_mb",
                Json::Num(mb(state.tenants[0].upload.len() as u64)),
            ),
        ]),
        counts: Json::obj([
            ("restarts", Json::Num(tally.restart_gaps_ms.len() as f64)),
            ("evictions", Json::Num(tally.evictions as f64)),
            ("evict_retries", Json::Num(tally.retries as f64)),
            ("checked_samples", Json::Num(tally.samples.len() as f64)),
        ]),
        spans: tracer.into_spans(),
    }
}

/// `client.persist.*`: one tenant's key export and import, as a restart
/// writes and reads them.
fn persist_probe(layer: &mut Layer, tenant: &Tenant) {
    let model = tenant.model.as_ref().expect("LR tenant");
    let plains = model.session_plains(tenant.engine.max_level());
    let plain_refs: Vec<(&[f64], usize)> = plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
    let mut image = Vec::new();
    let t0 = Instant::now();
    tenant
        .session
        .export_keys(&mut image, &plain_refs)
        .expect("export");
    let export_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    Session::import_keys(&image[..]).expect("import");
    let import_s = t0.elapsed().as_secs_f64();
    let size = mb(image.len() as u64);
    layer.insert("client.persist.export_mb_per_s", size / export_s);
    layer.insert("client.persist.import_mb_per_s", size / import_s);
}
