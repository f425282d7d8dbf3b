//! What the three serving workloads share: tenants, the request programs,
//! the in-process wire path (bytes -> decode -> submit -> tick -> encode ->
//! bytes) with a span around each public call, and the serve-layer metrics
//! read from those spans and `ServeStats` deltas.

use std::collections::BTreeMap;

use fides_api::{CkksEngine, Session};
use fides_client::wire::{EvalRequest, EvalResponse, OpProgram, ProgramOp, SessionRequest};
use fides_core::CkksParameters;
use fides_serve::{ServeError, ServeStats, Server, Ticket};
use fides_workloads::serve_lr::{self, ServeLrModel};

use super::{mb, Checker, Layer};
use crate::probes::{self, ChainShape, NttFlavor};
use crate::trace::{NameStats, Tracer};

/// `[logN, L, delta bits, dnum]` of a serving chain.
#[derive(Clone, Copy, Debug)]
pub struct Chain {
    pub log_n: usize,
    pub levels: usize,
}

impl Chain {
    pub const SCALE_BITS: u32 = 40;
    pub const DNUM: usize = 3;

    pub fn params(self) -> CkksParameters {
        CkksParameters::new(self.log_n, self.levels, Self::SCALE_BITS, Self::DNUM)
            .expect("serving chain parameters are valid")
    }

    pub fn describe(self) -> String {
        format!(
            "[{},{},{},{}]",
            self.log_n,
            self.levels,
            Self::SCALE_BITS,
            Self::DNUM
        )
    }
}

/// One tenant: a thin client (engine-backed session) and its keygen upload
/// as wire bytes.
pub struct Tenant {
    pub engine: CkksEngine,
    pub session: Session,
    pub upload: Vec<u8>,
    /// LR tenants hold a dim-32 scoring model; affine tenants none.
    pub model: Option<ServeLrModel>,
}

pub const LR_DIM: usize = 32;

/// Key material is fixed per tenant index: the run seed varies inputs, not
/// keys.
pub fn tenant(chain: Chain, index: u64, with_model: bool) -> Tenant {
    let model = with_model.then(|| serve_lr::synthetic_model(LR_DIM, 100 + index));
    let mut builder = CkksEngine::builder()
        .log_n(chain.log_n)
        .levels(chain.levels)
        .scale_bits(Chain::SCALE_BITS)
        .dnum(Chain::DNUM)
        .seed(7_100 + index);
    if let Some(m) = &model {
        builder = builder.rotations(&m.required_rotations());
    }
    let engine = builder.build().expect("tenant engine");
    let session = engine.session();
    let plains = model
        .as_ref()
        .map(|m| m.session_plains(engine.max_level()))
        .unwrap_or_default();
    let plain_refs: Vec<(&[f64], usize)> = plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
    let upload = session
        .session_request(&plain_refs)
        .expect("session request")
        .to_bytes();
    Tenant {
        engine,
        session,
        upload,
        model,
    }
}

/// `x -> a*x + b`: one MulScalar (rescale, no key switch) and one AddScalar.
pub fn affine_program(a: f64, b: f64) -> OpProgram {
    let mut p = OpProgram::new(1);
    let scaled = p.push(ProgramOp::MulScalar { a: 0, c: a });
    let out = p.push(ProgramOp::AddScalar { a: scaled, c: b });
    p.output(out);
    p
}

/// Values packed into one affine request.
pub const AFFINE_VALUES: usize = 4;
/// One served affine response in this many is decrypted and checked.
pub const SAMPLE_EVERY: u64 = 16;

/// A served affine response kept for checking, with what was encrypted.
pub struct AffineSample {
    pub tenant: usize,
    pub values: [f64; AFFINE_VALUES],
    pub resp: EvalResponse,
}

/// Decrypts every sample and checks it against its tenant's map `a*x + b`.
/// Returns the checker and how many samples were wrong. `corrupt` damages
/// the first sample first (the test hook).
pub fn check_affine(
    tracer: &Tracer,
    tenants: &[Tenant],
    maps: &[(f64, f64)],
    samples: &mut [AffineSample],
    corrupt: bool,
) -> (Checker, u64) {
    let mut checker = Checker::default();
    let mut wrong_samples = 0;
    for (i, s) in samples.iter_mut().enumerate() {
        if corrupt && i == 0 {
            s.resp.outputs[0].c0.limbs[0][0] ^= 1 << 20;
        }
        let wrong_before = checker.wrong;
        let got = tracer.span("client.decrypt", i as u64, || {
            tenants[s.tenant]
                .session
                .decrypt_response(&s.resp, &[AFFINE_VALUES])
        });
        let (a, b) = maps[s.tenant];
        match got {
            Ok(out) => {
                for (g, x) in out[0].iter().zip(s.values) {
                    checker.check(*g, a * x + b, 1e-4);
                }
            }
            Err(_) => checker.wrong += 1,
        }
        wrong_samples += u64::from(checker.wrong > wrong_before);
    }
    (checker, wrong_samples)
}

/// `Server::open_session_bytes`, taken apart so the 6 MB decode and the key
/// load each get a span.
pub fn open_session(
    server: &Server,
    tracer: &Tracer,
    upload: &[u8],
    op: u64,
) -> Result<u64, ServeError> {
    let req = tracer
        .span("client.wire.session_decode", op, || {
            SessionRequest::from_bytes(upload)
        })
        .map_err(ServeError::Client)?;
    tracer.span("serve.open_session", op, || server.open_session(req))
}

/// The server half of the wire path, one call at a time, counting bytes.
pub struct WirePath<'a> {
    /// A handle on the server (clones share its state); replaced when a
    /// workload restarts the server.
    pub server: Server,
    pub tracer: &'a Tracer,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub requests: u64,
    pub responses: u64,
}

impl<'a> WirePath<'a> {
    pub fn new(server: Server, tracer: &'a Tracer) -> Self {
        Self {
            server,
            tracer,
            bytes_in: 0,
            bytes_out: 0,
            requests: 0,
            responses: 0,
        }
    }

    /// Request bytes in -> admitted ticket (or the typed refusal).
    pub fn submit(&mut self, frame: &[u8], op: u64) -> Result<Ticket, ServeError> {
        self.bytes_in += frame.len() as u64;
        self.requests += 1;
        let req = self
            .tracer
            .span("client.wire.decode_req", op, || {
                EvalRequest::from_bytes(frame)
            })
            .map_err(ServeError::Client)?;
        self.tracer
            .span("serve.submit", op, || self.server.submit(req))
    }

    pub fn tick(&mut self, tick: u64) -> usize {
        self.tracer
            .span("serve.run_tick", tick, || self.server.run_tick())
    }

    /// A served ticket -> response bytes out.
    pub fn take(&mut self, ticket: &Ticket, op: u64) -> Option<(EvalResponse, Vec<u8>)> {
        let resp = ticket.try_take()?;
        let bytes = self
            .tracer
            .span("client.wire.encode_resp", op, || resp.to_bytes());
        self.bytes_out += bytes.len() as u64;
        self.responses += 1;
        Some((resp, bytes))
    }

    /// `Server::eval_bytes` for one request, through the spans above.
    pub fn eval(&mut self, frame: &[u8], op: u64) -> Result<(EvalResponse, Vec<u8>), ServeError> {
        let ticket = self.submit(frame, op)?;
        self.tick(op);
        self.take(&ticket, op)
            .ok_or_else(|| ServeError::Io("tick did not serve the request".into()))
    }
}

/// Serve-tick metrics of a traced window: span totals plus the `ServeStats`
/// delta read at the same boundaries.
pub fn tick_layer(
    layer: &mut Layer,
    spans: &BTreeMap<&'static str, NameStats>,
    before: &ServeStats,
    after: &ServeStats,
    path: &WirePath,
) {
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let served = (after.requests - before.requests).max(1) as f64;
    let ticks = (after.batches - before.batches).max(1) as f64;
    let tick_us = span("serve.run_tick").total_us();
    let (plan, replay, flush) = (
        (after.plan_us - before.plan_us) as f64,
        (after.replay_us - before.replay_us) as f64,
        (after.flush_us - before.flush_us) as f64,
    );
    layer.insert("serve.submit_us_per_req", span("serve.submit").mean_us());
    layer.insert("serve.tick_wall_us_per_req", tick_us / served);
    layer.insert("serve.plan_us_per_tick", plan / ticks);
    layer.insert("serve.replay_us_per_tick", replay / ticks);
    layer.insert("serve.flush_us_per_tick", flush / ticks);
    if tick_us > 0.0 {
        layer.insert(
            "serve.tick_unattributed_pct",
            100.0 * (tick_us - plan - replay - flush).max(0.0) / tick_us,
        );
        // Everything on the server path that is not a request's own math.
        let wire = span("client.wire.decode_req").total_us()
            + span("client.wire.encode_resp").total_us()
            + span("serve.submit").total_us();
        layer.insert(
            "serve.serving_share_pct",
            100.0 * (wire + plan + replay + flush) / (wire + tick_us),
        );
    }
    layer.insert(
        "client.wire.decode_req_us_per_mb",
        span("client.wire.decode_req").total_us() / mb(path.bytes_in).max(f64::MIN_POSITIVE),
    );
    layer.insert(
        "client.wire.encode_resp_us_per_mb",
        span("client.wire.encode_resp").total_us() / mb(path.bytes_out).max(f64::MIN_POSITIVE),
    );
    layer.insert(
        "client.wire.bytes_per_req",
        path.bytes_in as f64 / path.requests.max(1) as f64,
    );
    layer.insert(
        "client.wire.bytes_per_resp",
        path.bytes_out as f64 / path.responses.max(1) as f64,
    );
}

/// Batch and plan-cache counters over a window.
pub fn batch_layer(layer: &mut Layer, before: &ServeStats, after: &ServeStats) {
    let ticks = (after.batches - before.batches).max(1) as f64;
    layer.insert(
        "serve.mean_batch",
        (after.requests - before.requests) as f64 / ticks,
    );
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    layer.insert(
        "serve.plan_cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layer.insert("serve.plan_cache_misses", misses as f64);
}

/// Session-open and client-side spans every serving workload records.
pub fn client_layer(layer: &mut Layer, spans: &BTreeMap<&'static str, NameStats>) {
    let mean_us = |name: &str| spans.get(name).map_or(0.0, |s| s.mean_us());
    layer.insert("client.encrypt_us_per_req", mean_us("client.encrypt"));
    layer.insert("client.decrypt_us_per_resp", mean_us("client.decrypt"));
    layer.insert(
        "client.wire.session_decode_ms",
        mean_us("client.wire.session_decode") / 1e3,
    );
    layer.insert("serve.open_session_ms", mean_us("serve.open_session") / 1e3);
}

/// Adds the `after - before` delta of the counters the serve metrics read
/// to `acc`, so a window that spans server restarts sums its segments.
pub fn add_delta(acc: &mut ServeStats, before: &ServeStats, after: &ServeStats) {
    acc.requests += after.requests - before.requests;
    acc.batches += after.batches - before.batches;
    acc.plan_us += after.plan_us - before.plan_us;
    acc.replay_us += after.replay_us - before.replay_us;
    acc.flush_us += after.flush_us - before.flush_us;
    acc.plan_cache_hits += after.plan_cache_hits - before.plan_cache_hits;
    acc.plan_cache_misses += after.plan_cache_misses - before.plan_cache_misses;
    acc.recorded_kernels += after.recorded_kernels - before.recorded_kernels;
    acc.planned_launches += after.planned_launches - before.planned_launches;
    acc.fused_kernels += after.fused_kernels - before.fused_kernels;
}

/// Probes under a serving workload, on one tenant's own engine backend (the
/// same gpu-sim functional substrate, chain and keys the server holds for
/// it): math and rns kernels, single ops, the request's program through
/// `exec_program`, and how much of each parent its children explain.
pub fn probes(
    layer: &mut Layer,
    chain: Chain,
    tenant: &Tenant,
    program: &OpProgram,
    values: &[f64],
) {
    let shape = ChainShape {
        log_n: chain.log_n,
        q_limbs: chain.levels + 1,
        dnum: Chain::DNUM,
    };
    let costs = probes::math_rns(layer, shape, NttFlavor::Hierarchical);

    let engine = &tenant.engine;
    let backend = engine.backend();
    let a = engine.encrypt(values).expect("encrypt");
    let b = engine.encrypt(values).expect("encrypt");
    let raw = a.to_raw().expect("store");
    let weights = tenant.model.as_ref().map_or(values, |m| &m.weights);
    let plain = engine
        .preload_plain(weights, engine.max_level())
        .expect("preload");
    let rotation = tenant.model.as_ref().map(|m| m.required_rotations()[0]);
    probes::core_ops(
        layer,
        backend,
        &probes::OpInputs {
            a: a.backend_ct(),
            b: b.backend_ct(),
            plain: &plain,
            raw: Some(&raw),
            rotation,
            hoisted: &[],
        },
    );
    let plains = if tenant.model.is_some() {
        vec![plain]
    } else {
        Vec::new()
    };
    let exec_us = probes::exec_program_us(backend, std::slice::from_ref(&raw), &plains, program);
    layer.insert("core.exec_program_us_per_req", exec_us);
    let children_us = probes::program_children_us(backend, &raw, &plains, program);
    layer.insert(
        "bench.explained_pct.core.exec_program",
        100.0 * children_us / exec_us,
    );
    layer.insert(
        "bench.explained_pct.core.op.hmult",
        100.0 * probes::hmult_kernel_us(shape, costs) / layer["core.op.hmult_us"],
    );
}

/// `bench.explained_pct.serve.tick`: the `exec_program` probe times the
/// requests served, plus the server's own plan/replay/flush timers, over the
/// wall time of the tick spans.
pub fn explained_tick(
    layer: &mut Layer,
    spans: &BTreeMap<&'static str, NameStats>,
    before: &ServeStats,
    after: &ServeStats,
) {
    let tick_us = spans.get("serve.run_tick").map_or(0.0, |s| s.total_us());
    if tick_us <= 0.0 {
        return;
    }
    let served = (after.requests - before.requests) as f64;
    let timers = (after.plan_us - before.plan_us)
        + (after.replay_us - before.replay_us)
        + (after.flush_us - before.flush_us);
    let explained = layer["core.exec_program_us_per_req"] * served + timers as f64;
    layer.insert(
        "bench.explained_pct.serve.tick",
        100.0 * explained / tick_us,
    );
}
