//! `lr_score_socket`: the product path end to end.
//!
//! `NetServer::spawn` over a default `ServerConfig`; four tenants with
//! dim-32 LR scoring models (a ~6 MB key upload each) share **one** TCP
//! connection driven by a client the benchmark owns, written against
//! `wire::{Frame, FrameDecoder}`. Closed loop: a sliding window of
//! [`WINDOW`] outstanding requests from a pre-encrypted pool. Every socket,
//! codec, admission, capture, plan, replay and flush step is on the path,
//! but ~97% of a tick is key-switch and NTT math in `core`/`math`: the
//! workload where capture fan-out, NTT work or key-switch hoisting must show
//! in wall time, and where a codec or QoS change must show nothing.
//! Op = one request; every response is decrypted and checked.
//!
//! The traced run halves the window: first the socket loop with client-side
//! spans, then the same requests replayed in-process in batches of 16 with a
//! span around every server call, which is where the tick-level numbers and
//! `serve.net.overhead_us_per_req` come from.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fides_client::wire::{EvalRequest, EvalResponse, Frame, FrameDecoder, FrameKind};
use fides_serve::net::NetShutdown;
use fides_serve::{NetServer, NetServerConfig, Server, ServerConfig};
use fides_workloads::serve_lr::ServeLrModel;

use super::serving::{self, tenant, Chain, Tenant, WirePath, LR_DIM};
use super::{
    ms, repeat_setup, sched_layer, sim_layer, Checker, Layer, Measured, RunConfig, SchedCounts,
};
use crate::gen::Rng;
use crate::json::Json;
use crate::trace::Tracer;

const CHAIN: Chain = Chain {
    log_n: 11,
    levels: 6,
};
const TENANTS: usize = 4;
/// Requests kept outstanding on the connection; also the replay batch.
const WINDOW: usize = 16;
const POOL_PER_TENANT: usize = 24;
const WARMUP: usize = 16;
const READ_CHUNK: usize = 64 * 1024;
/// CKKS error on a score is ~1e-8; anything near this is a wrong answer.
const TOLERANCE: f64 = 1e-4;

/// The benchmark's own blocking client for one connection.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_seq: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the front");
        stream.set_nodelay(true).expect("nodelay");
        // A front that stops answering must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Client {
            stream,
            decoder: FrameDecoder::new(),
            next_seq: 0,
        }
    }

    fn send(&mut self, tracer: &Tracer, kind: FrameKind, payload: Vec<u8>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = tracer.span("client.wire.encode_frame", seq, || {
            Frame::new(kind, seq, payload).encode()
        });
        tracer
            .span("bench.socket_write", seq, || self.stream.write_all(&bytes))
            .expect("write to the front");
        seq
    }

    fn recv(&mut self, tracer: &Tracer) -> Frame {
        tracer.span("bench.socket_recv", self.next_seq, || loop {
            if let Some(frame) = self.decoder.next_frame().expect("well-formed frame") {
                return frame;
            }
            let mut chunk = [0u8; READ_CHUNK];
            let n = self.stream.read(&mut chunk).expect("read from the front");
            assert!(n > 0, "the front closed the connection mid-run");
            self.decoder.feed(&chunk[..n]);
        })
    }
}

struct Pooled {
    tenant: usize,
    req: EvalRequest,
    features: Vec<f64>,
}

struct State {
    /// Shares state with the server behind the front: counters and clocks.
    handle: Server,
    shutdown: NetShutdown,
    join: Option<JoinHandle<()>>,
    client: Client,
    tenants: Vec<Tenant>,
    pool: Vec<Pooled>,
}

impl Drop for State {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(join) = self.join.take() {
            // A panicked front already failed the run through the client.
            let _ = join.join();
        }
    }
}

fn model(t: &Tenant) -> &ServeLrModel {
    t.model.as_ref().expect("LR tenant")
}

fn setup(cfg: &RunConfig, tracer: &Tracer) -> State {
    let server = Server::new(ServerConfig::new(CHAIN.params())).expect("server");
    let handle = server.clone();
    let (addr, shutdown, join) =
        NetServer::spawn(server, "127.0.0.1:0", NetServerConfig::default()).expect("bind");
    let mut client = Client::connect(addr);
    let tenants: Vec<Tenant> = (0..TENANTS as u64)
        .map(|t| tenant(CHAIN, t, true))
        .collect();

    let mut features = Rng::new(cfg.seed).fork(1);
    let mut pool = Vec::new();
    for (t, tn) in tenants.iter().enumerate() {
        let seq = client.send(tracer, FrameKind::OpenSession, tn.upload.clone());
        let opened = client.recv(tracer);
        assert_eq!((opened.kind, opened.seq), (FrameKind::SessionOpened, seq));
        let sid = u64::from_le_bytes(opened.payload[..8].try_into().expect("8-byte id"));
        let program = model(tn).scoring_program(0);
        for _ in 0..cfg.scaled(POOL_PER_TENANT, 2) {
            // Small enough that w.x stays inside the sigmoid polynomial's
            // domain, as the library's own synthetic features are.
            let x: Vec<f64> = (0..LR_DIM).map(|_| features.range(-0.25, 0.25)).collect();
            let req = tracer.span("client.encrypt", t as u64, || {
                tn.session
                    .eval_request(sid, &[&x], &program)
                    .expect("encrypt")
            });
            pool.push(Pooled {
                tenant: t,
                req,
                features: x,
            });
        }
    }
    // Tenants interleave on the connection in seeded order.
    Rng::new(cfg.seed).fork(2).shuffle(&mut pool);
    let mut state = State {
        handle,
        shutdown,
        join: Some(join),
        client,
        tenants,
        pool,
    };
    let quiet = Tracer::new(false);
    let warm = socket_loop(
        &mut state,
        &quiet,
        WindowEnd::Requests(cfg.scaled(WARMUP, 2)),
        0,
    );
    assert_eq!(
        warm.responses.len(),
        warm.issued,
        "warm-up requests must be answered"
    );
    state
}

enum WindowEnd {
    Requests(usize),
    After(Duration),
}

struct SocketRun {
    issued: usize,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    /// Pool index of the request and the frame that answered it.
    responses: Vec<(usize, Frame)>,
}

/// The closed loop: keep [`WINDOW`] requests outstanding until the window
/// ends, then collect what is still in flight.
fn socket_loop(state: &mut State, tracer: &Tracer, end: WindowEnd, first: usize) -> SocketRun {
    let mut outstanding: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut run = SocketRun {
        issued: 0,
        wall_s: 0.0,
        latencies_ms: Vec::new(),
        responses: Vec::new(),
    };
    let t0 = Instant::now();
    let open = |issued: usize| match end {
        WindowEnd::Requests(n) => issued < n,
        WindowEnd::After(d) => issued == 0 || t0.elapsed() < d,
    };
    loop {
        while outstanding.len() < WINDOW && open(run.issued) {
            let idx = (first + run.issued) % state.pool.len();
            let sent = Instant::now();
            let payload = tracer.span("client.wire.encode_req", run.issued as u64, || {
                state.pool[idx].req.to_bytes()
            });
            let seq = state.client.send(tracer, FrameKind::Eval, payload);
            outstanding.insert(seq, (idx, sent));
            run.issued += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        let frame = state.client.recv(tracer);
        let (idx, sent) = outstanding
            .remove(&frame.seq)
            .expect("the front echoes a sequence number we sent");
        run.latencies_ms.push(ms(sent.elapsed()));
        run.responses.push((idx, frame));
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    run
}

struct Replay {
    requests: usize,
    wall_s: f64,
}

/// The traced run's second half: the pool replayed in-process in batches of
/// [`WINDOW`], a span around every call into the serving layer.
fn replay_in_process(
    state: &mut State,
    tracer: &Tracer,
    window: Duration,
    layer: &mut Layer,
) -> Replay {
    let server = Server::new(ServerConfig::new(CHAIN.params())).expect("server");
    let sids: Vec<u64> = state
        .tenants
        .iter()
        .enumerate()
        .map(|(t, tn)| serving::open_session(&server, tracer, &tn.upload, t as u64).expect("open"))
        .collect();
    let frames: Vec<Vec<u8>> = state
        .pool
        .iter_mut()
        .map(|p| {
            p.req.session_id = sids[p.tenant];
            p.req.to_bytes()
        })
        .collect();
    let batch = |path: &mut WirePath, start: usize| {
        let tickets: Vec<_> = (0..WINDOW)
            .map(|i| {
                let op = (start + i) as u64;
                path.submit(&frames[(start + i) % frames.len()], op)
                    .expect("in-process replay stays under capacity")
            })
            .collect();
        path.tick(start as u64);
        for (i, ticket) in tickets.iter().enumerate() {
            let (resp, _) = path.take(ticket, (start + i) as u64).expect("served");
            assert!(
                resp.error.is_none(),
                "replayed request failed: {:?}",
                resp.error
            );
        }
    };
    // One batch untimed: the replay measures warm ticks, like the socket loop.
    let quiet = Tracer::new(false);
    batch(&mut WirePath::new(server.clone(), &quiet), 0);

    let mut path = WirePath::new(server.clone(), tracer);
    let before = server.stats();
    let t0 = Instant::now();
    let mut requests = 0;
    while requests == 0 || t0.elapsed() < window {
        batch(&mut path, requests);
        requests += WINDOW;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = server.stats();
    let spans = tracer.summary();
    serving::tick_layer(layer, &spans, &before, &after, &path);
    serving::probes(
        layer,
        CHAIN,
        &state.tenants[0],
        &model(&state.tenants[0]).scoring_program(0),
        &state.pool[0].features,
    );
    serving::explained_tick(layer, &spans, &before, &after);
    Replay { requests, wall_s }
}

pub fn run(cfg: &RunConfig) -> Measured {
    let tracer = Tracer::new(cfg.trace);
    let (mut state, setup_s) = repeat_setup(cfg, || setup(cfg, &tracer));

    // Traced: half the window on the socket, half replaying in-process.
    let socket_window = if cfg.trace {
        cfg.window() / 2
    } else {
        cfg.window()
    };
    state.handle.reset_sim_stats();
    let stats_before = state.handle.stats();
    let sim_start = cfg
        .trace
        .then(|| state.handle.sync_us().expect("gpu-sim substrate"));
    let spans_before = tracer.len();
    let mut run = socket_loop(&mut state, &tracer, WindowEnd::After(socket_window), 0);
    let window_spans = tracer.len() - spans_before;
    let stats_after = state.handle.stats();
    let sim_end = cfg
        .trace
        .then(|| state.handle.sync_us().expect("gpu-sim substrate"));

    // Correctness: every response decrypts to its tenant's plaintext score.
    let mut checker = Checker::default();
    let mut failed = (run.issued - run.responses.len()) as u64;
    let mut latencies_ms = Vec::new();
    for (i, ((idx, frame), latency)) in run.responses.drain(..).zip(&run.latencies_ms).enumerate() {
        let pooled = &state.pool[idx];
        let tn = &state.tenants[pooled.tenant];
        let score = (frame.kind == FrameKind::EvalDone)
            .then(|| {
                tracer.span("client.wire.decode_resp", i as u64, || {
                    EvalResponse::from_bytes(&frame.payload).ok()
                })
            })
            .flatten()
            .and_then(|mut resp| {
                if cfg.corrupt && i == 0 {
                    resp.outputs[0].c0.limbs[0][0] ^= 1 << 20;
                }
                tracer
                    .span("client.decrypt", i as u64, || {
                        tn.session.decrypt_response(&resp, &[1])
                    })
                    .ok()
            });
        let wrong_before = checker.wrong;
        match score {
            Some(out) => checker.check(
                out[0][0],
                model(tn).score_plain(&pooled.features),
                TOLERANCE,
            ),
            None => checker.wrong += 1,
        }
        if checker.wrong > wrong_before {
            failed += 1;
        } else {
            latencies_ms.push(*latency);
        }
    }

    let mut layer = Layer::new();
    let mut replayed = 0;
    if cfg.trace {
        let ops = run.issued as f64;
        let sim_stats = state.handle.sim_stats().expect("gpu-sim substrate");
        sim_layer(&mut layer, &sim_stats, ops);
        sched_layer(
            &mut layer,
            SchedCounts::from(&stats_after).since((&stats_before).into()),
            ops,
        );
        layer.insert(
            "sim_us_per_op",
            (sim_end.expect("traced") - sim_start.expect("traced")) / ops,
        );
        serving::batch_layer(&mut layer, &stats_before, &stats_after);
        layer.insert("failed_share", failed as f64 / ops);
        layer.insert("precision_bits_min", checker.precision_bits());

        let replay = replay_in_process(&mut state, &tracer, cfg.window() / 2, &mut layer);
        replayed = replay.requests;
        serving::client_layer(&mut layer, &tracer.summary());
        layer.insert(
            "serve.net.overhead_us_per_req",
            run.wall_s * 1e6 / ops - replay.wall_s * 1e6 / replay.requests as f64,
        );
    }

    Measured {
        setup_s,
        wall_s: run.wall_s,
        latencies_ms,
        // ~240 samples, but they arrive in ~15 lock-step batches: p90 is the
        // highest percentile that repeats from run to run.
        tail_percentile: 90.0,
        attempted: run.issued as u64,
        failed,
        layer,
        window_spans,
        params: Json::obj([
            ("chain", Json::str(CHAIN.describe())),
            (
                "loop",
                Json::str("closed, 16 outstanding on one TCP connection"),
            ),
            ("tenants", Json::Num(TENANTS as f64)),
            ("model_dim", Json::Num(LR_DIM as f64)),
            ("pool", Json::Num(state.pool.len() as f64)),
            (
                "upload_mb",
                Json::Num(super::mb(state.tenants[0].upload.len() as u64)),
            ),
        ]),
        counts: Json::obj([("replayed_in_process", Json::Num(replayed as f64))]),
        spans: tracer.into_spans(),
    }
}
