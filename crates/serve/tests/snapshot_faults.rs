//! Behavioural faults on the durability path: sinks that stall, fail or
//! trickle, sources that trickle, fail or rot. The standing invariant is
//! the roadmap's — *typed error or correct result; never a panic, a hang
//! or a half-restored registry* — plus the snapshot lock scope: a slow
//! sink must not stall serving.
//!
//! Threads synchronise through channels (never sleeps); every wait has a
//! timeout so a regression fails the test instead of hanging the suite.

use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::time::Duration;

use fides_api::{CkksEngine, Session};
use fides_client::persist::{kind, RecordReader, RecordWriter};
use fides_client::wire::{EvalRequest, OpProgram, ProgramOp};
use fides_client::ClientError;
use fides_core::CkksParameters;
use fides_serve::{ServeError, Server, ServerConfig};

const LOG_N: usize = 10;
const LEVELS: usize = 3;
const VALUES: [f64; 3] = [1.0, 2.0, 4.0];
const PATIENCE: Duration = Duration::from_secs(30);

fn server() -> Server {
    Server::new(ServerConfig::new(
        CkksParameters::new(LOG_N, LEVELS, 40, 3).unwrap(),
    ))
    .unwrap()
}

/// One tenant with a rotation key and a preloaded plaintext (a few
/// hundred KB of snapshot), and the circuit its requests run.
struct Tenant {
    session: Session,
    program: OpProgram,
}

impl Tenant {
    fn new() -> Self {
        let engine = CkksEngine::builder()
            .log_n(LOG_N)
            .levels(LEVELS)
            .scale_bits(40)
            .rotations(&[1])
            .seed(31)
            .build()
            .unwrap();
        let mut program = OpProgram::new(1);
        let m = program.push(ProgramOp::MulPlain { a: 0, plain: 0 });
        let r = program.push(ProgramOp::Rotate { a: m, k: 1 });
        program.output(r);
        Self {
            session: engine.session(),
            program,
        }
    }

    fn open(&self, server: &Server) -> u64 {
        let upload = self
            .session
            .session_request(&[(&[0.5, 0.5, 0.5][..], LEVELS)])
            .unwrap();
        server.open_session(upload).unwrap()
    }

    fn request(&self, sid: u64) -> EvalRequest {
        self.session
            .eval_request(sid, &[&VALUES], &self.program)
            .unwrap()
    }

    /// Serves one request and checks the decrypted result: the server is
    /// alive *and* its keys are intact.
    fn assert_serves(&self, server: &Server, sid: u64) {
        let resp = server.eval(self.request(sid)).expect("admitted");
        assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
        let out = self.session.decrypt_response(&resp, &[2]).unwrap();
        // (x * 0.5) rotated left by one slot.
        for (want, got) in [1.0, 2.0].iter().zip(&out[0]) {
            assert!((want - got).abs() < 1e-3, "wrong result {got}, want {want}");
        }
    }
}

/// A served server with one resident tenant and one cached plan, plus its
/// quiescent snapshot.
fn served() -> (Server, Tenant, u64, Vec<u8>) {
    let server = server();
    let tenant = Tenant::new();
    let sid = tenant.open(&server);
    tenant.assert_serves(&server, sid);
    let mut image = Vec::new();
    server.snapshot(&mut image).expect("quiescent snapshot");
    (server, tenant, sid, image)
}

/// Accepts bytes until `gate_at` have been written, then announces itself
/// and blocks until released — a disk that stalls mid-snapshot.
struct GatedWriter {
    image: Vec<u8>,
    gate_at: usize,
    entered: Option<mpsc::Sender<()>>,
    release: mpsc::Receiver<()>,
}

impl Write for GatedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.image.len() >= self.gate_at {
            if let Some(entered) = self.entered.take() {
                entered.send(()).expect("test is listening");
                self.release
                    .recv_timeout(PATIENCE)
                    .map_err(|_| io::Error::other("gate never released"))?;
            }
        }
        self.image.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_stalled_sink_does_not_stall_serving_and_the_image_is_the_quiescent_one() {
    let (server, tenant, sid, quiescent) = served();
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let (served_tx, served_rx) = mpsc::channel();
    let mut sink = GatedWriter {
        image: Vec::new(),
        // Well inside the session record's key material.
        gate_at: quiescent.len() / 2,
        entered: Some(entered_tx),
        release: release_rx,
    };
    std::thread::scope(|scope| {
        let snapshot = scope.spawn(|| server.snapshot(&mut sink));
        entered_rx
            .recv_timeout(PATIENCE)
            .expect("snapshot reaches its write phase");
        // The sink is now blocked mid-record. A request submitted here
        // must be ticked and answered while it still is.
        scope.spawn(|| {
            tenant.assert_serves(&server, sid);
            served_tx.send(()).expect("test is listening");
        });
        let answered = served_rx.recv_timeout(PATIENCE);
        release_tx.send(()).expect("sink is waiting");
        answered.expect("request answered while the snapshot's sink was stalled");
        snapshot
            .join()
            .expect("snapshot thread")
            .expect("snapshot completes once released");
    });
    assert_eq!(
        sink.image, quiescent,
        "state is collected before the write: a tick during it is not in the image"
    );
}

/// Accepts `left` more bytes, then fails every write — a disk that fills.
struct FailAfter {
    left: usize,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("no space left on device"));
        }
        let n = self.left.min(buf.len());
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Takes one byte per call — the stingiest sink `Write` allows.
struct OneByteWriter(Vec<u8>);

impl Write for OneByteWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.extend_from_slice(&buf[..buf.len().min(1)]);
        Ok(buf.len().min(1))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Accepts nothing, without an error (`write_all` reports `WriteZero`).
struct FullWriter;

impl Write for FullWriter {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Ok(0)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn failing_sinks_are_typed_errors_and_leave_the_server_serving() {
    let (server, tenant, sid, quiescent) = served();
    // Inside the stream header, on a record header, inside the key
    // material, on the last record's CRC.
    let len = quiescent.len();
    for accepted in [0, 5, 8, 11, 40, len / 3, len / 2, len - 6, len - 1] {
        match server.snapshot(FailAfter { left: accepted }) {
            Err(ServeError::Client(ClientError::Io(_))) => {}
            other => panic!("sink failing after {accepted} bytes: {other:?}"),
        }
        tenant.assert_serves(&server, sid);
    }
    match server.snapshot(FullWriter) {
        Err(ServeError::Client(ClientError::Io(_))) => {}
        other => panic!("sink accepting nothing: {other:?}"),
    }
    // Nothing was consumed or left locked by the failures: the next
    // snapshot succeeds, and — one tenant, one cached plan — it is the
    // image a server that never saw a failing sink writes.
    let mut trickled = OneByteWriter(Vec::new());
    server
        .snapshot(&mut trickled)
        .expect("snapshot after failures");
    assert_eq!(trickled.0, quiescent, "one byte per write, same image");
    tenant.assert_serves(&server, sid);
}

/// Yields one byte per call and, optionally, an I/O error once `fail_at`
/// bytes have been read.
struct TrickleReader<'a> {
    data: &'a [u8],
    pos: usize,
    fail_at: Option<usize>,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.fail_at == Some(self.pos) {
            return Err(io::Error::other("medium error"));
        }
        if buf.is_empty() || self.pos == self.data.len() {
            return Ok(0);
        }
        buf[0] = self.data[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

fn trickle(data: &[u8], fail_at: Option<usize>) -> TrickleReader<'_> {
    TrickleReader {
        data,
        pos: 0,
        fail_at,
    }
}

#[test]
fn a_trickling_source_restores_warm() {
    let (_, tenant, sid, image) = served();
    let restored = server();
    assert_eq!(restored.restore(trickle(&image, None)).expect("restore"), 1);
    tenant.assert_serves(&restored, sid);
    let stats = restored.stats();
    assert_eq!(stats.plan_cache_misses, 0, "first tick replans nothing");
    assert_eq!(stats.warm_plan_hits, 1, "first tick hits the restored plan");
}

#[test]
fn failing_sources_are_typed_errors_and_restore_stays_atomic() {
    let (_, tenant, sid, image) = served();
    let len = image.len();
    let mid_record = len / 2;
    let mut rotted = image.clone();
    rotted[mid_record] ^= 0x10;

    // A live server with its own tenant: failed restores must not touch it.
    // (Its session id differs from the image's, so only the faults can
    // fail a restore into it.)
    let live = server();
    let live_tenant = Tenant::new();
    assert!(live.close_session(live_tenant.open(&live)));
    let live_sid = live_tenant.open(&live);
    assert_ne!(live_sid, sid);
    live_tenant.assert_serves(&live, live_sid);
    let live_before = live.stats();

    for target in [&server(), &live] {
        let sessions = target.session_count();
        for fail_at in [3, 10, mid_record, len - 2] {
            match target.restore(trickle(&image, Some(fail_at))) {
                Err(ServeError::Client(ClientError::Io(_))) => {}
                other => panic!("source failing at byte {fail_at}: {other:?}"),
            }
            assert_eq!(target.session_count(), sessions, "half-restored registry");
        }
        match target.restore(trickle(&image[..mid_record], None)) {
            Err(ServeError::Client(ClientError::Serialization(_))) => {}
            other => panic!("source ending mid-record: {other:?}"),
        }
        match target.restore(trickle(&rotted, None)) {
            Err(ServeError::Client(ClientError::ChecksumMismatch { .. })) => {}
            other => panic!("rotted source: {other:?}"),
        }
        assert_eq!(target.session_count(), sessions, "half-restored registry");
        assert_eq!(target.stats().restored_sessions, 0);
    }

    // The live server kept serving its own tenant, with its own plan…
    live_tenant.assert_serves(&live, live_sid);
    assert_eq!(
        live.stats().plan_cache_misses,
        live_before.plan_cache_misses,
        "a failed restore must not disturb the live plan cache"
    );
    // …and a clean stream still restores into a server that saw every
    // failure above.
    let fresh = server();
    assert!(fresh.restore(trickle(&image, Some(mid_record))).is_err());
    assert_eq!(fresh.restore(&image[..]).expect("clean restore"), 1);
    tenant.assert_serves(&fresh, sid);
    assert_eq!(fresh.stats().plan_cache_misses, 0);
}

/// `image` with the first launch of its plan record moved onto `stream`,
/// re-framed so every record's CRC still checks out.
fn with_plan_stream(image: &[u8], stream: u32) -> Vec<u8> {
    let mut r = RecordReader::new(image).expect("stream header");
    let mut w = RecordWriter::new(Vec::new()).expect("stream header");
    let mut patched = false;
    while let Some(rec) = r.read_record().expect("record") {
        let mut payload = rec.payload.to_vec();
        if rec.kind == kind::PLAN && !patched {
            // fingerprint u64, binding count u32 + 8 bytes per id, step
            // count u32, then the first step: tag, stream u32.
            let n_binding = u32::from_be_bytes(payload[8..12].try_into().unwrap()) as usize;
            let step = 12 + 8 * n_binding + 4;
            assert_eq!(payload[step], 0, "the plan opens with a launch");
            payload[step + 1..step + 5].copy_from_slice(&stream.to_be_bytes());
            patched = true;
        }
        w.record(rec.kind, &payload).expect("record");
    }
    assert!(patched, "the image holds a plan");
    w.finish().expect("stream end")
}

#[test]
fn a_plan_naming_a_stream_past_the_config_is_a_typed_error() {
    let (_, tenant, sid, image) = served();
    let live = server();
    let live_tenant = Tenant::new();
    assert!(live.close_session(live_tenant.open(&live)));
    let live_sid = live_tenant.open(&live);
    assert_ne!(live_sid, sid);
    live_tenant.assert_serves(&live, live_sid);
    let live_before = live.stats();
    let streams = CkksParameters::new(LOG_N, LEVELS, 40, 3)
        .unwrap()
        .num_streams as u32;

    // One past the planner's range, and the id that once sent replay into
    // a 2^32-entry table resize.
    for stream in [streams, u32::MAX] {
        let crafted = with_plan_stream(&image, stream);
        match live.restore(crafted.as_slice()) {
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains("stream"), "{msg}"),
            other => panic!("plan on stream {stream}: {other:?}"),
        }
        assert_eq!(live.session_count(), 1, "half-restored registry");
        assert_eq!(live.stats().restored_sessions, 0);
    }
    live_tenant.assert_serves(&live, live_sid);
    assert_eq!(
        live.stats().plan_cache_misses,
        live_before.plan_cache_misses,
        "a refused plan must not reach the live plan cache"
    );

    // The same image with the launch kept in range restores warm.
    let fresh = server();
    let in_range = with_plan_stream(&image, streams - 1);
    assert_eq!(fresh.restore(in_range.as_slice()).expect("restore"), 1);
    tenant.assert_serves(&fresh, sid);
}
