//! Regenerates the committed persist-format golden fixtures under
//! `crates/baselines/fixtures/`.
//!
//! The fixtures pin **format version 1 on disk**: CI decodes the committed
//! bytes every run (`crates/serve/tests/persist_fixtures.rs`), so any
//! accidental change to the record layout, the CRC, or a payload codec
//! breaks the lane instead of silently orphaning every existing snapshot.
//! Rerun this generator only on a deliberate `FORMAT_VERSION` bump, and
//! commit the new fixtures alongside it.
//!
//! Everything is seeded, so regeneration under an unchanged format is
//! byte-identical:
//!
//! * `keyset_v1.bin` — params + a full evaluation-key set (relin, two
//!   rotations, conjugation) at logN 8 (small ring: the codec is
//!   degree-independent, the repo stays light).
//! * `plaintext_v1.bin` — params + one preloaded evaluation-domain
//!   plaintext.
//! * `plan_v1.bin` — one planned batch graph as a plan-cache entry.
//! * `snapshot_v1.bin` — a full server snapshot at logN 11: one keyless
//!   tenant (a `MulPlain` circuit needs no switching keys, which keeps
//!   the fixture tens of KB instead of tens of MB), one served tick so
//!   the plan cache holds the tick's plan.
//!
//! ```text
//! cargo run --release -p fides-bench --bin persist_fixtures [FIXTURES_DIR]
//! ```

use std::path::Path;

use fides_api::CkksEngine;
use fides_client::persist::{
    kind, KeySetRecord, ParamsRecord, PlaintextRecord, RecordReader, RecordWriter,
};
use fides_client::wire::{OpProgram, ProgramOp, SessionRequest};
use fides_core::sched::{encode_plan_entry, fingerprint, ExecGraph, PlanConfig, Planner};
use fides_core::CkksParameters;
use fides_gpu_sim::{BufferId, EventLog, KernelDesc, KernelKind};
use fides_serve::{Server, ServerConfig};

const FIXTURES_DIR: &str = "crates/baselines/fixtures";

fn write_stream(path: &Path, records: &[(u8, Vec<u8>)]) {
    let mut w = RecordWriter::new(Vec::new()).expect("stream header");
    for (tag, payload) in records {
        w.record(*tag, payload).expect("record");
    }
    let bytes = w.finish().expect("stream terminator");
    // Self-check: the bytes we commit must decode cleanly.
    let mut r = RecordReader::new(&bytes[..]).expect("reopen");
    while r.next_record().expect("decode back").is_some() {}
    assert!(r.finished(), "stream must end with an END record");
    std::fs::write(path, &bytes).expect("write fixture");
    println!("wrote {} ({} bytes)", path.display(), bytes.len());
}

fn keyset_fixture(dir: &Path) {
    let engine = CkksEngine::builder()
        .log_n(8)
        .levels(2)
        .scale_bits(40)
        .rotations(&[1, -2])
        .conjugation()
        .seed(901)
        .build()
        .expect("fixture engine");
    let session = engine.session();
    let upload = session.session_request(&[]).expect("keygen upload");
    let keys = KeySetRecord {
        relin: upload.relin,
        rotations: upload.rotations,
        conjugation: upload.conjugation,
    };
    write_stream(
        &dir.join("keyset_v1.bin"),
        &[
            (
                kind::PARAMS,
                ParamsRecord {
                    params_hash: upload.params_hash,
                }
                .encode(),
            ),
            (kind::KEY_SET, keys.encode()),
        ],
    );
}

fn plaintext_fixture(dir: &Path) {
    let engine = CkksEngine::builder()
        .log_n(8)
        .levels(2)
        .scale_bits(40)
        .seed(903)
        .build()
        .expect("fixture engine");
    let session = engine.session();
    let upload = session
        .session_request(&[(&[0.5, -0.25, 0.125][..], 1)])
        .expect("keygen upload");
    write_stream(
        &dir.join("plaintext_v1.bin"),
        &[
            (
                kind::PARAMS,
                ParamsRecord {
                    params_hash: upload.params_hash,
                }
                .encode(),
            ),
            (
                kind::PLAINTEXT,
                PlaintextRecord {
                    plaintext: upload.plaintexts[0].clone(),
                }
                .encode(),
            ),
        ],
    );
}

fn plan_fixture(dir: &Path) {
    let mut log = EventLog::default();
    for (src, dst) in [(100, 101), (101, 102)] {
        log.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(4096), |d| {
            d.read(BufferId(src), 8192).write(BufferId(dst), 8192);
        });
    }
    log.fence([0], [1]);
    log.launch(1, KernelDesc::new(KernelKind::NttPhase1).ops(65536), |d| {
        d.read(BufferId(102), 16384).write(BufferId(103), 16384);
    });
    let graph = ExecGraph::from(log);
    let cfg = PlanConfig::default();
    let (fp, binding) = fingerprint(&graph, &cfg);
    let plan = Planner::new(cfg).plan(&graph);
    write_stream(
        &dir.join("plan_v1.bin"),
        &[(kind::PLAN, encode_plan_entry(fp, &plan, &binding))],
    );
}

/// The server configuration the snapshot fixture is taken on — the decode
/// test rebuilds it identically, restores the fixture, and expects the
/// first tick of the same workload to hit the restored plan warm.
fn snapshot_server() -> Server {
    let params = CkksParameters::new(11, 2, 40, 3).expect("fixture params");
    Server::new(ServerConfig::new(params)).expect("fixture server")
}

fn snapshot_fixture(dir: &Path) {
    let engine = CkksEngine::builder()
        .log_n(11)
        .levels(2)
        .scale_bits(40)
        .seed(902)
        .build()
        .expect("fixture engine");
    let session = engine.session();
    let server = snapshot_server();
    // Keyless upload: `MulPlain`/`AddScalar` need no switching keys, so
    // the committed fixture stays small while still exercising session,
    // placement and plan records.
    let full = session
        .session_request(&[(&[0.5, 0.5, 0.5][..], 2)])
        .expect("keygen upload");
    let upload = SessionRequest {
        params_hash: full.params_hash,
        relin: None,
        rotations: Vec::new(),
        conjugation: None,
        plaintexts: full.plaintexts,
    };
    let sid = server.open_session(upload).expect("open");
    let mut p = OpProgram::new(1);
    let m = p.push(ProgramOp::MulPlain { a: 0, plain: 0 });
    let s = p.push(ProgramOp::AddScalar { a: m, c: 0.25 });
    p.output(s);
    let req = session
        .eval_request(sid, &[&[1.0, 2.0, 4.0]], &p)
        .expect("encrypt");
    let resp = server.eval(req).expect("serve");
    assert!(
        resp.error.is_none(),
        "fixture tick failed: {:?}",
        resp.error
    );
    let mut bytes = Vec::new();
    server.snapshot(&mut bytes).expect("snapshot");
    let path = dir.join("snapshot_v1.bin");
    std::fs::write(&path, &bytes).expect("write fixture");
    println!("wrote {} ({} bytes)", path.display(), bytes.len());

    // Self-check: a same-config server restores it and serves the same
    // circuit warm on its first tick.
    let restored = snapshot_server();
    let n = restored.restore(&bytes[..]).expect("restore");
    assert_eq!(n, 1, "one session in the fixture");
    let req = session
        .eval_request(sid, &[&[1.0, 2.0, 4.0]], &p)
        .expect("encrypt");
    restored.eval(req).expect("post-restore tick");
    let stats = restored.stats();
    assert_eq!(stats.plan_cache_misses, 0, "first tick must replan nothing");
    assert_eq!(stats.warm_plan_hits, 1, "first tick hits the restored plan");
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| FIXTURES_DIR.into());
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir).expect("fixtures dir");
    keyset_fixture(dir);
    plaintext_fixture(dir);
    plan_fixture(dir);
    snapshot_fixture(dir);
}
