//! The persist-format compatibility lane: the golden v1 fixtures
//! committed under `crates/baselines/fixtures/` must decode — typed,
//! payload and all — on every CI run, and any corruption of the
//! committed bytes must surface as a typed error, never a panic or
//! garbage state.
//!
//! The fixtures were produced by `cargo run --release -p fides-bench --bin
//! persist_fixtures`; regenerate them only on a deliberate `FORMAT_VERSION`
//! bump. If this suite fails after a codec change, the change broke
//! format v1 on disk and would orphan every existing snapshot.

use fides_client::persist::{
    kind, KeySetRecord, ParamsRecord, PlacementRecord, PlaintextRecord, RecordReader,
    ServerMetaRecord, SessionRecord,
};
use fides_client::wire::{OpProgram, ProgramOp};
use fides_client::ClientError;
use fides_core::sched::decode_plan_entry;
use fides_core::CkksParameters;
use fides_serve::{ServeError, Server, ServerConfig};

fn fixture(name: &str) -> Vec<u8> {
    let path = format!(
        "{}/../baselines/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read(&path).unwrap_or_else(|e| panic!("read fixture {path}: {e}"))
}

/// Fully decodes a persist stream: stream framing (magic, version,
/// length, CRC) *and* every record's typed payload codec. Returns the
/// decoded record kinds in order.
fn decode_typed(bytes: &[u8]) -> Result<Vec<u8>, ClientError> {
    let mut r = RecordReader::new(bytes)?;
    let mut kinds = Vec::new();
    while let Some(rec) = r.next_record()? {
        match rec.kind {
            kind::PARAMS => {
                ParamsRecord::decode(&rec.payload)?;
            }
            kind::KEY_SET => {
                KeySetRecord::decode(&rec.payload)?;
            }
            kind::PLAINTEXT => {
                PlaintextRecord::decode(&rec.payload)?;
            }
            kind::SESSION => {
                SessionRecord::decode(&rec.payload)?;
            }
            kind::PLACEMENT => {
                PlacementRecord::decode(&rec.payload)?;
            }
            kind::PLAN => {
                decode_plan_entry(&rec.payload)?;
            }
            kind::SERVER => {
                ServerMetaRecord::decode(&rec.payload)?;
            }
            other => {
                return Err(ClientError::Serialization(format!(
                    "unknown record kind {other}"
                )))
            }
        }
        kinds.push(rec.kind);
    }
    assert!(r.finished(), "stream must end with an END record");
    Ok(kinds)
}

const FIXTURES: &[&str] = &[
    "keyset_v1.bin",
    "plaintext_v1.bin",
    "plan_v1.bin",
    "snapshot_v1.bin",
];

#[test]
fn committed_fixtures_decode_typed() {
    let kinds = decode_typed(&fixture("keyset_v1.bin")).expect("keyset fixture");
    assert_eq!(kinds, vec![kind::PARAMS, kind::KEY_SET]);

    let kinds = decode_typed(&fixture("plaintext_v1.bin")).expect("plaintext fixture");
    assert_eq!(kinds, vec![kind::PARAMS, kind::PLAINTEXT]);

    let kinds = decode_typed(&fixture("plan_v1.bin")).expect("plan fixture");
    assert_eq!(kinds, vec![kind::PLAN]);

    let kinds = decode_typed(&fixture("snapshot_v1.bin")).expect("snapshot fixture");
    assert_eq!(kinds[0], kind::PARAMS, "params header leads the snapshot");
    assert_eq!(kinds[1], kind::SERVER, "server meta follows params");
    assert!(kinds.contains(&kind::SESSION), "snapshot holds a session");
    assert!(kinds.contains(&kind::PLAN), "snapshot holds the hot plan");
}

/// Every single-bit flip of a committed fixture must fail decode with a
/// typed error — the CRC covers kind and payload, the header checks
/// magic and version, and length corruption either trips the bounds
/// check or desynchronizes the CRC. Sampled stride keeps the sweep fast;
/// the committed bytes are fixed, so the sweep is fully deterministic.
#[test]
fn bit_flips_always_error_never_panic() {
    for name in FIXTURES {
        let clean = fixture(name);
        let bits = clean.len() * 8;
        // At most ~2048 flips per fixture, never coarser than one flip
        // per 97 bits on the small ones.
        let stride = (bits / 2048).max(97);
        for bit in (0..bits).step_by(stride) {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_typed(&bad).is_err(),
                "{name}: flipping bit {bit} decoded cleanly"
            );
        }
    }
}

/// Every proper prefix of a fixture must fail decode (truncation is an
/// error, not a silent partial restore).
#[test]
fn truncations_always_error_never_panic() {
    for name in FIXTURES {
        let clean = fixture(name);
        let step = (clean.len() / 512).max(1);
        for cut in (0..clean.len()).step_by(step) {
            assert!(
                decode_typed(&clean[..cut]).is_err(),
                "{name}: truncation to {cut} bytes decoded cleanly"
            );
        }
        // The boundary case one byte short of complete.
        assert!(decode_typed(&clean[..clean.len() - 1]).is_err());
    }
}

#[test]
fn foreign_version_is_a_typed_error() {
    let mut bad = fixture("keyset_v1.bin");
    // Clobber the 4-byte version field after the magic; whatever the
    // byte order, 0xAAAAAAAA is not a supported version.
    bad[4..8].copy_from_slice(&[0xAA; 4]);
    match RecordReader::new(&bad[..]).err() {
        Some(ClientError::UnsupportedFormat { .. }) => {}
        other => panic!("expected UnsupportedFormat, got {other:?}"),
    }
}

/// The server configuration `snapshot_v1.bin` was taken on. The restore
/// contract: a same-config server restores the fixture and serves the
/// same workload shape warm on its very first tick.
fn snapshot_server() -> Server {
    let params = CkksParameters::new(11, 2, 40, 3).expect("fixture params");
    Server::new(ServerConfig::new(params)).expect("fixture server")
}

#[test]
fn snapshot_fixture_restores_warm_into_same_config_server() {
    let bytes = fixture("snapshot_v1.bin");
    let server = snapshot_server();
    let n = server.restore(&bytes[..]).expect("restore fixture");
    assert_eq!(n, 1, "the fixture holds one session");
    assert_eq!(server.stats().restored_sessions, 1);

    // The fixture tenant: engine seed 902 at the fixture chain —
    // deterministic keygen reproduces the exact session the snapshot
    // captured, so fresh requests decrypt against the restored state.
    let engine = fides_api::CkksEngine::builder()
        .log_n(11)
        .levels(2)
        .scale_bits(40)
        .seed(902)
        .build()
        .expect("fixture engine");
    let session = engine.session();
    let mut p = OpProgram::new(1);
    let m = p.push(ProgramOp::MulPlain { a: 0, plain: 0 });
    let s = p.push(ProgramOp::AddScalar { a: m, c: 0.25 });
    p.output(s);
    let req = session
        .eval_request(1, &[&[1.0, 2.0, 4.0]], &p)
        .expect("encrypt");
    let resp = server.eval(req).expect("post-restore tick");
    assert!(resp.error.is_none(), "tick failed: {:?}", resp.error);
    let out = session.decrypt_response(&resp, &[3]).expect("decrypt");
    // x * 0.5 + 0.25 over the preloaded [0.5, 0.5, 0.5] plaintext.
    for (x, got) in [1.0f64, 2.0, 4.0].iter().zip(&out[0]) {
        assert!(
            (x * 0.5 + 0.25 - got).abs() < 1e-3,
            "restored session decrypts wrong: {x} -> {got}"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.plan_cache_misses, 0, "first tick must replan nothing");
    assert_eq!(stats.warm_plan_hits, 1, "first tick hits the restored plan");
}

#[test]
fn snapshot_fixture_rejects_mismatched_server() {
    let bytes = fixture("snapshot_v1.bin");
    // A different parameter chain: typed mismatch, nothing restored.
    let params = CkksParameters::new(11, 3, 40, 3).expect("params");
    let server = Server::new(ServerConfig::new(params)).expect("server");
    match server.restore(&bytes[..]) {
        Err(ServeError::ParamsMismatch { .. }) => {}
        other => panic!("expected ParamsMismatch, got {other:?}"),
    }
    assert_eq!(server.session_count(), 0, "nothing restored on mismatch");
}
