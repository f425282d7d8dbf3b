//! Format v1 is frozen on the *write* side too: the committed golden
//! fixtures (written by earlier builds through the buffered record path)
//! must decode and re-encode **byte-identically** through the streaming
//! writer — typed payloads from borrowed state via
//! `RecordWriter::record_with`, CRC folded in-stream. The read-side lane
//! is `persist_fixtures.rs`.

use fides_client::persist::{
    kind, KeySetRecord, ParamsRecord, PlacementRecord, PlaintextRecord, RecordReader, RecordWriter,
    ServerMetaRecord, SessionRecord,
};
use fides_core::sched::{decode_plan_entry, plan_entry_len, write_plan_entry};
use fides_core::CkksParameters;
use fides_serve::{Server, ServerConfig};

fn fixture(name: &str) -> Vec<u8> {
    let path = format!(
        "{}/../baselines/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read(&path).unwrap_or_else(|e| panic!("read fixture {path}: {e}"))
}

/// Decodes every record to its typed form and writes it back out.
fn reencode(bytes: &[u8]) -> Vec<u8> {
    let mut r = RecordReader::new(bytes).expect("fixture header");
    let mut w = RecordWriter::new(Vec::new()).expect("stream header");
    while let Some(rec) = r.read_record().expect("fixture record") {
        match rec.kind {
            kind::PARAMS => {
                let p = ParamsRecord::decode(rec.payload).expect("params");
                w.record(rec.kind, &p.encode())
            }
            kind::SERVER => {
                let m = ServerMetaRecord::decode(rec.payload).expect("server meta");
                w.record(rec.kind, &m.encode())
            }
            kind::PLACEMENT => {
                let p = PlacementRecord::decode(rec.payload).expect("placement");
                w.record(rec.kind, &p.encode())
            }
            kind::PLAINTEXT => {
                let p = PlaintextRecord::decode(rec.payload).expect("plaintext");
                w.record(rec.kind, &p.encode())
            }
            kind::KEY_SET => {
                let keys = KeySetRecord::decode(rec.payload).expect("key set");
                w.record_with(rec.kind, keys.encoded_len(), |out| keys.write_into(out))
            }
            kind::SESSION => {
                let sess = SessionRecord::decode(rec.payload).expect("session");
                let sess = sess.borrowed();
                w.record_with(rec.kind, sess.encoded_len(), |out| sess.write_into(out))
            }
            kind::PLAN => {
                let (fp, plan, binding) = decode_plan_entry(rec.payload).expect("plan");
                w.record_with(rec.kind, plan_entry_len(&plan, &binding), |out| {
                    write_plan_entry(out, fp, &plan, &binding)
                })
            }
            other => panic!("unknown record kind {other}"),
        }
        .expect("re-encode");
    }
    w.finish().expect("terminator")
}

#[test]
fn golden_fixtures_reencode_byte_identically() {
    for name in [
        "keyset_v1.bin",
        "plaintext_v1.bin",
        "plan_v1.bin",
        "snapshot_v1.bin",
    ] {
        let golden = fixture(name);
        assert!(reencode(&golden) == golden, "{name} re-encoded differently");
    }
}

/// The server's own write path against bytes an earlier build wrote:
/// restoring the golden snapshot and snapshotting again is the identity.
#[test]
fn golden_snapshot_survives_a_restore_snapshot_round_trip() {
    let golden = fixture("snapshot_v1.bin");
    let params = CkksParameters::new(11, 2, 40, 3).expect("fixture params");
    let server = Server::new(ServerConfig::new(params)).expect("fixture server");
    server.restore(&golden[..]).expect("restore fixture");
    let mut image = Vec::new();
    server.snapshot(&mut image).expect("snapshot");
    assert!(
        image == golden,
        "restore → snapshot rewrote the golden image"
    );
}
