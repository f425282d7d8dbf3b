//! One tenant table: a tenant's keys, home device and DRR weight are
//! created, evicted and closed together, so nothing about an evicted
//! tenant outlives its entry — not in snapshots, not in migration
//! decisions — and a session's home is always the ring point of its own id.

use std::sync::{Arc, Barrier};

use fides_api::{CkksEngine, Session};
use fides_client::persist::{kind, PlacementRecord, RecordReader, RecordWriter, SessionRecord};
use fides_client::wire::{OpProgram, ProgramOp, SessionRequest};
use fides_core::CkksParameters;
use fides_serve::{Server, ServerConfig, ShardRouter};

fn params(devices: usize) -> CkksParameters {
    CkksParameters::new(10, 3, 40, 3)
        .unwrap()
        .with_num_devices(devices)
}

fn tenant(seed: u64) -> Session {
    CkksEngine::builder()
        .log_n(10)
        .levels(3)
        .scale_bits(40)
        .seed(seed)
        .build()
        .unwrap()
        .session()
}

/// A key upload carrying `plaintexts` preloaded operands: more operands,
/// a larger frame, a costlier migration.
fn upload(tenant: &Session, plaintexts: usize) -> SessionRequest {
    let values = [0.5, -0.25];
    let level = tenant.engine().max_level();
    let plains: Vec<(&[f64], usize)> = (0..plaintexts).map(|_| (&values[..], level)).collect();
    tenant.session_request(&plains).unwrap()
}

/// Every record of a snapshot image as `(kind, payload)`.
fn records(image: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut reader = RecordReader::new(image).unwrap();
    let mut out = Vec::new();
    while let Some(rec) = reader.read_record().unwrap() {
        out.push((rec.kind, rec.payload.to_vec()));
    }
    out
}

fn snapshot(server: &Server) -> Vec<u8> {
    let mut image = Vec::new();
    server.snapshot(&mut image).unwrap();
    image
}

/// `(session id, device)` of every session in a snapshot image.
fn session_homes(image: &[u8]) -> Vec<(u64, usize)> {
    records(image)
        .into_iter()
        .filter(|(k, _)| *k == kind::SESSION)
        .map(|(_, payload)| {
            let s = SessionRecord::decode(&payload).unwrap();
            (s.id, s.device as usize)
        })
        .collect()
}

fn placements(image: &[u8]) -> Vec<PlacementRecord> {
    records(image)
        .into_iter()
        .filter(|(k, _)| *k == kind::PLACEMENT)
        .map(|(_, payload)| PlacementRecord::decode(&payload).unwrap())
        .collect()
}

#[test]
fn concurrent_opens_get_distinct_ids_homed_at_their_own_ring_point() {
    let server = Server::new(ServerConfig::new(params(2))).unwrap();
    let start = Arc::new(Barrier::new(2));
    let opens: Vec<_> = (0..2u64)
        .map(|t| {
            let (server, start) = (server.clone(), Arc::clone(&start));
            let req = upload(&tenant(10 + t), 0);
            std::thread::spawn(move || {
                start.wait();
                server.open_session(req).unwrap()
            })
        })
        .collect();
    let mut ids: Vec<u64> = opens.into_iter().map(|h| h.join().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, [1, 2], "two opens, two distinct ids");

    let ring = ShardRouter::new(2);
    assert_ne!(ring.home(1), ring.home(2), "the ids' homes differ");
    let homes = session_homes(&snapshot(&server));
    assert_eq!(homes.len(), 2);
    for (id, device) in homes {
        assert_eq!(
            device,
            ring.home(id),
            "session {id} homed off its ring point"
        );
    }
}

#[test]
fn snapshot_size_does_not_grow_with_evict_reupload_cycles() {
    let server = Server::new(ServerConfig::new(params(1)).max_sessions(1)).unwrap();
    let (a, b) = (upload(&tenant(1), 0), upload(&tenant(2), 0));
    server.open_session(a.clone()).unwrap();
    let mut sizes = Vec::new();
    for cycle in 1..=10 {
        server.open_session(b.clone()).unwrap(); // evicts a
        let resident = server.open_session(a.clone()).unwrap(); // evicts b
        if [1, 3, 10].contains(&cycle) {
            let image = snapshot(&server);
            let homes = placements(&image);
            assert_eq!(homes.len(), 1, "cycle {cycle}: one placement per resident");
            assert_eq!(homes[0].tenant, resident);
            sizes.push(image.len());
        }
    }
    assert!(
        sizes.iter().all(|&s| s == sizes[0]),
        "snapshot bytes grew with re-uploads: {sizes:?}"
    );
}

#[test]
fn restore_drops_a_placement_for_an_absent_tenant() {
    let source = Server::new(ServerConfig::new(params(1))).unwrap();
    source.open_session(upload(&tenant(1), 0)).unwrap();
    let clean = snapshot(&source);

    // The same image with a placement for a tenant it holds no session
    // for, as an image written before evictions dropped placements reads.
    let mut w = RecordWriter::new(Vec::new()).unwrap();
    for (k, payload) in records(&clean) {
        w.record(k, &payload).unwrap();
        if k == kind::PLACEMENT {
            let ghost = PlacementRecord {
                tenant: 999,
                device: 0,
                key_bytes: 29,
            };
            w.record(kind::PLACEMENT, &ghost.encode()).unwrap();
        }
    }
    let ghosted = w.finish().unwrap();
    assert_eq!(placements(&ghosted).len(), 2);

    let target = Server::new(ServerConfig::new(params(1))).unwrap();
    assert_eq!(target.restore(&ghosted[..]).unwrap(), 1);
    let image = snapshot(&target);
    assert!(
        placements(&image).iter().all(|p| p.tenant != 999),
        "the absent tenant's placement survived a restore"
    );
    assert!(
        image == clean,
        "restore → snapshot differs from the clean image"
    );
}

#[test]
fn an_evicted_tenant_is_never_the_migration_victim() {
    let server = Server::new(ServerConfig::new(params(2)).max_sessions(3)).unwrap();
    let ring = ShardRouter::new(2);
    // Session 1 carries the smallest upload, so it is the cheapest tenant
    // to move off its home shard — until it is evicted.
    let tenants: Vec<Session> = (0..4).map(|t| tenant(20 + t)).collect();
    let cheap = server.open_session(upload(&tenants[0], 0)).unwrap();
    let hot = ring.home(cheap);
    let mut sids = vec![cheap];
    for t in &tenants[1..] {
        sids.push(server.open_session(upload(t, 2)).unwrap());
    }
    assert_eq!(
        server.session_count(),
        3,
        "the fourth open evicted the first"
    );
    let (busy, session) = sids[1..]
        .iter()
        .zip(&tenants[1..])
        .find(|(&sid, _)| ring.home(sid) == hot)
        .expect("a resident tenant shares the evicted tenant's home");

    // Four ticks that each serve two requests on the hot shard and none
    // on the other: sustained imbalance.
    let mut p = OpProgram::new(1);
    let sq = p.push(ProgramOp::Square { a: 0 });
    p.output(sq);
    let req = session.eval_request(*busy, &[&[0.5, -0.25]], &p).unwrap();
    for _ in 0..4 {
        let tickets = [
            server.submit(req.clone()).unwrap(),
            server.submit(req.clone()).unwrap(),
        ];
        assert_eq!(server.run_tick(), 2);
        for t in tickets {
            assert!(t.try_take().unwrap().error.is_none());
        }
    }
    assert_eq!(server.stats().migrations, 1, "the resident tenant moved");
    let homes = session_homes(&snapshot(&server));
    assert!(
        homes.contains(&(*busy, 1 - hot)),
        "migrated tenant {busy} is resident on the cold shard: {homes:?}"
    );
    let out = server.eval(req).unwrap();
    assert!(out.error.is_none(), "the migrated tenant still serves");
}
