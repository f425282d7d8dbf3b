//! The session server: request queue, batch scheduler, graph sharing.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use fides_client::persist::{
    kind, ParamsRecord, PlacementRecord, RecordReader, RecordWriter, ServerMetaRecord,
    SessionRecord, SessionRecordRef,
};
use fides_client::wire::{
    params_fingerprint, EvalRequest, EvalResponse, OpProgram, SessionRequest,
};
use fides_client::{Domain, RawCiphertext, RawParams, RawPoly};
use fides_core::backend::EvalBackend;
use fides_core::sched::{
    decode_plan_entry, plan_entry_len, write_plan_entry, BoundPlan, CostModel, ExecGraph,
    GpuReplayExecutor, PlanCache, PlanConfig,
};
use fides_core::{adapter, CkksContext, CkksParameters, GpuSimBackend};
use fides_gpu_sim::{
    Capture, DeviceSpec, ExecMode, GpuCluster, GpuSim, InterconnectSpec, SimStats,
};
use parking_lot::Mutex;

use crate::error::{check_params_hash, ServeError};
use crate::qos::{AdmissionQueue, QosPolicy};
use crate::registry::{SessionState, TenantTable};
use crate::router::ShardRouter;
use crate::stats::ServeStats;

/// Server configuration: the parameter chain every tenant must match, the
/// simulated device every shard runs, and the serving knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The CKKS parameter set (including `num_streams`, `num_devices` and
    /// the fusion toggles, which drive the batch scheduler).
    pub params: CkksParameters,
    /// Simulated device model of every shard.
    pub device: DeviceSpec,
    /// Functional (math runs) or cost-only execution.
    pub mode: ExecMode,
    /// Most requests one batch tick executes (≥ 1).
    pub batch_size: usize,
    /// Tenant-table capacity; opening past it evicts the LRU tenant.
    pub max_sessions: usize,
    /// Admission-queue capacity (≥ 1): requests past it are load-shed
    /// with [`ServeError::Overloaded`] instead of buffered without bound.
    pub admission_capacity: usize,
    /// How queued requests are released into batch ticks.
    pub qos: QosPolicy,
}

impl ServerConfig {
    /// A configuration with the serving defaults: simulated RTX 4090
    /// shards, functional execution, batch size 16, at most 64 resident
    /// sessions.
    pub fn new(params: CkksParameters) -> Self {
        Self {
            params,
            device: DeviceSpec::rtx_4090(),
            mode: ExecMode::Functional,
            batch_size: 16,
            max_sessions: 64,
            admission_capacity: 1024,
            qos: QosPolicy::default(),
        }
    }

    /// Most requests one batch tick executes.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Tenant-table capacity.
    pub fn max_sessions(mut self, sessions: usize) -> Self {
        self.max_sessions = sessions.max(1);
        self
    }

    /// Admission-queue capacity (load-shed threshold).
    pub fn admission_capacity(mut self, capacity: usize) -> Self {
        self.admission_capacity = capacity.max(1);
        self
    }

    /// Cross-tenant scheduling policy for the admission queue.
    pub fn qos(mut self, qos: QosPolicy) -> Self {
        self.qos = qos;
        self
    }
}

struct Slot {
    resp: Mutex<Option<EvalResponse>>,
}

/// A handle to a submitted request; redeem with [`Ticket::try_take`] after
/// a tick has run (or use [`Server::eval`] for the blocking path).
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// The response, once a batch tick has executed this request.
    pub fn try_take(&self) -> Option<EvalResponse> {
        self.slot.resp.lock().take()
    }
}

struct Pending {
    req: EvalRequest,
    slot: Arc<Slot>,
}

/// One device shard's planned replay work for a prepared tick: the plan
/// (shared with the plan cache) bound to this tick's buffers.
struct ShardExec {
    device: usize,
    bound: BoundPlan,
}

/// A tick that has finished its admission phase: requests drained and
/// resolved, functional math already run at record time, responses
/// computed, and every shard's graph planned (or fetched from the plan
/// cache). All that remains is the execution phase — replaying the
/// shard plans onto the simulated timeline — and the off-lock response
/// flush.
struct PreparedTick {
    resolved: Vec<(Pending, Option<Arc<SessionState>>)>,
    responses: Vec<EvalResponse>,
    shards: Vec<ShardExec>,
    /// Synthetic warmup batch: primes plans, never counts as served
    /// traffic and never fills tickets.
    synthetic: bool,
}

/// One tick's worth of request shapes for [`Server::warmup`]: ordered
/// `(session id, program, ciphertext slot count)` entries replayed as a
/// single synthetic batch, so the primed plan covers the same
/// cross-tenant graph merge a live tick of that mix would produce.
#[derive(Clone, Debug, Default)]
pub struct WarmupShape {
    /// `(session id, program, slots)` per batched request, in tick
    /// arrival order (the batch index drives stream round-robin, so
    /// order is part of the plan fingerprint).
    pub requests: Vec<(u64, OpProgram, usize)>,
}

struct ServerInner {
    /// One device context **per shard**; a tenant's key set attaches to
    /// the shard the router's hash ring homes it on. `contexts.len() == 1`
    /// is the classic single-device pipeline.
    contexts: Vec<Arc<CkksContext>>,
    /// The shards' devices plus the interconnect migrations pay for.
    cluster: Arc<GpuCluster>,
    router: ShardRouter,
    raw: RawParams,
    params_hash: u64,
    plan_cfg: PlanConfig,
    batch_size: usize,
    /// Every tenant's keys, home device and DRR weight, in one entry.
    /// Lock order: `tenants`, then `queue`.
    tenants: Mutex<TenantTable>,
    queue: Mutex<AdmissionQueue<Pending>>,
    /// Serializes ticks: queue draining (so DRR credits snapshot at tick
    /// boundaries), session resolution, graph capture, planning, replay
    /// onto the simulated devices, the served-request counters and
    /// migration decisions. Snapshot, restore and warmup take it too, so
    /// they always land between ticks.
    tick_lock: Mutex<()>,
    stats: Mutex<ServeStats>,
    /// Bounded LRU of planned batch graphs: steady-state ticks (same
    /// request mix, same programs) replay a cached plan with zero
    /// planning work.
    plan_cache: Mutex<PlanCache>,
}

/// A multi-tenant CKKS session server over one or more simulated devices.
///
/// Cloning is cheap — clones share the tenant table, queue and device, so a
/// clone per request thread is the intended usage.
///
/// See the [crate docs](crate) for the serving model and a quick-serve
/// example.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field(
                "params_hash",
                &format_args!("{:#018x}", self.inner.params_hash),
            )
            .field("batch_size", &self.inner.batch_size)
            .field("sessions", &self.inner.tenants.lock().len())
            .field("queued", &self.inner.queue.lock().len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Builds a server: one simulated device and shared context per shard,
    /// the cluster linking them, and the parameter fingerprint tenants must
    /// match.
    ///
    /// # Errors
    ///
    /// [`ServeError::Fides`] for invalid parameter sets.
    pub fn new(config: ServerConfig) -> Result<Self, ServeError> {
        let params = config.params;
        let raw = params.to_raw();
        let params_hash = params_fingerprint(&raw);
        let num_devices = params.num_devices.max(1);
        let plan_cfg = PlanConfig {
            fuse_elementwise: params.fusion.elementwise,
            num_streams: params.num_streams,
            devices: num_devices,
            cost: CostModel::from_spec(&config.device),
            ..PlanConfig::default()
        };
        let contexts: Vec<Arc<CkksContext>> = (0..num_devices)
            .map(|_| {
                let gpu = GpuSim::new(config.device.clone(), config.mode);
                CkksContext::from_raw(params.clone(), raw.clone(), gpu)
            })
            .collect();
        let cluster = GpuCluster::from_devices(
            contexts.iter().map(|c| Arc::clone(c.gpu())).collect(),
            InterconnectSpec::pcie_gen4(),
        );
        let stats = ServeStats {
            per_device_requests: vec![0; num_devices],
            per_device_launches: vec![0; num_devices],
            per_device_plan_us: vec![0; num_devices],
            ..ServeStats::default()
        };
        Ok(Self {
            inner: Arc::new(ServerInner {
                contexts,
                cluster,
                router: ShardRouter::new(num_devices),
                raw,
                params_hash,
                plan_cfg,
                batch_size: config.batch_size.max(1),
                tenants: Mutex::new(TenantTable::new(config.max_sessions)),
                queue: Mutex::new(AdmissionQueue::new(
                    config.qos,
                    config.admission_capacity.max(1),
                )),
                tick_lock: Mutex::new(()),
                stats: Mutex::new(stats),
                plan_cache: Mutex::new(PlanCache::default()),
            }),
        })
    }

    /// Number of device shards the server runs
    /// ([`CkksParameters::num_devices`]).
    pub fn num_devices(&self) -> usize {
        self.inner.contexts.len()
    }

    /// The fingerprint of the server's parameter chain (what
    /// [`SessionRequest::params_hash`] is checked against).
    pub fn params_hash(&self) -> u64 {
        self.inner.params_hash
    }

    /// The shared client/server parameter description.
    pub fn raw_params(&self) -> &RawParams {
        &self.inner.raw
    }

    /// Number of sessions currently resident in the tenant table.
    pub fn session_count(&self) -> usize {
        self.inner.tenants.lock().len()
    }

    /// Snapshot of the serving counters. Per-device occupancy is sampled
    /// here from each shard's simulator ledger.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.inner.stats.lock().clone();
        s.sessions_evicted = self.inner.tenants.lock().evicted();
        s.per_device_occupancy = self
            .inner
            .contexts
            .iter()
            .map(|c| c.gpu().stats().stream_occupancy())
            .collect();
        s
    }

    /// Simulated-device statistics of **device 0**; see
    /// [`Server::sim_stats_device`] for the other shards. Always `Some`:
    /// every server has a device 0.
    pub fn sim_stats(&self) -> Option<SimStats> {
        self.sim_stats_device(0)
    }

    /// Simulated-device statistics for shard `device` (`None` only out of
    /// range).
    pub fn sim_stats_device(&self, device: usize) -> Option<SimStats> {
        self.inner.contexts.get(device).map(|c| c.gpu().stats())
    }

    /// Simulated makespan in µs: the **fleet** makespan — max over device
    /// syncs and the interconnect's free clock — so multi-device
    /// throughput divides by the slowest shard, not the mean. Always
    /// `Some`.
    pub fn sync_us(&self) -> Option<f64> {
        Some(self.inner.cluster.sync_all())
    }

    /// Clears the simulated-device statistics ledgers (every shard and
    /// the link). Benchmarks call this after session setup so launch
    /// counts and stream occupancy measure the serving phase alone, not
    /// key loading.
    pub fn reset_sim_stats(&self) {
        self.inner.cluster.reset_stats();
    }

    /// Opens a session from a keygen upload: validates the tenant's
    /// parameter fingerprint, reserves the session id (which picks the
    /// tenant's home device), loads the evaluation keys into that shard's
    /// context, preloads the uploaded plaintexts into the
    /// evaluation-domain cache, and registers the tenant (evicting the LRU
    /// session when the table is full). Returns the session id the tenant
    /// puts on its evaluation requests. A failed open burns its id.
    ///
    /// # Errors
    ///
    /// [`ServeError::ParamsMismatch`] for a foreign chain,
    /// [`ServeError::Fides`] when key material fails to load.
    pub fn open_session(&self, req: SessionRequest) -> Result<u64, ServeError> {
        check_params_hash(self.inner.params_hash, req.params_hash)?;
        // The id is fixed before the keys load: it keys the consistent
        // hash, so keys load straight into the home shard's context.
        let id = self.inner.tenants.lock().reserve_id();
        let device = self.inner.router.home(id);
        let state = match self.build_session(device, req) {
            Ok(state) => state,
            Err(e) => {
                self.inner.tenants.lock().release(id);
                return Err(e);
            }
        };
        // A restore never commits a reserved id, so this lands.
        if !self.inner.tenants.lock().insert(id, state, 1) {
            return Err(ServeError::Snapshot(format!("session id {id} was taken")));
        }
        self.inner.stats.lock().sessions_opened += 1;
        Ok(id)
    }

    /// Builds a tenant's session state on a given device shard: loads the
    /// evaluation keys into that shard's context and preloads the uploaded
    /// plaintexts. Shared by [`Server::open_session`] (the hash ring
    /// chooses `device`), [`Server::restore`] (the snapshot names it) and
    /// migration (the cold shard).
    fn build_session(
        &self,
        device: usize,
        req: SessionRequest,
    ) -> Result<SessionState, ServeError> {
        let ctx = &self.inner.contexts[device];
        let keys = adapter::load_eval_keys(
            ctx,
            req.relin.as_ref(),
            &req.rotations,
            req.conjugation.as_ref(),
        )?;
        let backend: Box<dyn EvalBackend> = Box::new(GpuSimBackend::new(Arc::clone(ctx), keys));
        let plains = req
            .plaintexts
            .iter()
            .map(|pt| backend.load_plain(pt))
            .collect::<Result<_, _>>()?;
        Ok(SessionState {
            backend,
            plains,
            device,
            upload: req,
        })
    }

    /// [`Server::open_session`] over a serialized wire frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::Client`] for malformed frames, then as
    /// [`Server::open_session`].
    pub fn open_session_bytes(&self, frame: &[u8]) -> Result<u64, ServeError> {
        self.open_session(SessionRequest::from_bytes(frame)?)
    }

    /// Closes a session, freeing its keys, home and weight. Returns
    /// whether it was resident.
    pub fn close_session(&self, id: u64) -> bool {
        self.inner.tenants.lock().remove(id)
    }

    /// Enqueues a request without blocking; a later batch tick (from any
    /// thread) executes it. Redeem the ticket with [`Ticket::try_take`].
    ///
    /// Admission is **bounded**: when the queue is at
    /// [`ServerConfig::admission_capacity`] the request is load-shed
    /// immediately — never buffered without bound, never blocking the
    /// submitter.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] with `retry_after_ticks`, the server's
    /// estimate (`⌈queued / batch_size⌉`) of how many batch ticks must
    /// drain before a retry can be admitted.
    pub fn submit(&self, req: EvalRequest) -> Result<Ticket, ServeError> {
        let slot = Arc::new(Slot {
            resp: Mutex::new(None),
        });
        let session = req.session_id;
        let pending = Pending {
            req,
            slot: Arc::clone(&slot),
        };
        let shed_backlog = {
            let mut queue = self.inner.queue.lock();
            match queue.push(session, pending) {
                Ok(()) => None,
                Err(_) => Some(queue.len()),
            }
        };
        if let Some(queued) = shed_backlog {
            self.inner.stats.lock().shed += 1;
            let batch = self.inner.batch_size as u64;
            return Err(ServeError::Overloaded {
                retry_after_ticks: (queued as u64).div_ceil(batch),
            });
        }
        Ok(Ticket { slot })
    }

    /// Requests currently admitted but not yet served.
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Sets a resident session's weight for deficit-round-robin
    /// scheduling (default 1, clamped to ≥ 1; no-op under
    /// [`QosPolicy::Fifo`] or for a session that is not resident). A
    /// weight-`w` lane releases `w×` a weight-1 lane's requests per
    /// rotation round. The weight lives and dies with the session.
    pub fn set_session_weight(&self, session: u64, weight: u32) {
        self.inner.tenants.lock().set_weight(session, weight);
    }

    /// Serializes the server's durable state as a versioned persist
    /// stream: the parameter fingerprint, the tenant table (session ids,
    /// device homes, DRR weights, full key uploads) in LRU order, one
    /// placement record per resident session in id order, and every
    /// cached batch plan. The state is *collected* under the tick lock,
    /// so the snapshot is a consistent point between batch ticks — never
    /// mid-admission and never mid-replay — but everything collected is a
    /// shared handle or a value, so the lock is released before the first
    /// byte is written: a slow sink never stalls serving, and ticks that
    /// run during the write are not in the image.
    ///
    /// Each record is encoded once, from the table's own key material,
    /// straight into `w` with its CRC folded in the same pass (wrap a file
    /// in a `BufWriter`).
    ///
    /// Queued-but-unserved requests are deliberately *not* captured:
    /// clients hold their tickets and resubmit after a restart, exactly
    /// as they do after a load-shed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Client`] when the sink fails mid-write.
    pub fn snapshot<W: Write>(&self, w: W) -> Result<(), ServeError> {
        let (sessions, next_session_id, plans) = {
            let _tick = self.inner.tick_lock.lock();
            let (sessions, next_session_id) = {
                let tenants = self.inner.tenants.lock();
                (tenants.export(), tenants.next_id())
            };
            let plans = self.inner.plan_cache.lock().export_entries();
            (sessions, next_session_id, plans)
        };

        let mut writer = RecordWriter::new(w)?;
        writer.record(
            kind::PARAMS,
            &ParamsRecord {
                params_hash: self.inner.params_hash,
            }
            .encode(),
        )?;
        writer.record(
            kind::SERVER,
            &ServerMetaRecord {
                num_devices: self.num_devices() as u32,
                next_session_id,
                sessions: sessions.len() as u32,
                plans: plans.len() as u32,
            }
            .encode(),
        )?;
        for (id, state, weight) in &sessions {
            let rec = SessionRecordRef {
                id: *id,
                device: state.device as u32,
                weight: *weight,
                upload: state.upload.as_upload(),
            };
            writer.record_with(kind::SESSION, rec.encoded_len(), |out| rec.write_into(out))?;
        }
        // Format v1 carries each home twice: the session's `device` is the
        // one restore reads; the placement record is derived from it.
        let mut homes: Vec<_> = sessions.iter().map(|(id, state, _)| (*id, state)).collect();
        homes.sort_unstable_by_key(|&(id, _)| id);
        for (tenant, state) in homes {
            writer.record(
                kind::PLACEMENT,
                &PlacementRecord {
                    tenant,
                    device: state.device as u32,
                    key_bytes: state.key_bytes(),
                }
                .encode(),
            )?;
        }
        for (fp, plan, binding) in plans {
            writer.record_with(kind::PLAN, plan_entry_len(&plan, &binding), |out| {
                write_plan_entry(out, fp, &plan, &binding)
            })?;
        }
        writer.finish()?;
        Ok(())
    }

    /// Rebuilds durable state from a [`Server::snapshot`] stream onto
    /// this (typically freshly constructed, same-configuration) server:
    /// sessions are re-registered under their original ids and DRR
    /// weights with their keys re-loaded onto their snapshotted device
    /// homes, and cached plans land back in the plan cache marked warm —
    /// the first post-restore tick of a steady-state workload replays a
    /// cached plan with zero planning work. Returns the number of
    /// sessions restored.
    ///
    /// Restore is **atomic**: the whole stream is decoded and validated
    /// into staged state first, and nothing touches the tenant table or
    /// plan cache until every record has checked out — a truncated or
    /// corrupted snapshot leaves the server exactly as it was.
    ///
    /// # Errors
    ///
    /// [`ServeError::ParamsMismatch`] when the snapshot was taken on a
    /// different parameter chain; [`ServeError::Client`] for a
    /// truncated, corrupted, or version-mismatched stream (the typed
    /// persist errors pass through); [`ServeError::Snapshot`] for a
    /// structurally invalid snapshot — wrong record order, device count
    /// or index mismatch, duplicate session ids, or record counts that
    /// disagree with the stream's own metadata.
    pub fn restore<R: Read>(&self, r: R) -> Result<u64, ServeError> {
        let _tick = self.inner.tick_lock.lock();
        let mut reader = RecordReader::new(r)?;
        let params = match reader.read_record()? {
            Some(rec) if rec.kind == kind::PARAMS => ParamsRecord::decode(rec.payload)?,
            Some(rec) => {
                return Err(ServeError::Snapshot(format!(
                    "expected params record first, found kind {}",
                    rec.kind
                )))
            }
            None => return Err(ServeError::Snapshot("empty snapshot stream".into())),
        };
        check_params_hash(self.inner.params_hash, params.params_hash)?;
        let meta = match reader.read_record()? {
            Some(rec) if rec.kind == kind::SERVER => ServerMetaRecord::decode(rec.payload)?,
            Some(rec) => {
                return Err(ServeError::Snapshot(format!(
                    "expected server metadata second, found kind {}",
                    rec.kind
                )))
            }
            None => {
                return Err(ServeError::Snapshot(
                    "snapshot ends before server metadata".into(),
                ))
            }
        };
        if meta.num_devices as usize != self.num_devices() {
            return Err(ServeError::Snapshot(format!(
                "snapshot taken on {} device shards, this server runs {}",
                meta.num_devices,
                self.num_devices()
            )));
        }
        // Stage: decode and validate the whole stream without touching
        // live state. Session states are fully built here (keys loaded,
        // plaintexts preloaded) but owned by the stage — on any error
        // they simply drop and the server is untouched.
        let mut staged_sessions: Vec<(u64, u32, SessionState)> = Vec::new();
        let mut staged_plans = Vec::new();
        while let Some(rec) = reader.read_record()? {
            match rec.kind {
                kind::SESSION => {
                    let sess = SessionRecord::decode(rec.payload)?;
                    check_params_hash(self.inner.params_hash, sess.upload.params_hash)?;
                    let device = sess.device as usize;
                    if device >= self.num_devices() {
                        return Err(ServeError::Snapshot(format!(
                            "session {} homed on device {device}, server has {}",
                            sess.id,
                            self.num_devices()
                        )));
                    }
                    if staged_sessions.iter().any(|(id, _, _)| *id == sess.id) {
                        return Err(ServeError::Snapshot(format!(
                            "duplicate session id {}",
                            sess.id
                        )));
                    }
                    let state = self.build_session(device, sess.upload)?;
                    staged_sessions.push((sess.id, sess.weight, state));
                }
                kind::PLACEMENT => {
                    // Checked, then dropped: the session record's device is
                    // the tenant's one home, so a placement for a tenant
                    // that is not in the image leaves nothing behind.
                    let p = PlacementRecord::decode(rec.payload)?;
                    if p.device as usize >= self.num_devices() {
                        return Err(ServeError::Snapshot(format!(
                            "placement of tenant {} on device {}, server has {}",
                            p.tenant,
                            p.device,
                            self.num_devices()
                        )));
                    }
                }
                kind::PLAN => {
                    let (fp, plan, binding) = decode_plan_entry(rec.payload)?;
                    // The planner only issues streams below the configured
                    // count; replay sizes its per-stream tables by the ids
                    // it meets, so a larger one must not get that far.
                    let streams = self.inner.plan_cfg.num_streams;
                    let bound = plan.steps().stream_bound();
                    if bound > streams {
                        return Err(ServeError::Snapshot(format!(
                            "plan {fp:#x} names stream {}, this server plans onto {streams}",
                            bound - 1
                        )));
                    }
                    staged_plans.push((fp, plan, binding));
                }
                other => {
                    return Err(ServeError::Snapshot(format!(
                        "unexpected record kind {other} in server snapshot"
                    )))
                }
            }
        }
        let restored_sessions = staged_sessions.len() as u64;
        if restored_sessions != u64::from(meta.sessions)
            || staged_plans.len() as u64 != u64::from(meta.plans)
        {
            return Err(ServeError::Snapshot(format!(
                "snapshot metadata declares {} sessions and {} plans, stream carried \
                 {restored_sessions} and {}",
                meta.sessions,
                meta.plans,
                staged_plans.len()
            )));
        }
        // Commit: the stream checked out end to end; replay the staged
        // state in snapshot order. Ids are checked against residents and
        // in-flight opens under the commit's own guard, so every insert
        // lands and an open never finds its reserved id taken.
        {
            let mut tenants = self.inner.tenants.lock();
            if let Some((id, _, _)) = staged_sessions.iter().find(|(id, _, _)| tenants.taken(*id)) {
                return Err(ServeError::Snapshot(format!("duplicate session id {id}")));
            }
            for (id, weight, state) in staged_sessions {
                let landed = tenants.insert(id, state, weight);
                debug_assert!(landed, "staged ids are distinct and untaken");
            }
            tenants.ensure_next_id(meta.next_session_id);
        }
        for (fp, plan, binding) in staged_plans {
            self.inner
                .plan_cache
                .lock()
                .restore_entry(fp, plan, binding);
        }
        self.inner.stats.lock().restored_sessions += restored_sessions;
        Ok(restored_sessions)
    }

    /// Primes the plan cache by recording and planning synthetic batches:
    /// each [`WarmupShape`] is one tick's request mix, served with all-zero
    /// input ciphertexts at the chain top (kernels are data-oblivious, so
    /// the recorded graph — and therefore the plan fingerprint — is
    /// shape-identical to a live tick of the same mix). Primed entries are
    /// marked warm; a matching live tick hits the cache immediately and
    /// counts in [`ServeStats::warm_plan_hits`]. Returns the number of
    /// plans newly built.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a shape naming a session that is
    /// not resident; [`ServeError::Client`] for a program that fails
    /// validation; [`ServeError::Snapshot`] when a shape's synthetic batch
    /// fails to execute.
    pub fn warmup(&self, shapes: &[WarmupShape]) -> Result<usize, ServeError> {
        let _tick = self.inner.tick_lock.lock();
        let planned_before = self.inner.plan_cache.lock().misses();
        for shape in shapes {
            let resolved: Vec<(Pending, Option<Arc<SessionState>>)> = {
                let mut tenants = self.inner.tenants.lock();
                shape
                    .requests
                    .iter()
                    .map(|(session_id, program, slots)| {
                        let session = tenants
                            .touch(*session_id)
                            .ok_or(ServeError::UnknownSession(*session_id))?;
                        program.validate(session.plains.len())?;
                        let req = EvalRequest {
                            session_id: *session_id,
                            inputs: (0..program.inputs)
                                .map(|_| {
                                    Self::zero_ciphertext(
                                        &self.inner.raw,
                                        session.backend.as_ref(),
                                        *slots,
                                    )
                                })
                                .collect(),
                            program: program.clone(),
                        };
                        Ok((
                            Pending {
                                req,
                                slot: Arc::new(Slot {
                                    resp: Mutex::new(None),
                                }),
                            },
                            Some(session),
                        ))
                    })
                    .collect::<Result<_, ServeError>>()?
            };
            // Synthetic ticks ride the same two phases as live traffic
            // (the tick lock is held across the whole warmup): prepare
            // records and plans the batch, execute replays it so the
            // primed timeline matches a live tick's.
            let tick = self.prepare_resolved(resolved, true);
            self.execute_tick(&tick);
            if let Some(err) = tick.responses.into_iter().find_map(|r| r.error) {
                return Err(ServeError::Snapshot(format!("warmup shape failed: {err}")));
            }
        }
        let planned_after = self.inner.plan_cache.lock().misses();
        Ok((planned_after - planned_before) as usize)
    }

    /// A syntactically valid all-zero ciphertext at the chain top. The
    /// graph recorded while evaluating it is shape-identical to a live
    /// fresh-encryption request's, which is all a warmup needs.
    fn zero_ciphertext(raw: &RawParams, backend: &dyn EvalBackend, slots: usize) -> RawCiphertext {
        let level = backend.max_level();
        RawCiphertext {
            c0: RawPoly::zero(raw.n(), level + 1, Domain::Eval),
            c1: RawPoly::zero(raw.n(), level + 1, Domain::Eval),
            level,
            scale: backend.standard_scale(level),
            slots,
            noise_log2: 0.0,
        }
    }

    /// Runs one batch tick: drains up to `batch_size` queued requests,
    /// executes them as one merged graph per device shard, and fills their tickets. Returns how many requests the
    /// tick served.
    ///
    /// The tick runs as three phases: admission (drain + record + plan)
    /// and execution (replay) under the tick lock, then the response
    /// flush after the lock releases.
    pub fn run_tick(&self) -> usize {
        let tick = {
            let _tick = self.inner.tick_lock.lock();
            let Some(tick) = self.prepare_tick() else {
                return 0;
            };
            self.execute_tick(&tick);
            tick
        };
        self.flush_tick(tick)
    }

    /// Blocking evaluation: enqueues the request and drives batch ticks
    /// until its response is ready. Concurrent callers' requests batch into
    /// shared ticks — N threads blocked here produce multi-request graphs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when admission load-sheds the request
    /// (see [`Server::submit`]); the caller should retry after the hinted
    /// number of ticks.
    pub fn eval(&self, req: EvalRequest) -> Result<EvalResponse, ServeError> {
        let ticket = self.submit(req)?;
        Ok(self.drive(&ticket))
    }

    /// Drives batch ticks until an admitted ticket's response is ready.
    fn drive(&self, ticket: &Ticket) -> EvalResponse {
        loop {
            if let Some(resp) = ticket.try_take() {
                return resp;
            }
            if self.run_tick() == 0 {
                // Nothing left to drain, so our request is inside
                // another caller's in-flight tick: wait for that tick to
                // finish (its flush fills our slot just after the lock
                // releases), then re-check.
                drop(self.inner.tick_lock.lock());
                std::thread::yield_now();
            }
        }
    }

    /// [`Server::eval`] over serialized wire frames: parses an
    /// [`EvalRequest`], serves it, and returns the serialized
    /// [`EvalResponse`] (parse failures and load-sheds come back as
    /// failed responses, so this never panics on attacker-controlled
    /// bytes). The socket front (`NetServer`) reports the same
    /// conditions as typed `Reject` frames instead.
    pub fn eval_bytes(&self, frame: &[u8]) -> Vec<u8> {
        match EvalRequest::from_bytes(frame) {
            Ok(req) => match self.eval(req) {
                Ok(resp) => resp.to_bytes(),
                Err(e) => EvalResponse::failed(e.to_string()).to_bytes(),
            },
            Err(e) => EvalResponse::failed(format!("malformed request: {e}")).to_bytes(),
        }
    }

    /// Admission phase (caller holds `tick_lock`): drains up to
    /// `batch_size` queued requests — DRR lane credits snapshot at this
    /// tick boundary, weighted from the tenant table — resolves their
    /// sessions under the same table guard, and runs the record/plan
    /// pass. Returns `None` for an empty queue.
    fn prepare_tick(&self) -> Option<PreparedTick> {
        // Resolve sessions while popping (touching the LRU clock once per
        // request); the Arc keeps a session alive even if an open evicts
        // it mid-batch.
        let resolved: Vec<(Pending, Option<Arc<SessionState>>)> = {
            let mut tenants = self.inner.tenants.lock();
            let batch = self
                .inner
                .queue
                .lock()
                .pop_batch(self.inner.batch_size, |id| tenants.weight_of(id));
            batch
                .into_iter()
                .map(|p| {
                    let session = tenants.touch(p.req.session_id);
                    (p, session)
                })
                .collect()
        };
        if resolved.is_empty() {
            return None;
        }
        Some(self.prepare_resolved(resolved, false))
    }

    /// Runs a resolved batch's record/plan pass. Functional math runs
    /// here — kernels are recorded, not timed — so every response is final
    /// before the execution phase starts.
    fn prepare_resolved(
        &self,
        resolved: Vec<(Pending, Option<Arc<SessionState>>)>,
        synthetic: bool,
    ) -> PreparedTick {
        let (responses, shards) = self.capture_and_plan(&resolved, synthetic);
        PreparedTick {
            resolved,
            responses,
            shards,
            synthetic,
        }
    }

    /// Splits a resolved batch into per-device shards (each request goes
    /// to the device its session's keys live on), records every non-empty
    /// shard as its own merged graph — with a shard-local round-robin
    /// stream offset — on its own context, then plans the shards in one
    /// [`PlanCache::bind`]: cache lookups stay on the calling thread, and
    /// only misses fan out over the bounded rayon pool. `Planner::plan` is
    /// a pure function of `(config, graph)`, so the fan-out produces plans
    /// identical to sequential planning at every worker count.
    /// Single-device servers take this path too — with one shard it is
    /// exactly the classic batched tick.
    fn capture_and_plan(
        &self,
        batch: &[(Pending, Option<Arc<SessionState>>)],
        synthetic: bool,
    ) -> (Vec<EvalResponse>, Vec<ShardExec>) {
        let contexts = &self.inner.contexts;
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); contexts.len()];
        for (i, (_, session)) in batch.iter().enumerate() {
            shards[session.as_ref().map_or(0, |s| s.device)].push(i);
        }
        let mut responses: Vec<Option<EvalResponse>> = (0..batch.len()).map(|_| None).collect();
        struct ShardGraph {
            device: usize,
            graph: ExecGraph,
        }
        let mut graphs: Vec<ShardGraph> = Vec::new();
        for (device, shard) in shards.iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let gpu = contexts[device].gpu();
            let mut merged = Capture::default();
            for (pos, &i) in shard.iter().enumerate() {
                let (p, session) = &batch[i];
                let began = gpu.begin_capture();
                let resp = Self::serve_one(session.as_deref(), &p.req);
                if began {
                    let capture = gpu.end_capture();
                    // Each request's recorded streams shift by its batch
                    // index: the planner preserves program order per
                    // *recorded* stream, so this round-robin keeps
                    // concurrent tenants from chaining every request's
                    // first limb batch behind one another on stream 0.
                    merged.events.append_offset(&capture.events, pos);
                    // One device pool, regions in sequence: the shard's
                    // fresh ids run from the first region's to the last's.
                    if merged.fresh_ids.is_empty() {
                        merged.fresh_ids = capture.fresh_ids;
                    } else {
                        merged.fresh_ids.end = merged.fresh_ids.end.max(capture.fresh_ids.end);
                    }
                }
                responses[i] = Some(resp);
            }
            if !merged.events.is_empty() {
                graphs.push(ShardGraph {
                    device,
                    graph: ExecGraph::from_capture(merged),
                });
            }
        }

        // Plan the shard graphs. Steady-state ticks repeat the same graph
        // *shapes* with fresh buffers: the shape key finds the cached plan,
        // and binding it to this tick's buffers replaces planning entirely.
        // Misses fan out over the bounded rayon pool with the cache lock
        // held, which blocks no one: every other user of the cache
        // (snapshot, restore, warmup) holds the tick lock first.
        let plan_t0 = Instant::now();
        let refs: Vec<&ExecGraph> = graphs.iter().map(|sg| &sg.graph).collect();
        let bound = self
            .inner
            .plan_cache
            .lock()
            .bind(&self.inner.plan_cfg, &refs, synthetic);
        let plan_us = plan_t0.elapsed().as_micros() as u64;
        let execs: Vec<ShardExec> = graphs
            .iter()
            .zip(bound)
            .map(|(sg, bound)| ShardExec {
                device: sg.device,
                bound,
            })
            .collect();
        {
            let mut stats = self.inner.stats.lock();
            stats.plan_us += plan_us;
            for exec in &execs {
                let bound = &exec.bound;
                if bound.is_hit() {
                    stats.plan_cache_hits += 1;
                    stats.warm_plan_hits += u64::from(bound.is_warm_hit());
                } else {
                    stats.plan_cache_misses += 1;
                    stats.per_device_plan_us[exec.device] += bound.plan_us();
                }
                let planned = bound.plan().stats();
                stats.recorded_kernels += planned.recorded_kernels;
                stats.planned_launches += planned.planned_launches;
                stats.fused_kernels += planned.fused_kernels;
                stats.per_device_launches[exec.device] += planned.planned_launches;
            }
        }
        let responses = responses
            .into_iter()
            .map(|r| r.expect("every request landed in exactly one shard"))
            .collect();
        (responses, execs)
    }

    /// Execution phase (caller holds `tick_lock`): replays every shard's
    /// planned launches onto its simulated device and accounts the tick's
    /// served traffic (synthetic warmup batches prime plans and stay out
    /// of the counters). Replay only advances the simulated timeline —
    /// responses were finalized in the admission phase — so nothing here
    /// can change a frame.
    fn execute_tick(&self, tick: &PreparedTick) {
        let t0 = Instant::now();
        for shard in &tick.shards {
            GpuReplayExecutor::new(self.inner.contexts[shard.device].gpu())
                .execute_bound(&shard.bound);
        }
        let replay_us = t0.elapsed().as_micros() as u64;
        if tick.synthetic {
            return;
        }
        {
            let mut stats = self.inner.stats.lock();
            stats.requests += tick.resolved.len() as u64;
            stats.batches += 1;
            stats.max_batch = stats.max_batch.max(tick.resolved.len());
            stats.failed += tick.responses.iter().filter(|r| r.error.is_some()).count() as u64;
            stats.replay_us += replay_us;
            // A request without a session ran nowhere; it counts on
            // device 0.
            for (_, session) in &tick.resolved {
                stats.per_device_requests[session.as_ref().map_or(0, |s| s.device)] += 1;
            }
        }
        self.maybe_migrate(&tick.resolved);
    }

    /// Fills the tick's tickets — **off-lock**: the tick lock is
    /// released before any slot is written, so response delivery (and,
    /// behind the socket front, frame serialization) never extends a
    /// tick's critical section. Returns how many requests the tick
    /// served.
    fn flush_tick(&self, tick: PreparedTick) -> usize {
        let served = tick.resolved.len();
        if tick.synthetic {
            return served;
        }
        let t0 = Instant::now();
        for ((p, _), resp) in tick.resolved.into_iter().zip(tick.responses) {
            *p.slot.resp.lock() = Some(resp);
        }
        self.note_flush_us(t0.elapsed().as_micros() as u64);
        served
    }

    /// Adds to the off-lock flush ledger (`ServeStats::flush_us`); the
    /// socket front also reports its frame serialization + enqueue time
    /// here.
    pub(crate) fn note_flush_us(&self, us: u64) {
        self.inner.stats.lock().flush_us += us;
    }

    /// After a tick, feeds the hot-shard detector the per-device counts
    /// of requests served for resident sessions and — on a
    /// sustained-imbalance decision — re-homes the hot device's cheapest
    /// resident tenant on the cold device, pricing its key frame on the
    /// interconnect.
    fn maybe_migrate(&self, batch: &[(Pending, Option<Arc<SessionState>>)]) {
        let devices = self.num_devices();
        if devices < 2 {
            return;
        }
        let mut counts = vec![0u64; devices];
        for s in batch.iter().filter_map(|(_, session)| session.as_ref()) {
            counts[s.device] += 1;
        }
        let (tenant, from, to, moving) = {
            let mut tenants = self.inner.tenants.lock();
            let Some((from, to)) = tenants.streak.observe(&counts) else {
                return;
            };
            let Some((tenant, moving)) = tenants.cheapest_on(from) else {
                return;
            };
            (tenant, from, to, moving)
        };
        // Keys that fail to rebuild leave the tenant serving from its old
        // home; a tenant evicted while its keys were being rebuilt stays
        // evicted, and the rebuilt state drops.
        let Ok(moved) = self.build_session(to, moving.upload.clone()) else {
            return;
        };
        let key_bytes = moving.key_bytes();
        if !self.inner.tenants.lock().replace(tenant, moved) {
            return;
        }
        // The key frame crosses the link from the old home; the new
        // home's submission thread stalls until it lands.
        let cluster = &self.inner.cluster;
        let ready = cluster.device(from).host_clock();
        let done = cluster.transfer(key_bytes, ready);
        cluster.device(to).advance_host_to(done);
        let mut stats = self.inner.stats.lock();
        stats.migrations += 1;
        stats.migration_bytes += key_bytes;
    }

    /// Serves one request against its session (functional math runs here;
    /// the kernels are being recorded, not timed).
    fn serve_one(session: Option<&SessionState>, req: &EvalRequest) -> EvalResponse {
        let Some(session) = session else {
            return EvalResponse::failed(ServeError::UnknownSession(req.session_id).to_string());
        };
        let backend = session.backend.as_ref();
        let run = || -> Result<Vec<RawCiphertext>, fides_core::FidesError> {
            let inputs = req
                .inputs
                .iter()
                .map(|raw| backend.load(raw))
                .collect::<Result<Vec<_>, _>>()?;
            let outs = fides_core::exec_program(backend, inputs, &session.plains, &req.program)?;
            outs.iter().map(|ct| backend.store(ct)).collect()
        };
        match run() {
            Ok(outputs) => EvalResponse::ok(outputs),
            Err(e) => EvalResponse::failed(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{Event, KernelDesc, KernelKind};

    /// One launch on stream 1 and one fence, appended the way a tick merges
    /// a request's capture at batch index `offset`.
    fn merged_at(offset: usize) -> fides_gpu_sim::EventLog {
        let mut capture = fides_gpu_sim::EventLog::default();
        capture.launch(1, KernelDesc::new(KernelKind::Elementwise), |_| {});
        capture.fence([0, 1], [2]);
        let mut merged = fides_gpu_sim::EventLog::default();
        merged.append_offset(&capture, offset);
        merged
    }

    #[test]
    fn offset_shifts_launches_and_fences() {
        let out = merged_at(3);
        match out.get(0) {
            Event::Launch(l) => assert_eq!(l.stream, 4),
            _ => panic!("expected launch"),
        }
        match out.get(1) {
            Event::Fence { signals, waiters } => {
                assert_eq!(signals, &[3, 4]);
                assert_eq!(waiters, &[5]);
            }
            _ => panic!("expected fence"),
        }
    }

    #[test]
    fn zero_offset_is_identity() {
        let mut capture = fides_gpu_sim::EventLog::default();
        capture.launch(7, KernelDesc::new(KernelKind::Fill), |_| {});
        let mut out = fides_gpu_sim::EventLog::default();
        out.append_offset(&capture, 0);
        assert!(matches!(out.get(0), Event::Launch(l) if l.stream == 7));
    }

    /// A capacity-1 server at the smallest serving parameters.
    fn one_slot_server() -> Server {
        let params = CkksParameters::new(10, 3, 40, 3).unwrap();
        Server::new(ServerConfig::new(params).max_sessions(1)).unwrap()
    }

    fn session_request(seed: u64) -> SessionRequest {
        let engine = fides_api::CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .scale_bits(40)
            .seed(seed)
            .build()
            .unwrap();
        engine.session().session_request(&[]).unwrap()
    }

    fn weight_of(server: &Server, session: u64) -> u32 {
        server.inner.tenants.lock().weight_of(session)
    }

    #[test]
    fn eviction_on_open_forgets_the_victims_weight() {
        let server = one_slot_server();
        let a = server.open_session(session_request(1)).unwrap();
        server.set_session_weight(a, 3);
        assert_eq!(weight_of(&server, a), 3);
        let b = server.open_session(session_request(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(server.session_count(), 1, "opening b evicted a");
        assert_eq!(weight_of(&server, a), 1, "evicted tenant's weight leaked");
    }

    #[test]
    fn eviction_on_restore_forgets_the_victims_weight() {
        // The image holds one weighted tenant under id 2 (id 1 was
        // evicted before the snapshot), so it cannot collide with the
        // target's resident id 1.
        let source = one_slot_server();
        source.open_session(session_request(1)).unwrap();
        let b = source.open_session(session_request(2)).unwrap();
        source.set_session_weight(b, 2);
        let mut image = Vec::new();
        source.snapshot(&mut image).unwrap();

        let target = one_slot_server();
        let a = target.open_session(session_request(3)).unwrap();
        target.set_session_weight(a, 3);
        assert_ne!(a, b);
        assert_eq!(target.restore(image.as_slice()).unwrap(), 1);
        assert_eq!(target.session_count(), 1, "restoring b evicted a");
        assert_eq!(weight_of(&target, a), 1, "evicted tenant's weight leaked");
        assert_eq!(weight_of(&target, b), 2, "restored weight kept");
    }

    #[test]
    fn restore_refuses_the_id_of_an_open_still_loading_keys() {
        let source = one_slot_server();
        let id = source.open_session(session_request(1)).unwrap();
        let mut image = Vec::new();
        source.snapshot(&mut image).unwrap();

        // An open on the target has reserved the same id and is loading
        // its keys when the restore arrives.
        let target = one_slot_server();
        let reserved = target.inner.tenants.lock().reserve_id();
        assert_eq!(reserved, id);
        let err = target.restore(image.as_slice()).unwrap_err();
        assert!(
            matches!(&err, ServeError::Snapshot(m) if m.contains("duplicate session id")),
            "{err}"
        );
        assert_eq!(target.session_count(), 0, "restore committed nothing");
        // The open then lands its own tenant under its id.
        let state = target.build_session(0, session_request(2)).unwrap();
        let upload = state.upload.clone();
        assert!(target.inner.tenants.lock().insert(reserved, state, 1));
        let resident = target.inner.tenants.lock().touch(reserved).unwrap();
        assert!(resident.upload == upload, "the opener's own keys");
        // Once that id is resident the image still cannot displace it.
        assert!(target.restore(image.as_slice()).is_err());
        assert_eq!(target.session_count(), 1);
    }
}
