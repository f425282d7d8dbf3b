//! The stream-graph execution engine: lazy kernel graphs, a fusion/stream
//! planning pass, and the replay executor.
//!
//! # Layering (paper Fig. 2 / §III-F)
//!
//! A raw `RNSPoly` method fires its kernels eagerly: one
//! [`GpuSim::launch`](fides_gpu_sim::GpuSim::launch) per limb batch, timed on
//! the spot. The paper's performance story, however, is about what happens
//! *between* kernels — launch overhead amortized by limb batching (§III-F.1),
//! elementwise chains collapsed into single launches (§III-F.5), and batches
//! spread round-robin over streams so the device never drains. Those are
//! scheduling decisions, so this module makes the schedule a first-class
//! value:
//!
//! ```text
//!   engine (api)          Ciphertext ops (ops/*, poly.rs)
//!        │                        │   record, don't time
//!        ▼                        ▼
//!   [`ExecGraph`]   — the capture's flat event log: launches + fences
//!        │  planning pass ([`Planner`])
//!        ▼
//!   [`ExecPlan`]    — fused launches, streams reassigned
//!        │  replay ([`GpuReplayExecutor`])
//!        ▼
//!   multi-stream timeline (gpu-sim backend)
//!   (the CPU reference backend executes limb batches on a worker pool
//!    instead — see [`cpu_ref`](crate::cpu_ref))
//! ```
//!
//! **Recording.** Ops run inside
//! [`CkksContext::scheduled`](crate::CkksContext::scheduled), which opens a
//! capture region on the
//! simulated device: each would-be launch is appended to the capture's
//! [`EventLog`](fides_gpu_sim::EventLog) — a header (stream, kind, int32
//! ops, access efficiency) plus its `(BufferId, bytes)` reads and writes in
//! one shared arena, so recording allocates nothing per launch; each
//! `sync_batch_streams` appends a fence, splitting the graph into
//! segments at the cross-limb sync points (rescale's SwitchModulus handoff,
//! base conversion in key switching). The graph, the plan's steps, the
//! replay input and the persisted `PLAN` payload are all that one log
//! type. Functional math still runs eagerly —
//! CKKS server kernels are data-oblivious, so the *results* never depend on
//! the schedule, only the timing does.
//!
//! **Planning.** [`Planner`] derives a dependency DAG from the recording —
//! per-recorded-stream program order, plus precise buffer-conflict edges
//! across barrier segments — and critical-path list-schedules it onto the
//! configured stream count
//! ([`CkksParameters::num_streams`](crate::CkksParameters)), so
//! independent work (other tenants' requests, independent limb chains)
//! genuinely overlaps; see `dag.rs`'s docs for the pipeline. The pass
//! applies the `elementwise` fusion knob
//! ([`FusionConfig::elementwise`](crate::FusionConfig)): consecutive
//! same-stream elementwise-class launches (elementwise arithmetic, fills,
//! modulus switches, automorphism pre-permutes) within a segment fuse into
//! single launches — the graph-level generalization of the paper's
//! §III-F.5 kernel fusions — and independent chains that land adjacently
//! on one final stream merge as well. Fused launches keep the exact byte
//! and op totals of their constituents; only the per-launch overheads
//! (`kernel_launch_us`, the minimum-kernel floor) amortize, which is
//! precisely the effect the paper measures.
//!
//! Planning never hashes a buffer id per table: its first stage interns
//! each of the graph's buffers once into a dense `u32` index (ids inside
//! the capture's fresh-id window by subtraction, the rest through one
//! [`BufferMap`](fides_gpu_sim::BufferMap)), so the conflict state, the
//! dependency edges and the liveness pass's tables are all `Vec`s or flat
//! CSR arrays, and the finished steps are translated back to the graph's
//! ids in one pass.
//!
//! **Reordering invariant.** The plan preserves: (1) *per-recorded-stream
//! program order* — two launches recorded on the same stream replay in
//! recorded order, always; and (2) *barrier ordering over shared buffers* —
//! if a recorded fence separates two accesses to the same buffer (e.g. two
//! writes, or rescale's cross-limb write→read handoff), the plan orders
//! them, by stream serialization or by an emitted fence. What the planner **may** reorder is exactly the
//! rest: launches on *different* recorded streams with no fence-separated
//! buffer conflict were concurrent in the recording (limb batches touch
//! disjoint slices of one poly buffer), and the scheduler exploits that
//! freedom. Results never depend on any of this: functional math runs at
//! record time and only timing replays
//! (`dag::fence_between_writes_to_same_buffer_is_never_reordered` pins the
//! barrier half of the invariant).
//!
//! **Plan caching.** Planning itself disappears in steady state: a
//! structural key (descriptors, streams, barrier shapes and the buffer
//! *aliasing pattern* — not buffer identities — plus the plan config)
//! indexes a bounded-LRU [`PlanCache`] in
//! [`CkksContext`](crate::CkksContext) and the serve layer's `Server`.
//! Repeated `eval_scope` bodies and steady-state serve ticks hit the
//! cache; changing the graph shape, `FusionConfig`, or stream count
//! misses. A lookup hashes the key into an in-memory shape key; each
//! entry's persisted name is its FNV [`fingerprint`], computed only on a
//! miss or a restored entry's first hit. A hit costs one pass over the
//! graph and one over the cached plan, and copies none of it: the cache
//! keeps each [`ExecPlan`] behind an `Arc`, in the buffer ids of the graph
//! it was planned from, and hands it out as a [`BoundPlan`] — the shared
//! plan plus that graph's first-occurrence binding and the current
//! graph's. Both owners run the same two steps per region:
//! [`PlanCache::bind`] (lookup, or plan and insert) →
//! [`GpuReplayExecutor::execute_bound`]. Hit/miss counters surface in
//! [`SchedStats`], [`SimStats`](fides_gpu_sim::SimStats) and the serve
//! layer's `ServeStats`. When several *independent* graphs miss at once
//! (the serve layer's per-device batch shards), `bind` fans the planning
//! passes out over a bounded rayon pool ([`plan_parallel`]) —
//! `Planner::plan` is a pure function of `(config, graph)`, so the plans
//! are identical to the sequential ones at every worker count, and each
//! pass's wall microseconds land in the cache's planning-latency ledger
//! ([`PlanCache::plan_us`]).
//!
//! **Memory planning.** A liveness pass (`mem.rs`) colors buffer lifetimes
//! onto reusable pool slots (best-fit, stream-ordered-allocator style) and
//! records the pooled high-water mark and allocation count on the plan
//! ([`ExecPlan::mem`]) and the device ledger
//! ([`SimStats::peak_device_bytes`](fides_gpu_sim::SimStats)), making
//! device-memory footprint a gated metric alongside launches and
//! simulated time.
//!
//! **Execution.** The stock executor, [`GpuReplayExecutor`], drives the
//! multi-stream gpu-sim timeline. It refills the device's one
//! [`Rebinding`](fides_gpu_sim::Rebinding) per region — every
//! plan-created temporary to the slot-canonical id of its liveness slot,
//! every other buffer of a cached plan to the current graph's buffer at the
//! same binding position, the temporaries through a dense table — and
//! passes the plan's steps, borrowed, to
//! [`GpuSim::replay_rebound`](fides_gpu_sim::GpuSim::replay_rebound), which
//! translates ids on the way into the L2 model under a single acquisition
//! of the device lock. Nothing is allocated per launch, and the tables a
//! warm region needs — the translation, the plan cache's canonicalisation
//! scratch and current binding, the capture log
//! ([`GpuSim::recycle_capture_log`](fides_gpu_sim::GpuSim::recycle_capture_log))
//! — keep their capacity from region to region, so host time per replayed
//! launch is the ledger arithmetic itself. Per-stream occupancy is tracked
//! by the simulator
//! ([`SimStats::stream_occupancy`](fides_gpu_sim::SimStats::stream_occupancy))
//! and fences are applied only at the recorded cross-limb sync points.
//! Replay refuses (panics) to run inside the calling thread's own open
//! capture region, where it would re-record the plan instead of timing it.
//! [`GpuReplayExecutor::execute`] is the unbound form — a plan replayed in
//! its own ids.
//!
//! # Knobs
//!
//! * stream count — `CkksParameters::with_num_streams` /
//!   `CkksEngineBuilder::num_streams`;
//! * graph fusion on/off — `FusionConfig::elementwise` (driven by the
//!   `ablate_fusion` benchmark).

pub(crate) mod cache;
mod dag;
mod exec;
mod graph;
mod mem;
mod persist;
mod plan;
mod topo;

pub use cache::{fingerprint, plan_parallel, BoundPlan, PlanCache};
pub use exec::GpuReplayExecutor;
pub use graph::ExecGraph;
pub use mem::MemPlan;
pub use persist::{decode_plan_entry, encode_plan_entry, plan_entry_len, write_plan_entry};
pub use plan::{ExecPlan, PlanConfig, Planner, SchedStats};
pub use topo::CostModel;
