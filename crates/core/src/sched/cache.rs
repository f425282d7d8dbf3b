//! Plan caching: structural graph keys and a bounded LRU of finished
//! [`ExecPlan`]s.
//!
//! Planning a steady-state graph from scratch every tick is pure waste:
//! the serve batcher records the *same* graph shape tick after tick (same
//! programs, same limb counts, same stream offsets), and `eval_scope`
//! bodies repeat across iterations of a training loop. The only thing
//! that changes between repetitions is buffer *identity* — fresh device
//! allocations get fresh [`BufferId`]s.
//!
//! A graph is therefore keyed by its **structure**: kernel kinds, recorded
//! streams, byte/op totals, barrier shapes and the *aliasing pattern* of
//! buffers (each buffer renamed to its first-occurrence index), plus the
//! planner configuration — one canonical word stream per graph. Two graphs
//! with equal streams have isomorphic dependency DAGs with equal costs, so
//! a cached plan is valid for both once its buffer references are read
//! through the first-occurrence correspondence.
//!
//! The stream is hashed two ways:
//!
//! * the **shape key**, one multiply per word, is what a lookup computes.
//!   It lives only in memory, keyed to its entry;
//! * the **fingerprint** ([`fingerprint`]), byte-serial FNV-1a, is the
//!   entry's persisted name — snapshots store it, and
//!   `fingerprint_is_stable_across_releases` pins its value.
//!
//! [`PlanCache::bind`] computes the fingerprint only on a miss and the first
//! time a restored entry's shape is seen; debug builds also recompute it on
//! every shape-key hit and assert it matches. Either hash colliding costs
//! timing fidelity on one plan, never ciphertext bits: functional math runs
//! at record time.
//!
//! Canonicalisation is one pass per buffer reference. The ids the device
//! pool handed out while the region recorded
//! ([`Capture::fresh_ids`](fides_gpu_sim::Capture)) — the region's own
//! temporaries, nearly every buffer it names — index a reused dense table;
//! only the few older buffers it reads (ciphertext inputs, keys) go through
//! a hash map.
//!
//! A hit copies nothing. The cache keeps each plan behind an [`Arc`], in
//! the buffer ids of the graph it was planned from, next to that graph's
//! binding, and hands both back as a [`BoundPlan`]; the executor translates
//! ids *while replaying* (see
//! [`GpuReplayExecutor`](super::GpuReplayExecutor)). Persisted entries are
//! the triple `(fingerprint, plan, binding)`, which is why a snapshot
//! restores warm onto a device whose allocations it has never seen.
//!
//! A **keyed region** skips even the walk. Its caller names it by a
//! [`RegionShape`] before it runs, and the cache maps that shape to the
//! entry its last recording resolved to, plus what each position of that
//! recording's binding was (a `Slot`): the region's k-th own allocation,
//! its j-th input buffer, or a constant. A hit reads the current binding
//! through those classes (`RunBinding`) and counts as a hit on its entry
//! ([`PlanCache::hit_region`]); no graph is walked.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use fides_gpu_sim::{BufferId, Event, OwnWork, PoolEffect, ReplayMemo};

use super::graph::{BufferIndex, ExecGraph};
use super::plan::{ExecPlan, PlanConfig, Planner};
use crate::context::OutputTemplate;

/// A consumer of a graph's canonical word stream.
trait WordSink {
    fn word(&mut self, w: u64);
}

/// FNV-1a, 64-bit, fed byte by byte: the persisted fingerprint. Tiny and
/// deterministic across processes and releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl WordSink for Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The in-memory shape key: one rotate-xor-multiply per word. Each step is
/// a bijection of the state for any fixed word, so two streams of equal
/// length that differ in one word never collide.
struct ShapeHash(u64);

impl WordSink for ShapeHash {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Reusable canonicalisation scratch: the buffer numbering of the last
/// walk, readable until the next walk starts, whose tables keep their
/// capacity from walk to walk.
#[derive(Default)]
struct Canon {
    index: BufferIndex,
}

impl Canon {
    /// Streams the canonical words of `graph` under `cfg` into `sink` and
    /// returns the first-occurrence buffer binding.
    fn walk(
        &mut self,
        graph: &ExecGraph,
        cfg: &PlanConfig,
        sink: &mut impl WordSink,
    ) -> &[BufferId] {
        sink.word(cfg.fuse_elementwise as u64);
        // The retired scheduler-version word: persisted plan caches were keyed
        // with a 1 here, and dropping it would turn their restores cold.
        sink.word(1);
        sink.word(cfg.num_streams as u64);
        sink.word(cfg.max_fuse as u64);
        // The fleet's device count: planning never reads it, but persisted
        // fingerprints carry it, so it stays a word of the key.
        sink.word(cfg.devices as u64);
        for w in cfg.cost.fingerprint_words() {
            sink.word(w);
        }

        let index = &mut self.index;
        index.begin(&graph.fresh_ids);
        for event in graph.log.iter() {
            match event {
                Event::Launch(launch) => {
                    sink.word(1);
                    sink.word(launch.stream as u64);
                    sink.word(launch.desc.kind.map_or(u64::MAX, |k| k as u64));
                    sink.word(launch.desc.int32_ops);
                    sink.word(launch.desc.access_efficiency.to_bits());
                    for list in [launch.reads, launch.writes] {
                        sink.word(list.len() as u64);
                        for &(buf, bytes) in list {
                            sink.word(u64::from(index.index(buf)));
                            sink.word(bytes);
                        }
                    }
                }
                Event::Fence { signals, waiters } => {
                    sink.word(2);
                    for list in [signals, waiters] {
                        sink.word(list.len() as u64);
                        for &s in list {
                            sink.word(u64::from(s));
                        }
                    }
                }
            }
        }
        index.ids()
    }
}

/// Computes the persisted structural fingerprint of `graph` under `cfg` and
/// the first-occurrence buffer binding the canonical renaming is relative
/// to — the `(fingerprint, binding)` half of a persisted cache entry.
pub fn fingerprint(graph: &ExecGraph, cfg: &PlanConfig) -> (u64, Vec<BufferId>) {
    let mut fnv = Fnv::new();
    let binding = Canon::default().walk(graph, cfg, &mut fnv).to_vec();
    (fnv.0, binding)
}

/// Plans every graph in `graphs` under `cfg`, fanning the planning passes
/// out over at most `workers` threads (`0` resolves the ambient rayon
/// worker count). Returns, in input order, each graph's plan paired with
/// the wall microseconds its own planning pass took.
///
/// This is the cache-miss fan-out behind [`PlanCache::bind`]: a batch
/// server's per-shard graphs are independent by construction, and
/// `Planner::plan` is a pure function of `(cfg, graph)`, so the plans are
/// byte-identical to the sequential ones at every worker count — only the
/// wall time changes.
pub fn plan_parallel(
    cfg: &PlanConfig,
    graphs: &[&ExecGraph],
    workers: usize,
) -> Vec<(ExecPlan, u64)> {
    let cfg = *cfg;
    rayon::map_bounded(workers, graphs.len(), move |i| {
        let t0 = Instant::now();
        let plan = Planner::new(cfg).plan(graphs[i]);
        (plan, t0.elapsed().as_micros() as u64)
    })
}

/// A plan paired with the two bindings that place it on the graph about to
/// replay: what [`PlanCache::bind`] returns per graph and
/// [`GpuReplayExecutor::execute_bound`](super::GpuReplayExecutor::execute_bound)
/// replays.
///
/// The plan is shared with the cache and stays in the buffer ids of the
/// graph it was planned from (`planned`); `current` is the first-occurrence
/// binding of the graph being replayed. Position `i` of one corresponds to
/// position `i` of the other.
#[derive(Clone, Debug)]
pub struct BoundPlan {
    /// Fingerprint of the cache entry the plan came from.
    fp: u64,
    plan: Arc<ExecPlan>,
    planned: Arc<[BufferId]>,
    current: Arc<Vec<BufferId>>,
    hit: bool,
    warm: bool,
    plan_us: u64,
}

impl BoundPlan {
    /// Fingerprint of the cache entry the plan came from.
    pub(crate) fn fp(&self) -> u64 {
        self.fp
    }

    /// The shared plan, in the ids of [`Self::planned_binding`].
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// First-occurrence binding of the graph the plan was planned from.
    pub fn planned_binding(&self) -> &[BufferId] {
        &self.planned
    }

    /// First-occurrence binding of the graph being replayed (equal to the
    /// planned one when the plan is fresh).
    pub fn current_binding(&self) -> &[BufferId] {
        &self.current
    }

    /// Whether the plan came out of the cache rather than a planning pass.
    pub fn is_hit(&self) -> bool {
        self.hit
    }

    /// Whether the plan is a hit on an entry a snapshot restore or a
    /// warmup pass pre-planned.
    pub fn is_warm_hit(&self) -> bool {
        self.hit && self.warm
    }

    /// Wall microseconds this plan's planning pass took (0 for a hit).
    pub fn plan_us(&self) -> u64 {
        self.plan_us
    }
}

struct CacheEntry {
    plan: Arc<ExecPlan>,
    binding: Arc<[BufferId]>,
    last_used: u64,
    /// Entered the cache pre-planned (snapshot restore or an explicit
    /// warmup pass) rather than from live traffic — lets the serving
    /// layer count warm-start hits separately.
    warm: bool,
    /// The shape key that resolves to this entry; `None` for a restored
    /// entry until its shape is first seen.
    shape: Option<u64>,
    /// What memoised replays of this plan recorded (see
    /// [`PlanCache::memo`]); empty for a plan only ever replayed plainly.
    memo: ReplayMemo,
}

/// What a keyed region's kernel schedule is a function of, as words: each
/// input's slots, scale bits and limb counts, the inputs' buffer-aliasing
/// pattern, then the issuing instance and phase. The planner
/// configuration is not in it: a cache is only ever bound under one.
pub(crate) type RegionShape = Vec<u64>;

/// What one position of a keyed region's binding is, across runs, packed
/// into a word: the top two bits are the class, the low 30 an index.
/// [`OWN`] `k` is the k-th id the region allocated itself; [`INPUT`] `j`
/// the j-th distinct buffer of its declared inputs; [`CONST`] `c` the c-th
/// lowest id of the buffers that outlive it (keys, diagonals,
/// permutations).
type Slot = u32;
const OWN: Slot = 0;
const INPUT: Slot = 1 << 30;
const CONST: Slot = 2 << 30;
const INDEX: Slot = INPUT - 1;

/// No binding position (an own id or input the recording never touched).
const NOWHERE: u32 = u32::MAX;

/// A keyed region's last recording: the entry it resolved to, its
/// binding as slot classes, and the work it did.
#[derive(Debug)]
pub(crate) struct KeyedRegion {
    /// What the recording did to the device pool.
    effect: PoolEffect,
    /// Its output's template, when the output is exactly what it kept.
    output: Option<OutputTemplate>,
    fp: u64,
    slots: Vec<Slot>,
    /// The constants' ids, ascending.
    consts: Vec<BufferId>,
    /// Binding position of each own ordinal, input and constant: the
    /// inverse of `slots`, so one buffer's position is a lookup.
    own_pos: Vec<u32>,
    input_pos: Vec<u32>,
    const_pos: Vec<u32>,
    /// Launches the recording made (before fusion).
    pub(crate) launches: u64,
}

impl KeyedRegion {
    /// Classifies each position of `bound`'s binding: an id of `own`, else
    /// of `inputs`, else a constant.
    fn new(
        bound: &BoundPlan,
        launches: u64,
        own: &OwnRuns<'_>,
        inputs: &[BufferId],
        effect: PoolEffect,
        output: Option<OutputTemplate>,
    ) -> Self {
        let binding = bound.current_binding();
        assert!(
            binding.len() <= INDEX as usize,
            "a keyed region past 2^30 buffers"
        );
        let mut by_id: Vec<(BufferId, usize)> = inputs.iter().copied().zip(0..).collect();
        by_id.sort_unstable();
        let mut slots = Vec::with_capacity(binding.len());
        let mut own_pos = vec![NOWHERE; own.len()];
        let mut input_pos = vec![NOWHERE; inputs.len()];
        let mut consts = Vec::new();
        for (p, &buf) in binding.iter().enumerate() {
            let p = p as u32;
            slots.push(if let Some(k) = own.ordinal(buf) {
                own_pos[k] = p;
                OWN | k as Slot
            } else if let Ok(i) = by_id.binary_search_by_key(&buf, |&(b, _)| b) {
                let j = by_id[i].1;
                input_pos[j] = p;
                INPUT | j as Slot
            } else {
                consts.push((buf, p));
                CONST
            });
        }
        consts.sort_unstable();
        for (c, &(_, p)) in consts.iter().enumerate() {
            slots[p as usize] |= c as Slot;
        }
        let (consts, const_pos) = consts.into_iter().unzip();
        Self {
            effect,
            output,
            fp: bound.fp,
            slots,
            consts,
            own_pos,
            input_pos,
            const_pos,
            launches,
        }
    }

    /// What the recording did to the device pool.
    pub(crate) fn effect(&self) -> &PoolEffect {
        &self.effect
    }

    /// The recording's output template, if it has one.
    pub(crate) fn output(&self) -> Option<&OutputTemplate> {
        self.output.as_ref()
    }
}

/// A region's own allocations: the id runs it was handed, ascending, and
/// how many own ids precede each run, so that the k-th own id and an id's
/// ordinal are binary searches over runs.
#[derive(Debug)]
pub(crate) struct OwnRuns<'a> {
    runs: &'a [Range<u64>],
    before: Vec<u64>,
}

impl<'a> OwnRuns<'a> {
    pub(crate) fn new(runs: &'a [Range<u64>]) -> Self {
        let mut total = 0;
        let before = runs
            .iter()
            .map(|run| {
                let at = total;
                total += run.end - run.start;
                at
            })
            .collect();
        Self { runs, before }
    }

    /// Number of own ids.
    fn len(&self) -> usize {
        self.runs.last().map_or(0, |run| {
            (self.before[self.before.len() - 1] + run.end - run.start) as usize
        })
    }

    /// The k-th own id.
    fn id(&self, k: usize) -> BufferId {
        let k = k as u64;
        let r = self.before.partition_point(|&b| b <= k) - 1;
        BufferId(self.runs[r].start + (k - self.before[r]))
    }

    /// `buf`'s ordinal among the own ids, if it is one.
    pub(crate) fn ordinal(&self, buf: BufferId) -> Option<usize> {
        let r = self.runs.partition_point(|run| run.end <= buf.0);
        let run = self.runs.get(r).filter(|run| run.contains(&buf.0))?;
        Some((self.before[r] + buf.0 - run.start) as usize)
    }

    /// Every own id, in order.
    fn ids(&self) -> Vec<BufferId> {
        self.runs
            .iter()
            .flat_map(|run| run.clone().map(BufferId))
            .collect()
    }
}

/// One run's binding of a keyed region, read through the region's slot
/// classes from the run's own allocation runs and inputs. A memoised replay
/// names and resolves only the few hundred lines the L2 holds, so it looks
/// positions up here instead of numbering the whole binding; a replay that
/// misses the memo materialises it ([`Self::to_vec`]).
#[derive(Debug)]
pub(crate) struct RunBinding<'a> {
    region: &'a KeyedRegion,
    own: OwnRuns<'a>,
    inputs: &'a [BufferId],
}

impl<'a> RunBinding<'a> {
    /// `region`'s binding on a run that allocated the id runs `own`
    /// (ascending) itself and declared `inputs`.
    pub(crate) fn new(
        region: &'a KeyedRegion,
        own: &'a [Range<u64>],
        inputs: &'a [BufferId],
    ) -> Self {
        Self {
            region,
            own: OwnRuns::new(own),
            inputs,
        }
    }

    /// The buffer at binding position `p`.
    pub(crate) fn get(&self, p: usize) -> BufferId {
        self.resolve(self.region.slots[p], |k| self.own.id(k))
    }

    /// The buffer `slot` names, with `own` giving the k-th own id.
    fn resolve(&self, slot: Slot, own: impl FnOnce(usize) -> BufferId) -> BufferId {
        let index = (slot & INDEX) as usize;
        match slot & !INDEX {
            OWN => own(index),
            INPUT => self.inputs[index],
            _ => self.region.consts[index],
        }
    }

    /// `buf`'s binding position, if the binding names it.
    pub(crate) fn position(&self, buf: BufferId) -> Option<u32> {
        let region = self.region;
        let p = if let Some(k) = self.own.ordinal(buf) {
            region.own_pos[k]
        } else if let Some(j) = self.inputs.iter().position(|&b| b == buf) {
            region.input_pos[j]
        } else {
            region.const_pos[region.consts.binary_search(&buf).ok()?]
        };
        (p != NOWHERE).then_some(p)
    }

    /// The whole binding, in position order.
    pub(crate) fn to_vec(&self) -> Vec<BufferId> {
        let own = self.own.ids();
        self.region
            .slots
            .iter()
            .map(|&slot| self.resolve(slot, |k| own[k]))
            .collect()
    }
}

/// A keyed region's entry, taken out under the cache lock so that the
/// region can run unlocked: its plan stays alive even if the entry is
/// evicted meanwhile.
#[derive(Debug)]
pub(crate) struct RegionHit {
    pub(crate) region: Arc<KeyedRegion>,
    plan: Arc<ExecPlan>,
    planned: Arc<[BufferId]>,
}

impl RegionHit {
    /// Fingerprint of the entry the region resolved to.
    pub(crate) fn fp(&self) -> u64 {
        self.region.fp
    }

    /// The entry's plan, in the ids of [`Self::planned`].
    pub(crate) fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// First-occurrence binding of the graph the plan was planned from.
    pub(crate) fn planned(&self) -> &[BufferId] {
        &self.planned
    }
}

/// A lookup that found no usable entry: everything [`PlanCache::bind`]
/// needs to insert the plan it is about to build.
struct Miss {
    shape: u64,
    fp: u64,
    binding: Arc<Vec<BufferId>>,
}

/// A bounded LRU of planned graphs, keyed by structural fingerprint and
/// reached through shape keys.
///
/// [`CkksContext`](crate::CkksContext) holds one for `eval_scope`-style
/// regions; the serve layer holds one per server for batch ticks. Both go
/// through [`PlanCache::bind`], the one lookup-or-plan path, which is
/// `&mut self` — owners wrap the cache in their own lock.
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<u64, CacheEntry>,
    /// Shape key → fingerprint of the entry it resolves to.
    shapes: HashMap<u64, u64>,
    /// Keyed region shape → its last recording; dropped with its entry.
    regions: HashMap<RegionShape, Arc<KeyedRegion>>,
    canon: Canon,
    /// The last lookup's current binding. Once its [`BoundPlan`] is
    /// dropped the allocation is free again, and the next lookup copies its
    /// binding into it instead of a new one.
    spare: Arc<Vec<BufferId>>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Wall microseconds spent in planning passes on behalf of this
    /// cache's misses.
    plan_us: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .field("shapes", &self.shapes.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// Default bound: enough for every distinct steady-state graph shape a
    /// serving mix realistically cycles through.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// Creates a cache bounded to `capacity` plans (≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            shapes: HashMap::new(),
            regions: HashMap::new(),
            canon: Canon::default(),
            spare: Arc::default(),
            clock: 0,
            hits: 0,
            misses: 0,
            plan_us: 0,
        }
    }

    /// Resident plan count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident plans a shape key already resolves to — all but the
    /// restored entries no lookup has reached yet.
    pub fn shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a planning pass.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative wall microseconds spent planning this cache's misses.
    pub fn plan_us(&self) -> u64 {
        self.plan_us
    }

    /// The one lookup path: returns, in input order, each graph's plan
    /// bound onto its buffers — the cached plan for a known shape, else a
    /// fresh one, which is cached.
    ///
    /// Every graph is looked up before any miss is planned; the misses'
    /// planning passes fan out over [`plan_parallel`] and are then
    /// inserted in input order. `warm` marks the inserted entries as
    /// pre-planned (a warmup pass) — see [`PlanCache::restore_entry`].
    pub fn bind(&mut self, cfg: &PlanConfig, graphs: &[&ExecGraph], warm: bool) -> Vec<BoundPlan> {
        let mut bound: Vec<Option<BoundPlan>> = Vec::with_capacity(graphs.len());
        let mut misses: Vec<(usize, Miss)> = Vec::new();
        for (i, graph) in graphs.iter().enumerate() {
            match self.lookup(graph, cfg) {
                Ok(hit) => bound.push(Some(hit)),
                Err(miss) => {
                    bound.push(None);
                    misses.push((i, miss));
                }
            }
        }
        if !misses.is_empty() {
            let miss_graphs: Vec<&ExecGraph> = misses.iter().map(|&(i, _)| graphs[i]).collect();
            let planned = plan_parallel(cfg, &miss_graphs, 0);
            for ((i, miss), (plan, us)) in misses.into_iter().zip(planned) {
                self.plan_us += us;
                let mut fresh = self.insert(miss.fp, Some(miss.shape), plan, miss.binding, warm);
                fresh.plan_us = us;
                bound[i] = Some(fresh);
            }
        }
        bound
            .into_iter()
            .map(|b| b.expect("every graph was looked up or planned"))
            .collect()
    }

    /// Resolves `graph` to a resident entry — by shape key, else (a
    /// restored entry's first sighting) by fingerprint — and binds it, or
    /// counts a miss.
    fn lookup(&mut self, graph: &ExecGraph, cfg: &PlanConfig) -> Result<BoundPlan, Miss> {
        self.clock += 1;
        let mut shape = ShapeHash(0);
        let len = self.canon.walk(graph, cfg, &mut shape).len();
        let shape = shape.0;
        let fnv = |canon: &mut Canon| {
            let mut fnv = Fnv::new();
            canon.walk(graph, cfg, &mut fnv);
            fnv.0
        };
        let fp = match self.shapes.get(&shape) {
            Some(&fp) => {
                if cfg!(debug_assertions) {
                    assert_eq!(fnv(&mut self.canon), fp, "shape key {shape:#x} collided");
                }
                fp
            }
            None => fnv(&mut self.canon),
        };
        match self.entries.get_mut(&fp) {
            Some(e) if e.binding.len() == len => {
                if e.shape != Some(shape) {
                    if let Some(old) = e.shape.replace(shape) {
                        self.shapes.remove(&old);
                    }
                    self.shapes.insert(shape, fp);
                }
                e.last_used = self.clock;
                let (plan, planned, warm) = (Arc::clone(&e.plan), Arc::clone(&e.binding), e.warm);
                self.hits += 1;
                Ok(BoundPlan {
                    fp,
                    plan,
                    planned,
                    current: self.take_binding(),
                    hit: true,
                    warm,
                    plan_us: 0,
                })
            }
            _ => {
                self.misses += 1;
                Err(Miss {
                    shape,
                    fp,
                    binding: self.take_binding(),
                })
            }
        }
    }

    /// The resident entry the keyed region `shape` last resolved to.
    pub(crate) fn region(&self, shape: &RegionShape) -> Option<RegionHit> {
        let region = self.regions.get(shape)?;
        let e = &self.entries[&region.fp];
        Some(RegionHit {
            region: Arc::clone(region),
            plan: Arc::clone(&e.plan),
            planned: Arc::clone(&e.binding),
        })
    }

    /// Records what the keyed region `shape` resolved to: `bound`, bound
    /// onto a recording that made `launches` launches, did `own` itself,
    /// declared `inputs` and produced an output of template `output`.
    pub(crate) fn register_region(
        &mut self,
        shape: RegionShape,
        bound: &BoundPlan,
        launches: u64,
        own: &OwnWork,
        inputs: &[BufferId],
        output: Option<OutputTemplate>,
    ) {
        if !self.entries.contains_key(&bound.fp) {
            return;
        }
        let runs = OwnRuns::new(&own.own_ids);
        let region = KeyedRegion::new(bound, launches, &runs, inputs, own.effect, output);
        self.regions.insert(shape, Arc::new(region));
    }

    /// Counts `hit` as a hit on its entry without walking a graph, and
    /// returns the entry's replay memo — `None` once the entry no longer
    /// holds `hit`'s plan.
    pub(crate) fn hit_region(&mut self, hit: &RegionHit) -> Option<&mut ReplayMemo> {
        self.clock += 1;
        self.hits += 1;
        let e = self.entries.get_mut(&hit.fp())?;
        e.last_used = self.clock;
        Arc::ptr_eq(&e.plan, &hit.plan).then_some(&mut e.memo)
    }

    /// The replay memo of `bound`'s entry, with the buffer numbering of the
    /// graph `bound` is bound to — `None` unless `bound` came from this
    /// cache's last lookup and its entry is still resident.
    ///
    /// The numbering is the last canonicalisation walk's, still readable:
    /// [`BufferIndex::position`] finds a buffer's position in
    /// [`BoundPlan::current_binding`] in one probe, which is how
    /// [`GpuReplayExecutor`](super::GpuReplayExecutor) names the L2 lines a
    /// memoised replay enters from. The memo lives and dies with the entry.
    pub(crate) fn memo(&mut self, bound: &BoundPlan) -> Option<(&mut ReplayMemo, &BufferIndex)> {
        if !Arc::ptr_eq(&self.spare, &bound.current) {
            return None;
        }
        let entry = self.entries.get_mut(&bound.fp)?;
        Arc::ptr_eq(&entry.plan, &bound.plan).then_some((&mut entry.memo, &self.canon.index))
    }

    /// A copy of the last walk's binding, in the spare allocation when no
    /// [`BoundPlan`] still holds it.
    fn take_binding(&mut self) -> Arc<Vec<BufferId>> {
        let mut spare = std::mem::take(&mut self.spare);
        match Arc::get_mut(&mut spare) {
            Some(binding) => {
                binding.clear();
                binding.extend_from_slice(self.canon.index.ids());
            }
            None => spare = Arc::new(self.canon.index.ids().to_vec()),
        }
        self.spare = Arc::clone(&spare);
        spare
    }

    /// Caches `plan` under `fp`, evicting the least-recently-used entry at
    /// capacity — preferring **non-warm** victims. Warm entries (snapshot
    /// restore, warmup pass) sit at the cold end of the LRU order the
    /// moment they land, because nothing has hit them yet; plain LRU
    /// would let a post-restore burst of transient new shapes wipe the
    /// entire warm set before evicting a single member of its own burst.
    /// Churn therefore evicts among itself first; a warm entry only
    /// leaves once every resident entry is warm (plain LRU then, so the
    /// cache can still turn over fully).
    ///
    /// Returns the plan bound to the graph it was just planned from, ready
    /// to replay (not a hit).
    fn insert(
        &mut self,
        fp: u64,
        shape: Option<u64>,
        plan: ExecPlan,
        binding: Arc<Vec<BufferId>>,
        warm: bool,
    ) -> BoundPlan {
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&fp) {
            // `last_used` values are unique (the clock ticks per call), so
            // the minimum is unambiguous regardless of map iteration order.
            let lru_of = |warm_only: bool| {
                self.entries
                    .iter()
                    .filter(|(_, e)| warm_only || !e.warm)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k)
            };
            if let Some(victim) = lru_of(false).or_else(|| lru_of(true)) {
                self.forget(victim);
            }
        }
        let plan = Arc::new(plan);
        let planned: Arc<[BufferId]> = Arc::from(&binding[..]);
        self.forget(fp);
        self.entries.insert(
            fp,
            CacheEntry {
                plan: Arc::clone(&plan),
                binding: Arc::clone(&planned),
                last_used: self.clock,
                warm,
                shape,
                memo: ReplayMemo::default(),
            },
        );
        if let Some(shape) = shape {
            self.shapes.insert(shape, fp);
        }
        BoundPlan {
            fp,
            plan,
            planned,
            current: binding,
            hit: false,
            warm,
            plan_us: 0,
        }
    }

    /// Drops `fp`'s entry and the shape key and keyed regions resolving
    /// to it.
    fn forget(&mut self, fp: u64) {
        let Some(entry) = self.entries.remove(&fp) else {
            return;
        };
        if let Some(shape) = entry.shape {
            self.shapes.remove(&shape);
        }
        self.regions.retain(|_, r| r.fp != fp);
    }

    /// Re-inserts a deserialized entry and marks it warm. Same LRU
    /// bookkeeping as a fresh plan; callers restore entries in
    /// least-recently-used-first order to reproduce eviction behavior.
    /// The warm mark is also eviction protection: restored entries land
    /// at the cold end of the LRU order (nothing has hit them yet), and
    /// insertion prefers non-warm victims, so a post-restore burst of new
    /// shapes churns among itself instead of silently undoing the restore.
    ///
    /// The entry has no shape key yet: the first lookup of its shape finds
    /// it by fingerprint and records the key.
    pub fn restore_entry(&mut self, fp: u64, plan: ExecPlan, binding: Vec<BufferId>) {
        self.insert(fp, None, plan, Arc::new(binding), true);
    }

    /// Every resident entry as `(fingerprint, plan, binding)`, least
    /// recently used first — the serialization order that lets a restore
    /// replay [`PlanCache::restore_entry`] calls and land in the same LRU
    /// state.
    pub fn export_entries(&self) -> Vec<(u64, Arc<ExecPlan>, Arc<[BufferId]>)> {
        let mut entries: Vec<(&u64, &CacheEntry)> = self.entries.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        entries
            .into_iter()
            .map(|(&fp, e)| (fp, Arc::clone(&e.plan), Arc::clone(&e.binding)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Planner;
    use fides_gpu_sim::{EventLog, KernelDesc, KernelKind};

    fn cfg() -> PlanConfig {
        PlanConfig {
            num_streams: 4,
            ..PlanConfig::default()
        }
    }

    fn graph(bufs: &[u64]) -> ExecGraph {
        let mut log = EventLog::default();
        for (i, &b) in bufs.iter().enumerate() {
            log.launch(
                i % 2,
                KernelDesc::new(KernelKind::Elementwise).ops(100),
                |d| {
                    d.read(BufferId(b), 4096).write(BufferId(b), 4096);
                },
            );
        }
        ExecGraph::from(log)
    }

    fn shape_key(graph: &ExecGraph, cfg: &PlanConfig) -> (u64, Vec<BufferId>) {
        let mut shape = ShapeHash(0);
        let binding = Canon::default().walk(graph, cfg, &mut shape).to_vec();
        (shape.0, binding)
    }

    fn bind1(cache: &mut PlanCache, cfg: &PlanConfig, graph: &ExecGraph) -> BoundPlan {
        cache.bind(cfg, &[graph], false).pop().expect("one plan")
    }

    /// Fingerprints of the resident entries, least recently used first.
    fn resident(cache: &PlanCache) -> Vec<u64> {
        cache.export_entries().iter().map(|e| e.0).collect()
    }

    #[test]
    fn identical_structure_same_fingerprint_despite_buffers() {
        let (fa, ba) = fingerprint(&graph(&[10, 11, 10]), &cfg());
        let (fb, bb) = fingerprint(&graph(&[77, 93, 77]), &cfg());
        assert_eq!(fa, fb, "buffer identity must not affect the fingerprint");
        assert_eq!(ba, vec![BufferId(10), BufferId(11)]);
        assert_eq!(bb, vec![BufferId(77), BufferId(93)]);
        let (sa, sba) = shape_key(&graph(&[10, 11, 10]), &cfg());
        let (sb, sbb) = shape_key(&graph(&[77, 93, 77]), &cfg());
        assert_eq!(sa, sb, "buffer identity must not affect the shape key");
        assert_ne!(sa, fa, "the shape key is its own hash");
        assert_eq!((sba, sbb), (ba, bb), "one canonicalisation, one binding");
    }

    #[test]
    fn a_dropped_binding_lends_its_allocation_to_the_next_lookup() {
        let mut cache = PlanCache::default();
        drop(bind1(&mut cache, &cfg(), &graph(&[1, 2, 1])));
        let first = bind1(&mut cache, &cfg(), &graph(&[3, 4, 3]));
        let at = first.current_binding().as_ptr();
        drop(first);
        let second = bind1(&mut cache, &cfg(), &graph(&[5, 6, 5]));
        assert!(second.is_hit());
        assert_eq!(second.current_binding(), [BufferId(5), BufferId(6)]);
        assert_eq!(second.current_binding().as_ptr(), at, "allocation reused");
        // Still held: the next lookup gets its own copy.
        let third = bind1(&mut cache, &cfg(), &graph(&[7, 8, 7]));
        assert_ne!(third.current_binding().as_ptr(), at);
        assert_eq!(second.current_binding(), [BufferId(5), BufferId(6)]);
        assert_eq!(third.current_binding(), [BufferId(7), BufferId(8)]);
    }

    #[test]
    fn fingerprint_is_stable_across_releases() {
        // Persisted plan caches (server snapshots, the golden v1 fixture)
        // are keyed by this value: changing what `fingerprint` hashes turns
        // every warm restore into a cold one.
        let mut log = EventLog::default();
        log.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(100), |d| {
            d.read(BufferId(5), 4096).write(BufferId(6), 4096);
        });
        log.fence([0], [1]);
        log.launch(1, KernelDesc::new(KernelKind::NttPhase1).ops(700), |d| {
            d.read(BufferId(6), 4096).write(BufferId(5), 4096);
        });
        let g = ExecGraph::from(log);
        let (fp, binding) = fingerprint(&g, &PlanConfig::default());
        assert_eq!(fp, 13_596_441_969_631_865_959, "pinned fingerprint");
        assert_eq!(binding, vec![BufferId(5), BufferId(6)]);
    }

    #[test]
    fn aliasing_pattern_affects_fingerprint() {
        // Same descriptors, different aliasing: [a, b, a] vs [a, b, b].
        let (fa, _) = fingerprint(&graph(&[1, 2, 1]), &cfg());
        let (fb, _) = fingerprint(&graph(&[1, 2, 2]), &cfg());
        assert_ne!(fa, fb, "aliasing changes the dependency DAG");
        let (sa, _) = shape_key(&graph(&[1, 2, 1]), &cfg());
        let (sb, _) = shape_key(&graph(&[1, 2, 2]), &cfg());
        assert_ne!(sa, sb, "aliasing changes the shape key too");
    }

    #[test]
    fn fresh_id_window_never_changes_the_key_or_binding() {
        // Ids 100..104 are fresh, 7 predates the region; windows covering
        // all, some, none or past the fresh ids must canonicalise alike,
        // through one reused scratch table whose numbering stays readable
        // until the next walk begins.
        let mut g = graph(&[100, 7, 101, 100, 103, 7, 102]);
        let expect = shape_key(&g, &cfg());
        let mut canon = Canon::default();
        for window in [100..104, 101..103, 0..0, 0..101, 103..200, 100..100] {
            g.fresh_ids = window.clone();
            let mut shape = ShapeHash(0);
            let binding = canon.walk(&g, &cfg(), &mut shape).to_vec();
            for (i, &buf) in binding.iter().enumerate() {
                assert_eq!(
                    canon.index.position(buf),
                    Some(i as u32),
                    "window {window:?}"
                );
            }
            assert_eq!(canon.index.position(BufferId(104)), None, "never named");
            assert_eq!((shape.0, binding), expect, "window {window:?}");
        }
        canon.index.clear();
        assert!(canon.index.is_clean(), "every walk's claims were forgotten");
    }

    #[test]
    fn config_affects_fingerprint() {
        let g = graph(&[1, 2]);
        let (fa, _) = fingerprint(&g, &cfg());
        let (fb, _) = fingerprint(
            &g,
            &PlanConfig {
                num_streams: 8,
                ..cfg()
            },
        );
        let (fc, _) = fingerprint(
            &g,
            &PlanConfig {
                fuse_elementwise: false,
                ..cfg()
            },
        );
        assert_ne!(fa, fb, "stream count is part of the key");
        assert_ne!(fa, fc, "fusion config is part of the key");
    }

    #[test]
    fn topology_affects_fingerprint() {
        use crate::sched::CostModel;
        use fides_gpu_sim::DeviceSpec;
        let g = graph(&[1, 2]);
        let (f1, _) = fingerprint(&g, &cfg());
        let (f2, _) = fingerprint(
            &g,
            &PlanConfig {
                devices: 2,
                ..cfg()
            },
        );
        assert_ne!(f1, f2, "device count is part of the key");
        let (f3, _) = fingerprint(
            &g,
            &PlanConfig {
                cost: CostModel::from_spec(&DeviceSpec::v100()),
                ..cfg()
            },
        );
        assert_ne!(f1, f3, "the device cost model is part of the key");
    }

    #[test]
    fn cache_invalidates_across_topologies_and_hits_within_one() {
        // The same graph planned at N=1 must miss when looked up for N=2,
        // and re-running at the same N must hit.
        let mut cache = PlanCache::new(4);
        let g = graph(&[10, 11, 10]);
        let n1 = cfg();
        let n2 = PlanConfig {
            devices: 2,
            ..cfg()
        };
        assert!(!bind1(&mut cache, &n1, &g).is_hit(), "cold N=1 miss");
        assert!(
            !bind1(&mut cache, &n2, &g).is_hit(),
            "N=2 must not reuse the N=1 plan"
        );
        assert!(bind1(&mut cache, &n1, &g).is_hit(), "re-run at N=1 hits");
        assert!(bind1(&mut cache, &n2, &g).is_hit(), "re-run at N=2 hits");
    }

    #[test]
    fn barrier_shape_affects_fingerprint() {
        let mk = |waiters: Vec<usize>| {
            let mut log = EventLog::default();
            log.fence([0], waiters);
            ExecGraph::from(log)
        };
        let (fa, _) = fingerprint(&mk(vec![1]), &cfg());
        let (fb, _) = fingerprint(&mk(vec![2]), &cfg());
        assert_ne!(fa, fb);
    }

    #[test]
    fn hit_rebinds_buffers_onto_current_graph() {
        use crate::sched::GpuReplayExecutor;
        use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};

        let mut cache = PlanCache::new(4);
        let fresh = bind1(&mut cache, &cfg(), &graph(&[10, 11, 10]));
        assert!(!fresh.is_hit());
        assert_eq!(fresh.planned_binding(), fresh.current_binding());

        let bound = bind1(&mut cache, &cfg(), &graph(&[77, 93, 77]));
        assert!(bound.is_hit());
        assert!(
            std::ptr::eq(bound.plan(), fresh.plan()),
            "a hit shares the cached plan instead of copying it"
        );
        assert_eq!(bound.planned_binding(), [BufferId(10), BufferId(11)]);
        assert_eq!(bound.current_binding(), [BufferId(77), BufferId(93)]);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        // Replaying the hit touches the *current* graph's buffers: 77 is
        // L2-resident afterwards, the id the plan was recorded under is not.
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        GpuReplayExecutor::new(&gpu).execute_bound(&bound);
        assert_eq!(
            gpu.stats().kernel_launches as usize,
            bound.plan().launch_count()
        );
        gpu.reset_stats();
        let probe = |b: u64| {
            gpu.launch(0, KernelDesc::new(KernelKind::Elementwise), |d| {
                d.read(BufferId(b), 4096);
            })
            .run(|| {})
        };
        probe(77);
        assert_eq!(gpu.stats().l2_hit_bytes, 4096, "reads rebound onto 77");
        probe(10);
        assert_eq!(gpu.stats().l2_hit_bytes, 4096, "stale id 10 never touched");
    }

    #[test]
    fn warm_restored_entries_survive_a_post_restore_burst() {
        // Restored entries are the oldest in LRU order, so plain LRU would
        // evict the whole warm set before any member of a new-shape burst.
        // Eviction must prefer non-warm victims instead.
        let mut cache = PlanCache::new(4);
        let warm_shapes = [graph(&[1]), graph(&[1, 2])];
        for g in &warm_shapes {
            let (fp, binding) = fingerprint(g, &cfg());
            cache.restore_entry(fp, Planner::new(cfg()).plan(g), binding);
        }
        // A burst of 4 brand-new shapes: more than the remaining space,
        // enough to wipe both warm entries under plain LRU.
        let burst = [
            graph(&[1, 2, 3]),
            graph(&[1, 2, 3, 4]),
            graph(&[1, 2, 3, 4, 5]),
            graph(&[1, 2, 3, 4, 5, 6]),
        ];
        for g in &burst {
            assert!(!bind1(&mut cache, &cfg(), g).is_hit());
        }
        assert_eq!(cache.len(), 4, "still bounded");
        // The burst churned among itself: its two oldest members are the
        // ones that left.
        let fp = |g: &ExecGraph| fingerprint(g, &cfg()).0;
        let mut survivors = resident(&cache);
        survivors.sort_unstable();
        let mut expect: Vec<u64> = warm_shapes.iter().chain(&burst[2..]).map(fp).collect();
        expect.sort_unstable();
        assert_eq!(survivors, expect, "warm entry evicted by a transient burst");
        for g in &warm_shapes {
            assert!(bind1(&mut cache, &cfg(), g).is_warm_hit());
            assert!(cache.entries[&fp(g)].warm, "warm mark survives the burst");
        }
    }

    #[test]
    fn all_warm_cache_still_turns_over_by_plain_lru() {
        let mut cache = PlanCache::new(2);
        let shapes = [graph(&[1]), graph(&[1, 2]), graph(&[1, 2, 3])];
        let fp = |g: &ExecGraph| fingerprint(g, &cfg()).0;
        for g in &shapes[..2] {
            let (fp, binding) = fingerprint(g, &cfg());
            cache.restore_entry(fp, Planner::new(cfg()).plan(g), binding);
        }
        bind1(&mut cache, &cfg(), &shapes[2]);
        assert_eq!(
            resident(&cache),
            [fp(&shapes[1]), fp(&shapes[2])],
            "with every entry warm, the oldest warm entry is the victim"
        );
    }

    #[test]
    fn plan_parallel_matches_sequential_at_every_worker_count() {
        let graphs = [
            graph(&[1, 2, 1]),
            graph(&[3, 4, 5, 3]),
            graph(&[6]),
            graph(&[7, 8, 9, 10, 7, 9]),
        ];
        let refs: Vec<&ExecGraph> = graphs.iter().collect();
        let seq: Vec<ExecPlan> = graphs.iter().map(|g| Planner::new(cfg()).plan(g)).collect();
        for workers in [0, 1, 2, 8] {
            let par = plan_parallel(&cfg(), &refs, workers);
            assert_eq!(par.len(), seq.len());
            for (i, ((plan, _us), expect)) in par.iter().zip(&seq).enumerate() {
                assert_eq!(
                    plan.launch_count(),
                    expect.launch_count(),
                    "graph {i}, workers={workers}"
                );
                assert_eq!(plan.stats(), expect.stats());
                assert_eq!(plan.mem(), expect.mem());
            }
        }
    }

    #[test]
    fn plan_us_ledger_accumulates() {
        let mut cache = PlanCache::new(4);
        assert_eq!(cache.plan_us(), 0);
        let bound = cache.bind(&cfg(), &[&graph(&[1, 2]), &graph(&[1, 2, 3])], false);
        assert_eq!(
            cache.plan_us(),
            bound.iter().map(BoundPlan::plan_us).sum::<u64>()
        );
        let before = cache.plan_us();
        let hit = bind1(&mut cache, &cfg(), &graph(&[5, 6]));
        assert!(hit.is_hit());
        assert_eq!(
            (hit.plan_us(), cache.plan_us()),
            (0, before),
            "hits plan nothing"
        );
    }

    #[test]
    fn miss_and_lru_eviction() {
        let mut cache = PlanCache::new(2);
        let shapes = [graph(&[1]), graph(&[1, 2]), graph(&[1, 2, 3])];
        for g in &shapes {
            assert!(!bind1(&mut cache, &cfg(), g).is_hit());
        }
        assert_eq!(cache.len(), 2, "bounded at capacity");
        assert_eq!(cache.shapes(), 2, "evicting an entry forgets its shape key");
        // The first shape was LRU and got evicted; the last two are hits.
        let fp = |g: &ExecGraph| fingerprint(g, &cfg()).0;
        assert_eq!(resident(&cache), [fp(&shapes[1]), fp(&shapes[2])]);
        for g in &shapes[1..] {
            assert!(bind1(&mut cache, &cfg(), g).is_hit());
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn one_bind_looks_up_every_graph_before_planning() {
        // Two graphs of one new shape in one call both miss (nothing is
        // inserted until every lookup is done) and share the key after.
        let mut cache = PlanCache::new(4);
        let bound = cache.bind(&cfg(), &[&graph(&[1, 2]), &graph(&[8, 9])], true);
        assert!(bound.iter().all(|b| !b.is_hit()));
        assert_eq!((cache.len(), cache.shapes(), cache.misses()), (1, 1, 2));
        let again = bind1(&mut cache, &cfg(), &graph(&[3, 4]));
        assert!(again.is_warm_hit(), "a warmup bind marks its entries warm");
    }

    #[test]
    fn a_keyed_region_rebinds_through_its_slot_classes() {
        // Own ids 100..103 and 110..112, inputs 51 and 50, constants 7, 3
        // and 9 (out of id order), in first-use order.
        let ids = |bufs: &[u64]| bufs.iter().map(|&b| BufferId(b)).collect::<Vec<_>>();
        let recorded = [101, 7, 50, 100, 3, 111, 51, 9, 110, 102];
        let mut cache = PlanCache::default();
        let bound = bind1(&mut cache, &cfg(), &graph(&recorded));
        let shape: RegionShape = vec![1];
        let own = OwnWork {
            own_ids: vec![100..103, 110..112],
            live_ids: 0,
            effect: PoolEffect {
                ids: 5,
                ..PoolEffect::default()
            },
        };
        cache.register_region(shape.clone(), &bound, 10, &own, &ids(&[51, 50]), None);
        let hit = cache.region(&shape).expect("registered");
        assert_eq!((hit.fp(), hit.region.effect().ids), (bound.fp(), 5));

        // A later run splits its five own ids differently.
        let runs = [200..202, 205..208];
        let inputs = ids(&[61, 60]);
        let binding = RunBinding::new(&hit.region, &runs, &inputs);
        let want = ids(&[201, 7, 60, 200, 3, 207, 61, 9, 206, 205]);
        assert_eq!(binding.to_vec(), want);
        for (p, &buf) in want.iter().enumerate() {
            assert_eq!(binding.get(p), buf);
            assert_eq!(binding.position(buf), Some(p as u32), "{buf:?}");
        }
        for absent in [101, 50, 8, 203, 208] {
            assert_eq!(binding.position(BufferId(absent)), None, "{absent}");
        }
    }
}
