//! Plan caching: structural graph fingerprints and a bounded LRU of
//! finished [`ExecPlan`]s.
//!
//! Planning a steady-state graph from scratch every tick is pure waste:
//! the serve batcher records the *same* graph shape tick after tick (same
//! programs, same limb counts, same stream offsets), and `eval_scope`
//! bodies repeat across iterations of a training loop. The only thing
//! that changes between repetitions is buffer *identity* — fresh device
//! allocations get fresh [`BufferId`]s.
//!
//! The fingerprint therefore hashes the graph's **structure**: kernel
//! kinds, recorded streams, byte/op totals, barrier shapes and the
//! *aliasing pattern* of buffers (each buffer renamed to its
//! first-occurrence index), plus the planner configuration. Two graphs
//! with equal fingerprints have isomorphic dependency DAGs with equal
//! costs, so a cached plan is valid for both once its buffer references
//! are read through the first-occurrence correspondence.
//!
//! A hit copies nothing. The cache keeps each plan behind an [`Arc`], in
//! the buffer ids of the graph it was planned from, next to that graph's
//! binding; [`PlanCache::lookup`] hands both back as a [`BoundPlan`], and
//! the executor translates ids *while replaying* (one small
//! `old id → current id` table per region — see
//! [`GpuReplayExecutor`](super::GpuReplayExecutor)). Persisted entries are
//! the same triple `(fingerprint, plan, binding)`, which is why a snapshot
//! restores warm onto a device whose allocations it has never seen.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fides_gpu_sim::{BufferId, BufferMap};

use super::graph::{ExecGraph, GraphOp};
use super::plan::{ExecPlan, PlanConfig, Planner};

/// FNV-1a, 64-bit: tiny, deterministic across processes, and collision-
/// safe enough for a bounded cache (a collision costs timing fidelity on
/// one plan, never ciphertext bits — functional math runs at record time).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Computes the structural fingerprint of `graph` under `cfg` and the
/// first-occurrence buffer binding the canonical renaming is relative to.
///
/// The binding is what a [`BoundPlan`] carries to translate a cached plan's
/// buffer references onto the current graph's buffers.
pub fn fingerprint(graph: &ExecGraph, cfg: &PlanConfig) -> (u64, Vec<BufferId>) {
    let mut h = Fnv::new();
    h.u64(cfg.fuse_elementwise as u64);
    // The retired scheduler-version word: persisted plan caches were keyed
    // with a 1 here, and dropping it would turn their restores cold.
    h.u64(1);
    h.u64(cfg.num_streams as u64);
    h.u64(cfg.max_fuse as u64);
    // Topology is part of the key: a plan ranked under one device model or
    // partitioned for one device count must never replay on another.
    h.u64(cfg.devices as u64);
    for w in cfg.cost.fingerprint_words() {
        h.u64(w);
    }
    let mut canon: BufferMap<u64> = BufferMap::default();
    let mut binding: Vec<BufferId> = Vec::new();
    let mut canon_of = |buf: BufferId, canon: &mut BufferMap<u64>| -> u64 {
        *canon.entry(buf).or_insert_with(|| {
            binding.push(buf);
            binding.len() as u64 - 1
        })
    };
    for op in &graph.ops {
        match op {
            GraphOp::Kernel(node) => {
                h.u64(1);
                h.u64(node.stream as u64);
                h.u64(node.desc.kind.map_or(u64::MAX, |k| k as u64));
                h.u64(node.desc.int32_ops);
                h.u64(node.desc.access_efficiency.to_bits());
                h.u64(node.desc.reads.len() as u64);
                for &(buf, bytes) in &node.desc.reads {
                    h.u64(canon_of(buf, &mut canon));
                    h.u64(bytes);
                }
                h.u64(node.desc.writes.len() as u64);
                for &(buf, bytes) in &node.desc.writes {
                    h.u64(canon_of(buf, &mut canon));
                    h.u64(bytes);
                }
            }
            GraphOp::Barrier { signals, waiters } => {
                h.u64(2);
                h.u64(signals.len() as u64);
                for &s in signals {
                    h.u64(s as u64);
                }
                h.u64(waiters.len() as u64);
                for &w in waiters {
                    h.u64(w as u64);
                }
            }
        }
    }
    (h.0, binding)
}

/// Plans every graph in `graphs` under `cfg`, fanning the planning passes
/// out over at most `workers` threads (`0` resolves the ambient rayon
/// worker count). Returns, in input order, each graph's plan paired with
/// the wall microseconds its own planning pass took.
///
/// This is the cache-miss fan-out for batch servers whose per-shard
/// graphs are independent by construction: `Planner::plan` is a pure
/// function of `(cfg, graph)`, so the plans are byte-identical to the
/// sequential ones at every worker count — only the wall time changes.
/// Fingerprinting and cache bookkeeping stay on the calling thread; only
/// the planning passes themselves run in parallel.
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
/// replay: what [`PlanCache::lookup`] (a hit) and [`PlanCache::insert`] (a
/// fresh plan) hand to
/// [`GpuReplayExecutor::execute_bound`](super::GpuReplayExecutor::execute_bound).
///
/// The plan is shared with the cache and stays in the buffer ids of the
/// graph it was planned from (`planned`); `current` is the first-occurrence
/// binding of the graph being replayed. Position `i` of one corresponds to
/// position `i` of the other.
#[derive(Clone, Debug)]
pub struct BoundPlan {
    plan: Arc<ExecPlan>,
    planned: Arc<[BufferId]>,
    current: Arc<[BufferId]>,
    hit: bool,
}

impl BoundPlan {
    /// The shared plan, in the ids of [`Self::planned_binding`].
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// First-occurrence binding of the graph the plan was planned from.
    pub fn planned_binding(&self) -> &[BufferId] {
        &self.planned
    }

    /// First-occurrence binding of the graph being replayed (the same
    /// allocation as the planned one when the plan is fresh).
    pub fn current_binding(&self) -> &[BufferId] {
        &self.current
    }

    /// Whether the plan came out of the cache rather than a planning pass.
    pub fn is_hit(&self) -> bool {
        self.hit
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
}

/// A bounded LRU of planned graphs, keyed by structural fingerprint.
///
/// [`CkksContext`](crate::CkksContext) holds one for `eval_scope`-style
/// regions; the serve layer holds one per server for batch ticks. Lookups
/// and insertions are `&mut self` — owners wrap the cache in their own
/// lock.
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<u64, CacheEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Wall microseconds spent in planning passes on behalf of this
    /// cache's misses (owners report it via [`PlanCache::note_plan_us`]).
    plan_us: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
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

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a planning pass.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative wall microseconds the owner spent planning this cache's
    /// misses (see [`PlanCache::note_plan_us`]).
    pub fn plan_us(&self) -> u64 {
        self.plan_us
    }

    /// Accounts `us` wall microseconds of planning work into this cache's
    /// ledger. Owners call this with the per-plan timings
    /// [`plan_parallel`] measures (or their own), so "how much planning
    /// latency did the cache fail to absorb" is answerable per cache.
    pub fn note_plan_us(&mut self, us: u64) {
        self.plan_us += us;
    }

    /// Returns the cached plan for `fp` bound onto `binding`'s buffers, or
    /// `None` (counting a miss) when the shape has not been planned.
    pub fn lookup(&mut self, fp: u64, binding: &[BufferId]) -> Option<BoundPlan> {
        self.clock += 1;
        match self.entries.get_mut(&fp) {
            Some(e) if e.binding.len() == binding.len() => {
                e.last_used = self.clock;
                self.hits += 1;
                Some(BoundPlan {
                    plan: Arc::clone(&e.plan),
                    planned: Arc::clone(&e.binding),
                    current: binding.into(),
                    hit: true,
                })
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches `plan` for `fp`, evicting the least-recently-used entry at
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
    pub fn insert(&mut self, fp: u64, plan: ExecPlan, binding: Vec<BufferId>) -> BoundPlan {
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
                self.entries.remove(&victim);
            }
        }
        let plan = Arc::new(plan);
        let binding: Arc<[BufferId]> = binding.into();
        self.entries.insert(
            fp,
            CacheEntry {
                plan: Arc::clone(&plan),
                binding: Arc::clone(&binding),
                last_used: self.clock,
                warm: false,
            },
        );
        BoundPlan {
            plan,
            planned: Arc::clone(&binding),
            current: binding,
            hit: false,
        }
    }

    /// Re-inserts a deserialized entry and marks it warm. Same LRU
    /// bookkeeping as [`PlanCache::insert`]; callers restore entries in
    /// least-recently-used-first order to reproduce eviction behavior.
    /// The warm mark is also eviction protection: restored entries land
    /// at the cold end of the LRU order (nothing has hit them yet), and
    /// [`PlanCache::insert`] prefers non-warm victims, so a post-restore
    /// burst of new shapes churns among itself instead of silently
    /// undoing the restore.
    pub fn restore_entry(&mut self, fp: u64, plan: ExecPlan, binding: Vec<BufferId>) {
        self.insert(fp, plan, binding);
        self.mark_warm(fp);
    }

    /// Flags a resident fingerprint as pre-planned (warmup pass); no-op
    /// when absent.
    pub fn mark_warm(&mut self, fp: u64) {
        if let Some(e) = self.entries.get_mut(&fp) {
            e.warm = true;
        }
    }

    /// Whether `fp` is resident *and* was pre-planned by a restore or
    /// warmup rather than live traffic.
    pub fn is_warm(&self, fp: u64) -> bool {
        self.entries.get(&fp).is_some_and(|e| e.warm)
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
    use fides_gpu_sim::{GraphEvent, KernelDesc, KernelKind};

    fn cfg() -> PlanConfig {
        PlanConfig {
            num_streams: 4,
            ..PlanConfig::default()
        }
    }

    fn graph(bufs: &[u64]) -> ExecGraph {
        ExecGraph::from_events(
            bufs.iter()
                .enumerate()
                .map(|(i, &b)| GraphEvent::Launch {
                    stream: i % 2,
                    desc: KernelDesc::new(KernelKind::Elementwise)
                        .read(BufferId(b), 4096)
                        .write(BufferId(b), 4096)
                        .ops(100),
                })
                .collect(),
        )
    }

    #[test]
    fn identical_structure_same_fingerprint_despite_buffers() {
        let (fa, ba) = fingerprint(&graph(&[10, 11, 10]), &cfg());
        let (fb, bb) = fingerprint(&graph(&[77, 93, 77]), &cfg());
        assert_eq!(fa, fb, "buffer identity must not affect the fingerprint");
        assert_eq!(ba, vec![BufferId(10), BufferId(11)]);
        assert_eq!(bb, vec![BufferId(77), BufferId(93)]);
    }

    #[test]
    fn fingerprint_is_stable_across_releases() {
        // Persisted plan caches (server snapshots, the golden v1 fixture)
        // are keyed by this value: changing what `fingerprint` hashes turns
        // every warm restore into a cold one.
        let g = ExecGraph::from_events(vec![
            GraphEvent::Launch {
                stream: 0,
                desc: KernelDesc::new(KernelKind::Elementwise)
                    .read(BufferId(5), 4096)
                    .write(BufferId(6), 4096)
                    .ops(100),
            },
            GraphEvent::Fence {
                signals: vec![0],
                waiters: vec![1],
            },
            GraphEvent::Launch {
                stream: 1,
                desc: KernelDesc::new(KernelKind::NttPhase1)
                    .read(BufferId(6), 4096)
                    .write(BufferId(5), 4096)
                    .ops(700),
            },
        ]);
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
        // ISSUE 6 satellite: the same graph planned at N=1 must miss when
        // looked up for N=2, and re-running at the same N must hit.
        let mut cache = PlanCache::new(4);
        let g = graph(&[10, 11, 10]);
        let n1 = cfg();
        let n2 = PlanConfig {
            devices: 2,
            ..cfg()
        };

        let (fp1, b1) = fingerprint(&g, &n1);
        assert!(cache.lookup(fp1, &b1).is_none(), "cold N=1 miss");
        cache.insert(fp1, Planner::new(n1).plan(&g), b1.clone());

        let (fp2, b2) = fingerprint(&g, &n2);
        assert!(
            cache.lookup(fp2, &b2).is_none(),
            "N=2 must not reuse the N=1 plan"
        );
        cache.insert(fp2, Planner::new(n2).plan(&g), b2.clone());

        assert!(cache.lookup(fp1, &b1).is_some(), "re-run at N=1 hits");
        assert!(cache.lookup(fp2, &b2).is_some(), "re-run at N=2 hits");
    }

    #[test]
    fn barrier_shape_affects_fingerprint() {
        let mk = |waiters: Vec<usize>| {
            ExecGraph::from_events(vec![GraphEvent::Fence {
                signals: vec![0],
                waiters,
            }])
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
        let ga = graph(&[10, 11, 10]);
        let (fp, binding) = fingerprint(&ga, &cfg());
        let fresh = cache.insert(fp, Planner::new(cfg()).plan(&ga), binding);
        assert!(!fresh.is_hit());
        assert_eq!(fresh.planned_binding(), fresh.current_binding());

        let gb = graph(&[77, 93, 77]);
        let (fp_b, binding_b) = fingerprint(&gb, &cfg());
        assert_eq!(fp, fp_b);
        let bound = cache.lookup(fp_b, &binding_b).expect("cache hit");
        assert!(bound.is_hit());
        assert!(
            std::ptr::eq(bound.plan(), fresh.plan()),
            "a hit shares the cached plan instead of copying it"
        );
        assert_eq!(bound.planned_binding(), [BufferId(10), BufferId(11)]);
        assert_eq!(bound.current_binding(), [BufferId(77), BufferId(93)]);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);

        // Replaying the hit touches the *current* graph's buffers: 77 is
        // L2-resident afterwards, the id the plan was recorded under is not.
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        GpuReplayExecutor::new(&gpu).execute_bound(&bound);
        assert_eq!(
            gpu.stats().kernel_launches as usize,
            bound.plan().launch_count()
        );
        gpu.reset_stats();
        let probe = |b: u64| KernelDesc::new(KernelKind::Elementwise).read(BufferId(b), 4096);
        gpu.launch(0, probe(77), || {});
        assert_eq!(gpu.stats().l2_hit_bytes, 4096, "reads rebound onto 77");
        gpu.launch(0, probe(10), || {});
        assert_eq!(gpu.stats().l2_hit_bytes, 4096, "stale id 10 never touched");
    }

    #[test]
    fn warm_restored_entries_survive_a_post_restore_burst() {
        // ISSUE 10 satellite: restored entries are the oldest in LRU
        // order, so plain LRU would evict the whole warm set before any
        // member of a new-shape burst. Eviction must prefer non-warm
        // victims instead.
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
            let (fp, binding) = fingerprint(g, &cfg());
            cache.insert(fp, Planner::new(cfg()).plan(g), binding);
        }
        assert_eq!(cache.len(), 4, "still bounded");
        for g in &warm_shapes {
            let (fp, b) = fingerprint(g, &cfg());
            assert!(
                cache.lookup(fp, &b).is_some(),
                "warm entry evicted by a transient burst"
            );
            assert!(cache.is_warm(fp), "warm mark survives the burst");
        }
        // The burst churned among itself: its two oldest members are the
        // ones that left.
        let (fp_old, b_old) = fingerprint(&burst[0], &cfg());
        assert!(cache.lookup(fp_old, &b_old).is_none());
        let (fp_new, b_new) = fingerprint(&burst[3], &cfg());
        assert!(cache.lookup(fp_new, &b_new).is_some());
    }

    #[test]
    fn all_warm_cache_still_turns_over_by_plain_lru() {
        let mut cache = PlanCache::new(2);
        let shapes = [graph(&[1]), graph(&[1, 2]), graph(&[1, 2, 3])];
        for g in &shapes[..2] {
            let (fp, binding) = fingerprint(g, &cfg());
            cache.restore_entry(fp, Planner::new(cfg()).plan(g), binding);
        }
        let (fp2, b2) = fingerprint(&shapes[2], &cfg());
        cache.insert(fp2, Planner::new(cfg()).plan(&shapes[2]), b2.clone());
        assert_eq!(cache.len(), 2);
        let (fp0, b0) = fingerprint(&shapes[0], &cfg());
        assert!(
            cache.lookup(fp0, &b0).is_none(),
            "with every entry warm, the oldest warm entry is the victim"
        );
        assert!(cache.lookup(fp2, &b2).is_some());
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
        cache.note_plan_us(120);
        cache.note_plan_us(30);
        assert_eq!(cache.plan_us(), 150);
    }

    #[test]
    fn miss_and_lru_eviction() {
        let mut cache = PlanCache::new(2);
        let shapes = [graph(&[1]), graph(&[1, 2]), graph(&[1, 2, 3])];
        for g in &shapes {
            let (fp, binding) = fingerprint(g, &cfg());
            assert!(cache.lookup(fp, &binding).is_none());
            let plan = Planner::new(cfg()).plan(g);
            cache.insert(fp, plan, binding);
        }
        assert_eq!(cache.len(), 2, "bounded at capacity");
        // The first shape was LRU and got evicted; the last two are hits.
        let (fp0, b0) = fingerprint(&shapes[0], &cfg());
        assert!(cache.lookup(fp0, &b0).is_none());
        for g in &shapes[1..] {
            let (fp, b) = fingerprint(g, &cfg());
            assert!(cache.lookup(fp, &b).is_some());
        }
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 2);
    }
}
