//! A plan-cache hit must be indistinguishable, on the device, from planning
//! the graph from scratch.
//!
//! A hit replays the *shared* cached plan — still in the buffer ids of the
//! graph it was planned from — through one translation table
//! (`old id → slot-canonical id | current id`). A miss replays a fresh plan
//! in its own ids. These tests run the same sequence of structurally equal
//! graphs down both paths on two fresh devices and require every ledger
//! field and the simulated clock to agree to the bit.
//!
//! The context goes one step further: its regions replay through a memo
//! that skips the L2 model when a plan enters an L2 state it has seen
//! before. Its device must stay bit-identical to a twin that replays the
//! same bound plans plainly.

mod common;

use std::cell::RefCell;
use std::sync::Arc;

use fides_client::ClientContext;
use fides_core::sched::{
    fingerprint, BoundPlan, ExecGraph, GpuReplayExecutor, PlanCache, PlanConfig, Planner,
};
use fides_core::{
    adapter, boot, BackendCt, BootstrapConfig, Bootstrapper, Ciphertext, CkksContext,
    CkksParameters, EvalBackend, GpuSimBackend,
};
use fides_gpu_sim::{
    BufferId, Capture, DeviceSpec, Event, EventLog, ExecMode, GpuSim, KernelDesc, KernelKind,
    SimStats,
};

/// Buffers of one generation of the graph: two caller-owned ciphertext
/// limbs and a key (external: first touch is a read) and three temporaries
/// the graph creates (first touch is a write — the liveness pass binds
/// them to pool slots).
#[derive(Clone, Copy)]
struct Ids {
    x: u64,
    y: u64,
    key: u64,
    t0: u64,
    t1: u64,
    t2: u64,
}

/// Successive generations shift ids *onto* ids the previous generation
/// used for something else (`[5, 6, 7] → [6, 7, 9] → [7, 9, 12]`): a
/// translation applied in place, pair by pair, would chain 5 → 6 → 7. The
/// key keeps its id, so its L2 residency carries across graphs. Relative
/// id order is the same in every generation, as it is for real allocations
/// (ids only grow), so fresh planning colors slots identically.
const GENERATIONS: [Ids; 3] = [
    Ids {
        x: 5,
        y: 6,
        key: 100,
        t0: 7,
        t1: 8,
        t2: 9,
    },
    Ids {
        x: 6,
        y: 7,
        key: 100,
        t0: 9,
        t1: 10,
        t2: 12,
    },
    Ids {
        x: 7,
        y: 9,
        key: 100,
        t0: 12,
        t1: 13,
        t2: 14,
    },
];

/// Sizes against a 72 MB L2. One generation touches 88 MB, so buffers are
/// evicted mid-graph; the 8 MB temporaries are the most recently used lines
/// when a graph ends, so whether the next generation's temporaries alias
/// them (slot-canonical ids) or arrive as new lines decides what gets
/// evicted next. Every hit/miss/write-back byte therefore depends on
/// exactly which ids the replay presents, and in which order.
const EXT: u64 = 24 << 20;
const KEY: u64 = 16 << 20;
const TMP: u64 = 8 << 20;

fn graph(ids: Ids) -> ExecGraph {
    ExecGraph::from(events(ids))
}

fn events(ids: Ids) -> EventLog {
    let b = BufferId;
    let mut log = EventLog::default();
    let fence = |log: &mut EventLog| log.fence([0, 1], [0, 1]);
    log.launch(
        0,
        KernelDesc::new(KernelKind::NttPhase1).ops(4_000_000),
        |d| {
            d.read(b(ids.x), EXT).write(b(ids.t0), TMP);
        },
    );
    log.launch(
        1,
        KernelDesc::new(KernelKind::NttPhase1).ops(4_000_000),
        |d| {
            d.read(b(ids.y), EXT).write(b(ids.t1), TMP);
        },
    );
    fence(&mut log);
    // A fusible same-stream chain over the temporaries and the key.
    log.launch(
        0,
        KernelDesc::new(KernelKind::Elementwise).ops(1_000_000),
        |d| {
            d.read(b(ids.t0), TMP)
                .read(b(ids.key), KEY)
                .write(b(ids.t0), TMP);
        },
    );
    log.launch(
        0,
        KernelDesc::new(KernelKind::Elementwise).ops(1_000_000),
        |d| {
            d.read(b(ids.t0), TMP)
                .read(b(ids.t1), TMP)
                .write(b(ids.t2), TMP);
        },
    );
    let base_conv = KernelDesc::new(KernelKind::BaseConv)
        .ops(9_000_000)
        .access_efficiency(0.5);
    log.launch(1, base_conv, |d| {
        d.read(b(ids.t1), TMP)
            .read(b(ids.key), KEY / 2)
            .write(b(ids.t1), TMP);
    });
    fence(&mut log);
    // Results land back in the caller's buffers.
    log.launch(
        0,
        KernelDesc::new(KernelKind::InttPhase2).ops(4_000_000),
        |d| {
            d.read(b(ids.t2), TMP).write(b(ids.x), EXT);
        },
    );
    log.launch(
        1,
        KernelDesc::new(KernelKind::SwitchModulus).ops(500_000),
        |d| {
            d.read(b(ids.t1), TMP).write(b(ids.y), EXT);
        },
    );
    log
}

fn cfg() -> PlanConfig {
    PlanConfig {
        num_streams: 4,
        ..PlanConfig::default()
    }
}

fn device() -> std::sync::Arc<GpuSim> {
    GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly)
}

/// One graph down the plan cache's lookup-or-plan path.
fn bind1(cache: &mut PlanCache, g: &ExecGraph) -> BoundPlan {
    cache.bind(&cfg(), &[g], false).pop().expect("one plan")
}

/// Every ledger field except the plan-cache counters (the planned-from-
/// scratch device runs no cache), floats compared by bit pattern.
fn assert_same_ledger(hit: &SimStats, fresh: &SimStats, when: &str) {
    assert_eq!(hit.kernel_launches, fresh.kernel_launches, "{when}");
    assert_eq!(hit.dram_read_bytes, fresh.dram_read_bytes, "{when}");
    assert_eq!(hit.l2_hit_bytes, fresh.l2_hit_bytes, "{when}");
    assert_eq!(hit.write_bytes, fresh.write_bytes, "{when}");
    assert_eq!(hit.int32_ops, fresh.int32_ops, "{when}");
    assert_eq!(hit.h2d_bytes, fresh.h2d_bytes, "{when}");
    assert_eq!(hit.d2h_bytes, fresh.d2h_bytes, "{when}");
    assert_eq!(
        hit.per_kind.keys().collect::<Vec<_>>(),
        fresh.per_kind.keys().collect::<Vec<_>>(),
        "{when}"
    );
    for (kind, a) in &hit.per_kind {
        let b = &fresh.per_kind[kind];
        assert_eq!(
            (a.count, a.busy_us.to_bits(), a.bytes),
            (b.count, b.busy_us.to_bits(), b.bytes),
            "{when}: per_kind[{kind}]"
        );
    }
    assert_eq!(hit.per_stream.len(), fresh.per_stream.len(), "{when}");
    for (s, (a, b)) in hit.per_stream.iter().zip(&fresh.per_stream).enumerate() {
        assert_eq!(
            (a.launches, a.busy_us.to_bits()),
            (b.launches, b.busy_us.to_bits()),
            "{when}: per_stream[{s}]"
        );
    }
    assert_eq!(
        hit.makespan_us.to_bits(),
        fresh.makespan_us.to_bits(),
        "{when}"
    );
    assert_eq!(hit.current_alloc_bytes, fresh.current_alloc_bytes, "{when}");
    assert_eq!(hit.peak_alloc_bytes, fresh.peak_alloc_bytes, "{when}");
    assert_eq!(hit.peak_device_bytes, fresh.peak_device_bytes, "{when}");
    assert_eq!(hit.allocations, fresh.allocations, "{when}");
}

#[test]
fn cache_hit_replay_equals_fresh_plan_replay_on_shifted_buffers() {
    let cached_dev = device();
    let fresh_dev = device();
    let mut cache = PlanCache::new(4);

    for (generation, &ids) in GENERATIONS.iter().enumerate() {
        let g = graph(ids);

        // Path 1: cache → bound replay (miss, then hits).
        let bound = bind1(&mut cache, &g);
        assert_eq!(bound.is_hit(), generation > 0, "generation {generation}");
        GpuReplayExecutor::new(&cached_dev).execute_bound(&bound);

        // Path 2: plan this generation from scratch, replay it in its own ids.
        let plan = Planner::new(cfg()).plan(&g);
        if generation == 0 {
            let slots = plan.slot_binding();
            let bound = |b: u64| slots.iter().any(|&(id, _)| id == BufferId(b));
            assert!(
                [ids.t0, ids.t1, ids.t2].iter().all(|&t| bound(t)),
                "temporaries are slot-bound: {slots:?}"
            );
            assert!(
                [ids.x, ids.y, ids.key].iter().all(|&e| !bound(e)),
                "external reads keep their ids: {slots:?}"
            );
            assert!(plan.stats().fused_kernels > 0, "the chain fused");
        }
        GpuReplayExecutor::new(&fresh_dev).execute(&plan);

        let when = format!("after generation {generation}");
        assert_same_ledger(&cached_dev.stats(), &fresh_dev.stats(), &when);
        assert_eq!(
            cached_dev.sync().to_bits(),
            fresh_dev.sync().to_bits(),
            "{when}: simulated clock"
        );
    }

    assert_eq!((cache.hits(), cache.misses()), (2, 1));
    let stats = cached_dev.stats();
    assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (2, 1));
    assert!(
        stats.l2_hit_bytes > 0 && stats.dram_read_bytes > stats.l2_hit_bytes / 8,
        "the shape must exercise both hits and evictions to test anything: {stats:?}"
    );
}

#[test]
fn hit_leaves_the_cached_plan_in_its_original_ids() {
    // Snapshots serialize cache entries as `(fingerprint, plan, binding)`;
    // a hit on shifted buffers must not rewrite either.
    let mut cache = PlanCache::new(4);
    let g0 = graph(GENERATIONS[0]);
    let (fp, binding0) = fingerprint(&g0, &cfg());
    bind1(&mut cache, &g0);

    let g1 = graph(GENERATIONS[1]);
    let (fp1, binding1) = fingerprint(&g1, &cfg());
    assert_eq!(fp, fp1, "generations are structurally equal");
    assert_ne!(binding0, binding1);
    let bound = bind1(&mut cache, &g1);
    assert!(bound.is_hit());
    GpuReplayExecutor::new(&device()).execute_bound(&bound);

    let entries = cache.export_entries();
    assert_eq!(entries.len(), 1);
    let (_, plan, binding) = &entries[0];
    assert_eq!(&binding[..], &binding0[..], "binding untouched by the hit");
    let touched: std::collections::BTreeSet<u64> = plan
        .steps()
        .iter()
        .filter_map(|s| match s {
            Event::Launch(l) => Some(l),
            Event::Fence { .. } => None,
        })
        .flat_map(|l| l.reads.iter().chain(l.writes))
        .map(|&(b, _)| b.0)
        .collect();
    assert_eq!(
        touched.into_iter().collect::<Vec<_>>(),
        vec![5, 6, 7, 8, 9, 100],
        "plan still names generation 0's buffers"
    );
}

#[test]
fn restored_entry_hits_by_fingerprint_first_then_by_shape_key() {
    // A restored entry carries its persisted fingerprint but no shape key:
    // the first lookup of its shape must find it by fingerprint (and learn
    // the key), every later one by the key alone. Neither may plan.
    let g0 = graph(GENERATIONS[0]);
    let (fp, binding) = fingerprint(&g0, &cfg());
    let mut cache = PlanCache::new(4);
    cache.restore_entry(fp, Planner::new(cfg()).plan(&g0), binding);
    assert_eq!((cache.len(), cache.shapes()), (1, 0));

    let first = bind1(&mut cache, &graph(GENERATIONS[1]));
    assert!(
        first.is_warm_hit(),
        "found through the fingerprint fallback"
    );
    assert_eq!(cache.shapes(), 1, "the hit recorded the shape key");

    let second = bind1(&mut cache, &graph(GENERATIONS[2]));
    assert!(second.is_warm_hit(), "found through the shape key");
    assert!(std::ptr::eq(first.plan(), second.plan()));
    assert_eq!((cache.hits(), cache.misses()), (2, 0));
    assert_eq!((cache.len(), cache.shapes()), (1, 1));
}

#[test]
fn fresh_id_range_is_a_hint_not_part_of_the_key() {
    // Generation 1's temporaries are ids 9..=12; the range covers them,
    // part of the externals (6, 7) and the gap id 11. With or without it,
    // canonicalisation must agree, and so must the cache.
    let ids = GENERATIONS[1];
    let plain = ExecGraph::from(events(ids));
    let hinted = ExecGraph::from_capture(Capture {
        events: events(ids),
        fresh_ids: 6..13,
    });
    assert_eq!(fingerprint(&plain, &cfg()), fingerprint(&hinted, &cfg()));

    let mut cache = PlanCache::new(4);
    let a = bind1(&mut cache, &hinted);
    let b = bind1(&mut cache, &plain);
    assert!(!a.is_hit() && b.is_hit(), "one shape key for both");
    assert_eq!(a.current_binding(), b.current_binding());
}

/// One side of the memo test: a logN-11 cost-only context with placeholder
/// keys, a bootstrapper and three top-level ciphertexts.
struct Side {
    ctx: Arc<CkksContext>,
    backend: GpuSimBackend,
    w: Ciphertext,
    x: Ciphertext,
    y: Ciphertext,
    /// `None`: each region closes through the context, whose replay is
    /// memoised. `Some`: the test captures each region itself, binds it
    /// through this cache as the context would, and replays it through
    /// plain [`GpuReplayExecutor::execute_bound`].
    plain: Option<RefCell<PlanCache>>,
    /// How many pool ids each region the test captured itself handed out
    /// (its [`Capture::fresh_ids`] length), in region order.
    fresh_ids: RefCell<Vec<u64>>,
    /// Slots of the LR batch and of the bootstrap.
    slots: usize,
}

/// Features per sample of the LR batch: at logN 11, 32 samples × 32
/// features fill the 1024 slots.
const FEATURES: i32 = 32;

impl Side {
    /// A side on the logN-11 test context, its LR batch filling every slot.
    fn new(plain: bool) -> Self {
        let ctx = common::context();
        let slots = ctx.n() / 2;
        Self::on(ctx, slots, plain)
    }

    /// A side on the paper's LR parameters (N = 2¹⁶), cost-only, with a
    /// sparse 2¹⁴-slot batch.
    fn paper(plain: bool) -> Self {
        let params = CkksParameters::paper_lr().with_limb_batch(12);
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        Self::on(CkksContext::new(params, gpu), 1 << 14, plain)
    }

    fn on(ctx: Arc<CkksContext>, slots: usize, plain: bool) -> Self {
        let client = ClientContext::new(ctx.raw_params().clone());
        let cfg = BootstrapConfig {
            slots,
            level_budget: (2, 2),
            k_range: 128.0,
            double_angles: 6,
            degree: 31,
        };
        let mut shifts = boot::required_rotations(ctx.n(), &cfg);
        let mut k = 1;
        while k < slots as i32 {
            shifts.extend([k, -k]);
            k <<= 1;
        }
        let backend = GpuSimBackend::new(Arc::clone(&ctx), common::keys(&ctx, &shifts));
        let booter = Bootstrapper::new(&backend, &client, cfg).expect("chain deep enough");
        let backend = backend.with_bootstrapper(booter);
        let top = ctx.max_level();
        let fresh = || adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), slots);
        let (w, x, y) = (fresh(), fresh(), fresh());
        Side {
            ctx,
            backend,
            w,
            x,
            y,
            plain: plain.then(|| RefCell::new(PlanCache::default())),
            fresh_ids: RefCell::default(),
            slots,
        }
    }

    fn gpu(&self) -> &Arc<GpuSim> {
        self.ctx.gpu()
    }

    /// Runs `f` as one scheduled region.
    fn region<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(cache) = &self.plain else {
            return self.ctx.scheduled(f);
        };
        assert!(self.gpu().begin_capture());
        let r = f();
        let capture = self.gpu().end_capture();
        self.fresh_ids
            .borrow_mut()
            .push(capture.fresh_ids.end - capture.fresh_ids.start);
        if !capture.events.is_empty() {
            let graph = ExecGraph::from_capture(capture);
            let bound = bind1_with(&mut cache.borrow_mut(), &self.ctx.plan_config(), &graph);
            GpuReplayExecutor::new(self.gpu()).execute_bound(&bound);
        }
        r
    }

    /// `ct += rot(ct, k)` for `k = step, 2·step, …` below `until`, one
    /// region per rotation.
    fn fold(&self, ct: &mut Ciphertext, step: i32, until: i32) {
        let mut k = step;
        while k.abs() < until {
            self.region(|| {
                let rot = ct.rotate(k, self.backend.keys()).unwrap();
                ct.add_assign_ct(&rot).unwrap();
            });
            k <<= 1;
        }
    }

    /// The op sequence of one logistic-regression iteration (the cubic
    /// sigmoid, the error, the gradient folded over samples, the update),
    /// dropped to level 0 and bootstrapped; one region per op and one for
    /// the whole bootstrap.
    fn iteration_and_bootstrap(&self) {
        let keys = self.backend.keys();
        let level_scale = |ct: &Ciphertext| self.ctx.standard_scale(ct.level());
        let mut prod = self.region(|| self.x.mul(&self.w, keys).unwrap());
        self.region(|| prod.rescale_in_place().unwrap());
        self.fold(&mut prod, 1, FEATURES);
        let mask =
            adapter::placeholder_plaintext(&self.ctx, prod.level(), level_scale(&prod), self.slots);
        let mut z = self.region(|| prod.mul_plain(&mask).unwrap());
        self.region(|| z.rescale_in_place().unwrap());
        self.fold(&mut z, -1, FEATURES);
        let mut z2 = self.region(|| z.square(keys).unwrap());
        self.region(|| z2.rescale_in_place().unwrap());
        let cz = self.region(|| z.mul_scalar_rescale(0.5).unwrap());
        let mut p = self.region(|| z2.mul(&cz, keys).unwrap());
        self.region(|| p.rescale_in_place().unwrap());
        self.region(|| p.add_scalar_assign(0.5).unwrap());
        let mut y_now = self.y.duplicate();
        y_now.drop_to_level(p.level()).unwrap();
        let e = self.region(|| y_now.sub(&p).unwrap());
        let mut x_low = self.x.duplicate();
        x_low.drop_to_level(e.level()).unwrap();
        let mut g = self.region(|| e.mul(&x_low, keys).unwrap());
        self.region(|| g.rescale_in_place().unwrap());
        self.fold(&mut g, FEATURES, self.slots as i32);
        let mut low = self.region(|| g.mul_scalar_rescale(0.125).unwrap());
        low.drop_to_level(0).unwrap();
        self.region(|| self.backend.bootstrap(&BackendCt::Device(low)).unwrap());
    }
}

fn bind1_with(cache: &mut PlanCache, cfg: &PlanConfig, g: &ExecGraph) -> BoundPlan {
    cache.bind(cfg, &[g], false).pop().expect("one plan")
}

#[test]
fn memoised_context_replay_equals_plain_replay_of_the_same_plans() {
    let hits = assert_memoised_equals_plain(Side::new(false), Side::new(true), 4);
    assert_eq!(hits[0], 0, "a plan's first replays have nothing to reuse");
    assert!(
        hits[2..].iter().all(|&h| h > 0),
        "memo hits start by the third repeat: {hits:?}"
    );
}

/// The same twin at the size the memo's gain is claimed on: a memo hit
/// there advances the clocks over tens of thousands of stored launch terms.
#[test]
#[ignore = "paper scale: run with --include-ignored in a release build"]
fn paper_scale_memoised_context_replay_equals_plain_replay_of_the_same_plans() {
    let hits = assert_memoised_equals_plain(Side::paper(false), Side::paper(true), 5);
    // Plans repeated within one op hit from the first repeat on; warm
    // repeats hit more.
    assert!(
        hits[2..].iter().all(|&h| h > hits[0]),
        "warm repeats are served from the memo: {hits:?}"
    );
}

/// Runs the LR iteration plus bootstrap `repeats` times on both sides and
/// requires their ledgers, plan-cache counters, resident lists and clocks
/// to agree to the bit after every repeat. Returns the memo hits of each
/// repeat.
fn assert_memoised_equals_plain(memoised: Side, plain: Side, repeats: usize) -> Vec<u64> {
    let mut hits_before = 0;
    let mut per_repeat = Vec::with_capacity(repeats);
    for repeat in 0..repeats {
        memoised.iteration_and_bootstrap();
        plain.iteration_and_bootstrap();

        let when = format!("after repeat {repeat}");
        let mut stats = memoised.gpu().stats();
        let hits = stats.replay_memo_hits - hits_before;
        hits_before = stats.replay_memo_hits;
        stats.replay_memo_hits = 0;
        let twin = plain.gpu().stats();
        assert_eq!(twin.replay_memo_hits, 0, "{when}: the twin replays plainly");
        assert_same_ledger(&stats, &twin, &when);
        assert_eq!(
            (stats.plan_cache_hits, stats.plan_cache_misses),
            (twin.plan_cache_hits, twin.plan_cache_misses),
            "{when}"
        );
        assert_eq!(
            memoised.gpu().l2_residents(),
            plain.gpu().l2_residents(),
            "{when}: resident list"
        );
        assert_eq!(
            memoised.gpu().sync().to_bits(),
            plain.gpu().sync().to_bits(),
            "{when}: simulated clock"
        );
        per_repeat.push(hits);
    }
    assert!(
        memoised.ctx.sched_stats().plan_cache_hits > 0,
        "repeats replay cached plans"
    );
    per_repeat
}

/// Pool ids each region of [`Side::iteration_and_bootstrap`] hands out, in
/// region order, as one-id-per-limb allocation handed them out: taking ids
/// in runs must take exactly as many. The cold pass also builds the
/// context's Galois permutation tables inside its regions; the bootstrap is
/// the last region.
const FRESH_IDS_COLD: [u64; 30] = [
    342, 54, 306, 306, 306, 306, 306, 52, 52, 296, 296, 296, 296, 296, 345, 50, 100, 309, 48, 0,
    46, 298, 46, 266, 266, 266, 266, 266, 88, 54_731,
];
const FRESH_IDS_WARM: [u64; 30] = [
    342, 54, 305, 305, 305, 305, 305, 52, 52, 295, 295, 295, 295, 295, 345, 50, 100, 309, 48, 0,
    46, 298, 46, 265, 265, 265, 265, 265, 88, 54_698,
];
/// The permutation tables the cold pass leaves behind: 48 Galois elements,
/// each an `N = 2048` table of `u32`.
const PERM_TABLE_BYTES: u64 = 48 * 2048 * 4;

#[test]
fn limb_sets_release_every_pool_id_and_regions_take_pinned_id_counts() {
    let side = Side::new(true);
    for repeat in 0..3 {
        let before = side.gpu().stats().current_alloc_bytes;
        side.fresh_ids.borrow_mut().clear();
        side.iteration_and_bootstrap();
        let (grown, fresh) = match repeat {
            0 => (PERM_TABLE_BYTES, FRESH_IDS_COLD),
            _ => (0, FRESH_IDS_WARM),
        };
        assert_eq!(
            side.gpu().stats().current_alloc_bytes,
            before + grown,
            "repeat {repeat}: every limb and temporary went back to the pool"
        );
        assert_eq!(
            side.fresh_ids.borrow()[..],
            fresh[..],
            "repeat {repeat}: pool ids per region"
        );
    }
}
