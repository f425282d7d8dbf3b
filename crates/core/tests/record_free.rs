//! Body-free bootstrap regions: once a keyed region's recording has hit
//! the plan cache, its cost-only repeats rebuild their output from the
//! recording and replay the cached plan without running their body,
//! recording or walking their work (`CkksContext::scheduled_keyed`). The
//! simulated device must not be able to tell: every warm bootstrap moves
//! the ledger and the device pool exactly as the first recorded warm one
//! did.

mod common;

use std::sync::Arc;

use fides_client::{ClientContext, Domain};
use fides_core::{
    adapter, boot, BackendCt, BootstrapConfig, Bootstrapper, Ciphertext, CkksContext,
    CkksParameters, FidesError, GpuSimBackend, RNSPoly, RegionInputs, RegionKey,
};
use fides_gpu_sim::{BufferId, DeviceSpec, ExecMode, GpuSim, SimStats};

/// A cost-only bootstrapping session: sparse slots, so all five phase
/// regions (ModRaise, fold, CtS, EvalMod, StC) run.
struct Session {
    ctx: Arc<CkksContext>,
    backend: GpuSimBackend,
    boot: Bootstrapper,
    slots: usize,
}

impl Session {
    fn new(ctx: Arc<CkksContext>, slots: usize) -> Self {
        let client = ClientContext::new(ctx.raw_params().clone());
        let config = BootstrapConfig {
            slots,
            level_budget: (2, 2),
            k_range: 128.0,
            double_angles: 6,
            degree: 31,
        };
        let shifts = boot::required_rotations(ctx.n(), &config);
        let backend = GpuSimBackend::new(Arc::clone(&ctx), common::keys(&ctx, &shifts));
        let boot = Bootstrapper::new(&backend, &client, config).expect("chain deep enough");
        Self {
            ctx,
            backend,
            boot,
            slots,
        }
    }

    /// One bootstrap of a fresh level-0 input, and what it moved. A
    /// ballast buffer lifts the pool to its peak first, so that the
    /// bootstrap's own high-water mark is the new peak.
    fn bootstrap(&self) -> Delta {
        let gpu = self.ctx.gpu();
        let low =
            adapter::placeholder_ciphertext(&self.ctx, 0, self.ctx.standard_scale(0), self.slots);
        let pool = gpu.stats();
        let ballast = pool.peak_alloc_bytes - pool.current_alloc_bytes;
        let ballast = (gpu.alloc_run([ballast]).start, ballast);
        let before = (
            gpu.sync(),
            gpu.stats(),
            self.ctx.sched_stats(),
            next_id(gpu),
        );
        let out = self
            .boot
            .bootstrap(&self.backend, &BackendCt::Device(low))
            .expect("bootstrap");
        assert!(out.level() >= self.boot.min_output_level());
        drop(out);
        gpu.release([(BufferId(ballast.0), ballast.1)]);
        let after = (
            gpu.sync(),
            gpu.stats(),
            self.ctx.sched_stats(),
            next_id(gpu),
        );
        Delta::between(before, after)
    }
}

/// The id the device pool hands out next.
fn next_id(gpu: &GpuSim) -> u64 {
    gpu.alloc_run(std::iter::empty()).start
}

/// One bootstrap's share of the device and scheduling ledgers.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Delta {
    sim_us: f64,
    launches: u64,
    dram_bytes: u64,
    l2_hit_bytes: u64,
    memo_hits: u64,
    plan_hits: u64,
    plan_misses: u64,
    record_free_hits: u64,
    /// Bytes the pool holds after the bootstrap, its output dropped.
    current_alloc_bytes: u64,
    /// The pool's peak over the bytes it held at the bootstrap's entry.
    peak_alloc_bytes: u64,
    /// Pool ids the bootstrap took: the next id's advance.
    pool_ids: u64,
}

type Ledgers = (f64, SimStats, fides_core::SchedStats, u64);

impl Delta {
    fn between((t0, s0, k0, id0): Ledgers, (t1, s1, k1, id1): Ledgers) -> Self {
        Self {
            sim_us: t1 - t0,
            launches: s1.kernel_launches - s0.kernel_launches,
            dram_bytes: (s1.dram_read_bytes + s1.write_bytes)
                - (s0.dram_read_bytes + s0.write_bytes),
            l2_hit_bytes: s1.l2_hit_bytes - s0.l2_hit_bytes,
            memo_hits: s1.replay_memo_hits - s0.replay_memo_hits,
            plan_hits: k1.plan_cache_hits - k0.plan_cache_hits,
            plan_misses: k1.plan_cache_misses - k0.plan_cache_misses,
            record_free_hits: k1.record_free_hits - k0.record_free_hits,
            current_alloc_bytes: s1.current_alloc_bytes,
            peak_alloc_bytes: s1.peak_alloc_bytes - s0.current_alloc_bytes,
            pool_ids: id1 - id0,
        }
    }
}

/// Warm bootstraps through the shortcut leave the device ledger and pool as
/// the first recorded warm one did, and count five record-free hits each.
#[test]
fn warm_bootstraps_replay_record_free_with_identical_ledgers() {
    let s = Session::new(common::context(), 16);
    let cold = s.bootstrap();
    assert_eq!(
        (cold.plan_misses, cold.record_free_hits),
        (5, 0),
        "{cold:?}"
    );
    let recorded = s.bootstrap();
    assert_eq!(
        (
            recorded.plan_hits,
            recorded.plan_misses,
            recorded.record_free_hits
        ),
        (5, 0, 0),
        "the second bootstrap is warm and still recorded: {recorded:?}"
    );
    let warm: Vec<Delta> = (0..6).map(|_| s.bootstrap()).collect();
    for (i, w) in warm.iter().enumerate() {
        w.assert_same_work(&recorded, i);
    }
    // The replay memo records a region's entry state the second time a
    // replay enters it, with or without the shortcut: one region's state
    // repeats from the second bootstrap on, the other four's from the
    // third. From then on every region replays memoised.
    let memo: Vec<u64> = warm.iter().map(|w| w.memo_hits).collect();
    assert_eq!(memo, [1, 5, 5, 5, 5, 5]);
}

impl Delta {
    /// `self` did what `recorded` did: the same simulated time (a
    /// difference of the growing device clock, so equal to the simulated
    /// picosecond rather than the bit), launches, DRAM and L2 bytes, pool
    /// bytes, peak and ids, as five plan-cache hits, all of them
    /// record-free.
    fn assert_same_work(&self, recorded: &Delta, i: usize) {
        assert!(
            (self.sim_us - recorded.sim_us).abs() < 1e-6,
            "warm bootstrap {i}: {} µs against {} µs",
            self.sim_us,
            recorded.sim_us
        );
        assert_eq!(
            Delta {
                sim_us: recorded.sim_us,
                memo_hits: recorded.memo_hits,
                ..*self
            },
            Delta {
                record_free_hits: 5,
                ..*recorded
            },
            "warm bootstrap {i}"
        );
    }
}

/// Paper scale, cost-only: the key↔fingerprint check of debug builds, and
/// the body-free hits of release builds, run at the size the gain is
/// claimed on.
#[test]
#[ignore = "paper scale: run with --ignored, in debug and release builds"]
fn paper_scale_warm_bootstraps_replay_record_free() {
    let params = CkksParameters::paper_lr().with_limb_batch(12);
    let ctx = CkksContext::new(
        params,
        GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly),
    );
    let s = Session::new(ctx, 1 << 14);
    s.bootstrap();
    let recorded = s.bootstrap();
    for i in 0..3 {
        s.bootstrap().assert_same_work(&recorded, i);
    }
}

/// A fresh key on its own instance.
fn fresh_key() -> RegionKey {
    RegionKey {
        owner: RegionKey::new_owner(),
        phase: 0,
    }
}

/// A keyed region whose body fails: a failed recording registers nothing
/// and hands back its error.
#[test]
fn a_failing_keyed_region_registers_nothing_and_returns_its_error() {
    let ctx = common::context();
    let key = fresh_key();
    let a = Ciphertext::zero(&ctx, 2, ctx.standard_scale(2), 8);
    let run = |fail: bool| {
        ctx.scheduled_keyed(key, RegionInputs::new(&[&a]), || {
            let sum = a.add(&a)?;
            match fail {
                true => Err(FidesError::Unsupported("a failing region".into())),
                false => Ok(sum),
            }
        })
    };
    let record_free = || ctx.sched_stats().record_free_hits;
    // The failed recordings plan the entry (and hit it) but register nothing.
    for _ in 0..3 {
        assert_eq!(
            run(true).unwrap_err(),
            FidesError::Unsupported("a failing region".into())
        );
    }
    run(false).expect("registers the key");
    assert_eq!(record_free(), 0);
    run(false).expect("record-free");
    assert_eq!(record_free(), 1);
}

/// A body that fails on a hit of its key breaks the promise a body-free
/// hit relies on (release builds would not have called it); debug builds
/// record every hit and catch it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "failed on a hit of its key")]
fn a_keyed_region_failing_on_a_hit_is_caught() {
    let ctx = common::context();
    let key = fresh_key();
    let a = Ciphertext::zero(&ctx, 2, ctx.standard_scale(2), 8);
    for fail in [false, false, true] {
        let _ = ctx.scheduled_keyed(key, RegionInputs::new(&[&a]), || {
            let sum = a.add(&a)?;
            match fail {
                true => Err(FidesError::Unsupported("a failing region".into())),
                false => Ok(sum),
            }
        });
    }
}

/// A cost-only hit with a template does not call its body: it drops it,
/// and rebuilds the body's output.
#[cfg(not(debug_assertions))]
#[test]
fn a_body_free_hit_does_not_invoke_its_body() {
    let ctx = common::context();
    let key = fresh_key();
    let calls = std::cell::Cell::new(0);
    let mut outs = Vec::new();
    for _ in 0..4 {
        let a = Ciphertext::zero(&ctx, 2, ctx.standard_scale(2), 8);
        let out = ctx.scheduled_keyed(key, RegionInputs::new(&[&a]), || {
            calls.set(calls.get() + 1);
            a.add(&a)
        });
        outs.push(out.expect("same shape"));
    }
    assert_eq!(calls.get(), 2, "a miss and the registering hit");
    assert_eq!(ctx.sched_stats().record_free_hits, 2);
    for out in &outs[2..] {
        let first = &outs[1];
        assert_eq!(
            (out.level(), out.scale(), out.slots(), out.noise_log2()),
            (
                first.level(),
                first.scale(),
                first.slots(),
                first.noise_log2()
            )
        );
    }
}

/// Two inputs that differ only in their noise estimate do not share a hit:
/// the output's noise estimate follows from it.
#[test]
fn inputs_differing_only_in_noise_do_not_share_a_hit() {
    let ctx = common::context();
    let key = fresh_key();
    let input = |noise_log2: f64| {
        let part = || RNSPoly::zero(&ctx, 2, false, Domain::Eval);
        Ciphertext::from_parts(part(), part(), ctx.standard_scale(2), 8, noise_log2)
    };
    let run = |ct: &Ciphertext| {
        ctx.scheduled_keyed(key, RegionInputs::new(&[ct]), || ct.add(ct))
            .expect("same schedule")
    };
    let quiet = input(1.0);
    for _ in 0..3 {
        run(&quiet);
    }
    assert_eq!(ctx.sched_stats().record_free_hits, 1);
    let noisy = input(9.0);
    let out = run(&noisy);
    assert_eq!(ctx.sched_stats().record_free_hits, 1, "a new key");
    assert!(out.noise_log2() > run(&quiet).noise_log2());
}

/// A keyed region reading a buffer it did not declare replays stale ids in
/// release builds; debug builds record every shortcut hit and catch it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "did not declare")]
fn a_keyed_region_reading_an_undeclared_input_is_caught() {
    let ctx = common::context();
    let key = fresh_key();
    let fresh = || Ciphertext::zero(&ctx, 2, ctx.standard_scale(2), 8);
    let declared = fresh();
    // Three runs: the first plans, the second hits the plan cache and
    // registers the key, the third is a shortcut hit on a new `undeclared`.
    for _ in 0..3 {
        let undeclared = fresh();
        ctx.scheduled_keyed(key, RegionInputs::new(&[&declared]), || {
            declared.add(&undeclared)
        })
        .expect("same shape");
    }
}
