//! Record-free bootstrap regions: once a keyed region's recording has hit
//! the plan cache, its repeats replay the cached plan without recording or
//! walking their work (`CkksContext::scheduled_keyed`). The simulated
//! device must not be able to tell: every warm bootstrap moves the ledger
//! exactly as the first recorded warm one did.

mod common;

use std::sync::Arc;

use fides_client::ClientContext;
use fides_core::{
    adapter, boot, BackendCt, BootstrapConfig, Bootstrapper, Ciphertext, CkksContext,
    CkksParameters, FidesError, GpuSimBackend, RegionInputs, RegionKey,
};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim, SimStats};

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

    /// One bootstrap of a fresh level-0 input, and what it moved.
    fn bootstrap(&self) -> Delta {
        let gpu = self.ctx.gpu();
        let low =
            adapter::placeholder_ciphertext(&self.ctx, 0, self.ctx.standard_scale(0), self.slots);
        let before = (gpu.sync(), gpu.stats(), self.ctx.sched_stats());
        let out = self
            .boot
            .bootstrap(&self.backend, &BackendCt::Device(low))
            .expect("bootstrap");
        assert!(out.level() >= self.boot.min_output_level());
        drop(out);
        let after = (gpu.sync(), gpu.stats(), self.ctx.sched_stats());
        Delta::between(before, after)
    }
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
}

impl Delta {
    fn between(
        (t0, s0, k0): (f64, SimStats, fides_core::SchedStats),
        (t1, s1, k1): (f64, SimStats, fides_core::SchedStats),
    ) -> Self {
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
        }
    }
}

/// Warm bootstraps through the shortcut leave the device ledger as the
/// first recorded warm one did, and count five record-free hits each.
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
    /// picosecond rather than the bit), launches, DRAM and L2 bytes, as
    /// five plan-cache hits, all of them record-free.
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
/// the shortcut of release builds, run at the size the record-free gain is
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

/// A keyed region whose body fails: a failed recording registers nothing,
/// and a failing shortcut run hands back its error without counting as
/// record-free.
#[test]
fn a_failing_keyed_region_registers_nothing_and_returns_its_error() {
    let ctx = common::context();
    let key = RegionKey {
        owner: RegionKey::new_owner(),
        phase: 0,
    };
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
        assert!(run(true).is_err());
    }
    run(false).expect("registers the key");
    assert_eq!(record_free(), 0);
    run(false).expect("record-free");
    assert_eq!(record_free(), 1);
    assert_eq!(
        run(true).unwrap_err(),
        FidesError::Unsupported("a failing region".into())
    );
    assert_eq!(record_free(), 1);
    run(false).expect("record-free again");
    assert_eq!(record_free(), 2);
}

/// A keyed region reading a buffer it did not declare replays stale ids in
/// release builds; debug builds record every shortcut hit and catch it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "did not declare")]
fn a_keyed_region_reading_an_undeclared_input_is_caught() {
    let ctx = common::context();
    let key = RegionKey {
        owner: RegionKey::new_owner(),
        phase: 0,
    };
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
