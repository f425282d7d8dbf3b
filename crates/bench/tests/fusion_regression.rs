//! Regression guard for the `ablate_fusion` claim: with fusion enabled the
//! planner must issue **strictly fewer kernel launches** and the simulated
//! time must be **lower** than with every fusion disabled — at the same
//! paper-scale configuration the ablation binary reports.

use std::sync::Arc;

use fides_baselines::{synth_keys, synth_keys_with_rotations};
use fides_client::ClientContext;
use fides_core::{
    adapter, boot, BackendCt, BootstrapConfig, Bootstrapper, CkksContext, CkksParameters,
    EvalBackend, FusionConfig, GpuSimBackend,
};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};

/// Mirrors `ablate_fusion::measure`: HMult + Rescale, steady state.
fn measure(params: &CkksParameters) -> (f64, u64, u64) {
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(params.clone(), Arc::clone(&gpu));
    let keys = synth_keys(&ctx);
    let ct = adapter::placeholder_ciphertext(&ctx, ctx.max_level(), ctx.fresh_scale(), ctx.n() / 2);
    let run = || {
        let mut prod = ct.mul(&ct, &keys).unwrap();
        prod.rescale_in_place().unwrap();
    };
    run();
    gpu.sync();
    gpu.reset_stats();
    ctx.reset_sched_stats();
    let t0 = gpu.sync();
    run();
    let dt = gpu.sync() - t0;
    (
        dt,
        gpu.stats().kernel_launches,
        ctx.sched_stats().fused_kernels,
    )
}

#[test]
fn fusion_strictly_reduces_launches_and_time() {
    let base = CkksParameters::paper_default().with_limb_batch(12);
    let (fused_us, fused_launches, fused_away) =
        measure(&base.clone().with_fusion(FusionConfig::default()));
    let (plain_us, plain_launches, none_away) = measure(&base.with_fusion(FusionConfig::none()));

    assert!(
        fused_launches < plain_launches,
        "fusion must strictly reduce kernel launches: {fused_launches} vs {plain_launches}"
    );
    assert!(
        fused_us < plain_us,
        "fusion must lower simulated time: {fused_us} µs vs {plain_us} µs"
    );
    assert!(fused_away > 0, "planner ledger must record fused kernels");
    assert_eq!(
        none_away, 0,
        "FusionConfig::none() must disable graph fusion"
    );
}

/// The full bootstrap circuit under the planner: simulated time, launch
/// count, and fused-kernel ledger at one fusion setting.
fn measure_bootstrap(params: &CkksParameters, slots: usize) -> (f64, u64, u64) {
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(params.clone(), Arc::clone(&gpu));
    let client = ClientContext::new(ctx.raw_params().clone());
    let config = BootstrapConfig::for_slots(slots);
    let shifts = boot::required_rotations(ctx.n(), &config);
    let keys = synth_keys_with_rotations(&ctx, &shifts);
    let backend = GpuSimBackend::new(Arc::clone(&ctx), keys);
    let booter = Bootstrapper::new(&backend, &client, config).expect("chain deep enough");
    let backend = backend.with_bootstrapper(booter);
    let ct = BackendCt::Device(adapter::placeholder_ciphertext(
        &ctx,
        0,
        ctx.standard_scale(0),
        slots,
    ));
    let _ = backend.bootstrap(&ct).unwrap();
    gpu.sync();
    gpu.reset_stats();
    ctx.reset_sched_stats();
    let t0 = gpu.sync();
    let _ = backend.bootstrap(&ct).unwrap();
    let dt = gpu.sync() - t0;
    (
        dt,
        gpu.stats().kernel_launches,
        ctx.sched_stats().fused_kernels,
    )
}

/// Extension of the guard to the PR 3 workload: the **whole bootstrap
/// circuit** recorded through the planner must launch strictly fewer
/// kernels (and run faster) with fusion than with every fusion disabled.
#[test]
fn bootstrap_circuit_fusion_strictly_reduces_launches() {
    let base = CkksParameters::toy_boot();
    let (fused_us, fused_launches, fused_away) =
        measure_bootstrap(&base.clone().with_fusion(FusionConfig::default()), 8);
    let (plain_us, plain_launches, none_away) =
        measure_bootstrap(&base.with_fusion(FusionConfig::none()), 8);

    assert!(
        fused_launches < plain_launches,
        "bootstrap fusion must strictly reduce kernel launches: \
         {fused_launches} vs {plain_launches}"
    );
    assert!(
        fused_us < plain_us,
        "bootstrap fusion must lower simulated time: {fused_us} µs vs {plain_us} µs"
    );
    assert!(
        fused_away > 0,
        "planner ledger must record fused kernels across the bootstrap graph"
    );
    assert_eq!(
        none_away, 0,
        "FusionConfig::none() must disable graph fusion"
    );
}

/// The fully packed bootstrap (`slots == N/2`, Table VI's 32768 row) keeps
/// the two-half ApproxModEval path: its simulated time and launch count at
/// the paper's parameters stay bit-identical. Only sparse slot counts can
/// take the one-EvalMod path.
#[test]
fn full_slot_bootstrap_is_bit_identical() {
    let params = CkksParameters::paper_default().with_limb_batch(12);
    let (us, launches, _) = measure_bootstrap(&params, 1 << 15);
    assert_eq!(launches, 16_819, "kernel launches");
    assert_eq!(
        us.to_bits(),
        0x4108_072e_4137_8e1c,
        "simulated µs {us} (pinned: 196837.78184424422)"
    );
}

#[test]
fn graph_fusion_alone_reduces_launches() {
    // Isolate the planner's elementwise pass from the in-kernel fusions.
    let base = CkksParameters::paper_default().with_limb_batch(12);
    let (_, with_graph, _) = measure(&base.clone().with_fusion(FusionConfig::default()));
    let (_, without_graph, _) = measure(&base.with_fusion(FusionConfig {
        elementwise: false,
        ..FusionConfig::default()
    }));
    assert!(
        with_graph < without_graph,
        "elementwise graph fusion must reduce launches: {with_graph} vs {without_graph}"
    );
}
