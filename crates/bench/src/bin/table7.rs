//! Table VII: logistic-regression training performance.
//!
//! `[logN, L, Δ, dnum] = [16, 26, 59, 4]`, mini-batches of 1,024 samples ×
//! 32 features (32,768 slots), bootstrapping every iteration. The CPU
//! columns are the paper's measured times; "vs HEXL" divides the paper's
//! HEXL time by our simulated FIDESlib time.

use std::sync::Arc;

use fides_baselines::synth_keys_with_rotations;
use fides_bench::{fmt_us, print_table, sim_time_us};
use fides_client::ClientContext;
use fides_core::{
    adapter, boot, BackendCt, BootstrapConfig, Bootstrapper, CkksContext, CkksParameters,
    EvalBackend, GpuSimBackend,
};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};
use fides_workloads::{LrConfig, LrTrainer};

fn lr_times(params: &CkksParameters) -> (f64, f64) {
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(params.clone(), Arc::clone(&gpu));
    let client = ClientContext::new(ctx.raw_params().clone());
    let cfg = LrConfig::paper();
    let trainer = LrTrainer::new(&ctx, &client, cfg);
    // Bootstrap configuration leaving ≥ 6 levels for the next iteration.
    let boot_cfg = BootstrapConfig {
        slots: cfg.slots(),
        level_budget: (2, 2),
        k_range: 128.0,
        double_angles: 6,
        degree: 31,
    };

    let mut shifts = trainer.required_rotations();
    shifts.extend(boot::required_rotations(ctx.n(), &boot_cfg));
    let keys = synth_keys_with_rotations(&ctx, &shifts);
    let backend = GpuSimBackend::new(Arc::clone(&ctx), keys);
    let booter = Bootstrapper::new(&backend, &client, boot_cfg).expect("chain deep enough");
    assert!(booter.min_output_level() >= LrTrainer::LEVELS_PER_ITERATION);
    let backend = backend.with_bootstrapper(booter);
    let keys = backend.keys();

    let top = ctx.max_level();
    let w = adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), cfg.slots());
    let x = adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), cfg.slots());
    let y = adapter::placeholder_ciphertext(&ctx, top, ctx.standard_scale(top), cfg.slots());

    // Warm up.
    let _ = trainer.iteration(&w, &x, &y, keys).unwrap();
    gpu.sync();
    let iter_us = sim_time_us(&gpu, || {
        let _ = trainer.iteration(&w, &x, &y, keys).unwrap();
    });
    let iter_boot_us = sim_time_us(&gpu, || {
        let w1 = trainer.iteration(&w, &x, &y, keys).unwrap();
        let mut low = w1;
        low.drop_to_level(0).unwrap();
        let _ = backend.bootstrap(&BackendCt::Device(low)).unwrap();
    });
    (iter_us, iter_boot_us)
}

fn main() {
    let params = CkksParameters::paper_lr().with_limb_batch(12);
    println!("Table VII reproduction — LR training, [16, 26, 59, 4], 1024×32 batches");

    let (f_it, f_ib) = lr_times(&params);

    // (phase, ours, paper 1T, paper HEXL, paper FIDESlib), paper times in ms.
    let phases = [
        ("Iteration", f_it, 1_555.0, 448.0, 23.0),
        ("Iteration + Bootstrap", f_ib, 16_233.0, 7_233.0, 169.0),
    ];
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|&(phase, ours, p_1t, p_hexl, p_fides)| {
            vec![
                phase.to_string(),
                fmt_us(p_1t * 1e3),
                fmt_us(p_hexl * 1e3),
                fmt_us(ours),
                fmt_us(p_fides * 1e3),
                format!("{:5.1}x", p_hexl * 1e3 / ours),
                format!("{:5.1}x", p_hexl / p_fides),
            ]
        })
        .collect();
    print_table(
        "Table VII: logistic regression",
        &[
            "phase",
            "OpenFHE-1T (paper)",
            "HEXL-24T (paper)",
            "FIDESlib 4090 (sim)",
            "(paper)",
            "vs HEXL",
            "(paper)",
        ],
        &rows,
    );
}
