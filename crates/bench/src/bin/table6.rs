//! Table VI: bootstrapping performance and amortized throughput vs slots.
//!
//! `[logN, L, Δ, dnum] = [16, 29, 59, 4]`, slots ∈ {64, 512, 16384, 32768}.
//! Amortized time = T / (slots · levels-remaining), as in the paper. The CPU
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

fn boot_us(params: &CkksParameters, slots: usize) -> (f64, usize) {
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
    // Warm-up then measure.
    let _ = backend.bootstrap(&ct).unwrap();
    gpu.sync();
    let mut level_out = 0usize;
    let us = sim_time_us(&gpu, || {
        let r = backend.bootstrap(&ct).unwrap();
        level_out = r.level();
    });
    (us, level_out)
}

fn main() {
    let params = CkksParameters::paper_default().with_limb_batch(12);
    println!("Table VI reproduction — bootstrapping, [16, 29, 59, 4]");
    // (slots, paper: levels, 1T ms, HEXL ms, FIDESlib ms)
    let paper: &[(usize, usize, f64, f64, f64)] = &[
        (64, 13, 18_224.0, 5_204.0, 73.5),
        (512, 11, 18_268.0, 7_781.0, 93.3),
        (16_384, 9, 20_079.0, 9_281.0, 112.0),
        (32_768, 9, 28_635.0, 12_185.0, 146.0),
    ];

    let mut rows = Vec::new();
    for &(slots, p_levels, p_1t, p_hexl, p_fides) in paper {
        let (f_us, level) = boot_us(&params, slots);
        let amortized = f_us / (slots as f64 * level as f64);
        let p_amortized = p_fides * 1e3 / (slots as f64 * p_levels as f64);
        rows.push(vec![
            slots.to_string(),
            level.to_string(),
            p_levels.to_string(),
            fmt_us(p_1t * 1e3),
            fmt_us(p_hexl * 1e3),
            fmt_us(f_us),
            fmt_us(p_fides * 1e3),
            format!("{amortized:9.3} µs"),
            format!("{p_amortized:9.3} µs"),
            format!("{:5.0}x", p_hexl * 1e3 / f_us),
        ]);
    }
    print_table(
        "Table VI: bootstrapping (T = total, A = amortized µs/(slot·level))",
        &[
            "slots",
            "levels",
            "(paper)",
            "OpenFHE-1T (paper)",
            "HEXL-24T (paper)",
            "FIDESlib 4090 (sim)",
            "(paper)",
            "amortized",
            "(paper)",
            "vs HEXL",
        ],
        &rows,
    );
    println!("\nNote: this reproduction's ApproxModEval uses a degree-40 cosine with 6");
    println!("double-angle iterations and evaluates both conjugate halves, so the level");
    println!("budget differs slightly from OpenFHE's production configuration.");
}
