//! Table VI: bootstrapping performance and amortized throughput vs slots.
//!
//! `[logN, L, Δ, dnum] = [16, 29, 59, 4]`, slots ∈ {64, 512, 16384, 32768}.
//! Amortized time = T / (slots · levels-remaining), as in the paper. The CPU
//! columns are the paper's measured times; "vs HEXL" divides the paper's
//! HEXL time by our simulated FIDESlib time. A second table splits each
//! bootstrap into its phases (`Bootstrapper::bootstrap_phased`).

use std::sync::Arc;

use fides_baselines::synth_keys_with_rotations;
use fides_bench::{fmt_us, print_table, sim_time_us};
use fides_client::ClientContext;
use fides_core::{
    adapter, boot, BackendCt, BootPhases, BootstrapConfig, Bootstrapper, CkksContext,
    CkksParameters, EvalBackend, GpuSimBackend,
};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};

/// One warm bootstrap for `slots` on a fresh cost-only device: its
/// simulated time and output level, plus the per-phase times of a phased run
/// made first on the same device and the ApproxModEval count.
fn boot_us(params: &CkksParameters, slots: usize) -> (f64, usize, BootPhases, usize) {
    let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
    let ctx = CkksContext::new(params.clone(), Arc::clone(&gpu));
    let client = ClientContext::new(ctx.raw_params().clone());
    let config = BootstrapConfig::for_slots(slots);
    let shifts = boot::required_rotations(ctx.n(), &config);
    let keys = synth_keys_with_rotations(&ctx, &shifts);
    let backend = GpuSimBackend::new(Arc::clone(&ctx), keys);
    let booter = Bootstrapper::new(&backend, &client, config).expect("chain deep enough");
    let approx_mod_runs = booter.approx_mod_runs();
    let ct = BackendCt::Device(adapter::placeholder_ciphertext(
        &ctx,
        0,
        ctx.standard_scale(0),
        slots,
    ));
    let _ = booter.bootstrap_phased(&backend, &ct).unwrap();
    let phases = booter.bootstrap_phased(&backend, &ct).unwrap().1;
    let backend = backend.with_bootstrapper(booter);
    // Warm-up then measure.
    let _ = backend.bootstrap(&ct).unwrap();
    gpu.sync();
    let mut level_out = 0usize;
    let us = sim_time_us(&gpu, || {
        let r = backend.bootstrap(&ct).unwrap();
        level_out = r.level();
    });
    (us, level_out, phases, approx_mod_runs)
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
    let mut phase_rows = Vec::new();
    for &(slots, p_levels, p_1t, p_hexl, p_fides) in paper {
        let (f_us, level, p, approx_mod_runs) = boot_us(&params, slots);
        phase_rows.push(vec![
            slots.to_string(),
            approx_mod_runs.to_string(),
            fmt_us(p.mod_raise_us),
            fmt_us(p.fold_us),
            fmt_us(p.coeff_to_slot_us),
            fmt_us(p.eval_mod_us),
            fmt_us(p.slot_to_coeff_us),
            fmt_us(p.total_us),
        ]);
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

    print_table(
        "Per-phase simulated time (phased run: device-wide sync between phases)",
        &[
            "slots",
            "ApproxMod",
            "ModRaise",
            "fold",
            "CtS",
            "EvalMod",
            "StC",
            "total",
        ],
        &phase_rows,
    );
    println!("\nNote: this reproduction's ApproxModEval uses a degree-40 cosine with 6");
    println!("double-angle iterations, so the level budget differs slightly from");
    println!("OpenFHE's production configuration. The sparse rows (64, 512, 16384 slots)");
    println!("pack both real coefficient halves into 2·slots slots and run ApproxModEval");
    println!("once, as OpenFHE's sparse branch does; the 32768 row runs it on both");
    println!("conjugate halves.");
}
