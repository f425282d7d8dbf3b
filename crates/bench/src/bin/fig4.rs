//! Fig. 4: (i)NTT time per limb vs limb count, FIDESlib vs Phantom, on the
//! RTX 4090 and RTX 4060 Ti.
//!
//! This microbenchmark drives the kernel model directly with the same cost
//! formulas the server library uses (`N = 2^16`; FIDESlib: hierarchical
//! two-pass kernels over limb batches on separate streams; Phantom: one
//! monolithic Radix-8-profile kernel over all limbs).

use std::sync::Arc;

use fides_baselines::{PHANTOM_ACCESS_EFFICIENCY, PHANTOM_NTT_OP_FACTOR};
use fides_bench::print_table;
use fides_gpu_sim::{
    DeviceSpec, ExecMode, GpuSim, KernelDesc, KernelKind, VectorGpu, BUTTERFLY_OPS,
};

const LOG_N: u32 = 16;
const N: usize = 1 << LOG_N;

fn phase_ops(op_factor: f64) -> u64 {
    let base = (N as u64 / 2) * (LOG_N as u64).div_ceil(2) * BUTTERFLY_OPS;
    (base as f64 * op_factor) as u64
}

/// One full transform over `limbs` limbs; returns (µs per limb, stream
/// occupancy over the measured window).
fn ntt_us_per_limb(
    spec: &DeviceSpec,
    limbs: usize,
    batch: usize,
    access_eff: f64,
    op_factor: f64,
    inverse: bool,
) -> (f64, f64) {
    let gpu = GpuSim::new(spec.clone(), ExecMode::CostOnly);
    let bufs: Vec<VectorGpu<u64>> = (0..limbs).map(|_| VectorGpu::new(&gpu, N)).collect();
    let lb = (N * 8) as u64;
    let run = |gpu: &Arc<GpuSim>| {
        let batches = limbs.div_ceil(batch);
        for k in 0..batches {
            let range = (k * batch)..((k + 1) * batch).min(limbs);
            let stream = k % 16;
            for pass in 0..2u8 {
                let kind = match (inverse, pass) {
                    (false, 0) => KernelKind::NttPhase1,
                    (false, _) => KernelKind::NttPhase2,
                    (true, 0) => KernelKind::InttPhase1,
                    (true, _) => KernelKind::InttPhase2,
                };
                let desc = KernelDesc::new(kind)
                    .ops(phase_ops(op_factor) * range.len() as u64)
                    .access_efficiency(access_eff);
                gpu.launch(stream, desc, |d| {
                    for buf in &bufs[range.clone()] {
                        d.read(buf.buffer(), lb).write(buf.buffer(), lb);
                    }
                })
                .run(|| {});
            }
        }
    };
    run(&gpu); // cold pass warms the L2 model (steady-state measurement)
    gpu.sync();
    gpu.reset_stats();
    let t0 = gpu.sync();
    run(&gpu);
    let dt = gpu.sync() - t0;
    (dt / limbs as f64, gpu.stats().stream_occupancy())
}

fn main() {
    println!("Fig. 4 reproduction — (i)NTT time per limb (µs), N = 2^16");
    for spec in [DeviceSpec::rtx_4090(), DeviceSpec::rtx_4060_ti()] {
        let mut rows = Vec::new();
        for &limbs in &[16usize, 32, 64, 128] {
            let (f_ntt, f_occ) = ntt_us_per_limb(&spec, limbs, 8, 1.0, 1.0, false);
            let (f_intt, _) = ntt_us_per_limb(&spec, limbs, 8, 1.0, 1.0, true);
            let (p_ntt, p_occ) = ntt_us_per_limb(
                &spec,
                limbs,
                limbs, // monolithic
                PHANTOM_ACCESS_EFFICIENCY,
                PHANTOM_NTT_OP_FACTOR,
                false,
            );
            let (p_intt, _) = ntt_us_per_limb(
                &spec,
                limbs,
                limbs,
                PHANTOM_ACCESS_EFFICIENCY,
                PHANTOM_NTT_OP_FACTOR,
                true,
            );
            rows.push(vec![
                limbs.to_string(),
                format!("{f_ntt:7.3}"),
                format!("{f_intt:7.3}"),
                format!("{p_ntt:7.3}"),
                format!("{p_intt:7.3}"),
                format!("{:5.2}x", p_ntt / f_ntt),
                format!("{:3.0}% / {:3.0}%", f_occ * 100.0, p_occ * 100.0),
            ]);
        }
        print_table(
            &format!("{}: time per (i)NTT limb (µs)", spec.name),
            &[
                "limbs",
                "FIDESlib NTT",
                "FIDESlib iNTT",
                "Phantom NTT",
                "Phantom iNTT",
                "gap",
                "occupancy F/P",
            ],
            &rows,
        );
    }
    println!("\nPaper shape: FIDESlib stays flat/low as the working set grows; Phantom's");
    println!("per-limb time grows once the working set exceeds L2 (4090 ≈ 0.5–1 µs vs");
    println!("2.5–3 µs at 128 limbs; 4060 Ti up to ~8–12 µs).");
}
