//! Kernel-cost helpers: translate CKKS work units into kernel op counts and bytes.
//!
//! Centralizing the traffic/compute formulas keeps the simulator charges
//! consistent across operations and lets the Phantom baseline reuse them with
//! different configuration (monolithic kernels, no fusion, derated access
//! efficiency).

use fides_gpu_sim::{
    ADD_OPS, BARRETT_MULMOD_OPS, BUTTERFLY_OPS, MODADD_OPS, SHOUP_MULMOD_OPS, WIDE_MUL_OPS,
};

/// Bytes of one limb of ring degree `n`.
#[inline]
pub(crate) fn limb_bytes(n: usize) -> u64 {
    (n * 8) as u64
}

/// int32 ops of one forward/inverse NTT *phase* (half the stages) over one
/// limb.
#[inline]
pub(crate) fn ntt_phase_ops(n: usize) -> u64 {
    let log_n = n.trailing_zeros() as u64;
    // Each phase runs ~log_n/2 stages of n/2 butterflies.
    (n as u64 / 2) * log_n.div_ceil(2) * BUTTERFLY_OPS
}

/// int32 ops of an elementwise modular multiply over one limb.
#[inline]
pub(crate) fn mul_ops(n: usize) -> u64 {
    n as u64 * BARRETT_MULMOD_OPS
}

/// int32 ops of an elementwise modular add over one limb.
#[inline]
pub(crate) fn add_ops(n: usize) -> u64 {
    n as u64 * MODADD_OPS
}

/// int32 ops of an elementwise multiply-accumulate over one limb.
#[inline]
pub(crate) fn mul_add_ops(n: usize) -> u64 {
    n as u64 * (BARRETT_MULMOD_OPS + ADD_OPS)
}

/// int32 ops of a Shoup constant multiply over one limb.
#[inline]
pub(crate) fn shoup_ops(n: usize) -> u64 {
    n as u64 * SHOUP_MULMOD_OPS
}

/// int32 ops of one base-conversion output limb accumulating `src` inputs
/// over `n` coefficients (wide multiply-accumulate + one deferred reduction,
/// §III-F.3).
#[inline]
pub(crate) fn base_conv_ops(n: usize, src: usize) -> u64 {
    n as u64 * (src as u64 * (WIDE_MUL_OPS + 2 * ADD_OPS) + BARRETT_MULMOD_OPS)
}

/// int32 ops of a centered modulus switch over one limb.
#[inline]
pub(crate) fn switch_modulus_ops(n: usize) -> u64 {
    n as u64 * (BARRETT_MULMOD_OPS / 2 + ADD_OPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_scale_with_n() {
        assert!(ntt_phase_ops(1 << 16) > ntt_phase_ops(1 << 12));
        assert_eq!(mul_ops(1024), 1024 * BARRETT_MULMOD_OPS);
        assert!(base_conv_ops(1024, 8) > base_conv_ops(1024, 2));
        assert!(shoup_ops(64) < mul_ops(64), "Shoup cheaper than Barrett");
        assert!(switch_modulus_ops(16) > 0);
        assert!(add_ops(16) < mul_add_ops(16));
    }

    #[test]
    fn limb_bytes_is_8n() {
        assert_eq!(limb_bytes(1 << 16), 512 * 1024);
    }
}
