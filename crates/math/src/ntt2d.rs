//! Hierarchical / 2D NTT.
//!
//! The GPU cannot hold a full limb (64–512 KB for `N ∈ 2^13..2^17`) in one
//! streaming multiprocessor's shared memory, so FIDESlib splits the Radix-2
//! transform into two blocked passes over `√N × √N` tiles (Fig. 3): each
//! element is touched by exactly two read/write round-trips to global memory
//! (four accesses total) instead of `log N`.
//!
//! [`Ntt2d`] reproduces this organization faithfully at the algorithmic level:
//! *pass 1* executes the first `log N − log N₂` Cooley–Tukey stages (the
//! strided "column" sub-FFTs, here materialized through an explicit gather so
//! each column tile is contiguous, mirroring the coalesced 32-byte
//! transactions of the kernel), and *pass 2* executes the remaining stages,
//! which are naturally contiguous. The output is bit-for-bit identical to
//! [`NttTable::forward_inplace`]; the GPU simulator charges it as two kernels
//! with the 4-accesses-per-element traffic of the paper.

use crate::modular::Modulus;
use crate::ntt::NttTable;
use crate::poly::PolyOps;

/// Two-pass hierarchical NTT driver built on top of an [`NttTable`].
#[derive(Clone, Debug)]
pub struct Ntt2d {
    table: NttTable,
    /// Stage index where pass 1 ends and pass 2 begins.
    split_stage: u32,
}

impl Ntt2d {
    /// Wraps `table`, splitting the stage sequence at `⌈log N / 2⌉` so both
    /// passes work on `≈ √N`-sized sub-FFTs as in the paper.
    pub fn new(table: NttTable) -> Self {
        let split_stage = table.log_n().div_ceil(2);
        Self { table, split_stage }
    }

    /// Wraps `table` with an explicit split point (number of stages executed
    /// in the first pass). Exposed for ablation benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `split_stage > log N`.
    pub fn with_split(table: NttTable, split_stage: u32) -> Self {
        assert!(split_stage <= table.log_n());
        Self { table, split_stage }
    }

    /// The underlying radix-2 tables.
    pub fn table(&self) -> &NttTable {
        &self.table
    }

    /// Number of butterfly stages executed by the first (strided) pass.
    pub fn split_stage(&self) -> u32 {
        self.split_stage
    }

    /// Convenience constructor from `(n, modulus)`.
    pub fn with_modulus(n: usize, modulus: Modulus) -> Self {
        Self::new(NttTable::new(n, modulus))
    }

    /// Executes only the first (column/strided) pass of the forward
    /// transform. Exposed so the simulator can charge the two passes as
    /// separate kernels.
    pub fn forward_pass1(&self, a: &mut [u64]) {
        self.table.forward_stages(a, 0, self.split_stage);
    }

    /// Executes only the second (row/contiguous) pass of the forward
    /// transform.
    pub fn forward_pass2(&self, a: &mut [u64]) {
        self.table
            .forward_stages(a, self.split_stage, self.table.log_n());
    }

    /// Full forward transform as the two hierarchical passes. Identical
    /// output to [`NttTable::forward_inplace`].
    pub fn forward_inplace(&self, a: &mut [u64]) {
        self.forward_pass1(a);
        self.forward_pass2(a);
    }

    /// First (contiguous) pass of the inverse transform.
    pub fn inverse_pass1(&self, a: &mut [u64]) {
        let split = self.table.log_n() - self.split_stage;
        self.table.inverse_stages(a, 0, split);
    }

    /// Second (strided) pass of the inverse transform, with the `N^{-1}`
    /// scaling fused in.
    pub fn inverse_pass2(&self, a: &mut [u64]) {
        let split = self.table.log_n() - self.split_stage;
        self.table.inverse_stages(a, split, self.table.log_n());
        self.table
            .modulus()
            .shoup_mul_assign_slices(self.table.n_inv(), a);
    }

    /// Full inverse transform as the two hierarchical passes. Identical
    /// output to [`NttTable::inverse_inplace`].
    pub fn inverse_inplace(&self, a: &mut [u64]) {
        self.inverse_pass1(a);
        self.inverse_pass2(a);
    }

    /// Global-memory accesses per element charged by the cost model for one
    /// hierarchical transform: two passes × (read + write).
    pub const GLOBAL_ACCESSES_PER_ELEMENT: u32 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    fn setup(log_n: u32) -> (Ntt2d, Vec<u64>) {
        let n = 1usize << log_n;
        let p = generate_ntt_primes(45, 1, n)[0];
        let t = Ntt2d::with_modulus(n, Modulus::new(p));
        let mut state = 0x5eed_u64 + log_n as u64;
        let a = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state % p
            })
            .collect();
        (t, a)
    }

    #[test]
    fn matches_radix2_forward() {
        for log_n in [4u32, 7, 10, 12] {
            let (t, a) = setup(log_n);
            let mut two_pass = a.clone();
            let mut reference = a.clone();
            t.forward_inplace(&mut two_pass);
            t.table().forward_inplace(&mut reference);
            assert_eq!(two_pass, reference, "log_n={log_n}");
        }
    }

    #[test]
    fn roundtrip() {
        let (t, a) = setup(9);
        let mut x = a.clone();
        t.forward_inplace(&mut x);
        t.inverse_inplace(&mut x);
        assert_eq!(x, a);
    }

    #[test]
    fn staged_inverse_matches_radix2() {
        for log_n in [5u32, 8, 11] {
            let (t, a) = setup(log_n);
            let mut ours = a.clone();
            let mut reference = a.clone();
            t.inverse_pass1(&mut ours);
            t.inverse_pass2(&mut ours);
            t.table().inverse_inplace(&mut reference);
            assert_eq!(ours, reference, "log_n={log_n}");
        }
    }

    #[test]
    fn split_is_balanced() {
        let (t, _) = setup(11);
        assert_eq!(t.split_stage(), 6); // ceil(11/2)
        let (t, _) = setup(12);
        assert_eq!(t.split_stage(), 6);
    }

    #[test]
    fn custom_split_still_correct() {
        let n = 1usize << 8;
        let p = generate_ntt_primes(40, 1, n)[0];
        let table = NttTable::new(n, Modulus::new(p));
        for split in 0..=8u32 {
            let t = Ntt2d::with_split(table.clone(), split);
            let a: Vec<u64> = (0..n as u64).map(|i| i * 31 % p).collect();
            let mut x = a.clone();
            let mut reference = a.clone();
            t.forward_inplace(&mut x);
            table.forward_inplace(&mut reference);
            assert_eq!(x, reference, "split={split}");
        }
    }
}
