//! # fides-math
//!
//! Low-level mathematical substrate for `fideslib-rs`, the Rust reproduction of
//! FIDESlib (ISPASS 2025): word-sized modular arithmetic, NTT-friendly prime
//! generation, negacyclic (i)NTT in both radix-2 and hierarchical/2D forms,
//! dense polynomial-ring helpers over `Z_q[X]/(X^N + 1)`, sampling, and a
//! minimal complex-arithmetic module used by the CKKS canonical embedding.
//!
//! Everything in this crate is pure, deterministic CPU code with no knowledge
//! of the GPU simulator; higher layers wrap these routines into simulated
//! kernels.
//!
//! ```
//! use fides_math::{Modulus, NttTable};
//!
//! let p = fides_math::generate_ntt_primes(50, 1, 1 << 10)[0];
//! let m = Modulus::new(p);
//! let table = NttTable::new(1 << 10, m);
//! let mut a: Vec<u64> = (0..1u64 << 10).map(|i| i % p).collect();
//! let orig = a.clone();
//! table.forward_inplace(&mut a);
//! table.inverse_inplace(&mut a);
//! assert_eq!(a, orig);
//! ```

#![warn(missing_docs)]

mod cplx;
mod modular;
mod ntt;
mod ntt2d;
mod poly;
mod prime;
mod sampling;

pub use cplx::{special_fft, special_ifft, Complex64};
pub use modular::{Modulus, ShoupPrecomp};
pub use ntt::{bit_reverse, reverse_bits, NttTable};
pub use ntt2d::Ntt2d;
pub use poly::{
    automorphism_coeff, automorphism_eval, build_eval_permutation, negacyclic_schoolbook_mul,
    switch_modulus_centered, PolyOps,
};
pub use prime::{generate_ntt_primes, generate_scaling_primes, is_prime_u64, next_ntt_prime_below};
pub use sampling::{
    sample_gaussian_coeffs, sample_ternary_coeffs, sample_uniform_poly, signed_to_residues,
};
