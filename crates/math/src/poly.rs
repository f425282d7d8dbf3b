//! Dense polynomial operations over `Z_q[X]/(X^N + 1)`.
//!
//! These are the elementwise and permutation primitives that FIDESlib's
//! elementwise / automorphism GPU kernels compute; the server library wraps
//! them in simulated kernel launches. Everything operates on plain `&[u64]`
//! residue slices so a single limb is exactly one contiguous device buffer.

use crate::modular::{Modulus, ShoupPrecomp};
use crate::ntt::reverse_bits;

/// Elementwise slice operations under a common modulus.
///
/// Implemented for [`Modulus`] so call sites read
/// `modulus.add_slices(a, b, out)`.
pub trait PolyOps {
    /// `out[i] = a[i] + b[i] mod p`.
    fn add_slices(&self, a: &[u64], b: &[u64], out: &mut [u64]);
    /// `a[i] += b[i] mod p`.
    fn add_assign_slices(&self, a: &mut [u64], b: &[u64]);
    /// `out[i] = a[i] - b[i] mod p`.
    fn sub_slices(&self, a: &[u64], b: &[u64], out: &mut [u64]);
    /// `a[i] -= b[i] mod p`.
    fn sub_assign_slices(&self, a: &mut [u64], b: &[u64]);
    /// `out[i] = a[i] * b[i] mod p`.
    fn mul_slices(&self, a: &[u64], b: &[u64], out: &mut [u64]);
    /// `a[i] *= b[i] mod p`.
    fn mul_assign_slices(&self, a: &mut [u64], b: &[u64]);
    /// `a[i] = a[i] * b[i] + c[i] mod p` (dot-product-fusion building block).
    fn mul_add_assign_slices(&self, acc: &mut [u64], a: &[u64], b: &[u64]);
    /// `a[i] *= c mod p`.
    fn scalar_mul_assign(&self, a: &mut [u64], c: u64);
    /// `a[i] += c mod p`.
    fn scalar_add_assign(&self, a: &mut [u64], c: u64);
    /// `a[i] = -a[i] mod p`.
    fn neg_assign(&self, a: &mut [u64]);
    /// `out[i] = w * x[i] mod p` for a Shoup-precomputed constant `w` (the
    /// base-conversion input scaling).
    fn shoup_mul_slices(&self, w: &ShoupPrecomp, x: &[u64], out: &mut [u64]);
    /// `x[i] = w * x[i] mod p` for a Shoup-precomputed constant `w` (the
    /// `N^{-1}` and base-conversion scaling).
    fn shoup_mul_assign_slices(&self, w: &ShoupPrecomp, x: &mut [u64]);
    /// `x[i] = w * (x[i] - c[i]) mod p` — the fused Rescale/ModDown tail:
    /// subtract the switched last-limb contribution, then multiply by the
    /// Shoup-precomputed `q_last^{-1}`.
    fn sub_shoup_mul_assign_slices(&self, w: &ShoupPrecomp, x: &mut [u64], c: &[u64]);
}

// The one home of the elementwise limb loops. The binary forms assert their
// lengths because `zip` would otherwise truncate a mismatched pair silently.
impl PolyOps for Modulus {
    fn add_slices(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(a.len() == b.len() && a.len() == out.len());
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = self.add_mod(x, y);
        }
    }

    fn add_assign_slices(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.add_mod(*x, y);
        }
    }

    fn sub_slices(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(a.len() == b.len() && a.len() == out.len());
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = self.sub_mod(x, y);
        }
    }

    fn sub_assign_slices(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.sub_mod(*x, y);
        }
    }

    fn mul_slices(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(a.len() == b.len() && a.len() == out.len());
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = self.mul_mod(x, y);
        }
    }

    fn mul_assign_slices(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.mul_mod(*x, y);
        }
    }

    fn mul_add_assign_slices(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert!(acc.len() == a.len() && a.len() == b.len());
        for ((x, &y), &z) in acc.iter_mut().zip(a).zip(b) {
            *x = self.mul_add_mod(y, z, *x);
        }
    }

    fn scalar_mul_assign(&self, a: &mut [u64], c: u64) {
        let c = self.reduce_u64(c);
        for x in a.iter_mut() {
            *x = self.mul_mod(*x, c);
        }
    }

    fn scalar_add_assign(&self, a: &mut [u64], c: u64) {
        let c = self.reduce_u64(c);
        for x in a.iter_mut() {
            *x = self.add_mod(*x, c);
        }
    }

    fn neg_assign(&self, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = self.neg_mod(*x);
        }
    }

    fn shoup_mul_slices(&self, w: &ShoupPrecomp, x: &[u64], out: &mut [u64]) {
        assert_eq!(x.len(), out.len());
        for (o, &v) in out.iter_mut().zip(x) {
            *o = w.mul(v, self);
        }
    }

    fn shoup_mul_assign_slices(&self, w: &ShoupPrecomp, x: &mut [u64]) {
        for v in x.iter_mut() {
            *v = w.mul(*v, self);
        }
    }

    fn sub_shoup_mul_assign_slices(&self, w: &ShoupPrecomp, x: &mut [u64], c: &[u64]) {
        assert_eq!(x.len(), c.len());
        for (v, &y) in x.iter_mut().zip(c) {
            *v = w.mul(self.sub_mod(*v, y), self);
        }
    }
}

/// Schoolbook negacyclic multiplication in `O(N^2)` — the reference the NTT
/// path is validated against.
#[allow(clippy::needless_range_loop)] // the index arithmetic IS the algorithm here
pub fn negacyclic_schoolbook_mul(a: &[u64], b: &[u64], modulus: &Modulus) -> Vec<u64> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0u64; n];
    for i in 0..n {
        for j in 0..n {
            let prod = modulus.mul_mod(a[i], b[j]);
            let k = i + j;
            if k < n {
                out[k] = modulus.add_mod(out[k], prod);
            } else {
                out[k - n] = modulus.sub_mod(out[k - n], prod);
            }
        }
    }
    out
}

/// Applies the Galois automorphism `X → X^g` to a **coefficient-domain**
/// polynomial: coefficient `a_i` moves to position `i·g mod 2N`, negated when
/// the destination wraps past `N` (because `X^N = −1`).
///
/// `g` must be odd (a unit of `Z_{2N}`).
pub fn automorphism_coeff(a: &[u64], g: usize, modulus: &Modulus, out: &mut [u64]) {
    let n = a.len();
    assert_eq!(out.len(), n);
    assert!(n.is_power_of_two());
    assert!(g % 2 == 1, "galois element must be odd");
    let two_n = 2 * n;
    let mask = two_n - 1;
    for (i, &c) in a.iter().enumerate() {
        let j = (i * g) & mask;
        if j < n {
            out[j] = c;
        } else {
            out[j - n] = modulus.neg_mod(c);
        }
    }
}

/// Builds the index permutation implementing the automorphism `X → X^g`
/// directly on a **bit-reversed evaluation-domain** (NTT-form) polynomial:
/// `out[i] = in[perm[i]]`, no sign corrections needed.
///
/// The forward NTT stores `p(ψ^{2·brv(i)+1})` at index `i`; the automorphism
/// permutes evaluation points `ψ^e → ψ^{e·g}`.
pub fn build_eval_permutation(n: usize, g: usize) -> Vec<u32> {
    assert!(n.is_power_of_two());
    assert!(g % 2 == 1, "galois element must be odd");
    let log_n = n.trailing_zeros();
    let two_n = 2 * n;
    let mask = two_n - 1;
    (0..n)
        .map(|i| {
            let e = 2 * reverse_bits(i, log_n) + 1;
            let src_e = (e * g) & mask; // odd × odd stays odd
            reverse_bits((src_e - 1) / 2, log_n) as u32
        })
        .collect()
}

/// Applies a precomputed evaluation-domain automorphism permutation.
pub fn automorphism_eval(a: &[u64], perm: &[u32], out: &mut [u64]) {
    assert!(a.len() == perm.len() && a.len() == out.len());
    for (o, &src) in out.iter_mut().zip(perm) {
        *o = a[src as usize];
    }
}

/// Centered modulus switch of a single residue: reinterprets `v ∈ [0, q_from)`
/// as a centered integer in `(−q_from/2, q_from/2]` and reduces it modulo
/// `q_to`. Used by Rescale and ModDown (the paper's `SwitchModulo` fused into
/// the NTT kernels).
#[inline]
pub fn switch_modulus_centered(v: u64, q_from: &Modulus, q_to: &Modulus) -> u64 {
    if v > q_from.value() / 2 {
        // v represents the negative value v - q_from.
        q_to.sub_mod(0, q_to.reduce_u64(q_from.value() - v))
    } else {
        q_to.reduce_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttTable;
    use crate::prime::generate_ntt_primes;

    fn setup(log_n: u32) -> (NttTable, Vec<u64>) {
        let n = 1usize << log_n;
        let p = generate_ntt_primes(40, 1, n)[0];
        let t = NttTable::new(n, Modulus::new(p));
        let mut s = 0x1234_5678u64;
        let a = (0..n)
            .map(|_| {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                s % p
            })
            .collect();
        (t, a)
    }

    #[test]
    fn elementwise_ops() {
        let m = Modulus::new(97);
        let a = vec![10u64, 96, 0, 50];
        let b = vec![90u64, 1, 0, 47];
        let mut out = vec![0u64; 4];
        m.add_slices(&a, &b, &mut out);
        assert_eq!(out, vec![3, 0, 0, 0]);
        m.sub_slices(&a, &b, &mut out);
        assert_eq!(out, vec![17, 95, 0, 3]);
        m.mul_slices(&a, &b, &mut out);
        assert_eq!(out, vec![900 % 97, 96, 0, 50 * 47 % 97]);
        let mut acc = vec![1u64, 1, 1, 1];
        m.mul_add_assign_slices(&mut acc, &a, &b);
        assert_eq!(acc, vec![900 % 97 + 1, 0, 1, (50 * 47 + 1) % 97]);
    }

    #[test]
    fn scalar_ops_reduce_input() {
        let m = Modulus::new(97);
        let mut a = vec![5u64, 96];
        m.scalar_mul_assign(&mut a, 97 + 2);
        assert_eq!(a, vec![10, 95]);
        m.scalar_add_assign(&mut a, 97 + 3);
        assert_eq!(a, vec![13, 1]);
        m.neg_assign(&mut a);
        assert_eq!(a, vec![84, 96]);
    }

    #[test]
    fn coeff_automorphism_matches_direct_substitution() {
        // Verify on a tiny case by evaluating the polynomial.
        let m = Modulus::new(97);
        let a = vec![1u64, 2, 3, 4]; // 1 + 2X + 3X^2 + 4X^3, N=4
        let mut out = vec![0u64; 4];
        automorphism_coeff(&a, 3, &m, &mut out);
        // X -> X^3: 1 + 2X^3 + 3X^6 + 4X^9 = 1 + 2X^3 - 3X^2 + 4X (mod X^4+1)
        assert_eq!(out, vec![1, 4, 97 - 3, 2]);
    }

    #[test]
    fn eval_automorphism_matches_coeff_path() {
        let (t, a) = setup(6);
        let m = *t.modulus();
        let n = t.n();
        for g in [3usize, 5, 2 * n - 1, 5usize.pow(3) % (2 * n)] {
            // Reference: iNTT -> coeff automorphism -> NTT.
            let mut coeff = a.clone();
            t.inverse_inplace(&mut coeff);
            let mut auto_coeff = vec![0u64; n];
            automorphism_coeff(&coeff, g, &m, &mut auto_coeff);
            t.forward_inplace(&mut auto_coeff);
            // Fast path: permutation in eval domain.
            let perm = build_eval_permutation(n, g);
            let mut auto_eval = vec![0u64; n];
            automorphism_eval(&a, &perm, &mut auto_eval);
            assert_eq!(auto_eval, auto_coeff, "g={g}");
        }
    }

    #[test]
    fn automorphism_composition() {
        let (t, a) = setup(5);
        let n = t.n();
        let p5 = build_eval_permutation(n, 5);
        let p25 = build_eval_permutation(n, 25 % (2 * n));
        let mut once = vec![0u64; n];
        let mut twice = vec![0u64; n];
        let mut direct = vec![0u64; n];
        automorphism_eval(&a, &p5, &mut once);
        automorphism_eval(&once, &p5, &mut twice);
        automorphism_eval(&a, &p25, &mut direct);
        assert_eq!(twice, direct);
    }

    #[test]
    fn switch_modulus_centered_is_signed_reduction() {
        let q_from = Modulus::new(1009);
        let q_to = Modulus::new(97);
        for v in 0..1009u64 {
            let signed = q_from.to_centered_i64(v);
            assert_eq!(
                switch_modulus_centered(v, &q_from, &q_to),
                q_to.from_i64(signed)
            );
        }
    }

    #[test]
    fn schoolbook_identity() {
        let m = Modulus::new(97);
        let mut one = vec![0u64; 8];
        one[0] = 1;
        let a = vec![5u64, 6, 7, 8, 9, 10, 11, 12];
        assert_eq!(negacyclic_schoolbook_mul(&a, &one, &m), a);
    }

    #[test]
    fn schoolbook_x_times_x_pow_nm1_is_minus_one() {
        let m = Modulus::new(97);
        let n = 8;
        let mut x = vec![0u64; n];
        x[1] = 1;
        let mut xn1 = vec![0u64; n];
        xn1[n - 1] = 1;
        let prod = negacyclic_schoolbook_mul(&x, &xn1, &m);
        let mut expect = vec![0u64; n];
        expect[0] = 96; // -1
        assert_eq!(prod, expect);
    }
}
