//! Negacyclic Number Theoretic Transform.
//!
//! FIDESlib implements the NTT as a negacyclic convolution transform over
//! `Z_p[X]/(X^N + 1)` using the Radix-2 Cooley–Tukey scheme (§III-F.4): the
//! forward transform consumes a normal-order coefficient vector and produces a
//! bit-reversed evaluation vector, while the inverse transform uses
//! Gentleman–Sande butterflies to consume the bit-reversed evaluation vector
//! and emit normal-order coefficients — eliminating explicit bit-reversal
//! passes. All twiddle factors carry precomputed Shoup constants so the
//! butterflies use Shoup modular multiplication.

use serde::{Deserialize, Serialize};

use crate::modular::{Modulus, ShoupPrecomp};
use crate::poly::PolyOps;

/// Reverses the lowest `bits` bits of `x`.
#[inline(always)]
pub fn reverse_bits(x: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (usize::BITS - bits)
    }
}

/// Permutes a slice into bit-reversed order in place.
///
/// # Panics
///
/// Panics if the slice length is not a power of two.
pub fn bit_reverse<T>(a: &mut [T]) {
    let n = a.len();
    assert!(
        n.is_power_of_two(),
        "bit_reverse needs a power-of-two length"
    );
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = reverse_bits(i, bits);
        if i < j {
            a.swap(i, j);
        }
    }
}

/// Precomputed NTT tables for one `(modulus, ring degree)` pair.
///
/// Holds the primitive `2N`-th root of unity `ψ` and, as Shoup constants, the
/// forward twiddle factors `ψ^{brv(i)}` in Cooley–Tukey traversal order,
/// their inverses for the Gentleman–Sande inverse transform, and `N^{-1}`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NttTable {
    n: usize,
    log_n: u32,
    modulus: Modulus,
    psi: u64,
    /// `ψ^{brv(i)}` in Cooley–Tukey traversal order, as Shoup constants.
    root_powers_shoup: Vec<ShoupPrecomp>,
    /// `ψ^{-brv(i)}` for the Gentleman–Sande inverse, as Shoup constants.
    inv_root_powers_shoup: Vec<ShoupPrecomp>,
    n_inv: ShoupPrecomp,
}

impl NttTable {
    /// Builds tables for ring degree `n` (a power of two) and prime modulus
    /// `p ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or the modulus does not support a
    /// `2n`-th root of unity.
    pub fn new(n: usize, modulus: Modulus) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ring degree must be a power of two ≥ 2"
        );
        let p = modulus.value();
        assert_eq!(
            (p - 1) % (2 * n as u64),
            0,
            "modulus {p} does not support a 2n-th root of unity for n={n}"
        );
        let log_n = n.trailing_zeros();
        let psi = find_primitive_2n_root(n, &modulus);

        // Forward powers psi^0..psi^{n-1}; the CT loop then walks
        // root_powers_shoup[i] = psi^{brv(i)} sequentially. The inverse table
        // uses psi^{-k} = -psi^{n-k} (since psi^n ≡ -1), avoiding n inversions.
        let mut fwd = vec![0u64; n];
        let mut acc = 1u64;
        for item in fwd.iter_mut() {
            *item = acc;
            acc = modulus.mul_mod(acc, psi);
        }
        let mut root_powers_shoup = Vec::with_capacity(n);
        let mut inv_root_powers_shoup = Vec::with_capacity(n);
        for i in 0..n {
            let r = reverse_bits(i, log_n);
            let w = fwd[r];
            let w_inv = if r == 0 { 1 } else { p - fwd[n - r] };
            debug_assert_eq!(modulus.mul_mod(w, w_inv), 1);
            root_powers_shoup.push(ShoupPrecomp::new(w, &modulus));
            inv_root_powers_shoup.push(ShoupPrecomp::new(w_inv, &modulus));
        }
        let n_inv = ShoupPrecomp::new(modulus.inv_mod(n as u64), &modulus);

        Self {
            n,
            log_n,
            modulus,
            psi,
            root_powers_shoup,
            inv_root_powers_shoup,
            n_inv,
        }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `log2(N)`.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// The modulus these tables were built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The primitive `2N`-th root of unity `ψ`.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Forward negacyclic NTT: normal-order coefficients → bit-reversed
    /// evaluations, in place. Cooley–Tukey butterflies with Shoup twiddles.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward_inplace(&self, a: &mut [u64]) {
        self.forward_stages(a, 0, self.log_n);
    }

    /// Forward NTT restricted to the butterfly stages `[stage_begin,
    /// stage_end)` (stage 0 is the first CT stage). Used by the
    /// hierarchical/2D NTT to split the transform into two memory passes.
    /// The full in-place transform delegates here, so the Cooley–Tukey
    /// butterfly `(lo, hi) = (lo + w·hi, lo - w·hi)` lives in exactly one
    /// place.
    pub(crate) fn forward_stages(&self, a: &mut [u64], stage_begin: u32, stage_end: u32) {
        assert_eq!(a.len(), self.n);
        assert!(stage_end <= self.log_n && stage_begin <= stage_end);
        let m = &self.modulus;
        let mut half = self.n >> (stage_begin + 1);
        let mut groups = 1usize << stage_begin;
        for _ in stage_begin..stage_end {
            for i in 0..groups {
                let w = &self.root_powers_shoup[groups + i];
                let base = 2 * i * half;
                let (lo, hi) = a[base..base + 2 * half].split_at_mut(half);
                for (l, h) in lo.iter_mut().zip(hi) {
                    let u = *l;
                    let v = w.mul(*h, m);
                    *l = m.add_mod(u, v);
                    *h = m.sub_mod(u, v);
                }
            }
            groups <<= 1;
            half >>= 1;
        }
    }

    /// Inverse NTT restricted to Gentleman–Sande stages `[stage_begin,
    /// stage_end)`, where stage 0 is the **first** GS stage (group count
    /// `N/2`). Used by the hierarchical/2D iNTT. No `N^{-1}` scaling.
    /// The full in-place transforms delegate here, mirroring
    /// [`Self::forward_stages`]: the Gentleman–Sande butterfly
    /// `(lo, hi) = (lo + hi, w·(lo - hi))` lives only here.
    pub(crate) fn inverse_stages(&self, a: &mut [u64], stage_begin: u32, stage_end: u32) {
        assert_eq!(a.len(), self.n);
        assert!(stage_end <= self.log_n && stage_begin <= stage_end);
        let m = &self.modulus;
        let mut half = 1usize << stage_begin;
        let mut groups = self.n >> (stage_begin + 1);
        for _ in stage_begin..stage_end {
            for i in 0..groups {
                let w = &self.inv_root_powers_shoup[groups + i];
                let base = 2 * i * half;
                let (lo, hi) = a[base..base + 2 * half].split_at_mut(half);
                for (l, h) in lo.iter_mut().zip(hi) {
                    let u = *l;
                    let v = *h;
                    *l = m.add_mod(u, v);
                    *h = w.mul(m.sub_mod(u, v), m);
                }
            }
            half <<= 1;
            groups >>= 1;
        }
    }

    /// Inverse negacyclic NTT: bit-reversed evaluations → normal-order
    /// coefficients, in place. Gentleman–Sande butterflies followed by a fused
    /// `N^{-1}` scaling pass.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse_inplace(&self, a: &mut [u64]) {
        self.inverse_stages(a, 0, self.log_n);
        self.modulus.shoup_mul_assign_slices(&self.n_inv, a);
    }

    /// Inverse NTT without the trailing `N^{-1}` scaling (callers can fuse the
    /// scaling into a subsequent elementwise kernel, as FIDESlib's fusion
    /// machinery does).
    pub fn inverse_inplace_no_scale(&self, a: &mut [u64]) {
        self.inverse_stages(a, 0, self.log_n);
    }

    /// The forward transform of the monomial `X^{N/2}`, in closed form.
    /// Output `i` evaluates it at `ψ^{2·brv(i)+1}`, giving
    /// `ψ^{N/2}·(−1)^{brv(i)}` because `ψ^N = −1`, and `brv(i)` is odd
    /// exactly for the upper half of the outputs. Equal to
    /// [`Self::forward_inplace`] of the monomial, without the transform.
    pub fn forward_monomial_half(&self) -> Vec<u64> {
        // ψ^{brv(1)} = ψ^{N/2}, never zero.
        let w = self.root_powers_shoup[1].operand;
        let mut out = vec![w; self.n];
        out[self.n / 2..].fill(self.modulus.value() - w);
        out
    }

    /// The Shoup-precomputed `N^{-1}` constant (for fused scaling).
    #[inline]
    pub fn n_inv(&self) -> &ShoupPrecomp {
        &self.n_inv
    }

    /// Reference forward transform: evaluates the polynomial at `ψ^{2·brv(i)+1}`
    /// directly in `O(N^2)`. Only used by tests.
    pub fn forward_naive(&self, a: &[u64]) -> Vec<u64> {
        let m = &self.modulus;
        let n = self.n;
        let mut out = vec![0u64; n];
        for (i, o) in out.iter_mut().enumerate() {
            let e = 2 * reverse_bits(i, self.log_n) as u64 + 1;
            let x = m.pow_mod(self.psi, e);
            let mut acc = 0u64;
            let mut xp = 1u64;
            for &c in a {
                acc = m.add_mod(acc, m.mul_mod(c, xp));
                xp = m.mul_mod(xp, x);
            }
            *o = acc;
        }
        out
    }
}

/// Finds a primitive `2n`-th root of unity modulo `p`.
fn find_primitive_2n_root(n: usize, modulus: &Modulus) -> u64 {
    let p = modulus.value();
    let exponent = (p - 1) / (2 * n as u64);
    // Deterministic scan keeps table construction reproducible.
    let mut candidate = 2u64;
    loop {
        let root = modulus.pow_mod(candidate, exponent);
        // Order is exactly 2n iff root^n == -1 (n is a power of two).
        if root != 1 && modulus.pow_mod(root, n as u64) == p - 1 {
            return root;
        }
        candidate += 1;
        assert!(
            candidate < p,
            "failed to find a primitive root (modulus not prime?)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    fn table(log_n: u32, bits: u32) -> NttTable {
        let n = 1usize << log_n;
        let p = generate_ntt_primes(bits, 1, n)[0];
        NttTable::new(n, Modulus::new(p))
    }

    fn rand_poly(n: usize, p: u64, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % p
            })
            .collect()
    }

    #[test]
    fn reverse_bits_basics() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(5, 0), 0);
    }

    #[test]
    fn bit_reverse_involution() {
        let mut v: Vec<usize> = (0..16).collect();
        let orig = v.clone();
        bit_reverse(&mut v);
        assert_ne!(v, orig);
        bit_reverse(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn roundtrip_small_and_medium() {
        for (log_n, bits) in [(2u32, 20u32), (4, 30), (8, 45), (11, 55), (13, 59)] {
            let t = table(log_n, bits);
            let p = t.modulus().value();
            let mut a = rand_poly(t.n(), p, 0xfeed + log_n as u64);
            let orig = a.clone();
            t.forward_inplace(&mut a);
            assert_ne!(a, orig, "transform should not be identity");
            t.inverse_inplace(&mut a);
            assert_eq!(a, orig, "log_n={log_n}");
        }
    }

    #[test]
    fn forward_matches_naive_evaluation() {
        let t = table(4, 30);
        let p = t.modulus().value();
        let a = rand_poly(t.n(), p, 0xabc);
        let mut fast = a.clone();
        t.forward_inplace(&mut fast);
        let naive = t.forward_naive(&a);
        assert_eq!(fast, naive);
    }

    #[test]
    fn pointwise_mul_is_negacyclic_convolution() {
        let t = table(3, 25);
        let m = *t.modulus();
        let p = m.value();
        let a = rand_poly(t.n(), p, 1);
        let b = rand_poly(t.n(), p, 2);
        let expected = crate::poly::negacyclic_schoolbook_mul(&a, &b, &m);
        let mut ea = a.clone();
        let mut eb = b.clone();
        t.forward_inplace(&mut ea);
        t.forward_inplace(&mut eb);
        let mut prod: Vec<u64> = ea.iter().zip(&eb).map(|(&x, &y)| m.mul_mod(x, y)).collect();
        t.inverse_inplace(&mut prod);
        assert_eq!(prod, expected);
    }

    #[test]
    fn linearity() {
        let t = table(6, 40);
        let m = *t.modulus();
        let p = m.value();
        let a = rand_poly(t.n(), p, 7);
        let b = rand_poly(t.n(), p, 8);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add_mod(x, y)).collect();
        let mut ea = a.clone();
        let mut eb = b.clone();
        let mut esum = sum.clone();
        t.forward_inplace(&mut ea);
        t.forward_inplace(&mut eb);
        t.forward_inplace(&mut esum);
        for i in 0..t.n() {
            assert_eq!(esum[i], m.add_mod(ea[i], eb[i]));
        }
    }

    #[test]
    fn no_scale_variant_differs_by_n_inv() {
        let t = table(5, 35);
        let m = *t.modulus();
        let mut a = rand_poly(t.n(), m.value(), 42);
        t.forward_inplace(&mut a);
        let mut scaled = a.clone();
        let mut unscaled = a.clone();
        t.inverse_inplace(&mut scaled);
        t.inverse_inplace_no_scale(&mut unscaled);
        for i in 0..t.n() {
            assert_eq!(scaled[i], t.n_inv().mul(unscaled[i], &m));
        }
    }

    #[test]
    fn staged_forward_equals_full_forward() {
        let t = table(6, 40);
        let mut a = rand_poly(t.n(), t.modulus().value(), 9);
        let mut b = a.clone();
        t.forward_inplace(&mut a);
        t.forward_stages(&mut b, 0, 3);
        t.forward_stages(&mut b, 3, t.log_n());
        assert_eq!(a, b);
    }

    #[test]
    fn monomial_half_closed_form_equals_the_transform() {
        for log_n in 1..=12u32 {
            for bits in [20u32, 30, 40, 50, 55, 59] {
                let t = table(log_n, bits);
                let mut a = vec![0u64; t.n()];
                a[t.n() / 2] = 1;
                t.forward_inplace(&mut a);
                assert_eq!(t.forward_monomial_half(), a, "logN {log_n}, {bits} bits");
            }
        }
    }

    #[test]
    fn constant_polynomial_transforms_to_constant() {
        let t = table(4, 30);
        let mut a = vec![0u64; t.n()];
        a[0] = 5;
        t.forward_inplace(&mut a);
        assert!(
            a.iter().all(|&x| x == 5),
            "constant poly evaluates to constant"
        );
    }
}
