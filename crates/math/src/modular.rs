//! Word-sized modular arithmetic.
//!
//! Implements the two reduction families of Table III of the FIDESlib paper
//! that the library computes with:
//!
//! * **Improved Barrett** reduction/multiplication — the library default,
//!   requiring no special operand encoding ([`Modulus::reduce_u128`],
//!   [`Modulus::mul_mod`]).
//! * **Shoup** multiplication — used when one operand is a precomputed
//!   constant, e.g. NTT twiddle factors ([`ShoupPrecomp`]).
//!
//! Table III's third family, Montgomery, needs every operand converted into
//! Montgomery form first; FIDESlib defaults to Barrett for that reason, and
//! this crate does not implement it.
//!
//! All moduli are odd primes `p < 2^62`, matching FIDESlib's word-sized RNS
//! limbs.

use serde::{Deserialize, Serialize};

/// An odd prime modulus `p < 2^62` with its precomputed Barrett constant.
///
/// The Barrett constant is `⌊2^128 / p⌋` stored as two 64-bit words; a 128-bit
/// value is reduced with three wide multiplications and at most one
/// conditional subtraction (the "improved Barrett" method of Shivdikar et
/// al. used by FIDESlib).
///
/// ```
/// use fides_math::Modulus;
/// let m = Modulus::new(0x7fff_ffff_e001); // say, some NTT prime
/// assert_eq!(m.mul_mod(12345, 67890), (12345u128 * 67890 % m.value() as u128) as u64);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Modulus {
    value: u64,
    /// `⌊2^128 / value⌋` as (low, high) words.
    ratio: (u64, u64),
    bits: u32,
}

impl Modulus {
    /// Creates a modulus with all reduction constants precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `value` is even, less than 3, or not below `2^62`.
    pub fn new(value: u64) -> Self {
        assert!(value >= 3, "modulus must be at least 3");
        assert!(value % 2 == 1, "modulus must be odd");
        assert!(value < (1u64 << 62), "modulus must be below 2^62");
        let ratio128 = u128::MAX / value as u128; // == floor(2^128 / value) for odd value
        let ratio = (ratio128 as u64, (ratio128 >> 64) as u64);
        let bits = 64 - value.leading_zeros();
        Self { value, ratio, bits }
    }

    /// The modulus value `p`.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits of `p`.
    #[inline(always)]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Reduces a full 128-bit value modulo `p` using improved Barrett
    /// reduction: one wide and two low multiplications, a single conditional
    /// subtraction.
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let p = self.value;
        let x0 = x as u64;
        let x1 = (x >> 64) as u64;
        let (r0, r1) = self.ratio;
        // q = floor(x * ratio / 2^128); only the low 64 bits of q are needed.
        let a_hi = ((x0 as u128 * r0 as u128) >> 64) as u64;
        let b = x0 as u128 * r1 as u128;
        let c = x1 as u128 * r0 as u128;
        let s1 = a_hi as u128 + (b as u64) as u128 + (c as u64) as u128;
        let q_lo = ((b >> 64) as u64)
            .wrapping_add((c >> 64) as u64)
            .wrapping_add((s1 >> 64) as u64)
            .wrapping_add(x1.wrapping_mul(r1));
        let r = x0.wrapping_sub(q_lo.wrapping_mul(p));
        if r >= p {
            r - p
        } else {
            r
        }
    }

    /// Reduces a 64-bit value modulo `p`.
    #[inline(always)]
    pub fn reduce_u64(&self, x: u64) -> u64 {
        if x < self.value {
            x
        } else {
            self.reduce_u128(x as u128)
        }
    }

    /// Modular addition of operands already in `[0, p)`.
    #[inline(always)]
    pub fn add_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction of operands already in `[0, p)`.
    #[inline(always)]
    pub fn sub_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation of an operand already in `[0, p)`.
    #[inline(always)]
    pub fn neg_mod(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Barrett modular multiplication: two wide plus one low multiplication.
    #[inline(always)]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add `a * b + c mod p`.
    #[inline(always)]
    pub fn mul_add_mod(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn pow_mod(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce_u64(base);
        let mut acc: u64 = 1;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul_mod(acc, base);
            }
            base = self.mul_mod(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (`p` must be prime).
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod p)`, which has no inverse.
    pub fn inv_mod(&self, a: u64) -> u64 {
        let a = self.reduce_u64(a);
        assert!(a != 0, "zero has no modular inverse");
        let inv = self.pow_mod(a, self.value - 2);
        debug_assert_eq!(self.mul_mod(a, inv), 1);
        inv
    }

    /// Converts a signed value to its canonical residue in `[0, p)`.
    #[inline(always)]
    pub fn from_i64(&self, v: i64) -> u64 {
        if v >= 0 {
            self.reduce_u64(v as u64)
        } else {
            let r = self.reduce_u64(v.unsigned_abs());
            self.neg_mod(r)
        }
    }

    /// Interprets a residue in `[0, p)` as a centered signed value in
    /// `(-p/2, p/2]`.
    #[inline(always)]
    pub fn to_centered_i64(&self, v: u64) -> i64 {
        debug_assert!(v < self.value);
        if v > self.value / 2 {
            -((self.value - v) as i64)
        } else {
            v as i64
        }
    }
}

/// Shoup precomputation for multiplying by a fixed constant `w < p`.
///
/// Shoup multiplication trades one wide multiplication for two low ones
/// (Table III), which is profitable when the same constant multiplies many
/// elements — exactly the NTT twiddle-factor pattern FIDESlib exploits.
///
/// ```
/// use fides_math::{Modulus, ShoupPrecomp};
/// let m = Modulus::new(998244353);
/// let w = ShoupPrecomp::new(12345, &m);
/// assert_eq!(w.mul(67890, &m), m.mul_mod(12345, 67890));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShoupPrecomp {
    /// The constant operand `w`.
    pub operand: u64,
    /// `⌊w · 2^64 / p⌋`.
    pub quotient: u64,
}

impl ShoupPrecomp {
    /// Precomputes the Shoup quotient for constant `w` (must satisfy `w < p`).
    #[inline]
    pub fn new(w: u64, modulus: &Modulus) -> Self {
        debug_assert!(w < modulus.value());
        // ⌊w·2^64/p⌋ from the modulus's stored ⌊2^128/p⌋ = r1·2^64 + r0,
        // without a 128-bit division: the high words of w·⌊2^128/p⌋
        // undershoot the quotient by at most one, and the remainder
        // w·2^64 − q·p (below 2p, so exact in 64 bits) says when to add it.
        let p = modulus.value();
        let (r0, r1) = modulus.ratio;
        let mut quotient = w * r1 + ((w as u128 * r0 as u128) >> 64) as u64;
        if 0u64.wrapping_sub(quotient.wrapping_mul(p)) >= p {
            quotient += 1;
        }
        Self {
            operand: w,
            quotient,
        }
    }

    /// Multiplies `x` (any `u64`) by the stored constant modulo `p` with one
    /// wide and two low multiplications.
    #[inline(always)]
    pub fn mul(&self, x: u64, modulus: &Modulus) -> u64 {
        let p = modulus.value();
        let q = ((self.quotient as u128 * x as u128) >> 64) as u64;
        let r = self.operand.wrapping_mul(x).wrapping_sub(q.wrapping_mul(p));
        if r >= p {
            r - p
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRIMES: &[u64] = &[
        998244353,             // 2^23 NTT prime
        0x1fff_ffff_ffb4_0001, // 61-bit
        (1u64 << 61) - 1,      // Mersenne 61 (prime)
        4611686018326724609,   // 62-bit NTT-friendly
        65537,
        3,
    ];

    #[test]
    fn barrett_reduce_matches_division() {
        for &p in PRIMES {
            let m = Modulus::new(p);
            let samples: Vec<u128> = vec![
                0,
                1,
                p as u128 - 1,
                p as u128,
                p as u128 + 1,
                (p as u128) * (p as u128) - 1,
                u128::MAX,
                u128::MAX - 1,
                1 << 64,
                (1 << 64) - 1,
                0xdead_beef_cafe_babe_1234_5678_9abc_def0,
            ];
            for x in samples {
                assert_eq!(m.reduce_u128(x), (x % p as u128) as u64, "p={p} x={x}");
            }
        }
    }

    #[test]
    fn mul_mod_matches_u128() {
        let mut state = 0x12345678_9abcdef0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &p in PRIMES {
            let m = Modulus::new(p);
            for _ in 0..2000 {
                let a = next() % p;
                let b = next() % p;
                assert_eq!(m.mul_mod(a, b), (a as u128 * b as u128 % p as u128) as u64);
            }
        }
    }

    #[test]
    fn shoup_matches_barrett() {
        let mut state = 0x0fedcba9_87654321u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for &p in PRIMES {
            let m = Modulus::new(p);
            for _ in 0..500 {
                let w = next() % p;
                let x = next() % p;
                let sp = ShoupPrecomp::new(w, &m);
                assert_eq!(sp.mul(x, &m), m.mul_mod(w, x), "p={p} w={w} x={x}");
            }
        }
    }

    #[test]
    fn shoup_quotient_equals_the_wide_division() {
        let mut state = 0x5151_7e57_0bad_cafeu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &p in PRIMES {
            let m = Modulus::new(p);
            let edges = [0, 1, p / 2, p - 2, p - 1];
            let random = (0..2000).map(|_| next() % p);
            for w in edges.into_iter().filter(|&w| w < p).chain(random) {
                let wide = (((w as u128) << 64) / p as u128) as u64;
                assert_eq!(ShoupPrecomp::new(w, &m).quotient, wide, "p={p} w={w}");
            }
        }
    }

    #[test]
    fn shoup_accepts_full_range_x() {
        let m = Modulus::new(998244353);
        let sp = ShoupPrecomp::new(12345, &m);
        for x in [u64::MAX, u64::MAX - 1, 1u64 << 63] {
            assert_eq!(sp.mul(x, &m), m.mul_mod(12345, m.reduce_u64(x)));
        }
    }

    #[test]
    fn add_sub_neg() {
        let m = Modulus::new(97);
        assert_eq!(m.add_mod(96, 96), 95);
        assert_eq!(m.sub_mod(0, 1), 96);
        assert_eq!(m.neg_mod(0), 0);
        assert_eq!(m.neg_mod(1), 96);
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(998244353);
        assert_eq!(m.pow_mod(3, 0), 1);
        assert_eq!(m.pow_mod(3, 10), 59049);
        for a in [1u64, 2, 3, 12345, 998244352] {
            let inv = m.inv_mod(a);
            assert_eq!(m.mul_mod(a, inv), 1);
        }
    }

    #[test]
    fn signed_conversions_roundtrip() {
        let m = Modulus::new(1000003);
        for v in [-500001i64, -1, 0, 1, 500001] {
            assert_eq!(m.to_centered_i64(m.from_i64(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        Modulus::new(16);
    }

    #[test]
    #[should_panic(expected = "zero has no modular inverse")]
    fn inverse_of_zero_panics() {
        Modulus::new(97).inv_mod(0);
    }
}
