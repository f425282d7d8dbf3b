//! Property-based tests for the mathematical substrate: ring axioms,
//! reduction-method agreement, NTT invariants.

use fides_math::{
    automorphism_coeff, automorphism_eval, build_eval_permutation, generate_ntt_primes,
    negacyclic_schoolbook_mul, Modulus, NttTable, PolyOps, ShoupPrecomp,
};
use proptest::prelude::*;

fn arb_prime() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(65537u64),
        Just(998244353u64),
        Just((1u64 << 61) - 1),
        Just(4611686018326724609u64),
        Just(1000003u64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both Table III reduction methods the library uses (Barrett, Shoup)
    /// agree with schoolbook `%`.
    #[test]
    fn reduction_methods_agree(p in arb_prime(), a in any::<u64>(), b in any::<u64>()) {
        let m = Modulus::new(p);
        let (a, b) = (a % p, b % p);
        let expect = (a as u128 * b as u128 % p as u128) as u64;
        prop_assert_eq!(m.mul_mod(a, b), expect);
        let sp = ShoupPrecomp::new(a, &m);
        prop_assert_eq!(sp.mul(b, &m), expect);
    }

    /// Field axioms on random triples.
    #[test]
    fn field_axioms(p in arb_prime(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let m = Modulus::new(p);
        let (a, b, c) = (a % p, b % p, c % p);
        // Commutativity and associativity of both operations.
        prop_assert_eq!(m.add_mod(a, b), m.add_mod(b, a));
        prop_assert_eq!(m.mul_mod(a, b), m.mul_mod(b, a));
        prop_assert_eq!(m.add_mod(m.add_mod(a, b), c), m.add_mod(a, m.add_mod(b, c)));
        prop_assert_eq!(m.mul_mod(m.mul_mod(a, b), c), m.mul_mod(a, m.mul_mod(b, c)));
        // Distributivity.
        prop_assert_eq!(
            m.mul_mod(a, m.add_mod(b, c)),
            m.add_mod(m.mul_mod(a, b), m.mul_mod(a, c))
        );
        // Inverses.
        prop_assert_eq!(m.add_mod(a, m.neg_mod(a)), 0);
        if a != 0 {
            prop_assert_eq!(m.mul_mod(a, m.inv_mod(a)), 1);
        }
        // Subtraction is inverse addition.
        prop_assert_eq!(m.sub_mod(m.add_mod(a, b), b), a);
    }

    /// Barrett 128-bit reduction matches `%` on arbitrary inputs.
    #[test]
    fn barrett_reduce_matches(p in arb_prime(), x in any::<u128>()) {
        let m = Modulus::new(p);
        prop_assert_eq!(m.reduce_u128(x), (x % p as u128) as u64);
    }

    /// Centered conversion roundtrip (valid for |v| ≤ p/2 — the smallest
    /// prime in the pool is 65537).
    #[test]
    fn centered_roundtrip(p in arb_prime(), v in -32_768i64..=32_768) {
        let m = Modulus::new(p);
        prop_assert_eq!(m.to_centered_i64(m.from_i64(v)), v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NTT roundtrip and linearity on random polynomials.
    #[test]
    fn ntt_roundtrip_and_linearity(seed in any::<u64>(), log_n in 3u32..9) {
        let n = 1usize << log_n;
        let p = generate_ntt_primes(40, 1, n)[0];
        let m = Modulus::new(p);
        let t = NttTable::new(n, m);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % p
        };
        let a: Vec<u64> = (0..n).map(|_| next()).collect();
        let b: Vec<u64> = (0..n).map(|_| next()).collect();
        // Roundtrip.
        let mut x = a.clone();
        t.forward_inplace(&mut x);
        t.inverse_inplace(&mut x);
        prop_assert_eq!(&x, &a);
        // Linearity: NTT(a + b) = NTT(a) + NTT(b).
        let mut ea = a.clone();
        let mut eb = b.clone();
        t.forward_inplace(&mut ea);
        t.forward_inplace(&mut eb);
        let mut sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add_mod(x, y)).collect();
        t.forward_inplace(&mut sum);
        for i in 0..n {
            prop_assert_eq!(sum[i], m.add_mod(ea[i], eb[i]));
        }
    }

    /// NTT-based multiplication equals schoolbook negacyclic convolution.
    #[test]
    fn ntt_mul_is_negacyclic(seed in any::<u64>()) {
        let n = 32usize;
        let p = generate_ntt_primes(35, 1, n)[0];
        let m = Modulus::new(p);
        let t = NttTable::new(n, m);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            s % p
        };
        let a: Vec<u64> = (0..n).map(|_| next()).collect();
        let b: Vec<u64> = (0..n).map(|_| next()).collect();
        let expect = negacyclic_schoolbook_mul(&a, &b, &m);
        let mut ea = a.clone();
        let mut eb = b.clone();
        t.forward_inplace(&mut ea);
        t.forward_inplace(&mut eb);
        let mut prod = vec![0u64; n];
        m.mul_slices(&ea, &eb, &mut prod);
        t.inverse_inplace(&mut prod);
        prop_assert_eq!(prod, expect);
    }

    /// Evaluation-domain automorphism equals the coefficient-domain path for
    /// arbitrary odd Galois elements.
    #[test]
    fn automorphism_paths_agree(seed in any::<u64>(), g_raw in 0usize..128) {
        let n = 64usize;
        let g = (2 * g_raw + 1) % (2 * n);
        let p = generate_ntt_primes(35, 1, n)[0];
        let m = Modulus::new(p);
        let t = NttTable::new(n, m);
        let mut s = seed | 1;
        let a: Vec<u64> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % p
            })
            .collect();
        // coeff path
        let mut coeff_out = vec![0u64; n];
        automorphism_coeff(&a, g, &m, &mut coeff_out);
        t.forward_inplace(&mut coeff_out);
        // eval path
        let mut ea = a.clone();
        t.forward_inplace(&mut ea);
        let perm = build_eval_permutation(n, g);
        let mut eval_out = vec![0u64; n];
        automorphism_eval(&ea, &perm, &mut eval_out);
        prop_assert_eq!(eval_out, coeff_out);
    }
}
