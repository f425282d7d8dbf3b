//! Absolute pins for the CPU limb kernels.
//!
//! Every other math test checks a kernel against another implementation of
//! the same function (the naive NTT, `%`, a round trip); none of them notices
//! a rewrite that changes the bits while staying self-consistent. These
//! tests pin the FNV-1a hash of each hot kernel's output on seeded inputs:
//!
//! * [`FORWARD`]: [`NttTable::forward_inplace`] (Cooley–Tukey, Shoup
//!   twiddles);
//! * [`INVERSE`]: [`NttTable::inverse_inplace_no_scale`] (Gentleman–Sande);
//! * [`SHOUP`]: [`NttTable::inverse_inplace`] on the same input, i.e. the
//!   pinned `INVERSE` output times `N^{-1}` through the Shoup slice multiply;
//! * [`MAC`]: [`PolyOps::mul_add_assign_slices`], the key-switch
//!   multiply-accumulate.
//!
//! Cases are logN ∈ {4, 11, 16} × the largest NTT prime below 2^30 and below
//! 2^59. The constants were computed with the code as it stood before each
//! limb kernel was cut down to one scalar body, and this file passes
//! unchanged on both sides of that change: a later kernel rewrite (lazy
//! butterflies, a new reduction) must reproduce them bit for bit.

use fides_math::{generate_ntt_primes, Modulus, NttTable, PolyOps};

/// `(log_n, prime bits)`; the pin arrays below are indexed alike.
const CASES: [(u32, u32); 6] = [(4, 30), (4, 59), (11, 30), (11, 59), (16, 30), (16, 59)];

const FORWARD: [u64; 6] = [
    0x7a1f_1071_ea3a_b4ce,
    0x08ad_41eb_4bd4_e2bc,
    0x0bbc_d77d_79f3_aba5,
    0x9a1a_40f6_8934_3fd0,
    0x32aa_c7d8_3b3c_869c,
    0x03eb_8691_4cc4_ba46,
];

const INVERSE: [u64; 6] = [
    0x57ca_f2fa_824f_cb1a,
    0x2f3d_d6b1_dfc6_0f1d,
    0x0dac_6f98_73e5_5583,
    0x26b0_9e50_d732_c545,
    0x7a0f_369e_042f_ce8e,
    0xc6e6_0779_6386_f6b3,
];

const SHOUP: [u64; 6] = [
    0x986a_248e_e6b7_bd4d,
    0x7112_b5b0_4e55_5f6f,
    0xa6c1_9eb8_ff70_c16f,
    0x37f6_8698_0b20_1c95,
    0xabf9_5727_dd78_635f,
    0x0570_4424_69da_8ce5,
];

const MAC: [u64; 6] = [
    0x7ff9_4b15_29fd_2455,
    0xe867_55b3_be54_e0ae,
    0x398b_c4eb_d112_ab76,
    0x9ede_e043_f10e_720b,
    0x9f0a_eead_bbd8_5c86,
    0x3924_97df_4e99_44cc,
];

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `n` xorshift64 residues below `p`; `seed` selects the stream.
fn seeded(n: usize, p: u64, seed: u64) -> Vec<u64> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % p
        })
        .collect()
}

/// Runs `kernel` on every case and compares its output hash with `pins`;
/// reports every mismatch at once.
fn check(name: &str, pins: &[u64; 6], kernel: fn(&NttTable, u64) -> Vec<u64>) {
    let mut bad = Vec::new();
    for (&(log_n, bits), &want) in CASES.iter().zip(pins) {
        let n = 1usize << log_n;
        let table = NttTable::new(n, Modulus::new(generate_ntt_primes(bits, 1, n)[0]));
        let got = fnv1a(&kernel(&table, u64::from(log_n) << 8 | u64::from(bits)));
        if got != want {
            bad.push(format!("logN {log_n}, {bits}-bit: got {got:#018x}"));
        }
    }
    assert!(bad.is_empty(), "{name} pins moved:\n{}", bad.join("\n"));
}

#[test]
fn forward_ntt_pinned() {
    check("forward", &FORWARD, |t, seed| {
        let mut a = seeded(t.n(), t.modulus().value(), seed);
        t.forward_inplace(&mut a);
        a
    });
}

#[test]
fn inverse_ntt_pinned() {
    check("inverse", &INVERSE, |t, seed| {
        let mut a = seeded(t.n(), t.modulus().value(), seed ^ 1);
        t.inverse_inplace_no_scale(&mut a);
        a
    });
}

#[test]
fn shoup_slice_mul_pinned() {
    check("shoup", &SHOUP, |t, seed| {
        let mut a = seeded(t.n(), t.modulus().value(), seed ^ 1);
        t.inverse_inplace(&mut a);
        a
    });
}

#[test]
fn keyswitch_mac_pinned() {
    check("mac", &MAC, |t, seed| {
        let (n, p) = (t.n(), t.modulus().value());
        let mut acc = seeded(n, p, seed ^ 2);
        let a = seeded(n, p, seed ^ 3);
        let b = seeded(n, p, seed ^ 4);
        t.modulus().mul_add_assign_slices(&mut acc, &a, &b);
        acc
    });
}
