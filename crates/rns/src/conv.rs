//! Fast RNS base conversion (paper §III-F.3, Eq. 1).
//!
//! `Conv_{C→B}([x]_C) = [x + u·C]_B` for some small `u ∈ [0, |C|)`: the
//! approximate (HPS-style) conversion used by ModUp/ModDown/Rescale in CKKS.
//! Computationally it is a limb-wise scaling by `[(C/c_i)^{-1}]_{c_i}`
//! followed by a modular matrix–vector product against `[C/c_i]_{t_j}` — the
//! same coefficient-parallel matrix–matrix shape the FIDESlib base-conversion
//! kernel exploits, including 128-bit accumulation with a single deferred
//! reduction per output element.

use fides_math::{Modulus, PolyOps, ShoupPrecomp};
use serde::{Deserialize, Serialize};

/// Precomputed tables converting from source base `C = {c_i}` to destination
/// base `B = {t_j}`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaseConverter {
    src: Vec<Modulus>,
    dst: Vec<Modulus>,
    /// `[(C/c_i)^{-1}]_{c_i}` with Shoup companions (the Eq. 1 scaling).
    src_hat_inv: Vec<ShoupPrecomp>,
    /// `[C/c_i]_{t_j}`, indexed `[i][j]`.
    src_hat_mod_dst: Vec<Vec<u64>>,
    /// How many 128-bit partial products can accumulate before a reduction is
    /// forced (overflow guard).
    chunk: usize,
}

impl BaseConverter {
    /// Builds conversion tables. All products are computed residue-wise, so
    /// no multiprecision arithmetic is needed.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty or contains duplicate primes.
    pub fn new(src: &[Modulus], dst: &[Modulus]) -> Self {
        assert!(!src.is_empty(), "source base must be non-empty");
        for (i, a) in src.iter().enumerate() {
            for b in &src[i + 1..] {
                assert_ne!(a.value(), b.value(), "source base primes must be distinct");
            }
        }
        let src_hat_inv = (0..src.len())
            .map(|i| {
                let m = &src[i];
                let mut hat = 1u64;
                for (k, c) in src.iter().enumerate() {
                    if k != i {
                        hat = m.mul_mod(hat, m.reduce_u64(c.value()));
                    }
                }
                ShoupPrecomp::new(m.inv_mod(hat), m)
            })
            .collect();
        let src_hat_mod_dst = (0..src.len())
            .map(|i| {
                dst.iter()
                    .map(|t| {
                        let mut hat = 1u64;
                        for (k, c) in src.iter().enumerate() {
                            if k != i {
                                hat = t.mul_mod(hat, t.reduce_u64(c.value()));
                            }
                        }
                        hat
                    })
                    .collect()
            })
            .collect();
        // Largest partial product is < 2^124 for ≤62-bit primes; compute how
        // many can be summed in a u128 without overflow.
        let max_src = src.iter().map(|m| m.value()).max().unwrap() as u128;
        let max_dst = dst.iter().map(|m| m.value()).max().unwrap_or(3) as u128;
        let headroom = u128::MAX / (max_src * max_dst);
        let chunk = headroom.min(1 << 20) as usize;
        assert!(chunk >= 1);
        Self {
            src: src.to_vec(),
            dst: dst.to_vec(),
            src_hat_inv,
            src_hat_mod_dst,
            chunk,
        }
    }

    /// Source base.
    pub fn src(&self) -> &[Modulus] {
        &self.src
    }

    /// Destination base.
    pub fn dst(&self) -> &[Modulus] {
        &self.dst
    }

    /// The Eq. 1 scaling step for source limb `i`:
    /// `out[k] = [x[k] · (C/c_i)^{-1}]_{c_i}`.
    ///
    /// FIDESlib fuses this into the iNTT that precedes conversion; exposing
    /// it separately lets the server library do the same.
    pub fn scale_input(&self, i: usize, x: &[u64], out: &mut [u64]) {
        self.src[i].shoup_mul_slices(&self.src_hat_inv[i], x, out);
    }

    /// In-place variant of [`Self::scale_input`].
    pub fn scale_input_inplace(&self, i: usize, x: &mut [u64]) {
        self.src[i].shoup_mul_assign_slices(&self.src_hat_inv[i], x);
    }

    /// Computes destination limb `j` from the **pre-scaled** source limbs:
    /// `out[k] = Σ_i scaled[i][k] · [C/c_i]_{t_j} mod t_j`, accumulating in
    /// 128 bits with one deferred reduction.
    pub fn convert_scaled_limb(&self, scaled: &[&[u64]], j: usize, out: &mut [u64]) {
        assert_eq!(scaled.len(), self.src.len());
        let t = &self.dst[j];
        let n = out.len();
        for s in scaled {
            assert_eq!(s.len(), n);
        }
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = 0u128;
            let mut since_reduce = 0usize;
            for (i, s) in scaled.iter().enumerate() {
                acc += s[k] as u128 * self.src_hat_mod_dst[i][j] as u128;
                since_reduce += 1;
                if since_reduce == self.chunk {
                    acc = t.reduce_u128(acc) as u128;
                    since_reduce = 0;
                }
            }
            *o = t.reduce_u128(acc);
        }
    }

    /// Whole conversion: scales inputs and produces every destination limb.
    /// `src_limbs` and `dst_limbs` are per-prime coefficient slices.
    ///
    /// # Panics
    ///
    /// Panics on limb-count or length mismatches.
    pub fn convert(&self, src_limbs: &[&[u64]], dst_limbs: &mut [Vec<u64>]) {
        assert_eq!(src_limbs.len(), self.src.len());
        assert_eq!(dst_limbs.len(), self.dst.len());
        let n = src_limbs.first().map_or(0, |s| s.len());
        let scaled: Vec<Vec<u64>> = (0..self.src.len())
            .map(|i| {
                let mut buf = vec![0u64; n];
                self.scale_input(i, src_limbs[i], &mut buf);
                buf
            })
            .collect();
        let scaled_refs: Vec<&[u64]> = scaled.iter().map(|v| v.as_slice()).collect();
        for (j, dst) in dst_limbs.iter_mut().enumerate() {
            dst.resize(n, 0);
            self.convert_scaled_limb(&scaled_refs, j, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::UBig;
    use fides_math::generate_ntt_primes;

    fn moduli(bits: u32, count: usize, seed_n: usize) -> Vec<Modulus> {
        generate_ntt_primes(bits, count, seed_n)
            .into_iter()
            .map(Modulus::new)
            .collect()
    }

    /// Exact CRT of per-prime residues (test oracle).
    fn crt_exact(residues: &[u64], primes: &[Modulus]) -> UBig {
        let q = UBig::product_of(&primes.iter().map(|m| m.value()).collect::<Vec<_>>());
        let mut acc = UBig::zero();
        for (i, m) in primes.iter().enumerate() {
            // q_hat = Q / q_i computed as product of the others.
            let others: Vec<u64> = primes
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i)
                .map(|(_, m)| m.value())
                .collect();
            let q_hat = UBig::product_of(&others);
            let q_hat_mod = q_hat.rem_u64(m.value());
            let inv = m.inv_mod(q_hat_mod);
            let y = m.mul_mod(residues[i], inv);
            acc.add_assign_big(&q_hat.mul_u64(y));
        }
        while acc.cmp_big(&q) != std::cmp::Ordering::Less {
            acc.sub_assign_big(&q);
        }
        acc
    }

    #[test]
    fn conversion_is_exact_up_to_multiples_of_source_product() {
        let src = moduli(30, 3, 64);
        let dst = moduli(31, 4, 64);
        let conv = BaseConverter::new(&src, &dst);
        let mut state = 0xc0ffee_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 16usize;
        let src_limbs: Vec<Vec<u64>> = src
            .iter()
            .map(|m| (0..n).map(|_| next() % m.value()).collect())
            .collect();
        let refs: Vec<&[u64]> = src_limbs.iter().map(|v| v.as_slice()).collect();
        let mut dst_limbs: Vec<Vec<u64>> = vec![Vec::new(); dst.len()];
        conv.convert(&refs, &mut dst_limbs);

        let c_prod = UBig::product_of(&src.iter().map(|m| m.value()).collect::<Vec<_>>());
        for k in 0..n {
            let residues: Vec<u64> = src_limbs.iter().map(|l| l[k]).collect();
            let x = crt_exact(&residues, &src);
            for (j, t) in dst.iter().enumerate() {
                let got = dst_limbs[j][k];
                // got ≡ x + u*C (mod t_j) for some u in [0, |src|).
                let mut ok = false;
                for u in 0..=src.len() as u64 {
                    let mut candidate = x.clone();
                    for _ in 0..u {
                        candidate.add_assign_big(&c_prod);
                    }
                    if candidate.rem_u64(t.value()) == got {
                        ok = true;
                        break;
                    }
                }
                assert!(ok, "coeff {k} dst {j}: no small u explains the output");
            }
        }
    }

    #[test]
    fn conversion_exact_when_scaled_inputs_small() {
        // The approximate conversion is exact (u = 0) when the post-scaling
        // values s_i = [x_i · (C/c_i)^{-1}]_{c_i} satisfy Σ s_i / c_i < 1.
        // Construct such an input: pick tiny s_i, set x_i = [s_i · (C/c_i)]_{c_i}.
        let src = moduli(30, 2, 64);
        let dst = moduli(40, 2, 64);
        let conv = BaseConverter::new(&src, &dst);
        let s = [1u64, 2u64];
        let src_limbs: Vec<Vec<u64>> = src
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let hat = {
                    let mut h = 1u64;
                    for (k, c) in src.iter().enumerate() {
                        if k != i {
                            h = m.mul_mod(h, m.reduce_u64(c.value()));
                        }
                    }
                    h
                };
                vec![m.mul_mod(s[i], hat)]
            })
            .collect();
        let refs: Vec<&[u64]> = src_limbs.iter().map(|v| v.as_slice()).collect();
        let mut dst_limbs = vec![Vec::new(); dst.len()];
        conv.convert(&refs, &mut dst_limbs);
        // Exact integer: X = s_0·c_1 + s_1·c_0 (since C/c_0 = c_1 etc.).
        let x = UBig::from_u128(
            s[0] as u128 * src[1].value() as u128 + s[1] as u128 * src[0].value() as u128,
        );
        for (j, t) in dst.iter().enumerate() {
            assert_eq!(dst_limbs[j][0], x.rem_u64(t.value()), "dst limb {j}");
        }
    }

    #[test]
    fn scale_then_accumulate_matches_whole_conversion() {
        let src = moduli(35, 3, 64);
        let dst = moduli(36, 2, 64);
        let conv = BaseConverter::new(&src, &dst);
        let n = 8usize;
        let src_limbs: Vec<Vec<u64>> = src
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (0..n as u64)
                    .map(|k| (k * 7919 + i as u64) % m.value())
                    .collect()
            })
            .collect();
        let refs: Vec<&[u64]> = src_limbs.iter().map(|v| v.as_slice()).collect();
        let mut expected = vec![Vec::new(); dst.len()];
        conv.convert(&refs, &mut expected);

        // Manual two-step path.
        let mut scaled = src_limbs.clone();
        for (i, s) in scaled.iter_mut().enumerate() {
            conv.scale_input_inplace(i, s);
        }
        let scaled_refs: Vec<&[u64]> = scaled.iter().map(|v| v.as_slice()).collect();
        for (j, exp) in expected.iter().enumerate() {
            let mut out = vec![0u64; n];
            conv.convert_scaled_limb(&scaled_refs, j, &mut out);
            assert_eq!(&out, exp);
        }
    }

    #[test]
    fn single_prime_source_roundtrip() {
        // Converting from {q} to {q} after scaling by hat_inv = 1 is identity.
        let q = moduli(30, 1, 64);
        let conv = BaseConverter::new(&q, &q);
        let refs = [vec![5u64, 7, 11]];
        let r: Vec<&[u64]> = refs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![Vec::new()];
        conv.convert(&r, &mut out);
        assert_eq!(out[0], refs[0]);
    }

    /// Nine 59-bit sources fill the 128-bit accumulators with full-width
    /// partial products, which the 30-bit oracle test above never does; the
    /// deferred reduction must still leave `x + u·C` for a small `u`.
    #[test]
    fn convert_scaled_limb_matches_crt_oracle_with_wide_sources() {
        let src = moduli(59, 9, 64);
        let dst = moduli(58, 3, 64);
        let conv = BaseConverter::new(&src, &dst);
        let c_prod = UBig::product_of(&src.iter().map(|m| m.value()).collect::<Vec<_>>());
        for n in [1usize, 4, 7, 64, 67] {
            let mut state = 0xfeed_u64 ^ n as u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let src_limbs: Vec<Vec<u64>> = src
                .iter()
                .map(|m| (0..n).map(|_| next() % m.value()).collect())
                .collect();
            let refs: Vec<&[u64]> = src_limbs.iter().map(|v| v.as_slice()).collect();
            let mut out = vec![Vec::new(); dst.len()];
            conv.convert(&refs, &mut out);
            for k in 0..n {
                let residues: Vec<u64> = src_limbs.iter().map(|l| l[k]).collect();
                let x = crt_exact(&residues, &src);
                for (j, t) in dst.iter().enumerate() {
                    let (x_t, c_t) = (x.rem_u64(t.value()), c_prod.rem_u64(t.value()));
                    let explained = (0..=src.len() as u64)
                        .any(|u| t.add_mod(x_t, t.mul_mod(u, c_t)) == out[j][k]);
                    assert!(
                        explained,
                        "n={n} coeff {k} dst {j}: no small u explains the output"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_source_primes_rejected() {
        let p = Modulus::new(65537);
        BaseConverter::new(&[p, p], &[Modulus::new(998244353)]);
    }
}
