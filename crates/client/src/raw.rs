//! The adapter-layer interchange structures (paper §III-B).
//!
//! FIDESlib decouples itself from OpenFHE through a thin adapter that copies
//! OpenFHE objects into "simplified data structures that retain essential data
//! and metadata fields". These `Raw*` types are those structures: plain
//! `Vec`-backed RNS polynomials plus metadata, independent of both the client
//! internals and the server's GPU layout, with a compact binary serialization
//! for the client↔server boundary.

use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

use crate::error::ClientError;

/// Polynomial representation domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Domain {
    /// Coefficient representation.
    Coeff,
    /// Evaluation (NTT, bit-reversed) representation.
    Eval,
}

/// CKKS parameter description shared by client and server.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawParams {
    /// log2 of the ring degree `N`.
    pub log_n: usize,
    /// The scaling-modulus chain `q_0 … q_L` (`q_0` is the decryption
    /// modulus, ~2^60; the rest sit near `2^Δ`).
    pub moduli_q: Vec<u64>,
    /// The auxiliary primes `P = p_0 … p_{α-1}` for hybrid key switching.
    pub moduli_p: Vec<u64>,
    /// log2 of the encoding scale `Δ`.
    pub scale_bits: u32,
    /// Number of key-switching digits.
    pub dnum: usize,
}

impl RawParams {
    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Maximum level (`L`): index of the last scaling prime.
    pub fn max_level(&self) -> usize {
        self.moduli_q.len() - 1
    }

    /// The default (full) slot count `N/2`.
    pub fn max_slots(&self) -> usize {
        self.n() / 2
    }

    /// The encoding scale `Δ`.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// Total bit-length of `Q·P` (for security accounting).
    pub fn log_qp(&self) -> f64 {
        self.moduli_q
            .iter()
            .chain(&self.moduli_p)
            .map(|&q| (q as f64).log2())
            .sum()
    }

    /// Generates a parameter set `[log N, L, Δ, dnum]` in the paper's
    /// notation: a `first_bits`-sized decryption modulus `q_0`, `levels`
    /// scaling primes alternating around `2^Δ`, and `α = ⌈(L+1)/dnum⌉`
    /// auxiliary primes of `first_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `scale_bits ≥ first_bits` (the chains must not collide) or
    /// the ring cannot host the requested prime sizes.
    pub fn generate(
        log_n: usize,
        levels: usize,
        scale_bits: u32,
        first_bits: u32,
        dnum: usize,
    ) -> Self {
        assert!(
            scale_bits < first_bits,
            "scaling primes must stay below the first modulus size"
        );
        let n = 1usize << log_n;
        let alpha = (levels + 1).div_ceil(dnum);
        // One 2^first_bits prime for q_0 plus α for P, all distinct.
        let big = fides_math::generate_ntt_primes(first_bits, 1 + alpha, n);
        let q0 = big[0];
        let moduli_p = big[1..].to_vec();
        let mut moduli_q = vec![q0];
        moduli_q.extend(fides_math::generate_scaling_primes(scale_bits, levels, n));
        Self {
            log_n,
            moduli_q,
            moduli_p,
            scale_bits,
            dnum,
        }
    }
}

/// An RNS polynomial as plain host data: one `Vec<u64>` per limb.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawPoly {
    /// Per-prime residue vectors, each of length `N`.
    pub limbs: Vec<Vec<u64>>,
    /// Representation domain.
    pub domain: Domain,
}

impl RawPoly {
    /// An all-zero polynomial with `count` limbs of length `n`.
    pub fn zero(n: usize, count: usize, domain: Domain) -> Self {
        Self {
            limbs: vec![vec![0u64; n]; count],
            domain,
        }
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.limbs.first().map_or(0, |l| l.len())
    }
}

/// A CKKS plaintext: encoded message polynomial plus scale metadata.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawPlaintext {
    /// The encoded polynomial over the active primes.
    pub poly: RawPoly,
    /// Chain index of the top active prime.
    pub level: usize,
    /// Exact encoding scale.
    pub scale: f64,
    /// Number of encoded slots.
    pub slots: usize,
}

/// A CKKS ciphertext `(c_0, c_1)` plus metadata — the structure the adapter
/// moves between client and server.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawCiphertext {
    /// `c_0` component.
    pub c0: RawPoly,
    /// `c_1` component.
    pub c1: RawPoly,
    /// Chain index of the top active prime.
    pub level: usize,
    /// Exact scale of the underlying message.
    pub scale: f64,
    /// Number of encoded slots.
    pub slots: usize,
    /// Static noise-estimate (log2 of expected error magnitude) carried back
    /// to the client for decryption bookkeeping (§III-B).
    pub noise_log2: f64,
}

/// One digit of a hybrid key-switching key: a pair of polynomials over the
/// extended base `Q ∪ P`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawKeyDigit {
    /// `b_j = -a_j·s + e_j + P·s'` (on digit-j limbs).
    pub b: RawPoly,
    /// Uniform `a_j`.
    pub a: RawPoly,
}

/// A complete key-switching key (`dnum` digits).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawSwitchingKey {
    /// Per-digit components.
    pub digits: Vec<RawKeyDigit>,
}

/// The public encryption key `(b, a)` over the full `Q` chain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawPublicKey {
    /// `b = -a·s + e`.
    pub b: RawPoly,
    /// Uniform `a`.
    pub a: RawPoly,
}

const MAGIC: u32 = 0xF1DE_517B;

/// Bytes [`put_poly`] writes: a 9-byte header plus 8 per coefficient.
pub(crate) fn poly_encoded_len(poly: &RawPoly) -> usize {
    9 + 8 * poly.limbs.iter().map(Vec::len).sum::<usize>()
}

pub(crate) fn put_poly(buf: &mut impl BufMut, poly: &RawPoly) {
    buf.put_u8(match poly.domain {
        Domain::Coeff => 0,
        Domain::Eval => 1,
    });
    buf.put_u32(poly.limbs.len() as u32);
    buf.put_u32(poly.n() as u32);
    for limb in &poly.limbs {
        buf.put_u64_le_slice(limb);
    }
}

pub(crate) fn get_poly(buf: &mut &[u8]) -> Result<RawPoly, ClientError> {
    if buf.remaining() < 9 {
        return Err(ClientError::Serialization(
            "truncated polynomial header".into(),
        ));
    }
    let domain = match buf.get_u8() {
        0 => Domain::Coeff,
        1 => Domain::Eval,
        d => {
            return Err(ClientError::Serialization(format!(
                "invalid domain tag {d}"
            )))
        }
    };
    let count = buf.get_u32() as usize;
    let n = buf.get_u32() as usize;
    if count
        .checked_mul(n)
        .and_then(|c| c.checked_mul(8))
        .is_none_or(|b| buf.remaining() < b)
    {
        return Err(ClientError::Serialization(
            "truncated polynomial body".into(),
        ));
    }
    let mut limbs = Vec::with_capacity(count);
    for _ in 0..count {
        let (body, rest) = buf.split_at(n * 8);
        *buf = rest;
        limbs.push(
            body.chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")))
                .collect(),
        );
    }
    Ok(RawPoly { limbs, domain })
}

impl RawCiphertext {
    /// Length of the [`Self::to_bytes`] frame, from the limb counts alone.
    pub fn encoded_len(&self) -> usize {
        28 + poly_encoded_len(&self.c0) + poly_encoded_len(&self.c1)
    }

    /// Serializes into a compact binary frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.write_into(&mut buf);
        buf
    }

    /// Appends the [`Self::to_bytes`] frame to `buf`.
    pub(crate) fn write_into(&self, buf: &mut impl BufMut) {
        buf.put_u32(MAGIC);
        buf.put_u32(self.level as u32);
        buf.put_f64(self.scale);
        buf.put_u32(self.slots as u32);
        buf.put_f64(self.noise_log2);
        put_poly(buf, &self.c0);
        put_poly(buf, &self.c1);
    }

    /// Deserializes a frame produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption if the frame
    /// is malformed.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut data;
        if buf.remaining() < 28 {
            return Err(ClientError::Serialization(
                "truncated ciphertext header".into(),
            ));
        }
        if buf.get_u32() != MAGIC {
            return Err(ClientError::Serialization("bad magic".into()));
        }
        let level = buf.get_u32() as usize;
        let scale = buf.get_f64();
        let slots = buf.get_u32() as usize;
        let noise_log2 = buf.get_f64();
        let c0 = get_poly(buf)?;
        let c1 = get_poly(buf)?;
        Ok(Self {
            c0,
            c1,
            level,
            scale,
            slots,
            noise_log2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ct() -> RawCiphertext {
        RawCiphertext {
            c0: RawPoly {
                limbs: vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
                domain: Domain::Eval,
            },
            c1: RawPoly {
                limbs: vec![vec![9, 10, 11, 12], vec![13, 14, 15, 16]],
                domain: Domain::Eval,
            },
            level: 1,
            scale: 2f64.powi(40),
            slots: 2,
            noise_log2: 10.5,
        }
    }

    #[test]
    fn ciphertext_serialization_roundtrip() {
        let ct = sample_ct();
        let bytes = ct.to_bytes();
        let back = RawCiphertext::from_bytes(&bytes).unwrap();
        assert_eq!(ct, back);
    }

    #[test]
    fn corrupt_frames_rejected() {
        let ct = sample_ct();
        let mut bytes = ct.to_bytes();
        bytes[0] ^= 0xff;
        assert!(RawCiphertext::from_bytes(&bytes).is_err(), "bad magic");
        let bytes = ct.to_bytes();
        assert!(
            RawCiphertext::from_bytes(&bytes[..bytes.len() - 4]).is_err(),
            "truncated"
        );
        assert!(RawCiphertext::from_bytes(&[]).is_err(), "empty");
    }

    #[test]
    fn params_accessors() {
        let p = RawParams {
            log_n: 12,
            moduli_q: vec![3, 5, 7],
            moduli_p: vec![11],
            scale_bits: 40,
            dnum: 2,
        };
        assert_eq!(p.n(), 4096);
        assert_eq!(p.max_level(), 2);
        assert_eq!(p.max_slots(), 2048);
        assert_eq!(p.scale(), 2f64.powi(40));
        assert!(p.log_qp() > 0.0);
    }

    #[test]
    fn zero_poly_shape() {
        let z = RawPoly::zero(8, 3, Domain::Coeff);
        assert_eq!(z.n(), 8);
        assert_eq!(z.limbs.len(), 3);
        assert!(z.limbs.iter().all(|l| l.iter().all(|&x| x == 0)));
    }
}
