//! The thin adapter layer between the client's `Raw*` objects and the
//! server's device-resident structures (paper §III-B).
//!
//! Uploads charge PCIe transfers; plaintexts arrive in coefficient domain and
//! are NTT'd on the device; downloads carry the static noise estimate back to
//! the client for decryption bookkeeping.
//!
//! All uploads validate their inputs and report malformed data as typed
//! [`FidesError`] values — the adapter is the service boundary, so a bad
//! frame must never abort the server.

use std::sync::Arc;

use fides_client::{Domain, RawCiphertext, RawPlaintext, RawPoly, RawSwitchingKey};

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::error::{FidesError, Result};
use crate::keys::{EvalKeySet, KeySwitchingKey};
use crate::poly::RNSPoly;

/// Checks a frame header's scale and slot count for a ring of degree `n`:
/// a finite positive scale and a power-of-two slot count in `1..=n/2`.
fn check_header(scale: f64, slots: usize, n: usize) -> Result<()> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(FidesError::InvalidScale(scale));
    }
    if !slots.is_power_of_two() || slots > n / 2 {
        return Err(FidesError::InvalidSlots { slots, max: n / 2 });
    }
    Ok(())
}

/// Checks that a ciphertext frame's header is valid and its limb structure
/// matches it.
pub(crate) fn check_ct_shape(raw: &RawCiphertext, n: usize) -> Result<()> {
    check_header(raw.scale, raw.slots, n)?;
    for (name, poly) in [("c0", &raw.c0), ("c1", &raw.c1)] {
        if poly.limbs.len() != raw.level + 1 {
            return Err(FidesError::Malformed(format!(
                "{name} carries {} limbs but the header declares level {}",
                poly.limbs.len(),
                raw.level
            )));
        }
        if let Some(bad) = poly.limbs.iter().position(|l| l.len() != n) {
            return Err(FidesError::Malformed(format!(
                "{name} limb {bad} has {} coefficients, ring degree is {n}",
                poly.limbs[bad].len()
            )));
        }
    }
    Ok(())
}

/// Uploads a client ciphertext onto the device.
///
/// # Errors
///
/// [`FidesError::DomainMismatch`] if the ciphertext is not in evaluation
/// domain, [`FidesError::LevelOutOfRange`] if its level exceeds the context
/// chain, [`FidesError::Malformed`] if the limb structure contradicts the
/// header, [`FidesError::InvalidScale`] for a scale that is not finite and
/// positive, [`FidesError::InvalidSlots`] for a slot count that is not a
/// power of two in `1..=N/2`.
pub fn load_ciphertext(ctx: &Arc<CkksContext>, raw: &RawCiphertext) -> Result<Ciphertext> {
    if raw.c0.domain != Domain::Eval {
        return Err(FidesError::DomainMismatch {
            expected: "evaluation",
            found: "coefficient",
        });
    }
    if raw.level > ctx.max_level() {
        return Err(FidesError::LevelOutOfRange {
            level: raw.level,
            max: ctx.max_level(),
        });
    }
    check_ct_shape(raw, ctx.n())?;
    let bytes = (raw.c0.limbs.len() * ctx.n() * 8 * 2) as u64;
    ctx.gpu().transfer_to_device(bytes);
    let c0 = RNSPoly::from_host_q_limbs(ctx, raw.c0.limbs.clone(), Domain::Eval);
    let c1 = RNSPoly::from_host_q_limbs(ctx, raw.c1.limbs.clone(), Domain::Eval);
    Ok(Ciphertext::from_parts(
        c0,
        c1,
        raw.scale,
        raw.slots,
        raw.noise_log2,
    ))
}

/// Downloads a ciphertext back into the adapter format (for client
/// decryption), including the noise estimate (§III-B).
pub fn store_ciphertext(ct: &Ciphertext) -> RawCiphertext {
    let ctx = ct.context();
    let bytes = ((ct.level() + 1) * ctx.n() * 8 * 2) as u64;
    ctx.gpu().transfer_to_host(bytes);
    RawCiphertext {
        c0: RawPoly {
            limbs: ct.c0().to_host_q_limbs(),
            domain: Domain::Eval,
        },
        c1: RawPoly {
            limbs: ct.c1().to_host_q_limbs(),
            domain: Domain::Eval,
        },
        level: ct.level(),
        scale: ct.scale(),
        slots: ct.slots(),
        noise_log2: ct.noise_log2(),
    }
}

/// Uploads an encoded plaintext and converts it to evaluation domain on the
/// device.
///
/// # Errors
///
/// [`FidesError::DomainMismatch`] if the plaintext is not in coefficient
/// domain, [`FidesError::LevelOutOfRange`] if its level exceeds the chain,
/// [`FidesError::InvalidScale`] and [`FidesError::InvalidSlots`] as for
/// [`load_ciphertext`].
pub fn load_plaintext(ctx: &Arc<CkksContext>, raw: &RawPlaintext) -> Result<Plaintext> {
    if raw.poly.domain != Domain::Coeff {
        return Err(FidesError::DomainMismatch {
            expected: "coefficient",
            found: "evaluation",
        });
    }
    if raw.level > ctx.max_level() {
        return Err(FidesError::LevelOutOfRange {
            level: raw.level,
            max: ctx.max_level(),
        });
    }
    check_header(raw.scale, raw.slots, ctx.n())?;
    let bytes = (raw.poly.limbs.len() * ctx.n() * 8) as u64;
    ctx.gpu().transfer_to_device(bytes);
    let mut poly = RNSPoly::from_host_q_limbs(ctx, raw.poly.limbs.clone(), Domain::Coeff);
    poly.ntt_inplace();
    Ok(Plaintext::from_poly(poly, raw.scale, raw.slots))
}

/// Creates a placeholder plaintext with the right shape but no data — used
/// by cost-only benchmark runs, where values are irrelevant (all kernels are
/// data-oblivious).
pub fn placeholder_plaintext(
    ctx: &Arc<CkksContext>,
    level: usize,
    scale: f64,
    slots: usize,
) -> Plaintext {
    let poly = RNSPoly::zero(ctx, level, false, Domain::Eval);
    Plaintext::from_poly(poly, scale, slots)
}

/// Creates a placeholder ciphertext for cost-only runs.
pub fn placeholder_ciphertext(
    ctx: &Arc<CkksContext>,
    level: usize,
    scale: f64,
    slots: usize,
) -> Ciphertext {
    Ciphertext::zero(ctx, level, scale, slots)
}

/// Uploads a switching key (relinearization / rotation / conjugation).
///
/// # Errors
///
/// [`FidesError::KeyShape`] if any digit's limb count does not match the
/// context chain, [`FidesError::DomainMismatch`] if a digit is not in
/// evaluation domain.
pub fn load_switching_key(
    ctx: &Arc<CkksContext>,
    raw: &RawSwitchingKey,
) -> Result<KeySwitchingKey> {
    let expected = ctx.max_level() + 1 + ctx.alpha();
    let mut digits = Vec::with_capacity(raw.digits.len());
    let mut bytes = 0u64;
    for d in &raw.digits {
        if d.b.limbs.len() != expected {
            return Err(FidesError::KeyShape {
                expected,
                found: d.b.limbs.len(),
            });
        }
        if d.a.limbs.len() != expected {
            return Err(FidesError::KeyShape {
                expected,
                found: d.a.limbs.len(),
            });
        }
        bytes += (2 * expected * ctx.n() * 8) as u64;
        let b = extended_poly_from_host(ctx, &d.b)?;
        let a = extended_poly_from_host(ctx, &d.a)?;
        digits.push((b, a));
    }
    ctx.gpu().transfer_to_device(bytes);
    Ok(KeySwitchingKey { digits })
}

fn extended_poly_from_host(ctx: &Arc<CkksContext>, raw: &RawPoly) -> Result<RNSPoly> {
    use crate::context::ChainIdx;
    use crate::poly::{Limb, LimbPartition};
    use fides_gpu_sim::PoolBuf;
    if raw.domain != Domain::Eval {
        return Err(FidesError::DomainMismatch {
            expected: "evaluation",
            found: "coefficient",
        });
    }
    let num_q = ctx.max_level() + 1;
    let limbs: Vec<Limb> = PoolBuf::upload_run(ctx.gpu(), raw.limbs.clone())
        .enumerate()
        .map(|(i, data)| {
            let chain = if i < num_q {
                ChainIdx::Q(i)
            } else {
                ChainIdx::P(i - num_q)
            };
            Limb { data, chain }
        })
        .collect();
    Ok(RNSPoly {
        ctx: Arc::clone(ctx),
        part: LimbPartition::from_limbs(ctx.gpu(), limbs),
        num_q,
        num_p: ctx.alpha(),
        format: Domain::Eval,
    })
}

impl EvalKeySet {
    /// Installs the relinearization key.
    pub fn set_mult(&mut self, key: KeySwitchingKey) {
        self.mult = Some(key);
    }

    /// Installs a rotation key under its Galois element.
    pub fn insert_rotation(&mut self, galois: usize, key: KeySwitchingKey) {
        self.rotations.insert(galois, key);
    }

    /// Installs the conjugation key.
    pub fn set_conj(&mut self, key: KeySwitchingKey) {
        self.conj = Some(key);
    }
}

/// Convenience: uploads a full key set from client material. `rotations`
/// pairs each slot shift with its key.
///
/// # Errors
///
/// Propagates [`load_switching_key`] failures for any malformed key.
pub fn load_eval_keys(
    ctx: &Arc<CkksContext>,
    mult: Option<&RawSwitchingKey>,
    rotations: &[(i32, RawSwitchingKey)],
    conj: Option<&RawSwitchingKey>,
) -> Result<EvalKeySet> {
    let mut keys = EvalKeySet::new();
    if let Some(m) = mult {
        keys.set_mult(load_switching_key(ctx, m)?);
    }
    for (shift, raw) in rotations {
        let g = fides_client::galois_for_rotation(*shift, ctx.n());
        keys.insert_rotation(g, load_switching_key(ctx, raw)?);
    }
    if let Some(c) = conj {
        keys.set_conj(load_switching_key(ctx, c)?);
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParameters;
    use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParameters::toy(),
            GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional),
        )
    }

    #[test]
    fn wrong_domain_rejected_typed() {
        let c = ctx();
        let n = c.n();
        let bad_ct = RawCiphertext {
            c0: RawPoly::zero(n, 2, Domain::Coeff),
            c1: RawPoly::zero(n, 2, Domain::Coeff),
            level: 1,
            scale: 2f64.powi(40),
            slots: 8,
            noise_log2: 1.0,
        };
        assert!(matches!(
            load_ciphertext(&c, &bad_ct),
            Err(FidesError::DomainMismatch {
                expected: "evaluation",
                ..
            })
        ));
        let bad_pt = RawPlaintext {
            poly: RawPoly::zero(n, 2, Domain::Eval),
            level: 1,
            scale: 2f64.powi(40),
            slots: 8,
        };
        assert!(matches!(
            load_plaintext(&c, &bad_pt),
            Err(FidesError::DomainMismatch {
                expected: "coefficient",
                ..
            })
        ));
    }

    /// A level-1 ciphertext and plaintext frame with `scale` and `slots`.
    fn frames(n: usize, scale: f64, slots: usize) -> (RawCiphertext, RawPlaintext) {
        let ct = RawCiphertext {
            c0: RawPoly::zero(n, 2, Domain::Eval),
            c1: RawPoly::zero(n, 2, Domain::Eval),
            level: 1,
            scale,
            slots,
            noise_log2: 1.0,
        };
        let pt = RawPlaintext {
            poly: RawPoly::zero(n, 2, Domain::Coeff),
            level: 1,
            scale,
            slots,
        };
        (ct, pt)
    }

    #[test]
    fn zero_three_and_huge_slot_counts_are_typed_errors() {
        let c = ctx();
        let max = c.n() / 2;
        for slots in [0, 3, 1 << 40, 2 * max] {
            let (ct, pt) = frames(c.n(), 2f64.powi(40), slots);
            let want = FidesError::InvalidSlots { slots, max };
            assert_eq!(load_ciphertext(&c, &ct).unwrap_err(), want);
            assert_eq!(load_plaintext(&c, &pt).unwrap_err(), want);
        }
        for slots in [1, max] {
            let (ct, pt) = frames(c.n(), 2f64.powi(40), slots);
            assert!(load_ciphertext(&c, &ct).is_ok() && load_plaintext(&c, &pt).is_ok());
        }
    }

    #[test]
    fn nan_and_zero_scales_are_typed_errors() {
        let c = ctx();
        for scale in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let (ct, pt) = frames(c.n(), scale, 8);
            for err in [
                load_ciphertext(&c, &ct).unwrap_err(),
                load_plaintext(&c, &pt).unwrap_err(),
            ] {
                assert!(
                    matches!(err, FidesError::InvalidScale(s) if s.to_bits() == scale.to_bits()),
                    "{scale}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_level_rejected_typed() {
        let c = ctx();
        let n = c.n();
        let bad = RawCiphertext {
            c0: RawPoly::zero(n, c.max_level() + 2, Domain::Eval),
            c1: RawPoly::zero(n, c.max_level() + 2, Domain::Eval),
            level: c.max_level() + 1,
            scale: 2f64.powi(40),
            slots: 8,
            noise_log2: 1.0,
        };
        assert!(matches!(
            load_ciphertext(&c, &bad),
            Err(FidesError::LevelOutOfRange { level, .. }) if level == c.max_level() + 1
        ));
    }

    #[test]
    fn inconsistent_limb_structure_rejected_typed() {
        let c = ctx();
        let n = c.n();
        // Header says level 1 (2 limbs) but c1 carries 3 limbs.
        let bad = RawCiphertext {
            c0: RawPoly::zero(n, 2, Domain::Eval),
            c1: RawPoly::zero(n, 3, Domain::Eval),
            level: 1,
            scale: 2f64.powi(40),
            slots: 8,
            noise_log2: 1.0,
        };
        assert!(matches!(
            load_ciphertext(&c, &bad),
            Err(FidesError::Malformed(_))
        ));
        // Limb of the wrong ring degree.
        let bad = RawCiphertext {
            c0: RawPoly::zero(n / 2, 2, Domain::Eval),
            c1: RawPoly::zero(n / 2, 2, Domain::Eval),
            level: 1,
            scale: 2f64.powi(40),
            slots: 8,
            noise_log2: 1.0,
        };
        assert!(matches!(
            load_ciphertext(&c, &bad),
            Err(FidesError::Malformed(_))
        ));
    }

    #[test]
    fn short_switching_key_rejected_typed() {
        let c = ctx();
        let n = c.n();
        let bad = RawSwitchingKey {
            digits: vec![fides_client::RawKeyDigit {
                b: RawPoly::zero(n, 2, Domain::Eval),
                a: RawPoly::zero(n, 2, Domain::Eval),
            }],
        };
        let expected = c.max_level() + 1 + c.alpha();
        assert!(matches!(
            load_switching_key(&c, &bad),
            Err(FidesError::KeyShape { expected: e, found: 2 }) if e == expected
        ));
    }
}
