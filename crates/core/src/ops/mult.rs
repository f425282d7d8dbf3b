//! Multiplicative operations: HMult, HSquare, PtMult, ScalarMult, Rescale,
//! and the exact monomial multiplication bootstrapping uses.
//!
//! Every multi-kernel operation runs as one scheduled region of the
//! stream-graph engine ([`sched`](crate::sched)): the tensor products, key
//! switch and rescale pipelines record their kernel nodes (with the
//! cross-limb sync points as graph barriers), a planning pass fuses the
//! elementwise chains and assigns streams, and the plan replays onto the
//! timeline before the op returns.

use std::sync::Arc;

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::error::{FidesError, Result};
use crate::keys::EvalKeySet;
use crate::ops::keyswitch::key_switch_core;
use crate::ops::rescale::rescale_poly;
use crate::poly::RNSPoly;

impl Ciphertext {
    /// HMult: homomorphic multiplication with relinearization (hybrid key
    /// switching). Does **not** rescale — pair with
    /// [`Ciphertext::rescale_in_place`], as in FIDESlib.
    ///
    /// # Errors
    ///
    /// Level/scale/slot mismatches or a missing relinearization key.
    pub fn mul(&self, other: &Ciphertext, keys: &EvalKeySet) -> Result<Ciphertext> {
        if self.level() != other.level() {
            return Err(FidesError::LevelMismatch {
                left: self.level(),
                right: other.level(),
            });
        }
        if self.slots != other.slots {
            return Err(FidesError::SlotMismatch {
                left: self.slots,
                right: other.slots,
            });
        }
        let ksk = keys.mult_key()?;
        let ctx = Arc::clone(self.context());
        let (c0, c1) = ctx.scheduled(|| {
            // Tensor.
            let d0 = RNSPoly::mul_poly(&self.c0, &other.c0);
            let mut d1 = RNSPoly::mul_poly(&self.c0, &other.c1);
            d1.mul_add_assign_poly(&self.c1, &other.c0);
            let d2 = RNSPoly::mul_poly(&self.c1, &other.c1);
            // Relinearize d2.
            let (ks0, ks1) = key_switch_core(&d2, ksk);
            let mut c0 = d0;
            c0.add_assign_poly(&ks0);
            let mut c1 = d1;
            c1.add_assign_poly(&ks1);
            (c0, c1)
        });
        Ok(Ciphertext {
            c0,
            c1,
            scale: self.scale * other.scale,
            slots: self.slots,
            noise_log2: self.noise_log2
                + other.noise_log2
                + (self.context().n() as f64).log2() / 2.0,
        })
    }

    /// HSquare: optimized squaring (saves one elementwise multiplication
    /// versus HMult — the "repetitive data" optimization of §III-A).
    ///
    /// # Errors
    ///
    /// Missing relinearization key.
    pub fn square(&self, keys: &EvalKeySet) -> Result<Ciphertext> {
        let ksk = keys.mult_key()?;
        let ctx = Arc::clone(self.context());
        let (c0, c1) = ctx.scheduled(|| {
            let d0 = RNSPoly::mul_poly(&self.c0, &self.c0);
            let mut d1 = RNSPoly::mul_poly(&self.c0, &self.c1);
            let d1_copy = d1.duplicate();
            d1.add_assign_poly(&d1_copy); // 2·c0·c1
            let d2 = RNSPoly::mul_poly(&self.c1, &self.c1);
            let (ks0, ks1) = key_switch_core(&d2, ksk);
            let mut c0 = d0;
            c0.add_assign_poly(&ks0);
            let mut c1 = d1;
            c1.add_assign_poly(&ks1);
            (c0, c1)
        });
        Ok(Ciphertext {
            c0,
            c1,
            scale: self.scale * self.scale,
            slots: self.slots,
            noise_log2: 2.0 * self.noise_log2 + (self.context().n() as f64).log2() / 2.0,
        })
    }

    /// PtMult: multiplication by an encoded plaintext. Does not rescale.
    ///
    /// # Errors
    ///
    /// Level mismatch.
    pub fn mul_plain(&self, pt: &Plaintext) -> Result<Ciphertext> {
        if pt.level() != self.level() {
            return Err(FidesError::LevelMismatch {
                left: self.level(),
                right: pt.level(),
            });
        }
        let ctx = Arc::clone(self.context());
        let mut out = ctx.scheduled(|| {
            let mut out = self.duplicate();
            out.c0.mul_assign_poly(&pt.poly);
            out.c1.mul_assign_poly(&pt.poly);
            out
        });
        out.scale = self.scale * pt.scale;
        out.noise_log2 = self.noise_log2 + 1.0;
        Ok(out)
    }

    /// ScalarMult: multiplies every slot by the real constant `c`, encoding
    /// the constant at the default scale `Δ` (result scale = `scale·Δ`).
    ///
    /// # Errors
    ///
    /// As [`Self::mul_scalar_at`].
    pub fn mul_scalar(&self, c: f64) -> Result<Ciphertext> {
        let delta = self.context().fresh_scale();
        self.mul_scalar_at(c, delta)
    }

    /// ScalarMult with an explicit constant scale: multiplies by
    /// `round(c·const_scale)`; result scale = `scale·const_scale`.
    ///
    /// # Errors
    ///
    /// [`FidesError::ScalarOutOfRange`] when `c·const_scale` is not finite
    /// or rounds to a magnitude of 2¹²⁷ or more.
    pub fn mul_scalar_at(&self, c: f64, const_scale: f64) -> Result<Ciphertext> {
        let scalars = self.scalar_residues(c, const_scale)?;
        let ctx = Arc::clone(self.context());
        let mut out = ctx.scheduled(|| {
            let mut out = self.duplicate();
            out.c0.scalar_mul_assign(&scalars);
            out.c1.scalar_mul_assign(&scalars);
            out
        });
        out.scale = self.scale * const_scale;
        out.noise_log2 = self.noise_log2 + 1.0;
        Ok(out)
    }

    /// ScalarMult by a constant, immediately rescaled such that a ciphertext
    /// on the standard-scale ladder stays on it: the constant is encoded at
    /// exactly `q_ℓ · σ_{ℓ-1} / σ_ℓ`.
    ///
    /// # Errors
    ///
    /// Not enough levels.
    pub fn mul_scalar_rescale(&self, c: f64) -> Result<Ciphertext> {
        if self.level() == 0 {
            return Err(FidesError::NotEnoughLevels {
                needed: 1,
                available: 0,
            });
        }
        let ctx = self.context();
        let l = self.level();
        let q_l = ctx.moduli_q()[l].value() as f64;
        let const_scale = q_l * ctx.standard_scale(l - 1) / ctx.standard_scale(l);
        let mut out = self.mul_scalar_at(c, const_scale)?;
        out.rescale_in_place()?;
        Ok(out)
    }

    /// Exact multiplication by a small signed integer (no scale change, no
    /// level consumed) — e.g. the ×2 of the double-angle iterations.
    pub fn mul_int(&self, k: i64) -> Ciphertext {
        let scalars: Vec<u64> = (0..self.c0.num_q())
            .map(|i| self.context().moduli_q()[i].from_i64(k))
            .collect();
        let ctx = Arc::clone(self.context());
        let mut out = ctx.scheduled(|| {
            let mut out = self.duplicate();
            out.c0.scalar_mul_assign(&scalars);
            out.c1.scalar_mul_assign(&scalars);
            out
        });
        out.noise_log2 = self.noise_log2 + (k.unsigned_abs() as f64).log2().max(0.0);
        out
    }

    /// Rescale: drops the top prime, dividing the message scale by it
    /// (§III-F.3, with the Rescale fusion of §III-F.5).
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] at level 0.
    pub fn rescale_in_place(&mut self) -> Result<()> {
        if self.level() == 0 {
            return Err(FidesError::NotEnoughLevels {
                needed: 1,
                available: 0,
            });
        }
        let ctx = Arc::clone(self.context());
        let q_l = ctx.moduli_q()[self.level()].value() as f64;
        ctx.scheduled(|| {
            rescale_poly(&mut self.c0);
            rescale_poly(&mut self.c1);
        });
        self.scale /= q_l;
        self.noise_log2 = (self.noise_log2 - q_l.log2()).max(4.0);
        Ok(())
    }

    /// Multiplies the message by the exact monomial `X^{N/2}`, i.e. by the
    /// imaginary unit `i` in every slot. Exact: no scale change, no level
    /// consumed (used by bootstrapping's real/imaginary extraction).
    pub fn mul_by_i(&self) -> Ciphertext {
        let ctx = Arc::clone(self.context());
        ctx.scheduled(|| {
            let mut out = self.duplicate();
            let n = ctx.n();
            let ops = crate::kernels::mul_ops(n);
            for poly in [&mut out.c0, &mut out.c1] {
                poly.indexed_kernel(ops, |idx, m, dst| {
                    let mono = ctx.monomial_half(idx);
                    for (d, &w) in dst.iter_mut().zip(mono) {
                        *d = m.mul_mod(*d, w);
                    }
                });
            }
            out
        })
    }
}
