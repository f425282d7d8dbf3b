//! Additive operations: HAdd, HSub, PtAdd, ScalarAdd (Fig. 1 API surface).
//!
//! Each operation runs as one scheduled region of the stream-graph engine
//! ([`sched`](crate::sched)): the `c_0`/`c_1` limb-batch kernels are
//! recorded, the planner fuses the elementwise chains (both components of
//! one batch collapse into a single launch), and the plan replays onto the
//! stream timeline.

use std::sync::Arc;

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::error::{FidesError, Result};

impl Ciphertext {
    /// HAdd: homomorphic addition of two ciphertexts.
    ///
    /// # Errors
    ///
    /// Level/scale/slot mismatches.
    pub fn add(&self, other: &Ciphertext) -> Result<Ciphertext> {
        let mut out = self.duplicate();
        out.add_assign_ct(other)?;
        Ok(out)
    }

    /// In-place HAdd.
    ///
    /// # Errors
    ///
    /// Level/scale/slot mismatches.
    pub fn add_assign_ct(&mut self, other: &Ciphertext) -> Result<()> {
        self.check_compatible(other)?;
        let ctx = Arc::clone(self.context());
        ctx.scheduled(|| {
            self.c0.add_assign_poly(&other.c0);
            self.c1.add_assign_poly(&other.c1);
        });
        self.noise_log2 = self.noise_log2.max(other.noise_log2) + 0.5;
        Ok(())
    }

    /// HSub: homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Level/scale/slot mismatches.
    pub fn sub(&self, other: &Ciphertext) -> Result<Ciphertext> {
        let mut out = self.duplicate();
        out.sub_assign_ct(other)?;
        Ok(out)
    }

    /// In-place HSub.
    ///
    /// # Errors
    ///
    /// Level/scale/slot mismatches.
    pub fn sub_assign_ct(&mut self, other: &Ciphertext) -> Result<()> {
        self.check_compatible(other)?;
        let ctx = Arc::clone(self.context());
        ctx.scheduled(|| {
            self.c0.sub_assign_poly(&other.c0);
            self.c1.sub_assign_poly(&other.c1);
        });
        self.noise_log2 = self.noise_log2.max(other.noise_log2) + 0.5;
        Ok(())
    }

    /// Negates the message.
    pub fn negate_assign(&mut self) {
        let ctx = Arc::clone(self.context());
        ctx.scheduled(|| {
            self.c0.neg_assign();
            self.c1.neg_assign();
        });
    }

    /// PtAdd: adds an encoded plaintext.
    ///
    /// # Errors
    ///
    /// Level/scale/slot mismatches.
    pub fn add_plain(&self, pt: &Plaintext) -> Result<Ciphertext> {
        let mut out = self.duplicate();
        out.add_plain_assign(pt)?;
        Ok(out)
    }

    /// In-place PtAdd.
    ///
    /// # Errors
    ///
    /// Level/scale/slot mismatches.
    pub fn add_plain_assign(&mut self, pt: &Plaintext) -> Result<()> {
        if pt.level() != self.level() {
            return Err(FidesError::LevelMismatch {
                left: self.level(),
                right: pt.level(),
            });
        }
        let drift = (self.scale / pt.scale - 1.0).abs();
        if drift > crate::ciphertext::SCALE_TOLERANCE {
            return Err(FidesError::ScaleMismatch {
                left: self.scale,
                right: pt.scale,
            });
        }
        self.c0.add_assign_poly(&pt.poly);
        self.noise_log2 += 0.25;
        Ok(())
    }

    /// ScalarAdd: adds the real constant `c` to every slot. Exact (no level
    /// consumed): adds `round(c·scale)` to the constant coefficient, which in
    /// evaluation domain is a per-limb scalar addition.
    ///
    /// # Errors
    ///
    /// [`FidesError::ScalarOutOfRange`] when `c·scale` is not finite or
    /// rounds to a magnitude of 2¹²⁷ or more.
    pub fn add_scalar(&self, c: f64) -> Result<Ciphertext> {
        let scalars = self.scalar_residues(c, self.scale)?;
        let mut out = self.duplicate();
        out.add_residues(&scalars);
        Ok(out)
    }

    /// In-place ScalarAdd.
    ///
    /// # Errors
    ///
    /// As [`Self::add_scalar`]; `self` is unchanged then.
    pub fn add_scalar_assign(&mut self, c: f64) -> Result<()> {
        let scalars = self.scalar_residues(c, self.scale)?;
        self.add_residues(&scalars);
        Ok(())
    }

    /// ScalarSub: subtracts a constant from every slot.
    ///
    /// # Errors
    ///
    /// As [`Self::add_scalar`].
    pub fn sub_scalar_assign(&mut self, c: f64) -> Result<()> {
        self.add_scalar_assign(-c)
    }

    /// Adds a constant, given as its residues, to every slot.
    fn add_residues(&mut self, scalars: &[u64]) {
        self.c0.scalar_add_assign(scalars);
        self.noise_log2 += 0.1;
    }

    /// The per-limb residues of `round(c·scale)` at this level.
    pub(crate) fn scalar_residues(&self, c: f64, scale: f64) -> Result<Vec<u64>> {
        let moduli = &self.context().moduli_q()[..self.c0.num_q()];
        crate::ops::scalar_residues(c, scale, moduli)
    }
}
