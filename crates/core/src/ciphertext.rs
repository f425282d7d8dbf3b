//! Device-resident ciphertexts and plaintexts (`CKKS::Ciphertext`,
//! `CKKS::Plaintext`).

use std::sync::Arc;

use fides_client::Domain;

use crate::context::CkksContext;
use crate::error::{FidesError, Result};
use crate::poly::{LimbPartition, RNSPoly};

/// Relative scale drift tolerated when combining operands.
///
/// The FLEXIBLEAUTO-style standard-scale ladder `σ_{ℓ-1} = σ_ℓ²/q_ℓ`
/// *doubles* relative prime drift per level, so the bottom of a deep chain
/// deviates from `2^Δ` by up to ~`2^-7` even with alternating prime
/// selection. Mixing ladder points (e.g. bootstrap's scale
/// reinterpretation) therefore produces relative scale differences up to
/// ~1e-3. Adding operands whose scales differ by `ε` perturbs the message
/// by only `ε` relative, which stays below this library's approximate-
/// computing precision targets; OpenFHE cancels the drift with explicit
/// adjustment multiplications, a refinement noted as future work in
/// DESIGN.md. Gross scale errors (forgotten rescales, factor-of-2 bugs)
/// remain far outside this bound and are still rejected.
pub const SCALE_TOLERANCE: f64 = 2e-2;

/// A CKKS ciphertext `(c_0, c_1)` on the device, in evaluation domain.
#[derive(Debug)]
pub struct Ciphertext {
    pub(crate) c0: RNSPoly,
    pub(crate) c1: RNSPoly,
    pub(crate) scale: f64,
    pub(crate) slots: usize,
    pub(crate) noise_log2: f64,
}

impl Ciphertext {
    /// Wraps two polynomials into a ciphertext.
    pub fn from_parts(c0: RNSPoly, c1: RNSPoly, scale: f64, slots: usize, noise_log2: f64) -> Self {
        assert_eq!(c0.num_q(), c1.num_q(), "component level mismatch");
        Self {
            c0,
            c1,
            scale,
            slots,
            noise_log2,
        }
    }

    /// An all-zero ciphertext at `level` (useful as an accumulator).
    pub fn zero(ctx: &Arc<CkksContext>, level: usize, scale: f64, slots: usize) -> Self {
        Self {
            c0: RNSPoly::zero(ctx, level, false, Domain::Eval),
            c1: RNSPoly::zero(ctx, level, false, Domain::Eval),
            scale,
            slots,
            noise_log2: 0.0,
        }
    }

    /// Current level.
    pub fn level(&self) -> usize {
        self.c0.level()
    }

    /// Exact message scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Overrides the scale metadata (scale reinterpretation — used by
    /// bootstrapping; changes the *logical* value, not the data).
    pub fn set_scale(&mut self, scale: f64) {
        assert!(scale > 0.0);
        self.scale = scale;
    }

    /// Number of packed slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Static noise estimate (log2 magnitude).
    pub fn noise_log2(&self) -> f64 {
        self.noise_log2
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<CkksContext> {
        self.c0.context()
    }

    /// The `c_0` component.
    pub fn c0(&self) -> &RNSPoly {
        &self.c0
    }

    /// The `c_1` component.
    pub fn c1(&self) -> &RNSPoly {
        &self.c1
    }

    /// Deep copy (device-side copy kernels).
    pub fn duplicate(&self) -> Self {
        let [c0, c1] = RNSPoly::duplicate_all([&self.c0, &self.c1]);
        Self {
            c0,
            c1,
            scale: self.scale,
            slots: self.slots,
            noise_log2: self.noise_log2,
        }
    }

    /// Drops limbs down to `level` without rescaling (LevelReduce).
    pub fn drop_to_level(&mut self, level: usize) -> Result<()> {
        if level > self.level() {
            return Err(FidesError::NotEnoughLevels {
                needed: level,
                available: self.level(),
            });
        }
        self.c0.drop_to_level(level);
        self.c1.drop_to_level(level);
        Ok(())
    }

    pub(crate) fn check_compatible(&self, other: &Ciphertext) -> Result<()> {
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
        let drift = (self.scale / other.scale - 1.0).abs();
        if drift > SCALE_TOLERANCE {
            return Err(FidesError::ScaleMismatch {
                left: self.scale,
                right: other.scale,
            });
        }
        Ok(())
    }
}

impl Drop for Ciphertext {
    /// Both components' limbs go back to the pool under one device lock.
    fn drop(&mut self) {
        LimbPartition::release_pair(&mut self.c0.part, &mut self.c1.part);
    }
}

/// A device-resident plaintext in evaluation domain (ready for PtAdd/PtMult).
#[derive(Debug)]
pub struct Plaintext {
    pub(crate) poly: RNSPoly,
    pub(crate) scale: f64,
    pub(crate) slots: usize,
}

impl Plaintext {
    /// Wraps an evaluation-domain polynomial.
    pub fn from_poly(poly: RNSPoly, scale: f64, slots: usize) -> Self {
        Self { poly, scale, slots }
    }

    /// Level of the plaintext.
    pub fn level(&self) -> usize {
        self.poly.level()
    }

    /// Encoding scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Packed slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The underlying polynomial.
    pub fn poly(&self) -> &RNSPoly {
        &self.poly
    }

    /// Drops limbs down to `level` (plaintexts can always be truncated).
    pub fn drop_to_level(&mut self, level: usize) -> Result<()> {
        if level > self.level() {
            return Err(FidesError::NotEnoughLevels {
                needed: level,
                available: self.level(),
            });
        }
        self.poly.drop_to_level(level);
        Ok(())
    }
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
    fn compatibility_checks() {
        let c = ctx();
        let a = Ciphertext::zero(&c, 2, 2f64.powi(40), 8);
        let b = Ciphertext::zero(&c, 1, 2f64.powi(40), 8);
        assert!(matches!(
            a.check_compatible(&b),
            Err(FidesError::LevelMismatch { .. })
        ));
        let b = Ciphertext::zero(&c, 2, 2f64.powi(41), 8);
        assert!(matches!(
            a.check_compatible(&b),
            Err(FidesError::ScaleMismatch { .. })
        ));
        let b = Ciphertext::zero(&c, 2, 2f64.powi(40), 4);
        assert!(matches!(
            a.check_compatible(&b),
            Err(FidesError::SlotMismatch { .. })
        ));
        let b = Ciphertext::zero(&c, 2, 2f64.powi(40) * (1.0 + 1e-9), 8);
        assert!(a.check_compatible(&b).is_ok(), "tiny drift tolerated");
    }

    #[test]
    fn level_drop() {
        let c = ctx();
        let mut a = Ciphertext::zero(&c, 3, 1.0, 8);
        a.drop_to_level(1).unwrap();
        assert_eq!(a.level(), 1);
        assert!(a.drop_to_level(3).is_err());
    }
}
