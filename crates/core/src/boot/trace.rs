//! A metadata-only backend: runs a circuit's level and scale bookkeeping
//! and nothing else.
//!
//! Every method updates `(level, scale, slots)` exactly as the two real
//! backends do — products multiply scales, a rescale divides by `q_ℓ`, sums
//! keep the left operand's scale — on [`HostCiphertext`]s with no limbs, so
//! running the bootstrap circuit through it costs microseconds at any ring
//! degree and touches no device. [`Bootstrapper::new`](super::Bootstrapper)
//! uses it to find the scale its last SlotToCoeff stage receives.

use fides_client::{RawCiphertext, RawPlaintext};

use crate::backend::{BackendCt, BackendPt, EvalBackend};
use crate::cpu_ref::{HostCiphertext, HostPlaintext};
use crate::error::{FidesError, Result};

/// Scale bookkeeping over the moduli and ladder of `inner`.
#[derive(Debug)]
pub(crate) struct ScaleTrace<'a> {
    pub(crate) inner: &'a dyn EvalBackend,
}

/// A limb-less ciphertext.
pub(crate) fn meta(level: usize, scale: f64, slots: usize) -> BackendCt {
    BackendCt::Host(HostCiphertext {
        c0: Vec::new(),
        c1: Vec::new(),
        level,
        scale,
        slots,
        noise_log2: 0.0,
    })
}

/// `a` with its scale replaced by `scale` and its level by `level`.
fn with(a: &BackendCt, level: usize, scale: f64) -> BackendCt {
    meta(level, scale, a.slots())
}

fn unsupported<T>(what: &str) -> Result<T> {
    Err(FidesError::Unsupported(format!("{what} in a scale trace")))
}

impl EvalBackend for ScaleTrace<'_> {
    fn name(&self) -> &'static str {
        "scale-trace"
    }

    fn max_level(&self) -> usize {
        self.inner.max_level()
    }

    fn fresh_scale(&self) -> f64 {
        self.inner.fresh_scale()
    }

    fn standard_scale(&self, level: usize) -> f64 {
        self.inner.standard_scale(level)
    }

    fn modulus_value(&self, level: usize) -> u64 {
        self.inner.modulus_value(level)
    }

    fn is_functional(&self) -> bool {
        false
    }

    fn load(&self, _raw: &RawCiphertext) -> Result<BackendCt> {
        unsupported("load")
    }

    fn store(&self, _ct: &BackendCt) -> Result<RawCiphertext> {
        unsupported("store")
    }

    fn add(&self, a: &BackendCt, _b: &BackendCt) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn sub(&self, a: &BackendCt, _b: &BackendCt) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn negate(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn add_scalar(&self, a: &BackendCt, _c: f64) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn add_plain(&self, a: &BackendCt, _pt: &RawPlaintext) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn mul_plain(&self, a: &BackendCt, pt: &RawPlaintext) -> Result<BackendCt> {
        Ok(with(a, a.level(), a.scale() * pt.scale))
    }

    fn mul(&self, a: &BackendCt, b: &BackendCt) -> Result<BackendCt> {
        Ok(with(a, a.level(), a.scale() * b.scale()))
    }

    fn square(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(with(a, a.level(), a.scale() * a.scale()))
    }

    fn mul_scalar_at(&self, a: &BackendCt, _c: f64, const_scale: f64) -> Result<BackendCt> {
        Ok(with(a, a.level(), a.scale() * const_scale))
    }

    fn mul_int(&self, a: &BackendCt, _k: i64) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn rescale(&self, a: &mut BackendCt) -> Result<()> {
        let level = a.level();
        if level == 0 {
            return Err(FidesError::NotEnoughLevels {
                needed: 1,
                available: 0,
            });
        }
        let q_l = self.modulus_value(level) as f64;
        *a = with(a, level - 1, a.scale() / q_l);
        Ok(())
    }

    fn drop_to_level(&self, a: &mut BackendCt, level: usize) -> Result<()> {
        if level > a.level() {
            return Err(FidesError::LevelOutOfRange {
                level,
                max: a.level(),
            });
        }
        *a = with(a, level, a.scale());
        Ok(())
    }

    fn rotate(&self, a: &BackendCt, _k: i32) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn conjugate(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(a.duplicate())
    }

    fn load_plain(&self, _raw: &RawPlaintext) -> Result<BackendPt> {
        unsupported("load_plain")
    }

    fn placeholder_plain(&self, level: usize, scale: f64, slots: usize) -> Result<BackendPt> {
        Ok(BackendPt::Host(HostPlaintext {
            limbs: Vec::new(),
            level,
            scale,
            slots,
        }))
    }

    fn mul_plain_pre(&self, a: &BackendCt, pt: &BackendPt) -> Result<BackendCt> {
        Ok(with(a, a.level(), a.scale() * pt.scale()))
    }

    fn mod_raise(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(with(a, self.max_level(), a.scale()))
    }

    fn mul_by_i(&self, a: &BackendCt) -> Result<BackendCt> {
        Ok(a.duplicate())
    }
}
