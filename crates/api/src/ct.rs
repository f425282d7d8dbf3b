//! Session-bound ciphertext handles with operator overloading.

use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

use fides_core::backend::BackendCt;
use fides_core::{FidesError, Result};

use crate::engine::EngineInner;

/// A ciphertext bound to its [`CkksEngine`](crate::CkksEngine) session.
///
/// `Ct` carries an `Arc` to the session, so handles combine with plain
/// operators — `&a * &b + &a * 2.0` — without an engine reference at every
/// call site. The operators apply the standard-ladder policy automatically:
///
/// * `*` (ct × ct, ct × plaintext, ct × scalar) relinearizes where needed
///   and **rescales immediately**, consuming one level;
/// * `+` / `-` align operand levels by dropping the higher operand
///   (LevelReduce — exact, no precision cost);
/// * scalar `+` / `-` are exact and consume nothing.
///
/// Operators panic on unrecoverable misuse (exhausted levels, missing keys,
/// handles from different sessions) — the same conditions the `try_*`
/// methods report as typed [`FidesError`]s. Long-running services should
/// prefer the `try_*` forms.
pub struct Ct {
    pub(crate) inner: Arc<EngineInner>,
    pub(crate) ct: BackendCt,
    /// Number of values the caller encrypted (decrypt truncates to this).
    pub(crate) len: usize,
}

// Manual impl: metadata only — the derived form would print megabytes of
// limb data per handle.
impl std::fmt::Debug for Ct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ct")
            .field("level", &self.ct.level())
            .field("scale", &self.ct.scale())
            .field("slots", &self.ct.slots())
            .field("len", &self.len)
            .field("noise_log2", &self.ct.noise_log2())
            .finish_non_exhaustive()
    }
}

impl Clone for Ct {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            ct: self.ct.duplicate(),
            len: self.len,
        }
    }
}

impl Ct {
    /// Wraps a backend handle (e.g. one just loaded from a wire frame) into
    /// a session ciphertext. `len` is the value count [`CkksEngine::decrypt`]
    /// should report.
    ///
    /// [`CkksEngine::decrypt`]: crate::CkksEngine::decrypt
    pub fn from_backend(engine: &crate::CkksEngine, ct: BackendCt, len: usize) -> Ct {
        Ct {
            inner: Arc::clone(&engine.inner),
            ct,
            len,
        }
    }

    /// Current level (multiplications remaining on the chain).
    pub fn level(&self) -> usize {
        self.ct.level()
    }

    /// Exact message scale.
    pub fn scale(&self) -> f64 {
        self.ct.scale()
    }

    /// Packed (padded) slot count.
    pub fn slots(&self) -> usize {
        self.ct.slots()
    }

    /// Number of values encrypted into this ciphertext.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values were encrypted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Static noise estimate (log2 magnitude).
    pub fn noise_log2(&self) -> f64 {
        self.ct.noise_log2()
    }

    /// The raw backend handle (for interop with the layered API).
    pub fn backend_ct(&self) -> &BackendCt {
        &self.ct
    }

    /// Downloads the ciphertext in the portable wire form — the frame the
    /// client would decrypt. Backends that agree bit-for-bit produce
    /// identical frames, which the cross-backend determinism tests assert.
    ///
    /// # Errors
    ///
    /// Backend `store` failures (e.g. a handle from another session).
    pub fn to_raw(&self) -> Result<fides_client::RawCiphertext> {
        self.inner.backend.store(&self.ct)
    }

    fn wrap(&self, ct: BackendCt) -> Ct {
        Ct {
            inner: Arc::clone(&self.inner),
            ct,
            len: self.len,
        }
    }

    fn same_session(&self, other: &Ct) -> Result<()> {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            Ok(())
        } else {
            Err(FidesError::Unsupported(
                "combining ciphertexts from different engine sessions".into(),
            ))
        }
    }

    /// Aligns two operands to a common level by dropping the higher one
    /// (exact LevelReduce), then applies `op`.
    fn with_aligned(
        &self,
        other: &Ct,
        op: impl FnOnce(&BackendCt, &BackendCt) -> Result<BackendCt>,
    ) -> Result<Ct> {
        self.same_session(other)?;
        let backend = self.inner.backend.as_ref();
        let (la, lb) = (self.ct.level(), other.ct.level());
        let target = la.min(lb);
        let dropped_a;
        let a = if la > target {
            let mut d = self.ct.duplicate();
            backend.drop_to_level(&mut d, target)?;
            dropped_a = d;
            &dropped_a
        } else {
            &self.ct
        };
        let dropped_b;
        let b = if lb > target {
            let mut d = other.ct.duplicate();
            backend.drop_to_level(&mut d, target)?;
            dropped_b = d;
            &dropped_b
        } else {
            &other.ct
        };
        Ok(self.wrap(op(a, b)?).with_len(self.len.max(other.len)))
    }

    fn with_len(mut self, len: usize) -> Ct {
        self.len = len;
        self
    }

    /// HAdd with automatic level alignment.
    ///
    /// # Errors
    ///
    /// Scale/slot mismatches, or handles from different sessions.
    pub fn try_add(&self, other: &Ct) -> Result<Ct> {
        self.with_aligned(other, |a, b| self.inner.backend.add(a, b))
    }

    /// HSub with automatic level alignment.
    ///
    /// # Errors
    ///
    /// As [`Ct::try_add`].
    pub fn try_sub(&self, other: &Ct) -> Result<Ct> {
        self.with_aligned(other, |a, b| self.inner.backend.sub(a, b))
    }

    /// HMult: aligns levels, multiplies with relinearization, rescales.
    /// Consumes one level.
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] at level 0, mismatches as
    /// [`Ct::try_add`].
    pub fn try_mul(&self, other: &Ct) -> Result<Ct> {
        let mut out = self.with_aligned(other, |a, b| self.inner.backend.mul(a, b))?;
        self.inner.backend.rescale(&mut out.ct)?;
        Ok(out)
    }

    /// HSquare (cheaper than `self * self`), rescaled. Consumes one level.
    ///
    /// # Errors
    ///
    /// As [`Ct::try_mul`].
    pub fn try_square(&self) -> Result<Ct> {
        let mut out = self.wrap(self.inner.backend.square(&self.ct)?);
        self.inner.backend.rescale(&mut out.ct)?;
        Ok(out)
    }

    /// Negation (exact).
    ///
    /// # Errors
    ///
    /// Backend mismatches only.
    pub fn try_neg(&self) -> Result<Ct> {
        Ok(self.wrap(self.inner.backend.negate(&self.ct)?))
    }

    /// ScalarAdd (exact, no level consumed).
    ///
    /// # Errors
    ///
    /// [`FidesError::ScalarOutOfRange`] when `c` times the ciphertext's
    /// scale rounds to 2¹²⁷ or more in magnitude.
    pub fn try_add_scalar(&self, c: f64) -> Result<Ct> {
        Ok(self.wrap(self.inner.backend.add_scalar(&self.ct, c)?))
    }

    /// ScalarMult at the ladder-exact constant scale, rescaled. Consumes one
    /// level.
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] at level 0,
    /// [`FidesError::ScalarOutOfRange`] when `c` times the constant's scale
    /// (≈ the fresh scale) rounds to 2¹²⁷ or more in magnitude.
    pub fn try_mul_scalar(&self, c: f64) -> Result<Ct> {
        let level = self.ct.level();
        if level == 0 {
            return Err(FidesError::NotEnoughLevels {
                needed: 1,
                available: 0,
            });
        }
        let backend = self.inner.backend.as_ref();
        let q_l = backend.modulus_value(level) as f64;
        let const_scale = q_l * backend.standard_scale(level - 1) / backend.standard_scale(level);
        let mut out = self.wrap(backend.mul_scalar_at(&self.ct, c, const_scale)?);
        backend.rescale(&mut out.ct)?;
        Ok(out)
    }

    /// Exact multiplication by a small signed integer (no scale change, no
    /// level consumed).
    ///
    /// # Errors
    ///
    /// Backend mismatches only.
    pub fn try_mul_int(&self, k: i64) -> Result<Ct> {
        Ok(self.wrap(self.inner.backend.mul_int(&self.ct, k)?))
    }

    /// PtAdd of a plain vector, encoded at this ciphertext's level and
    /// scale. Values are zero-padded to the slot count.
    ///
    /// # Errors
    ///
    /// [`FidesError::Client`] when `values` exceed the slot capacity.
    pub fn try_add_plain(&self, values: &[f64]) -> Result<Ct> {
        let pt = self.encode_padded(values, self.ct.scale(), self.ct.level())?;
        Ok(self.wrap(self.inner.backend.add_plain(&self.ct, &pt)?))
    }

    /// PtMult of a plain vector encoded at the ladder-exact constant scale,
    /// rescaled. Consumes one level.
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] at level 0, [`FidesError::Client`]
    /// when `values` exceed the slot capacity.
    pub fn try_mul_plain(&self, values: &[f64]) -> Result<Ct> {
        let level = self.ct.level();
        if level == 0 {
            return Err(FidesError::NotEnoughLevels {
                needed: 1,
                available: 0,
            });
        }
        let backend = self.inner.backend.as_ref();
        let q_l = backend.modulus_value(level) as f64;
        let const_scale = q_l * backend.standard_scale(level - 1) / backend.standard_scale(level);
        let pt = self.encode_padded(values, const_scale, level)?;
        let mut out = self.wrap(backend.mul_plain(&self.ct, &pt)?);
        backend.rescale(&mut out.ct)?;
        Ok(out)
    }

    /// HRotate: slots move left by `k` (negative `k` rotates right). The
    /// session must have been built with `.rotations(&[.., k, ..])`.
    ///
    /// # Errors
    ///
    /// [`FidesError::MissingKey`] for undeclared shifts.
    pub fn rotate(&self, k: i32) -> Result<Ct> {
        Ok(self.wrap(self.inner.backend.rotate(&self.ct, k)?))
    }

    /// Rotations by every shift in `shifts`, sharing the hoisted
    /// decomposition where the backend supports it (§III-F.6).
    ///
    /// # Errors
    ///
    /// As [`Ct::rotate`].
    pub fn rotate_many(&self, shifts: &[i32]) -> Result<Vec<Ct>> {
        Ok(self
            .inner
            .backend
            .hoisted_rotations(&self.ct, shifts)?
            .into_iter()
            .map(|ct| self.wrap(ct))
            .collect())
    }

    /// HConjugate. The session must have been built with `.conjugation()`.
    ///
    /// # Errors
    ///
    /// [`FidesError::MissingKey`] without the conjugation key.
    pub fn conjugate(&self) -> Result<Ct> {
        Ok(self.wrap(self.inner.backend.conjugate(&self.ct)?))
    }

    /// Bootstrap: refresh an exhausted ciphertext back to computing depth.
    /// The session must have been built with `.bootstrap_slots(..)`.
    /// Available on both backends; refreshed ciphertexts are bit-identical
    /// across them.
    ///
    /// # Errors
    ///
    /// [`FidesError::Unsupported`] when the session has no bootstrapping
    /// material.
    pub fn bootstrap(&self) -> Result<Ct> {
        Ok(self.wrap(self.inner.backend.bootstrap(&self.ct)?))
    }

    /// Evaluates the Chebyshev series `Σ coeffs[j]·T_j(x)` on this
    /// ciphertext with the Paterson–Stockmeyer BSGS evaluator (the
    /// ApproxModEval machinery of bootstrapping, exposed for general
    /// polynomial approximation). Slot values must lie in `[−1, 1]`.
    ///
    /// Consumes `ChebyshevEvaluator::depth_estimate(deg)` levels at most.
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] when the chain is too shallow for
    /// the series degree, or a missing relinearization key.
    pub fn try_chebyshev(&self, coeffs: &[f64]) -> Result<Ct> {
        let backend = self.inner.backend.as_ref();
        // Trim trailing ~zero coefficients before sizing the evaluator:
        // padded coefficient buffers must not inflate the depth budget.
        let degree = fides_core::boot::trim_degree(coeffs);
        let ev = fides_core::boot::ChebyshevEvaluator::new(backend, &self.ct, degree)?;
        Ok(self.wrap(ev.evaluate(&coeffs[..(degree + 1).min(coeffs.len())])?))
    }

    /// An exact copy dropped to `level` (LevelReduce).
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] when `level` exceeds the current one.
    pub fn at_level(&self, level: usize) -> Result<Ct> {
        let mut d = self.ct.duplicate();
        self.inner.backend.drop_to_level(&mut d, level)?;
        Ok(self.wrap(d))
    }

    fn encode_padded(
        &self,
        values: &[f64],
        scale: f64,
        level: usize,
    ) -> Result<fides_client::RawPlaintext> {
        let slots = self.ct.slots();
        if values.len() > slots {
            return Err(FidesError::Client(format!(
                "plaintext operand has {} values but the ciphertext packs {slots} slots",
                values.len()
            )));
        }
        let mut padded = values.to_vec();
        padded.resize(slots, 0.0);
        Ok(self.inner.client.encode_real(&padded, scale, level)?)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $try_method:ident, $what:literal) => {
        impl $trait<&Ct> for &Ct {
            type Output = Ct;
            fn $method(self, rhs: &Ct) -> Ct {
                self.$try_method(rhs)
                    .unwrap_or_else(|e| panic!(concat!("homomorphic ", $what, " failed: {}"), e))
            }
        }
        impl $trait<Ct> for Ct {
            type Output = Ct;
            fn $method(self, rhs: Ct) -> Ct {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&Ct> for Ct {
            type Output = Ct;
            fn $method(self, rhs: &Ct) -> Ct {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<Ct> for &Ct {
            type Output = Ct;
            fn $method(self, rhs: Ct) -> Ct {
                $trait::$method(self, &rhs)
            }
        }
    };
}

forward_binop!(Add, add, try_add, "add");
forward_binop!(Sub, sub, try_sub, "sub");
forward_binop!(Mul, mul, try_mul, "mul");

macro_rules! forward_scalar_binop {
    ($trait:ident, $method:ident, $expr:expr, $what:literal) => {
        impl $trait<f64> for &Ct {
            type Output = Ct;
            fn $method(self, rhs: f64) -> Ct {
                let f: fn(&Ct, f64) -> crate::Result<Ct> = $expr;
                f(self, rhs)
                    .unwrap_or_else(|e| panic!(concat!("homomorphic ", $what, " failed: {}"), e))
            }
        }
        impl $trait<f64> for Ct {
            type Output = Ct;
            fn $method(self, rhs: f64) -> Ct {
                $trait::$method(&self, rhs)
            }
        }
    };
}

forward_scalar_binop!(Add, add, |ct, c| ct.try_add_scalar(c), "scalar add");
forward_scalar_binop!(Sub, sub, |ct, c| ct.try_add_scalar(-c), "scalar sub");
forward_scalar_binop!(Mul, mul, |ct, c| ct.try_mul_scalar(c), "scalar mul");

impl Add<&Ct> for f64 {
    type Output = Ct;
    fn add(self, rhs: &Ct) -> Ct {
        rhs + self
    }
}

impl Add<Ct> for f64 {
    type Output = Ct;
    fn add(self, rhs: Ct) -> Ct {
        &rhs + self
    }
}

impl Mul<&Ct> for f64 {
    type Output = Ct;
    fn mul(self, rhs: &Ct) -> Ct {
        rhs * self
    }
}

impl Mul<Ct> for f64 {
    type Output = Ct;
    fn mul(self, rhs: Ct) -> Ct {
        &rhs * self
    }
}

impl Sub<&Ct> for f64 {
    type Output = Ct;
    fn sub(self, rhs: &Ct) -> Ct {
        -rhs + self
    }
}

impl Sub<Ct> for f64 {
    type Output = Ct;
    fn sub(self, rhs: Ct) -> Ct {
        -&rhs + self
    }
}

macro_rules! forward_plain_binop {
    ($trait:ident, $method:ident, $try_method:ident, $what:literal) => {
        impl $trait<&[f64]> for &Ct {
            type Output = Ct;
            fn $method(self, rhs: &[f64]) -> Ct {
                self.$try_method(rhs)
                    .unwrap_or_else(|e| panic!(concat!("homomorphic ", $what, " failed: {}"), e))
            }
        }
        impl $trait<&[f64]> for Ct {
            type Output = Ct;
            fn $method(self, rhs: &[f64]) -> Ct {
                $trait::$method(&self, rhs)
            }
        }
    };
}

forward_plain_binop!(Add, add, try_add_plain, "plaintext add");
forward_plain_binop!(Mul, mul, try_mul_plain, "plaintext mul");

impl Neg for &Ct {
    type Output = Ct;
    fn neg(self) -> Ct {
        self.try_neg()
            .unwrap_or_else(|e| panic!("homomorphic negate failed: {e}"))
    }
}

impl Neg for Ct {
    type Output = Ct;
    fn neg(self) -> Ct {
        -&self
    }
}
