//! Server-side CKKS operations (the `FIDESlib::CKKS` API surface of Fig. 1).
//!
//! | Paper operation | Rust API |
//! |---|---|
//! | `HAdd` | [`Ciphertext::add`](crate::Ciphertext::add) |
//! | `PtAdd` | [`Ciphertext::add_plain`](crate::Ciphertext::add_plain) |
//! | `ScalarAdd` | [`Ciphertext::add_scalar`](crate::Ciphertext::add_scalar) |
//! | `HMult` | [`Ciphertext::mul`](crate::Ciphertext::mul) |
//! | `HSquare` | [`Ciphertext::square`](crate::Ciphertext::square) |
//! | `PtMult` | [`Ciphertext::mul_plain`](crate::Ciphertext::mul_plain) |
//! | `ScalarMult` | [`Ciphertext::mul_scalar`](crate::Ciphertext::mul_scalar) |
//! | `Rescale` | [`Ciphertext::rescale_in_place`](crate::Ciphertext::rescale_in_place) |
//! | `HRotate` | [`Ciphertext::rotate`](crate::Ciphertext::rotate) |
//! | `HConjugate` | [`Ciphertext::conjugate`](crate::Ciphertext::conjugate) |
//! | `HoistedRotate` | [`Ciphertext::hoisted_rotations`](crate::Ciphertext::hoisted_rotations) |
//! | `KeySwitch`/`ModUp`/`ModDown` | internal (`ops::keyswitch`) |
//! | `Bootstrap` | [`Bootstrapper`](crate::boot::Bootstrapper) |

use fides_math::Modulus;

use crate::error::{FidesError, Result};

pub(crate) mod arith;
pub(crate) mod keyswitch;
pub(crate) mod linear;
pub(crate) mod mult;
pub(crate) mod rescale;
pub(crate) mod rotate;

/// Per-limb residues of `round(c·scale)` under `moduli`: a scalar
/// operand's constant polynomial.
///
/// # Errors
///
/// [`FidesError::ScalarOutOfRange`] when `c·scale` is not finite or rounds
/// to a magnitude of 2¹²⁷ or more (an `i128` cast would saturate there).
pub(crate) fn scalar_residues(c: f64, scale: f64, moduli: &[Modulus]) -> Result<Vec<u64>> {
    let v = (c * scale).round();
    // False for NaN too.
    let in_range = v.abs() < 2f64.powi(127);
    if !in_range {
        return Err(FidesError::ScalarOutOfRange { c, scale });
    }
    let v = v as i128;
    Ok(moduli
        .iter()
        .map(|m| v.rem_euclid(i128::from(m.value())) as u64)
        .collect())
}
