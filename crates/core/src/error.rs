//! Error types for server-side CKKS operations.

use std::fmt;

/// Errors produced by `fides-core` operations.
#[derive(Clone, Debug, PartialEq)]
pub enum FidesError {
    /// Operand levels differ where they must match.
    LevelMismatch {
        /// Left operand level.
        left: usize,
        /// Right operand level.
        right: usize,
    },
    /// Operand scales differ beyond the drift tolerance.
    ScaleMismatch {
        /// Left operand scale.
        left: f64,
        /// Right operand scale.
        right: f64,
    },
    /// Slot counts differ.
    SlotMismatch {
        /// Left operand slots.
        left: usize,
        /// Right operand slots.
        right: usize,
    },
    /// The operation needs more multiplicative levels than remain.
    NotEnoughLevels {
        /// Levels required.
        needed: usize,
        /// Levels available.
        available: usize,
    },
    /// A required evaluation key (relinearization / rotation / conjugation)
    /// was not loaded.
    MissingKey(String),
    /// Invalid parameter combination.
    InvalidParams(String),
    /// Data crossed the adapter in the wrong representation domain.
    DomainMismatch {
        /// Domain the operation requires.
        expected: &'static str,
        /// Domain the data arrived in.
        found: &'static str,
    },
    /// A ciphertext or plaintext level exceeds the context chain.
    LevelOutOfRange {
        /// Offending level.
        level: usize,
        /// Maximum level the chain supports.
        max: usize,
    },
    /// A switching key's limb count does not match the context chain.
    KeyShape {
        /// Limbs the chain requires per digit component.
        expected: usize,
        /// Limbs the key carries.
        found: usize,
    },
    /// A client-side operation failed (encode / encrypt / serialization).
    Client(String),
    /// An adapter frame (ciphertext / plaintext / key) is structurally
    /// inconsistent — e.g. limb counts that contradict its declared level.
    Malformed(String),
    /// The active evaluation backend does not support the operation.
    Unsupported(String),
    /// A scalar operand's `c·scale` is not finite or rounds to a magnitude
    /// of 2¹²⁷ or more, past the integer its residues are taken from.
    ScalarOutOfRange {
        /// The scalar.
        c: f64,
        /// The scale it is encoded at.
        scale: f64,
    },
    /// A ciphertext or plaintext frame declares a scale that is not finite
    /// and positive.
    InvalidScale(f64),
    /// A ciphertext or plaintext frame declares a slot count that is not a
    /// power of two in `1..=max`.
    InvalidSlots {
        /// The declared slot count.
        slots: usize,
        /// The ring's slot capacity, `N/2`.
        max: usize,
    },
}

impl fmt::Display for FidesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FidesError::LevelMismatch { left, right } => {
                write!(f, "ciphertext level mismatch: {left} vs {right}")
            }
            FidesError::ScaleMismatch { left, right } => {
                write!(
                    f,
                    "scale mismatch beyond drift tolerance: {left:e} vs {right:e}"
                )
            }
            FidesError::SlotMismatch { left, right } => {
                write!(f, "slot count mismatch: {left} vs {right}")
            }
            FidesError::NotEnoughLevels { needed, available } => {
                write!(f, "not enough levels: need {needed}, have {available}")
            }
            FidesError::MissingKey(which) => write!(f, "missing evaluation key: {which}"),
            FidesError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            FidesError::DomainMismatch { expected, found } => {
                write!(
                    f,
                    "domain mismatch: expected {expected} representation, found {found}"
                )
            }
            FidesError::LevelOutOfRange { level, max } => {
                write!(f, "level {level} out of range (chain supports 0..={max})")
            }
            FidesError::KeyShape { expected, found } => {
                write!(
                    f,
                    "switching key shape mismatch: expected {expected} limbs, found {found}"
                )
            }
            FidesError::Client(msg) => write!(f, "client operation failed: {msg}"),
            FidesError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FidesError::Unsupported(what) => write!(f, "unsupported by this backend: {what}"),
            FidesError::ScalarOutOfRange { c, scale } => write!(
                f,
                "scalar {c:e} at scale {scale:e} is out of range: |c·scale| must round below 2^127"
            ),
            FidesError::InvalidScale(scale) => {
                write!(f, "scale {scale:e} is not finite and positive")
            }
            FidesError::InvalidSlots { slots, max } => {
                write!(f, "slot count {slots} is not a power of two in 1..={max}")
            }
        }
    }
}

impl std::error::Error for FidesError {}

impl From<fides_client::ClientError> for FidesError {
    fn from(e: fides_client::ClientError) -> Self {
        FidesError::Client(e.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, FidesError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = FidesError::LevelMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains("3 vs 5"));
        let e = FidesError::MissingKey("rotation(4)".into());
        assert!(e.to_string().contains("rotation(4)"));
        let e = FidesError::NotEnoughLevels {
            needed: 2,
            available: 1,
        };
        assert!(e.to_string().contains("need 2"));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err(_: &(dyn std::error::Error + Send + Sync)) {}
        takes_err(&FidesError::InvalidParams("x".into()));
    }
}
