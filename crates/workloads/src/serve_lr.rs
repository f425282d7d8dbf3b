//! The serving-layer workload: logistic-regression **scoring** as a wire
//! request program.
//!
//! Training (the other `lr_*` modules) is a batch job; serving is the
//! steady-state traffic of the ROADMAP's north star — millions of tenants,
//! each holding their own model, scoring small feature batches against a
//! shared evaluation server. This module packages one tenant's scoring
//! circuit as the serving layer's register program:
//!
//! ```text
//!   score(x) = σ(w · x),   σ(t) ≈ 0.5 + 0.197·t − 0.004·t³
//! ```
//!
//! * the model `w` is a **preloaded session plaintext** (uploaded once at
//!   keygen, resident in the server's evaluation-domain cache);
//! * the dot product is the classic rotate-and-add reduction over the
//!   packed feature slots (`log2(dim)` rotations);
//! * the sigmoid is a degree-3 polynomial approximation, but **not** the
//!   one the training workloads use (`0.5 + 0.15012·z − 0.001593·z³`,
//!   [`crate::lr::sigmoid_poly`]).
//!
//! Feature count must be a power of two; callers pad (the loan workload's
//! 25 → 32 padding is the template). The circuit consumes 4 levels
//! (`MulPlain`, `Square`, `Mul`, `MulScalar` ladders included), so any
//! chain with ≥ 4 scaling primes serves it.

use fides_client::wire::{OpProgram, ProgramOp, SessionRequest};

/// Degree-3 sigmoid approximation coefficients of the scoring circuit:
/// σ(t) ≈ a0 + a1·t + a3·t³.
pub const SIGMOID_A0: f64 = 0.5;
/// Linear coefficient of the degree-3 sigmoid approximation.
pub const SIGMOID_A1: f64 = 0.197;
/// Cubic coefficient of the degree-3 sigmoid approximation.
pub const SIGMOID_A3: f64 = -0.004;

/// One tenant's scoring model: the weight vector the server holds as a
/// preloaded plaintext.
#[derive(Clone, Debug)]
pub struct ServeLrModel {
    /// Model weights, one per feature; `weights.len()` must be a power of
    /// two (pad like the loan workload pads 25 → 32).
    pub weights: Vec<f64>,
}

impl ServeLrModel {
    /// Wraps a weight vector (the feature dimension must be a power of
    /// two).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.len().is_power_of_two(),
            "feature dimension must be a power of two (pad the model)"
        );
        Self { weights }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// The rotation shifts the scoring circuit needs: the power-of-two
    /// strides of the rotate-and-add reduction. A tenant's keygen upload
    /// (and an engine session's `.rotations(..)`) must cover these.
    pub fn required_rotations(&self) -> Vec<i32> {
        (0..self.dim().trailing_zeros())
            .map(|k| 1i32 << k)
            .collect()
    }

    /// The preloaded-plaintext table of the session upload: slot 0 holds
    /// the weights, encoded for ciphertexts at `input_level` (the level
    /// request inputs arrive at — the chain top for fresh encryptions).
    ///
    /// Returns `(values, level)` pairs in the form
    /// [`Session::session_request`](../../fides_api/struct.Session.html)
    /// consumes.
    pub fn session_plains(&self, input_level: usize) -> Vec<(Vec<f64>, usize)> {
        vec![(self.weights.clone(), input_level)]
    }

    /// Builds the scoring program over one input ciphertext (register 0 =
    /// the packed feature vector, preloaded plaintext slot `plain_slot` =
    /// the weights). Output: one ciphertext whose slot 0 carries the
    /// score (every slot carries the same reduced value).
    pub fn scoring_program(&self, plain_slot: u32) -> OpProgram {
        let mut p = OpProgram::new(1);
        // w ⊙ x, rescaled onto the ladder (consumes 1 level).
        let mut acc = p.push(ProgramOp::MulPlain {
            a: 0,
            plain: plain_slot,
        });
        // Rotate-and-add reduction: after the k-th step every slot holds
        // the sum of 2^(k+1) neighbours.
        for k in 0..self.dim().trailing_zeros() {
            let rot = p.push(ProgramOp::Rotate { a: acc, k: 1 << k });
            acc = p.push(ProgramOp::Add { a: acc, b: rot });
        }
        // σ(t) ≈ a0 + a1·t + a3·t³, Horner-free: t³ = t²·t first, then
        // the a3 product. (The training workloads order it differently:
        // they scale t by c3 before the cube's last product.)
        let t2 = p.push(ProgramOp::Square { a: acc });
        let t3 = p.push(ProgramOp::Mul { a: t2, b: acc });
        let c3 = p.push(ProgramOp::MulScalar {
            a: t3,
            c: SIGMOID_A3,
        });
        let c1 = p.push(ProgramOp::MulScalar {
            a: acc,
            c: SIGMOID_A1,
        });
        let sum = p.push(ProgramOp::Add { a: c1, b: c3 });
        let out = p.push(ProgramOp::AddScalar {
            a: sum,
            c: SIGMOID_A0,
        });
        p.output(out);
        p
    }

    /// Plaintext reference: what the encrypted circuit computes for
    /// `features` (including the approximation, so encrypted results agree
    /// to CKKS precision, not merely sigmoid precision).
    pub fn score_plain(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dim());
        let t: f64 = self.weights.iter().zip(features).map(|(w, x)| w * x).sum();
        SIGMOID_A0 + SIGMOID_A1 * t + SIGMOID_A3 * t * t * t
    }

    /// Levels the scoring circuit consumes (MulPlain + Square/Mul ladder +
    /// MulScalar): the serving chain needs at least this many scaling
    /// primes above the output level.
    pub const LEVELS_CONSUMED: usize = 4;
}

/// A deterministic synthetic model for tenant `seed`: weights in
/// `[-0.5, 0.5)`, distinct per tenant so cross-tenant result mixups are
/// caught by value, not just by frame bytes.
pub fn synthetic_model(dim: usize, seed: u64) -> ServeLrModel {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let weights = (0..dim)
        .map(|_| {
            // xorshift64* — cheap, deterministic, dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    ServeLrModel::new(weights)
}

/// A deterministic synthetic feature batch for (`tenant`, `request`):
/// values in `[-1, 1)` scaled down so the dot product stays inside the
/// sigmoid approximation domain.
pub fn synthetic_features(dim: usize, tenant: u64, request: u64) -> Vec<f64> {
    let mut state = (tenant ^ request.rotate_left(32))
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        .max(1);
    (0..dim)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5) * 0.5
        })
        .collect()
}

/// Validates that a tenant keygen upload covers the scoring circuit: the
/// relinearization key (for `Square`/`Mul`) and every reduction rotation.
/// Returns the missing pieces as human-readable labels (empty = servable).
pub fn missing_key_material(model: &ServeLrModel, upload: &SessionRequest) -> Vec<String> {
    let mut missing = Vec::new();
    if upload.relin.is_none() {
        missing.push("relinearization key".to_string());
    }
    for k in model.required_rotations() {
        if !upload.rotations.iter().any(|(shift, _)| *shift == k) {
            missing.push(format!("rotation key {k}"));
        }
    }
    if upload.plaintexts.is_empty() {
        missing.push("preloaded weight plaintext".to_string());
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shape_matches_dim() {
        let m = synthetic_model(8, 1);
        let p = m.scoring_program(0);
        // 1 MulPlain + 3×(Rotate+Add) + Square + Mul + 2×MulScalar + Add +
        // AddScalar = 13 ops, 1 output.
        assert_eq!(p.ops.len(), 13);
        assert_eq!(p.outputs.len(), 1);
        assert!(p.validate(1).is_ok());
        assert!(p.validate(0).is_err(), "needs the preloaded weight slot");
        assert_eq!(m.required_rotations(), vec![1, 2, 4]);
    }

    #[test]
    fn synthetic_data_is_deterministic_and_distinct() {
        let a = synthetic_model(16, 3);
        let b = synthetic_model(16, 3);
        assert_eq!(a.weights, b.weights);
        let c = synthetic_model(16, 4);
        assert_ne!(a.weights, c.weights);
        let f1 = synthetic_features(16, 1, 0);
        assert_eq!(f1, synthetic_features(16, 1, 0));
        assert_ne!(f1, synthetic_features(16, 1, 1));
        assert!(f1.iter().all(|x| x.abs() <= 0.5));
    }

    #[test]
    fn plain_score_is_sigmoid_approx_of_dot() {
        let m = ServeLrModel::new(vec![0.5, -0.25, 0.0, 0.25]);
        let x = [1.0, 1.0, 1.0, 1.0];
        let t = 0.5 - 0.25 + 0.25;
        let want = SIGMOID_A0 + SIGMOID_A1 * t + SIGMOID_A3 * t * t * t;
        assert!((m.score_plain(&x) - want).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_dim_rejected() {
        ServeLrModel::new(vec![0.0; 25]);
    }
}
