//! Encrypted logistic-regression training (paper §IV-B, Table VII).
//!
//! Follows the Han et al. \[51\] approach the paper adapts: mini-batches of
//! `b` samples × `f` (power-of-two padded) features packed sample-major into
//! `b·f` slots, rotation-based folds for the dot products and gradient
//! reductions, a degree-3 polynomial sigmoid, and mini-batch gradient
//! descent with one bootstrap per iteration at full scale.

use std::sync::Arc;

use fides_client::ClientContext;
use fides_core::{adapter, Ciphertext, CkksContext, EvalKeySet, Result};

use crate::loans::sigmoid;

/// Degree-3 least-squares sigmoid approximation on `[-8, 8]` (Han et al.).
pub const SIGMOID_C0: f64 = 0.5;
/// Linear coefficient.
pub const SIGMOID_C1: f64 = 0.15012;
/// Cubic coefficient.
pub const SIGMOID_C3: f64 = -0.001593;

/// Polynomial sigmoid used by both the encrypted and reference paths.
pub fn sigmoid_poly(z: f64) -> f64 {
    SIGMOID_C0 + SIGMOID_C1 * z + SIGMOID_C3 * z * z * z
}

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct LrConfig {
    /// Samples per mini-batch ciphertext (power of two).
    pub batch: usize,
    /// Padded feature count (power of two).
    pub features: usize,
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
}

impl LrConfig {
    /// The paper's configuration: 1,024 samples × 32 features per
    /// ciphertext.
    pub fn paper() -> Self {
        Self {
            batch: 1024,
            features: 32,
            learning_rate: 1.0,
        }
    }

    /// Slots used per ciphertext.
    pub fn slots(&self) -> usize {
        self.batch * self.features
    }

    /// Rotation shifts one iteration needs keys for.
    pub fn required_rotations(&self) -> Vec<i32> {
        let f = self.features as i32;
        let mut shifts = Vec::new();
        let mut k = 1i32;
        while k < f {
            shifts.push(k); // feature fold (left)
            shifts.push(-k); // replicate (right)
            k <<= 1;
        }
        let mut k = f;
        while k < (self.batch as i32) * f {
            shifts.push(k); // sample fold
            k <<= 1;
        }
        shifts
    }

    /// Packs a batch sample-major: slot `i·f + j` = `rows[i][j]`.
    pub fn pack_features(&self, rows: &[&[f64]]) -> Vec<f64> {
        let f = self.features;
        assert_eq!(rows.len(), self.batch);
        let mut slots = vec![0.0; self.slots()];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), f);
            slots[i * f..(i + 1) * f].copy_from_slice(row);
        }
        slots
    }

    /// Packs labels block-constant: slot `i·f + j` = `labels[i]`.
    pub fn pack_labels(&self, labels: &[f64]) -> Vec<f64> {
        let f = self.features;
        assert_eq!(labels.len(), self.batch);
        let mut slots = vec![0.0; self.slots()];
        for (i, &y) in labels.iter().enumerate() {
            slots[i * f..(i + 1) * f].fill(y);
        }
        slots
    }

    /// Packs a weight vector tiled across every sample block.
    pub fn pack_weights(&self, w: &[f64]) -> Vec<f64> {
        let f = self.features;
        assert_eq!(w.len(), f);
        let mut slots = vec![0.0; self.slots()];
        for block in slots.chunks_mut(f) {
            block.copy_from_slice(w);
        }
        slots
    }

    /// Extracts the weight vector from decoded slots (first block).
    pub fn unpack_weights(&self, slots: &[f64]) -> Vec<f64> {
        slots[..self.features].to_vec()
    }

    /// Plaintext reference iteration with the **same** polynomial sigmoid
    /// the encrypted path evaluates.
    pub fn iteration_plain(&self, w: &[f64], rows: &[&[f64]], labels: &[f64]) -> Vec<f64> {
        let f = self.features;
        let b = self.batch;
        let mut grad = vec![0.0f64; f];
        for (row, &y) in rows.iter().zip(labels) {
            let z: f64 = w.iter().zip(row.iter()).map(|(wj, xj)| wj * xj).sum();
            let e = y - sigmoid_poly(z);
            for (gj, xj) in grad.iter_mut().zip(row.iter()) {
                *gj += e * xj;
            }
        }
        w.iter()
            .zip(&grad)
            .map(|(wj, gj)| wj + self.learning_rate * gj / b as f64)
            .collect()
    }

    /// Plaintext training loop (reference / accuracy baseline), using the
    /// exact sigmoid for comparison purposes.
    pub fn train_plain_exact(&self, w0: &[f64], batches: &[(Vec<&[f64]>, Vec<f64>)]) -> Vec<f64> {
        let mut w = w0.to_vec();
        for (rows, labels) in batches {
            let f = self.features;
            let b = self.batch;
            let mut grad = vec![0.0f64; f];
            for (row, &y) in rows.iter().zip(labels) {
                let z: f64 = w.iter().zip(row.iter()).map(|(wj, xj)| wj * xj).sum();
                let e = y - sigmoid(z);
                for (gj, xj) in grad.iter_mut().zip(row.iter()) {
                    *gj += e * xj;
                }
            }
            for (wj, gj) in w.iter_mut().zip(&grad) {
                *wj += self.learning_rate * gj / b as f64;
            }
        }
        w
    }
}

/// Encrypted mini-batch gradient-descent trainer.
///
/// The client packs/encrypts batches and the initial weights; the server
/// (this struct) runs iterations homomorphically.
#[derive(Debug)]
pub struct LrTrainer<'a> {
    ctx: &'a Arc<CkksContext>,
    client: &'a ClientContext,
    config: LrConfig,
}

impl<'a> LrTrainer<'a> {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if batch/features are not powers of two or exceed the slot
    /// capacity.
    pub fn new(ctx: &'a Arc<CkksContext>, client: &'a ClientContext, config: LrConfig) -> Self {
        assert!(config.batch.is_power_of_two() && config.features.is_power_of_two());
        assert!(
            config.slots() <= ctx.n() / 2,
            "batch × features exceeds slot capacity"
        );
        Self {
            ctx,
            client,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LrConfig {
        &self.config
    }

    /// Multiplicative levels consumed by one iteration.
    pub const LEVELS_PER_ITERATION: usize = 6;

    /// Rotation shifts one iteration needs keys for.
    pub fn required_rotations(&self) -> Vec<i32> {
        self.config.required_rotations()
    }

    /// Packs a batch sample-major (see [`LrConfig::pack_features`]).
    pub fn pack_features(&self, rows: &[&[f64]]) -> Vec<f64> {
        self.config.pack_features(rows)
    }

    /// Packs labels block-constant (see [`LrConfig::pack_labels`]).
    pub fn pack_labels(&self, labels: &[f64]) -> Vec<f64> {
        self.config.pack_labels(labels)
    }

    /// Packs a weight vector tiled across every sample block.
    pub fn pack_weights(&self, w: &[f64]) -> Vec<f64> {
        self.config.pack_weights(w)
    }

    /// Extracts the weight vector from decoded slots (first block).
    pub fn unpack_weights(&self, slots: &[f64]) -> Vec<f64> {
        self.config.unpack_weights(slots)
    }

    /// One encrypted gradient-descent iteration:
    /// `w ← w + (lr/b)·Xᵀ(y − σ̃(X·w))`. Consumes
    /// [`Self::LEVELS_PER_ITERATION`] levels.
    ///
    /// # Errors
    ///
    /// Missing keys or insufficient levels.
    pub fn iteration(
        &self,
        w: &Ciphertext,
        x: &Ciphertext,
        y: &Ciphertext,
        keys: &EvalKeySet,
    ) -> Result<Ciphertext> {
        let f = self.config.features;
        let b = self.config.batch;
        let lvl = w.level();
        let mut x_now = x.duplicate();
        x_now.drop_to_level(lvl)?;

        // 1. Per-slot products, then fold over features: block starts hold
        //    the dot products X·w.
        let mut prod = x_now.mul(w, keys)?;
        prod.rescale_in_place()?;
        let mut k = 1i32;
        while (k as usize) < f {
            let rot = prod.rotate(k, keys)?;
            prod.add_assign_ct(&rot)?;
            k <<= 1;
        }

        // 2. Mask the block starts, then replicate the dot product across
        //    each block.
        let mask = {
            let mut m = vec![0.0; self.config.slots()];
            for i in 0..b {
                m[i * f] = 1.0;
            }
            self.encode_at(&m, prod.level())
        };
        let mut z = prod.mul_plain(&mask)?;
        z.rescale_in_place()?;
        let mut k = 1i32;
        while (k as usize) < f {
            let rot = z.rotate(-k, keys)?;
            z.add_assign_ct(&rot)?;
            k <<= 1;
        }

        // 3. Polynomial sigmoid: p = c0 + c1·z + c3·z³ (2 levels).
        let mut z2 = z.square(keys)?;
        z2.rescale_in_place()?;
        let cz = z.mul_scalar_rescale(SIGMOID_C3)?;
        let mut z3c = z2.mul(&cz, keys)?;
        z3c.rescale_in_place()?;
        let mut c1z = z.mul_scalar_rescale(SIGMOID_C1)?;
        c1z.drop_to_level(z3c.level())?;
        let mut p = z3c;
        p.add_assign_ct(&c1z)?;
        p.add_scalar_assign(SIGMOID_C0)?;

        // 4. Error e = y − p.
        let mut y_now = y.duplicate();
        y_now.drop_to_level(p.level())?;
        let e = y_now.sub(&p)?;

        // 5. Gradient: fold e ⊙ x over samples.
        let mut x_low = x.duplicate();
        x_low.drop_to_level(e.level())?;
        let mut g = e.mul(&x_low, keys)?;
        g.rescale_in_place()?;
        let mut k = f as i32;
        while (k as usize) < b * f {
            let rot = g.rotate(k, keys)?;
            g.add_assign_ct(&rot)?;
            k <<= 1;
        }

        // 6. Update: w ← w + (lr/b)·g.
        let g = g.mul_scalar_rescale(self.config.learning_rate / b as f64)?;
        let mut w_now = w.duplicate();
        w_now.drop_to_level(g.level())?;
        let mut out = w_now;
        out.add_assign_ct(&g)?;
        Ok(out)
    }

    /// Plaintext reference iteration with the **same** polynomial sigmoid.
    pub fn iteration_plain(&self, w: &[f64], rows: &[&[f64]], labels: &[f64]) -> Vec<f64> {
        self.config.iteration_plain(w, rows, labels)
    }

    /// Plaintext training loop (reference / accuracy baseline), using the
    /// exact sigmoid for comparison purposes.
    pub fn train_plain_exact(&self, w0: &[f64], batches: &[(Vec<&[f64]>, Vec<f64>)]) -> Vec<f64> {
        self.config.train_plain_exact(w0, batches)
    }

    fn encode_at(&self, slots: &[f64], level: usize) -> fides_core::Plaintext {
        if self.ctx.gpu().is_functional() {
            let q_l = self.ctx.moduli_q()[level].value() as f64;
            let scale = q_l * self.ctx.standard_scale(level - 1) / self.ctx.standard_scale(level);
            let raw = self
                .client
                .encode_real(slots, scale, level)
                .expect("internally encoded plaintexts are always valid");
            adapter::load_plaintext(self.ctx, &raw)
                .expect("internally encoded plaintexts are always loadable")
        } else {
            let q_l = self.ctx.moduli_q()[level].value() as f64;
            let scale = q_l * self.ctx.standard_scale(level - 1) / self.ctx.standard_scale(level);
            adapter::placeholder_plaintext(self.ctx, level, scale, slots.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loans::LoanDataset;

    #[test]
    fn packing_layout() {
        // A minimal config for layout checks (no crypto needed → use any ctx).
        let gpu = fides_gpu_sim::GpuSim::new(
            fides_gpu_sim::DeviceSpec::rtx_4090(),
            fides_gpu_sim::ExecMode::CostOnly,
        );
        let ctx = fides_core::CkksContext::new(fides_core::CkksParameters::toy(), gpu);
        let client = fides_client::ClientContext::new(ctx.raw_params().clone());
        let cfg = LrConfig {
            batch: 4,
            features: 4,
            learning_rate: 1.0,
        };
        let t = LrTrainer::new(&ctx, &client, cfg);
        let rows_data: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| (i * 4 + j) as f64).collect())
            .collect();
        let rows: Vec<&[f64]> = rows_data.iter().map(|r| r.as_slice()).collect();
        let x = t.pack_features(&rows);
        assert_eq!(x[5], 5.0);
        let y = t.pack_labels(&[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(&y[0..4], &[1.0; 4]);
        assert_eq!(&y[4..8], &[0.0; 4]);
        let w = t.pack_weights(&[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(&w[4..8], &[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(t.unpack_weights(&w), vec![9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn rotation_requirements_cover_folds() {
        let gpu = fides_gpu_sim::GpuSim::new(
            fides_gpu_sim::DeviceSpec::rtx_4090(),
            fides_gpu_sim::ExecMode::CostOnly,
        );
        let ctx = fides_core::CkksContext::new(fides_core::CkksParameters::toy(), gpu);
        let client = fides_client::ClientContext::new(ctx.raw_params().clone());
        let cfg = LrConfig {
            batch: 8,
            features: 8,
            learning_rate: 1.0,
        };
        let t = LrTrainer::new(&ctx, &client, cfg);
        let shifts = t.required_rotations();
        for k in [1, 2, 4, -1, -2, -4, 8, 16, 32] {
            assert!(shifts.contains(&k), "missing shift {k}");
        }
    }

    #[test]
    fn plain_training_reduces_error_on_planted_data() {
        let data = LoanDataset::generate(512, 6, 8, 5);
        let gpu = fides_gpu_sim::GpuSim::new(
            fides_gpu_sim::DeviceSpec::rtx_4090(),
            fides_gpu_sim::ExecMode::CostOnly,
        );
        let ctx = fides_core::CkksContext::new(fides_core::CkksParameters::toy(), gpu);
        let client = fides_client::ClientContext::new(ctx.raw_params().clone());
        let cfg = LrConfig {
            batch: 64,
            features: 8,
            learning_rate: 2.0,
        };
        let t = LrTrainer::new(&ctx, &client, cfg);
        let mut w = vec![0.0f64; 8];
        let acc_before = data.accuracy(&w);
        for i in 0..16 {
            let (rows, labels) = data.batch(i * 64 % data.len(), 64);
            w = t.iteration_plain(&w, &rows, &labels);
        }
        let acc_after = data.accuracy(&w);
        assert!(
            acc_after > acc_before + 0.05,
            "training must improve accuracy: {acc_before} → {acc_after}"
        );
    }

    #[test]
    fn sigmoid_poly_tracks_sigmoid_in_range() {
        for i in 0..=32 {
            let z = -4.0 + 8.0 * i as f64 / 32.0;
            // Han et al.'s degree-3 fit has ~0.1 max error on [-8, 8].
            assert!((sigmoid_poly(z) - sigmoid(z)).abs() < 0.12, "z={z}");
        }
    }
}
