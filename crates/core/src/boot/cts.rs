//! CoeffToSlot / SlotToCoeff matrix construction (§III-F.7).
//!
//! The homomorphic encoding/decoding transforms are the special-FFT stage
//! matrices with the bit-reversal permutations *omitted*: because every step
//! between CoeffToSlot and SlotToCoeff (conjugate extraction, ApproxModEval)
//! is slot-wise, the two bit reversals cancel. Each FFT level is a
//! 3-diagonal matrix (shifts `{0, ±len/2}` in rotation space); consecutive
//! levels are composed into `level budget` stages of higher diagonal count —
//! the sparsity/level trade-off of \[44\] the paper adopts.
//!
//! Sparse configurations (`n < N/2` slots) with two or more CoeffToSlot
//! stages run ApproxModEval once on both real coefficient halves, as
//! OpenFHE's sparse branch does (`boot/mod.rs` says why single-stage ones
//! do not). The input to CoeffToSlot is `n`-periodic, so a stage can be
//! [lifted](DiagMatrix::lift) to dimension `2n` at no extra rotation. The
//! last CoeffToSlot stage writes
//! `u = t_lo + i·t_hi` to rows `[0, n)` and `−i·u` to rows `[n, 2n)`; then
//! `c + conj(c)` is `2·t_lo | 2·t_hi`, real, in `2n`-periodic slots. The
//! first SlotToCoeff stage `S` undoes that packing: the repack
//! `[1|i]⊙t′ + [i|1]⊙rotate(t′, n)` (= `t′_lo + i·t′_hi` in both halves)
//! followed by `S` equals `y + rotate(y, n)` with `y = D·t′`, where
//! `D = S·diag([1|i])`, because a lifted stage commutes with `rotate(·, n)`.
//! ApproxModEval's output `t′` is real up to noise, so the bootstrapper
//! applies [`lift_first_stc_stage`]'s `D/2` to `t′ + conj(t′)`.

use std::collections::BTreeMap;

use fides_client::ClientContext;
use fides_math::Complex64;

use crate::backend::EvalBackend;
use crate::error::Result;
use crate::ops::linear::{BsgsEntry, BsgsPlan};

/// A cyclic diagonal-sparse complex matrix of dimension `n`:
/// `out[k] = Σ_s diag[s][k] · in[(k+s) mod n]`.
///
/// In cost-only execution the value vectors stay empty and only the shift
/// structure is tracked (values never reach a kernel).
#[derive(Clone, Debug)]
pub(crate) struct DiagMatrix {
    pub(crate) n: usize,
    pub(crate) diags: BTreeMap<usize, Vec<Complex64>>,
    /// Whether diagonal values are materialized.
    pub(crate) numeric: bool,
}

impl DiagMatrix {
    fn empty(n: usize, numeric: bool) -> Self {
        Self {
            n,
            diags: BTreeMap::new(),
            numeric,
        }
    }

    fn insert_entry(&mut self, shift: usize, row: usize, v: Complex64) {
        let n = self.n;
        let d = self.diags.entry(shift).or_insert_with(|| {
            if self.numeric {
                vec![Complex64::ZERO; n]
            } else {
                Vec::new()
            }
        });
        if self.numeric {
            d[row] = v;
        }
    }

    /// Applies the matrix to a plain vector (test oracle).
    #[cfg(test)]
    pub(crate) fn apply_plain(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert!(self.numeric);
        assert_eq!(v.len(), self.n);
        let mut out = vec![Complex64::ZERO; self.n];
        for (&s, d) in &self.diags {
            for k in 0..self.n {
                out[k] += d[k] * v[(k + s) % self.n];
            }
        }
        out
    }

    /// Composition `self ∘ rhs` (apply `rhs` first).
    pub(crate) fn compose(&self, rhs: &DiagMatrix) -> DiagMatrix {
        assert_eq!(self.n, rhs.n);
        let numeric = self.numeric && rhs.numeric;
        let mut out = DiagMatrix::empty(self.n, numeric);
        for (&sa, da) in &self.diags {
            for (&sb, db) in &rhs.diags {
                let shift = (sa + sb) % self.n;
                let entry = out.diags.entry(shift).or_insert_with(|| {
                    if numeric {
                        vec![Complex64::ZERO; self.n]
                    } else {
                        Vec::new()
                    }
                });
                if numeric {
                    for k in 0..self.n {
                        entry[k] += da[k] * db[(k + sa) % self.n];
                    }
                }
            }
        }
        out
    }

    /// Multiplies every entry by a real scalar.
    pub(crate) fn scale(&mut self, s: f64) {
        if self.numeric {
            for d in self.diags.values_mut() {
                for v in d.iter_mut() {
                    *v = v.scale(s);
                }
            }
        }
    }

    /// `self` as a `2n`-dimensional matrix for inputs that are `2n`-periodic
    /// in the ciphertext's slots, with output row `k` scaled by `row(k)` and
    /// input entry `j` by `col(j)`. With both factors 1 it acts on an
    /// `n`-periodic input exactly as `self` does. The shifts stay the same,
    /// so the BSGS application needs the same rotation keys.
    pub(crate) fn lift(
        &self,
        row: impl Fn(usize) -> Complex64,
        col: impl Fn(usize) -> Complex64,
    ) -> DiagMatrix {
        let (n, n2) = (self.n, 2 * self.n);
        let mut out = DiagMatrix::empty(n2, self.numeric);
        for (&s, d) in &self.diags {
            let lifted = if self.numeric {
                (0..n2)
                    .map(|k| row(k) * d[k % n] * col((k + s) % n2))
                    .collect()
            } else {
                Vec::new()
            };
            out.diags.insert(s, lifted);
        }
        out
    }

    /// Diagonal count.
    pub(crate) fn num_diags(&self) -> usize {
        self.diags.len()
    }
}

fn rot_group(size: usize, m: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(size);
    let mut five = 1usize;
    for _ in 0..size {
        out.push(five);
        five = five * 5 % m;
    }
    out
}

/// One forward special-FFT level (`len`) as a diagonal matrix (no bit
/// reversal).
#[allow(clippy::needless_range_loop)] // rot[j] indexing mirrors the published recurrence
fn fft_level_matrix(n: usize, len: usize, m: usize, numeric: bool) -> DiagMatrix {
    let lenh = len / 2;
    let lenq = len * 4;
    let rot = rot_group(lenh, m);
    let mut out = DiagMatrix::empty(n, numeric);
    let mut i = 0;
    while i < n {
        for j in 0..lenh {
            let idx = (rot[j] % lenq) * (m / lenq);
            let w = Complex64::exp_2pi_i(idx as f64 / m as f64);
            // out[i+j] = in[i+j] + w·in[i+j+lenh]
            out.insert_entry(0, i + j, Complex64::ONE);
            out.insert_entry(lenh, i + j, w);
            // out[i+j+lenh] = in[i+j] − w·in[i+j+lenh]
            out.insert_entry(n - lenh, i + j + lenh, Complex64::ONE);
            out.insert_entry(0, i + j + lenh, -w);
        }
        i += len;
    }
    out
}

/// One inverse special-FFT level (`len`) as a diagonal matrix, pre-scaled by
/// `1/2` so the product over all levels carries the `1/n` normalization.
#[allow(clippy::needless_range_loop)] // rot[j] indexing mirrors the published recurrence
fn ifft_level_matrix(n: usize, len: usize, m: usize, numeric: bool) -> DiagMatrix {
    let lenh = len / 2;
    let lenq = len * 4;
    let rot = rot_group(lenh, m);
    let mut out = DiagMatrix::empty(n, numeric);
    let half = 0.5;
    let mut i = 0;
    while i < n {
        for j in 0..lenh {
            let idx = (lenq - (rot[j] % lenq)) * (m / lenq);
            let w = Complex64::exp_2pi_i(idx as f64 / m as f64).scale(half);
            // out[i+j] = (in[i+j] + in[i+j+lenh]) / 2
            out.insert_entry(0, i + j, Complex64::from_real(half));
            out.insert_entry(lenh, i + j, Complex64::from_real(half));
            // out[i+j+lenh] = w·(in[i+j] − in[i+j+lenh])
            out.insert_entry(n - lenh, i + j + lenh, w);
            out.insert_entry(0, i + j + lenh, -w);
        }
        i += len;
    }
    out
}

/// Groups a list of level matrices (in application order) into `budget`
/// composed stages, returned in application order.
fn group_stages(levels: Vec<DiagMatrix>, budget: usize) -> Vec<DiagMatrix> {
    assert!(budget >= 1 && budget <= levels.len());
    let per = levels.len().div_ceil(budget);
    let mut stages = Vec::with_capacity(budget);
    let mut iter = levels.into_iter().peekable();
    while iter.peek().is_some() {
        let group: Vec<DiagMatrix> = iter.by_ref().take(per).collect();
        // Apply order within group: first element first ⇒ stage = last ∘ … ∘ first.
        let mut stage = group[0].clone();
        for m in &group[1..] {
            stage = m.compose(&stage);
        }
        stages.push(stage);
    }
    stages
}

/// CoeffToSlot stages: the inverse-FFT levels (len = n_s down to 2) with the
/// overall correction `scale_factor` folded into the first applied stage.
pub(crate) fn build_cts_stages(
    n_s: usize,
    budget: usize,
    scale_factor: f64,
    numeric: bool,
) -> Vec<DiagMatrix> {
    let m_sub = 4 * n_s;
    let mut levels = Vec::new();
    let mut len = n_s;
    while len >= 2 {
        levels.push(ifft_level_matrix(n_s, len, m_sub, numeric));
        len /= 2;
    }
    let mut stages = group_stages(levels, budget.min(n_s.trailing_zeros() as usize));
    stages[0].scale(scale_factor);
    stages
}

/// SlotToCoeff stages: the forward-FFT levels (len = 2 up to n_s) with
/// `scale_factor` distributed evenly across stages.
pub(crate) fn build_stc_stages(
    n_s: usize,
    budget: usize,
    scale_factor: f64,
    numeric: bool,
) -> Vec<DiagMatrix> {
    let m_sub = 4 * n_s;
    let mut levels = Vec::new();
    let mut len = 2;
    while len <= n_s {
        levels.push(fft_level_matrix(n_s, len, m_sub, numeric));
        len *= 2;
    }
    let mut stages = group_stages(levels, budget.min(n_s.trailing_zeros() as usize));
    let per_stage = scale_factor.powf(1.0 / stages.len() as f64);
    for s in stages.iter_mut() {
        s.scale(per_stage);
    }
    stages
}

/// Lifts the last-applied CoeffToSlot stage for the one-EvalMod path: rows
/// `[n, 2n)` repeat rows `[0, n)` scaled by `−i`.
pub(crate) fn lift_last_cts_stage(stage: &DiagMatrix) -> DiagMatrix {
    let n = stage.n;
    stage.lift(
        |k| if k < n { Complex64::ONE } else { -Complex64::I },
        |_| Complex64::ONE,
    )
}

/// Lifts the first-applied SlotToCoeff stage `S` for the one-EvalMod path
/// to `D = S·diag([1|i])/2`: for a real `2n`-periodic `t′ = t′_lo | t′_hi`
/// and `y = D·(t′ + conj(t′))`, `y + rotate(y, n) = S·(t′_lo + i·t′_hi)` in
/// both halves.
pub(crate) fn lift_first_stc_stage(stage: &DiagMatrix) -> DiagMatrix {
    let n = stage.n;
    stage.lift(
        |_| Complex64::ONE,
        |j| if j < n { Complex64::ONE } else { Complex64::I }.scale(0.5),
    )
}

/// Baby-step count for a stage with `num_diags` diagonals (shared by
/// encoding and the structure-only rotation-shift computation).
fn baby_count_for(num_diags: usize) -> usize {
    (1usize
        << (((num_diags as f64).sqrt().ceil() as usize)
            .next_power_of_two()
            .trailing_zeros()))
    .max(1)
}

/// The rotation shifts a BSGS application of `stage` requires, computed from
/// the diagonal structure alone (no encoding, no backend).
pub(crate) fn stage_shifts(stage: &DiagMatrix) -> Vec<i32> {
    let n1 = baby_count_for(stage.num_diags());
    let mut shifts = Vec::new();
    for &shift in stage.diags.keys() {
        let giant = shift / n1;
        let baby = shift % n1;
        if baby != 0 {
            shifts.push(baby as i32);
        }
        if giant != 0 {
            shifts.push((giant * n1) as i32);
        }
    }
    shifts.sort_unstable();
    shifts.dedup();
    shifts
}

/// Encodes one stage matrix into a [`BsgsPlan`] of backend-preloaded
/// plaintexts at the given application level, with `stage.n` slots.
pub(crate) fn encode_stage(
    backend: &dyn EvalBackend,
    client: &ClientContext,
    stage: &DiagMatrix,
    level: usize,
    out_scale: f64,
) -> Result<BsgsPlan> {
    // FLEXIBLEAUTO-exact plaintext scale: a ciphertext entering at the
    // standard scale leaves the post-apply rescale at `out_scale`.
    let q_l = backend.modulus_value(level) as f64;
    let pt_scale = q_l * out_scale / backend.standard_scale(level);
    let num_diags = stage.num_diags();
    let n1 = baby_count_for(num_diags);
    let mut entries = Vec::with_capacity(num_diags);
    for (&shift, values) in &stage.diags {
        let giant = shift / n1;
        let baby = shift % n1;
        let pt = if stage.numeric && backend.is_functional() {
            // Pre-rotate right by giant·n1.
            let n = stage.n;
            let rotated: Vec<Complex64> = (0..n)
                .map(|k| values[(k + n - (giant * n1) % n) % n])
                .collect();
            let raw = client.encode(&rotated, pt_scale, level)?;
            backend.load_plain(&raw)?
        } else {
            backend.placeholder_plain(level, pt_scale, stage.n)?
        };
        entries.push(BsgsEntry { giant, baby, pt });
    }
    Ok(BsgsPlan { n1, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// The composed CtS∘StC pipeline (without bit reversal) must be the
    /// identity: S^{-1} then S.
    #[test]
    fn cts_then_stc_is_identity() {
        for n_s in [4usize, 16, 64] {
            let cts = build_cts_stages(n_s, 2.min(n_s.trailing_zeros() as usize), 1.0, true);
            let stc = build_stc_stages(n_s, 2.min(n_s.trailing_zeros() as usize), 1.0, true);
            let v: Vec<Complex64> = (0..n_s)
                .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let mut x = v.clone();
            for s in &cts {
                x = s.apply_plain(&x);
            }
            for s in &stc {
                x = s.apply_plain(&x);
            }
            for (a, b) in x.iter().zip(&v) {
                assert!(close(*a, *b, 1e-9), "n_s={n_s}: {a:?} vs {b:?}");
            }
        }
    }

    /// The StC stages equal the special FFT up to bit reversal of the input.
    #[test]
    fn stc_matches_special_fft_up_to_bitrev() {
        let n_s = 16usize;
        let stc = build_stc_stages(n_s, 1, 1.0, true);
        assert_eq!(stc.len(), 1);
        let v: Vec<Complex64> = (0..n_s)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        // Reference: special_fft includes bitrev first; our matrix omits it.
        let mut reference = v.clone();
        fides_math::bit_reverse(&mut reference); // pre-undo: fft(bitrev(x)) = stages(x)
        fides_math::special_fft(&mut reference, 4 * n_s);
        let got = stc[0].apply_plain(&v);
        for (a, b) in got.iter().zip(&reference) {
            assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn stage_diag_counts_grow_with_grouping() {
        let n_s = 64usize;
        let fine = build_cts_stages(n_s, 6, 1.0, true); // one level per stage
        for s in &fine {
            assert!(s.num_diags() <= 3, "single level has ≤ 3 diagonals");
        }
        let coarse = build_cts_stages(n_s, 2, 1.0, true);
        assert_eq!(coarse.len(), 2);
        assert!(coarse[0].num_diags() > 3);
        // Same total transform.
        let v: Vec<Complex64> = (0..n_s).map(|i| Complex64::from_real(i as f64)).collect();
        let mut a = v.clone();
        for s in &fine {
            a = s.apply_plain(&a);
        }
        let mut b = v;
        for s in &coarse {
            b = s.apply_plain(&b);
        }
        for (x, y) in a.iter().zip(&b) {
            assert!(close(*x, *y, 1e-8));
        }
    }

    #[test]
    fn structure_only_matches_numeric_shifts() {
        let n_s = 32usize;
        let numeric = build_cts_stages(n_s, 2, 1.0, true);
        let structural = build_cts_stages(n_s, 2, 1.0, false);
        for (a, b) in numeric.iter().zip(&structural) {
            let sa: Vec<usize> = a.diags.keys().copied().collect();
            let sb: Vec<usize> = b.diags.keys().copied().collect();
            assert_eq!(sa, sb);
            assert!(!b.numeric);
        }
    }

    /// The one-EvalMod transform pair is exact in plaintext: lifted CtS →
    /// conjugate extraction (`2·Re`) → identity in place of ApproxModEval →
    /// `t + conj(t)` → lifted first StC stage → `y + rotate(y, n)` →
    /// remaining StC stages returns the input, scaled by the extraction's 2.
    #[test]
    fn packed_transform_pair_is_exact() {
        for n_s in [2usize, 4, 16, 64] {
            for budget in 1..=3 {
                let mut cts = build_cts_stages(n_s, budget, 1.0, true);
                let last = cts.last_mut().expect("at least one stage");
                *last = lift_last_cts_stage(last);
                let stc = build_stc_stages(n_s, budget, 1.0, true);
                let first_stc = lift_first_stc_stage(&stc[0]);
                let z: Vec<Complex64> = (0..n_s)
                    .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.3 + 0.1).cos()))
                    .collect();
                let (lifted, first) = cts.split_last().expect("at least one stage");
                let mut x = z.clone();
                for s in first {
                    x = s.apply_plain(&x);
                }
                // The n-periodic input seen in 2n slots.
                let x: Vec<Complex64> = x.iter().chain(&x).copied().collect();
                let t: Vec<Complex64> = lifted
                    .apply_plain(&x)
                    .iter()
                    .map(|&v| v + v.conj())
                    .collect();
                let what = format!("n_s={n_s} budget={budget}");
                assert!(t.iter().all(|v| v.im.abs() < 1e-12), "{what}: 2·Re is real");
                assert!(
                    t[n_s..].iter().any(|v| v.abs() > 0.1),
                    "{what}: t_hi must be non-zero"
                );
                let t: Vec<Complex64> = t.iter().map(|&v| v + v.conj()).collect();
                let y = first_stc.apply_plain(&t);
                let c: Vec<Complex64> = (0..2 * n_s)
                    .map(|k| y[k] + y[(k + n_s) % (2 * n_s)])
                    .collect();
                for k in 0..n_s {
                    assert!(
                        close(c[k], c[k + n_s], 1e-9),
                        "{what}: n-periodic after repack"
                    );
                }
                let mut out = c[..n_s].to_vec();
                for s in &stc[1..] {
                    out = s.apply_plain(&out);
                }
                for (a, b) in out.iter().zip(&z) {
                    assert!(close(*a, b.scale(2.0), 1e-9), "{what}: {a:?} vs 2·{b:?}");
                }
            }
        }
    }

    #[test]
    fn scale_factor_applied() {
        let n_s = 8usize;
        let plain = build_cts_stages(n_s, 1, 1.0, true);
        let scaled = build_cts_stages(n_s, 1, 2.5, true);
        let v: Vec<Complex64> = (0..n_s)
            .map(|i| Complex64::from_real(1.0 + i as f64))
            .collect();
        let a = plain[0].apply_plain(&v);
        let b = scaled[0].apply_plain(&v);
        for (x, y) in a.iter().zip(&b) {
            assert!(close(x.scale(2.5), *y, 1e-9));
        }
    }
}
