//! # fides-baselines
//!
//! The Phantom comparator of the paper's evaluation (the leading open-source
//! CUDA CKKS library, modeled as an ablation of the FIDESlib engine per
//! Table VIII's feature matrix), plus the placeholder-key helpers cost-only
//! benchmark runs use. The paper's CPU baselines (OpenFHE, HEXL) are measured
//! numbers; the paper views print them as published.

#![warn(missing_docs)]

pub mod phantom;
pub mod util;

pub use phantom::{phantom_params, PHANTOM_ACCESS_EFFICIENCY, PHANTOM_NTT_OP_FACTOR};
pub use util::{placeholder_switching_key, synth_keys, synth_keys_with_rotations};
