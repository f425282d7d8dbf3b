//! # fideslib (Rust reproduction)
//!
//! A from-scratch Rust reproduction of **FIDESlib: A Fully-Fledged
//! Open-Source FHE Library for Efficient CKKS on GPUs** (ISPASS 2025), with
//! the GPU replaced by a faithful execution simulator (see `DESIGN.md`).
//!
//! ## The front door: [`CkksEngine`]
//!
//! One object owns the whole pipeline — parameters, simulator, server
//! context, client keys — and ciphertext handles combine with plain
//! operators (relinearization, rescaling and level alignment are
//! automatic):
//!
//! ```
//! use fideslib::CkksEngine;
//!
//! let engine = CkksEngine::builder()
//!     .log_n(11)
//!     .levels(4)
//!     .scale_bits(40)
//!     .seed(42)
//!     .build()?;
//! let x = engine.encrypt(&[0.1, 0.2, 0.3])?;
//! let y = engine.encrypt(&[1.0, 0.5, 0.25])?;
//! let z = &x * &y + &x * 2.0; // computed homomorphically on the server
//! let out = engine.decrypt(&z)?;
//! assert!((out[2] - (0.3 * 0.25 + 2.0 * 0.3)).abs() < 1e-4);
//! # Ok::<(), fideslib::core::FidesError>(())
//! ```
//!
//! The engine is backend-pluggable: the default executes on the simulated
//! GPU (kernels, streams, timing ledger — the paper's architecture), and
//! [`api::BackendChoice::Cpu`] runs the identical RNS math on a plain-CPU
//! reference implementation for cross-checking and as the template for
//! real-hardware backends.
//!
//! ## The layers underneath
//!
//! The raw layered API remains public — benchmarks and research code use it
//! directly (see `examples/raw_layered.rs`):
//!
//! * [`api`] — `CkksEngine`, the session builder, operator-overloaded
//!   [`Ct`] handles, and the `EvalBackend` abstraction.
//! * [`client`] — OpenFHE-equivalent client: encode/decode, key generation,
//!   encrypt/decrypt, serialization, adapter structures.
//! * [`core`] — server-side CKKS on the simulated GPU: all primitives,
//!   hybrid key switching, hoisted rotations, bootstrapping, plus the
//!   plain-CPU reference backend.
//! * [`gpu_sim`] — the device models, streams, kernels and memory
//!   hierarchy.
//! * [`math`] / [`rns`] — modular arithmetic, NTT, RNS substrates.
//! * [`serve`] — the multi-tenant session server: bounded LRU session
//!   registry, cross-request graph batching (see `examples/serve.rs`).
//! * [`baselines`] — Phantom comparator + placeholder keys.
//! * [`workloads`] — encrypted logistic-regression training and serving.

pub use fides_api as api;
pub use fides_baselines as baselines;
pub use fides_client as client;
pub use fides_core as core;
pub use fides_gpu_sim as gpu_sim;
pub use fides_math as math;
pub use fides_rns as rns;
pub use fides_serve as serve;
pub use fides_workloads as workloads;

pub use fides_api::{
    BackendChoice, BootstrapConfig, CkksEngine, Ct, FidesError, FusionConfig, Result, SchedStats,
    Session,
};
pub use fides_serve::{ServeStats, Server, ServerConfig};
