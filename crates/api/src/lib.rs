//! # fides-api — the `CkksEngine` session API
//!
//! One object that owns the whole FIDESlib pipeline. The raw layered API
//! (client contexts, key generators, the adapter, device ciphertexts) stays
//! public for benchmarks and research code, but everyday encrypted programs
//! go through here:
//!
//! ```
//! use fides_api::CkksEngine;
//!
//! let engine = CkksEngine::builder().log_n(11).levels(4).scale_bits(40).seed(42).build()?;
//! let x = engine.encrypt(&[1.0, 2.0, 3.0])?;
//! let y = engine.encrypt(&[0.5, 0.25, 0.125])?;
//! let z = &x * &y + &x * 2.0; // relinearize / rescale / align automatically
//! let out = engine.decrypt(&z)?;
//! assert!((out[1] - (2.0 * 0.25 + 2.0 * 2.0)).abs() < 1e-4);
//! # Ok::<(), fides_core::FidesError>(())
//! ```
//!
//! The engine is **backend-pluggable** ([`EvalBackend`]): the default runs
//! on the simulated GPU exactly like the raw API; `BackendChoice::Cpu`
//! executes the identical RNS math limb-parallel on a worker pool,
//! which cross-checks the simulator and opens the door to real-hardware
//! backends.
//!
//! ## Deferred (graph) evaluation
//!
//! On the gpu-sim backend every op runs through the stream-graph engine
//! (`fides_core::sched`): kernels are recorded into a lazy graph, fused, and
//! replayed over the configured stream count. [`CkksEngine::eval_scope`]
//! widens one graph across several ops, and [`CkksEngine::eval_batch`]
//! evaluates a batch of ciphertexts inside a single graph so their kernels
//! interleave across streams. Knobs: `num_streams`, `fusion`, and `workers`
//! (CPU backend) on the builder.
//!
//! ## Scale management
//!
//! Ciphertexts stay on the FLEXIBLEAUTO-style standard-scale ladder:
//! ciphertext and plaintext multiplications rescale immediately, scalar
//! multiplications encode the constant at the ladder-exact scale, and
//! additions align operand levels by dropping the higher operand. This is
//! the policy OpenFHE applies inside `EvalMult`; the raw layered API leaves
//! it to the caller.

#![deny(missing_docs)]

mod ct;
mod engine;
mod session;

pub use ct::Ct;
pub use engine::{BackendChoice, CkksEngine, CkksEngineBuilder};
pub use session::Session;

// The vocabulary types callers need alongside the engine.
pub use fides_core::backend::{BackendCt, BackendPt, EvalBackend};
pub use fides_core::{BootstrapConfig, FidesError, FusionConfig, Result, SchedStats};
pub use fides_gpu_sim::{DeviceSpec, ExecMode, SimStats, StreamStats};
