//! # fides-core
//!
//! The server half of FIDESlib: every CKKS server-side operation of Fig. 1 —
//! HAdd/PtAdd/ScalarAdd, HMult/HSquare/PtMult/ScalarMult, Rescale, hybrid
//! KeySwitch (ModUp/ModDown), HRotate/HConjugate/HoistedRotate, and full
//! bootstrapping — executed as kernels on the simulated GPU backend
//! (`fides-gpu-sim`), with limb batching, stream-parallel execution and the
//! kernel fusions of §III-F.5.
//!
//! Client-side operations (encoding, key generation, encryption, decryption)
//! live in `fides-client`; data crosses the boundary through the adapter
//! layer ([`adapter`]).
//!
//! ```
//! use fides_core::{adapter, CkksContext, CkksParameters};
//! use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};
//! use fides_client::{ClientContext, KeyGenerator};
//! use rand::SeedableRng;
//!
//! // Server context on a simulated RTX 4090.
//! let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
//! let params = CkksParameters::toy();
//! let ctx = CkksContext::new(params, gpu);
//!
//! // Client encrypts...
//! let client = ClientContext::new(ctx.raw_params().clone());
//! let mut kg = KeyGenerator::new(&client, 1);
//! let sk = kg.secret_key();
//! let pk = kg.public_key(&sk);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let pt = client.encode_real(&[1.0, 2.0], client.params().scale(), ctx.max_level())?;
//! let raw_ct = client.encrypt(&pt, &pk, &mut rng)?;
//!
//! // ...server computes...
//! let ct = adapter::load_ciphertext(&ctx, &raw_ct).unwrap();
//! let sum = ct.add(&ct).unwrap();
//!
//! // ...client decrypts.
//! let back = client.decode_real(&client.decrypt(&adapter::store_ciphertext(&sum), &sk)?)?;
//! assert!((back[0] - 2.0).abs() < 1e-4);
//! # Ok::<(), fides_client::ClientError>(())
//! ```

#![warn(missing_docs)]

pub mod adapter;
pub mod backend;
pub mod boot;
mod ciphertext;
mod context;
pub mod cpu_ref;
mod error;
mod kernels;
mod keys;
mod ops;
mod params;
mod poly;
pub mod program;
pub mod sched;

pub use backend::{BackendCt, BackendPt, EvalBackend, GpuSimBackend};
pub use boot::{BootPhases, BootstrapConfig, Bootstrapper};
pub use ciphertext::{Ciphertext, Plaintext, SCALE_TOLERANCE};
pub use context::{ChainIdx, CkksContext, EvalPerm, RegionInputs, RegionKey, NUM_STREAMS};
pub use cpu_ref::{CpuBackend, HostCiphertext, HostPlaintext};
pub use error::{FidesError, Result};
pub use keys::{EvalKeySet, KeySwitchingKey};
pub use ops::linear::{fold_rotations, BsgsEntry, BsgsPlan};
pub use params::{CkksParameters, FusionConfig};
pub use poly::{Limb, LimbPartition, RNSPoly};
pub use program::{const_scale_for, exec_program};
pub use sched::{ExecGraph, ExecPlan, PlanConfig, Planner, SchedStats};
