//! # fides-serve — the multi-tenant serving layer
//!
//! The paper's architecture is client/server (Fig. 1): thin CKKS clients
//! feed `Raw*` interchange structures to a GPU evaluation server. Every
//! other crate in this workspace exercises that server **one session at a
//! time**; this crate is the layer that serves *many* tenants from one
//! device — the ROADMAP's "heavy traffic from millions of users" story.
//!
//! ```text
//!                                     tenant table (bounded LRU, one lock)
//!   tenant 0 ─┐                       one entry per tenant: keys, plaintexts,
//!   tenant 1 ─┼─ EvalRequest queue    home device, DRR weight — evicted or
//!   tenant N ─┘   one lane per tenant closed as a unit; hash ring: id ─► home
//!                      │  ◄── DRR weights, sessions resolved from the table
//!                      ▼  batch tick (≤ batch_size requests)
//!          per-request capture regions ──► merged ExecGraph per device
//!                      │   round-robin stream offsets per request
//!                      ▼
//!          one planning pass (fusion ACROSS tenants) ──► one replay
//!                      │
//!                      ▼  demultiplex
//!          EvalResponse per request
//! ```
//!
//! Three properties make this safe and fast:
//!
//! 1. **Sessions are cheap.** Every session shares the one immutable
//!    [`CkksContext`](fides_core::CkksContext) (NTT tables, base-conversion
//!    matrices); a session adds only its own evaluation keys and preloaded
//!    plaintext cache.
//! 2. **Batches share one graph.** Each request records its kernels into
//!    its own capture region; the tick appends each region's event log onto
//!    a single server-owned [`ExecGraph`](fides_core::ExecGraph) with a
//!    per-request stream offset, so the planner's elementwise fusion applies across
//!    request boundaries and the replay interleaves tenants over all
//!    device streams.
//! 3. **Results don't depend on the schedule.** Server-side CKKS kernels
//!    are data-oblivious: functional math runs at record time, and only the
//!    *timing* replays. Batched multi-tenant results are therefore
//!    bit-identical to the same requests run serially — the determinism
//!    suite asserts it thread-interleaving by thread-interleaving.
//!
//! ## Quick serve
//!
//! ```
//! use fides_api::CkksEngine;
//! use fides_client::wire::{OpProgram, ProgramOp};
//! use fides_core::CkksParameters;
//! use fides_serve::{Server, ServerConfig};
//!
//! // Server side: one device, many tenants. The chain must match the
//! // tenants' (the engine default is dnum = 3).
//! let server = Server::new(ServerConfig::new(
//!     CkksParameters::new(10, 3, 40, 3)?,
//! ))?;
//!
//! // Tenant side: a thin client (here backed by an engine).
//! let tenant = CkksEngine::builder().log_n(10).levels(3).seed(1).build()?.session();
//! let sid = server.open_session(tenant.session_request(&[])?)?;
//!
//! // One request: square the input.
//! let mut p = OpProgram::new(1);
//! let sq = p.push(ProgramOp::Square { a: 0 });
//! p.output(sq);
//! let resp = server.eval(tenant.eval_request(sid, &[&[0.5, -0.25]], &p)?)?;
//! let out = tenant.decrypt_response(&resp, &[2])?;
//! assert!((out[0][0] - 0.25).abs() < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod error;
pub mod net;
mod qos;
mod registry;
mod router;
mod server;
mod stats;

pub use error::ServeError;
pub use net::{NetServer, NetServerConfig};
pub use qos::{AdmissionQueue, QosPolicy};
pub use router::ShardRouter;
pub use server::{Server, ServerConfig, Ticket, WarmupShape};
pub use stats::ServeStats;
