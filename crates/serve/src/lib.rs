//! `contention-serve`: a crash-tolerant bound-query daemon for the
//! TC27x contention models.
//!
//! The paper's Δcont/RTA pipeline is a one-shot batch artefact; this
//! crate gives it a front door. A long-running, multi-tenant daemon
//! listens on a Unix socket and/or TCP (plain `std::net`, zero new
//! dependencies), accepts length-prefixed JSON request frames and
//! serves batched Δcont / RTA / sweep queries through
//! [`mbta::ExecEngine`]. Robustness is the headline, in four layers:
//!
//! 1. **Admission control + backpressure** ([`admission`]) — a bounded
//!    per-tenant queue with deterministic fair dequeue (tenant
//!    round-robin, job-key order within a tenant) and explicit
//!    `Overloaded{retry_after_ms}` rejections instead of unbounded
//!    buffering.
//! 2. **Deadline-driven graceful degradation** ([`query`]) — each
//!    request carries a solve budget; the server walks the
//!    deterministic ladder exact ILP → warm fTC fallback (the
//!    `SolveError::BudgetExhausted` plumbing behind
//!    [`contention::Evaluator`]) and tags every response with its
//!    provenance, so a degraded answer is never silent.
//! 3. **Crash recovery** ([`server`]) — responses flow through a
//!    content-addressed persistent store ([`mbta::Store`], the journal
//!    discipline generalized), and simulations through the engine's
//!    durable memo, a second store; both are keyed by FNV
//!    fingerprints. `kill -9` mid-batch restarts into replay and
//!    re-serves byte-identical responses at any worker count.
//! 4. **A chaos harness** ([`chaos`]) — SplitMix64-seeded fault plans
//!    (slow-loris frames, truncated/garbage frames, mid-request
//!    disconnects, duplicates, overload bursts) asserting the daemon
//!    never wedges, never leaks a worker and never emits a wrong
//!    bound.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod proto;
pub mod query;
pub mod server;

pub use admission::{Admission, AdmissionOutcome};
pub use proto::{read_frame, write_frame, FrameError, QueryKind, Request, MAX_FRAME_BYTES};
pub use query::{QueryEngine, QueryOptions};
pub use server::{Server, ServerConfig};
