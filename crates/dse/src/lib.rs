//! # `dse` — crash-tolerant sharded design-space exploration
//!
//! The paper closes with the OEM-level question: given contention-aware
//! WCET bounds, which task sets still fit their time budgets? This
//! crate turns that question into a *campaign*: sweep task-set
//! utilization across a seeded design space, bound every set under the
//! fTC, ILP-PTAC and ideal models, run response-time analysis, and plot
//! schedulability-vs-utilization curves per model — the classic
//! weighted-schedulability experiment, run at a scale where single
//! processes crash, hang and lose partial work.
//!
//! The layers, bottom up:
//!
//! * [`gen`] — seeded task-set generation: utilization split by the
//!   order-statistics method (UUniFast's target distribution, done in
//!   integer arithmetic on the in-tree SplitMix64 so every platform
//!   draws the same sets), periods from a fixed menu, rate-monotonic
//!   priorities;
//! * [`eval`] — per-model WCET inflation ratios derived from real
//!   isolation profiles (app vs the H-Load contender), applied to the
//!   generated sets and fed to [`contention::rta`];
//! * [`shard`] — the worker side: the design space is partitioned into
//!   shards by point FNV key, each shard owned by one worker process
//!   with its own write-ahead [`mbta::store`] journal, heartbeat file,
//!   done marker — and a seeded process-level chaos plan (kill -9,
//!   stalls, torn journal tails) for the fault-injection suites;
//! * [`supervise`] — the supervisor: spawns workers, watches
//!   heartbeats, kills hung workers, restarts crashed ones under the
//!   deterministic [`mbta::retry`] policy, reaps stale orphans left by
//!   a killed predecessor, and merges completed shards into curves that
//!   are byte-identical for a fixed seed at any `--shards`/`--jobs`
//!   split, across any sequence of kill -9s, and under `--resume`;
//! * [`curve`] — the merged report: curves plus an explicit coverage
//!   manifest. A shard that exhausts its retries is never silently
//!   dropped — the manifest names it, the coverage fraction says what
//!   is missing, and the run exits with a distinct "partial" status.
//!
//! # Examples
//!
//! Generate one task set and check it under an inflated WCET:
//!
//! ```
//! use dse::eval::Inflation;
//! use dse::gen::task_set;
//!
//! let tasks = task_set(7, 4, 600_000); // 4 tasks, total util 0.6
//! assert_eq!(tasks.len(), 4);
//! let infl = Inflation { isolation_cycles: 10, bound_cycles: 13 };
//! let inflated: Vec<_> = tasks
//!     .iter()
//!     .map(|t| contention::rta::PeriodicTask::new(&t.name, t.period, infl.apply(t.wcet)))
//!     .collect();
//! let verdict = contention::rta::analyze(&inflated);
//! println!("schedulable under +30%: {}", verdict.is_schedulable());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod config;
pub mod curve;
mod error;
pub mod eval;
pub mod gen;
pub mod shard;
pub mod supervise;

pub use config::{DseConfig, PointId};
pub use curve::{curves, render_curves, render_curves_md, render_manifest, Coverage, CurveRow};
pub use error::DseError;
pub use eval::{
    evaluate_point, model_ratios, model_ratios_on, Inflation, ModelRatios, PointVerdict,
};
pub use shard::{run_shard, ChaosAction, ShardChaos, ShardRunStats};
pub use supervise::{supervise, RunReport, ShardOutcome, SupervisorConfig};
