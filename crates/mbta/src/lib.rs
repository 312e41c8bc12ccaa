//! # `mbta` — measurement-based timing analysis harness
//!
//! The measurement side of the paper's method, run against the
//! [`tc27x_sim`] platform:
//!
//! * [`ExecEngine`] — the one way to run a simulation: batches of
//!   isolation and co-run jobs on a named platform, on a deterministic
//!   thread pool with memoized isolation profiles (results are
//!   bit-identical for any `--jobs`);
//! * [`hwm_campaign`] — high-water-mark envelopes over the DSU debug
//!   counters;
//! * [`calibrate`] — the microbenchmark campaign that regenerates
//!   Table 2 (per-target latencies and minimum stall cycles);
//! * [`figure4_panel`] / [`table6_block`] — the §4.2 evaluation
//!   protocol: profile app and contenders in isolation, feed the
//!   models, validate against co-run observations;
//! * [`report`] — plain-text tables for the experiment binaries;
//! * [`args`] — the flag layer every binary shares: `--jobs`,
//!   `--engine`, `--platform`, the campaign and telemetry sinks, and
//!   the engine they describe;
//! * [`telemetry`] — the deterministic telemetry recorder: per-job
//!   spans, metric registries and the deduplicated warning channel
//!   behind the `--telemetry` sinks.
//!
//! # Examples
//!
//! Reproduce one Figure 4 panel on the engine's platform:
//!
//! ```no_run
//! use contention::Platform;
//! use mbta::ExecEngine;
//! use tc27x_sim::DeploymentScenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = ExecEngine::new(2);
//! let platform = Platform::from_desc(engine.platform());
//! let panel = mbta::figure4_panel(&engine, DeploymentScenario::Scenario1, &platform, 42)?;
//! for cell in &panel.cells {
//!     println!("{}: fTC {:.2}x, ILP {:.2}x, observed {:.2}x",
//!         cell.level, cell.ftc.ratio(), cell.ilp.ratio(), cell.observed_ratio());
//! }
//! assert!(panel.all_bounds_sound());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod args;
mod calibration;
mod campaign;
mod exec;
mod experiment;
mod faults;
pub mod inspect;
mod intern;
mod journal;
mod pool;
pub mod report;
pub mod retry;
pub mod store;
pub mod telemetry;

pub use calibration::{calibrate, Calibration, CalibrationError};
pub use campaign::{CampaignManifest, FaultPlan, ManifestEntry};
pub use exec::{
    job_key_on, EngineReport, ExecEngine, JobError, JobFailure, Recipe, SimJob, SimOutcome,
};
pub use experiment::{
    constraints_for, figure4_panel, hwm_campaign, table6_block, ExperimentError, Figure4Cell,
    Figure4Panel, HwmMeasurement, Table6Block,
};
pub use faults::perturb_profile;
pub use journal::JournaledOutcome;
pub use retry::{Backoff, FailureClass, RetryPolicy};
pub use store::{JournalError, RecordSink, Store, StoreRecovery};
pub use telemetry::{Format, SinkSpec, Telemetry, Val};
