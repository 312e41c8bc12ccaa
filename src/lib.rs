//! # `aurix-contention` — facade crate
//!
//! One-stop re-export of the DAC'18 *Modelling Multicore Contention on
//! the AURIX TC27x* reproduction. See the individual crates for
//! details:
//!
//! * [`contention`] — the paper's contribution: fTC, ILP-PTAC and ideal
//!   contention models over debug-counter readings;
//! * [`tc27x_sim`] — cycle-level TC27x platform simulator (cores,
//!   caches, SRI crossbar, flash/LMU slaves, DSU debug counters);
//! * [`workloads`] — control-loop application, H/M/L-load contenders
//!   and calibration microbenchmarks;
//! * [`mbta`] — measurement-based timing-analysis harness: the
//!   `ExecEngine` every simulation runs through, calibration and the
//!   model-vs-observation experiments;
//! * [`ilp`] — exact rational ILP solver used by the ILP-PTAC model.
//!
//! # Examples
//!
//! Bound the slowdown a control-loop application can suffer from a
//! high-load contender, without ever co-running them:
//!
//! ```
//! use aurix_contention::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Every run goes through an engine on a named platform (the TC277
//! // by default); the models derive their tables from the same one.
//! let engine = mbta::ExecEngine::new(2);
//! let desc = engine.platform();
//! let platform = Platform::from_desc(desc);
//! let scenario = DeploymentScenario::Scenario1;
//! let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
//!
//! // Measure both tasks in isolation.
//! let app = workloads::control_loop_on(desc, scenario, app_core, 42);
//! let load = workloads::contender_on(desc, scenario, LoadLevel::High, load_core, 7);
//! let app_profile = engine.isolation(&app, app_core)?;
//! let load_profile = engine.isolation(&load, load_core)?;
//!
//! // Feed the counter readings to the ILP-PTAC model.
//! let model = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());
//! let estimate = model.wcet_estimate(&app_profile, &[&load_profile])?;
//! assert!(estimate.contention_cycles > 0);
//! assert!(estimate.ratio() > 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;

pub use contention;
pub use ilp;
pub use mbta;
pub use tc27x_sim;
pub use workloads;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use contention::{
        AccessBounds, AccessCounts, ContentionBound, ContentionModel, FtcModel, IdealModel,
        IlpPtacModel, IlpPtacOptions, IsolationProfile, LatencyTable, ModelError, Operation,
        Platform, ScenarioConstraints, StallTable, Target, WcetEstimate,
    };
    pub use mbta;
    pub use tc27x_sim::{
        CoreId, DataObject, DeploymentScenario, Pattern, Placement, Program, Region, SimConfig,
        System, TaskSpec,
    };
    pub use workloads::{self, LoadLevel};
}
