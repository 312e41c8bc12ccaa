//! # `workloads` — the evaluation workload suite
//!
//! The tasks the paper's evaluation (§4.2) runs on the TC277:
//!
//! * [`control_loop_on`] — the application under analysis, a
//!   cruise-control style *acquire → compute → update* loop over two
//!   medium-size data structures, deployed per scenario (Figure 3);
//! * [`contender_on`] — the H/M/L-Load co-runners that put an
//!   increasing load on the SRI;
//! * [`micro`] — calibration microbenchmarks with a known number of
//!   requests per (target, operation) pair, used to regenerate Table 2.
//!
//! The two paper workloads are built for a named platform description:
//! placements that name the second flash bank fold onto the platform's
//! available code slave, so the same workload runs on every builtin
//! platform. Run them through `mbta::ExecEngine` on that platform.
//!
//! # Examples
//!
//! ```
//! use platform::PlatformDesc;
//! use tc27x_sim::{CoreId, DeploymentScenario, SimConfig, System};
//! use workloads::{contender_on, control_loop_on, LoadLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's co-run setup: app on core 1, contender on core 2.
//! let desc = PlatformDesc::tc27x();
//! let (app, load) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
//! let scenario = DeploymentScenario::Scenario1;
//! let mut sys = System::with_config(SimConfig::from_platform(&desc));
//! sys.load(app, &control_loop_on(&desc, scenario, app, 42))?;
//! sys.load(load, &contender_on(&desc, scenario, LoadLevel::High, load, 7))?;
//! let out = sys.run_until(app)?;
//! assert!(out.counters(app).ccnt > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod control_loop;
mod loads;
pub mod micro;

pub use control_loop::{control_loop_on, ITERS_PER_BANK, UNITS_PER_ITER};
pub use loads::{contender_on, LoadLevel};

/// The region hosting a workload's *second* flash code bank on this
/// platform: Pflash1 where it exists, else the platform's single flash
/// bank. The paper's two-bank layouts stay bit-identical on the
/// default TC27x; single-flash platforms (e.g. `ahb2`) fold both banks
/// into Pflash0 rather than becoming infeasible.
pub(crate) fn second_code_bank(desc: &platform::PlatformDesc) -> tc27x_sim::Region {
    if desc.slave(1).present {
        tc27x_sim::Region::Pflash1
    } else {
        tc27x_sim::Region::Pflash0
    }
}
