//! # `contention` — multicore contention models for the AURIX TC27x
//!
//! Implementation of the analytical contribution of *Modelling Multicore
//! Contention on the AURIX TC27x* (Díaz et al., DAC 2018): given debug
//! counter readings of tasks measured **in isolation**, bound the extra
//! execution time (Δcont) a task can suffer when contenders run on the
//! other cores — without ever co-running the tasks.
//!
//! Three models are provided, trading tightness against
//! time-composability:
//!
//! | Model | Input | Validity |
//! |-------|-------|----------|
//! | [`IdealModel`] (Eq. 1) | exact PTAC of both tasks | reference only (needs a simulator) |
//! | [`FtcModel`] (Eqs. 6–8) | τa's stall counters | any contender, any schedule |
//! | [`IlpPtacModel`] (Eqs. 9–23) | both tasks' counters + deployment scenario | contenders dominated by the profiled one |
//!
//! The ILP-PTAC model is tailored to deployment scenarios with
//! [`ScenarioConstraints`] (Table 5 of the paper).
//!
//! # Examples
//!
//! ```
//! use contention::{
//!     ContentionModel, DebugCounters, FtcModel, IlpPtacModel, IsolationProfile,
//!     Platform, ScenarioConstraints,
//! };
//!
//! # fn main() -> Result<(), contention::ModelError> {
//! let platform = Platform::tc277_reference();
//!
//! // Counter readings from isolation runs (e.g. Table 6 of the paper).
//! let app = IsolationProfile::new("app", DebugCounters {
//!     ccnt: 2_000_000, pmem_stall: 34_212, dmem_stall: 83_450,
//!     pcache_miss: 2_365, ..Default::default()
//! });
//! let load = IsolationProfile::new("h-load", DebugCounters {
//!     ccnt: 1_500_000, pmem_stall: 17_441, dmem_stall: 42_518,
//!     pcache_miss: 1_205, ..Default::default()
//! });
//!
//! let ftc = FtcModel::new(&platform).wcet_estimate(&app, &[&load])?;
//! let ilp = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1())
//!     .wcet_estimate(&app, &[&load])?;
//!
//! assert!(ilp.bound_cycles() <= ftc.bound_cycles(), "ILP-PTAC is tighter");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod counts;
mod error;
pub mod evaluate;
mod fsb;
mod ftc;
mod ideal;
mod ilp_ptac;
mod platform;
mod profile;
pub mod rta;
mod scenario;
mod sensitivity;
mod signature;
mod tightness;
pub mod validate;
mod wcet;

pub use ::platform::{DebugCounters, Operation, Target};
pub use counts::AccessBounds;
pub use error::ModelError;
pub use evaluate::{BoundSource, EvalOptions, EvaluatedBound, Evaluator};
pub use fsb::FsbModel;
pub use ftc::FtcModel;
pub use ideal::IdealModel;
pub use ilp_ptac::{IlpPtacModel, IlpPtacOptions, IlpPtacSolution};
pub use platform::{AccessPaths, PerTargetOp, Platform};
pub use profile::{AccessCounts, IsolationProfile, ParseProfileError};
pub use scenario::ScenarioConstraints;
pub use sensitivity::{CounterKind, Sensitivity, SensitivityReport, Side};
pub use signature::ContenderSignature;
pub use tightness::{
    per_grant_wait_bound, AuditKind, ObservedContention, TightnessReport, TightnessRow,
};
pub use validate::{ValidationIssue, ValidationPolicy, ValidationReport, Validator};
pub use wcet::{ContentionBound, ContentionModel, WcetEstimate};

/// Alias kept for readers coming from the paper: the latency table is a
/// [`PerTargetOp`].
pub type LatencyTable = PerTargetOp;
/// Alias kept for readers coming from the paper: the stall table is a
/// [`PerTargetOp`].
pub type StallTable = PerTargetOp;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<Platform>();
        assert_ss::<IsolationProfile>();
        assert_ss::<ScenarioConstraints>();
        assert_ss::<ModelError>();
        assert_ss::<WcetEstimate>();
    }

    /// Reproduces the paper's running example structure: the ILP bound
    /// adapts to contender load while fTC does not.
    #[test]
    fn headline_property() {
        let platform = Platform::tc277_reference();
        let mk = |ps, ds, pm| {
            IsolationProfile::new(
                "t",
                DebugCounters {
                    ccnt: 1_000_000,
                    pmem_stall: ps,
                    dmem_stall: ds,
                    pcache_miss: pm,
                    ..Default::default()
                },
            )
        };
        let app = mk(34_212, 83_450, 2_365);
        let h = mk(17_441, 42_518, 1_205);
        let l = mk(1_744, 4_251, 120);

        let ftc = FtcModel::new(&platform);
        let ilp = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());

        let ftc_h = ftc.pairwise_bound(&app, &h).unwrap().delta_cycles;
        let ftc_l = ftc.pairwise_bound(&app, &l).unwrap().delta_cycles;
        let ilp_h = ilp.pairwise_bound(&app, &h).unwrap().delta_cycles;
        let ilp_l = ilp.pairwise_bound(&app, &l).unwrap().delta_cycles;

        assert_eq!(ftc_h, ftc_l, "fTC cannot exploit contender info");
        assert!(ilp_l < ilp_h, "ILP adapts to the contender");
        assert!(ilp_h < ftc_h / 2, "paper: ILP below half of fTC");
    }
}
