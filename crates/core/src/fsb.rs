//! The front-side-bus (FSB) reduction of the cross-bar model (§4.3).
//!
//! Prior contention models ([7], [13], [16] in the paper) target
//! bus-based interconnects where *every* pair of requests conflicts.
//! The paper argues its cross-bar model subsumes them: "we consider the
//! FSB model to be a reduced case for the more generic cross-bar
//! model". This module makes that claim executable by collapsing the
//! four SRI slaves into a single shared bus:
//!
//! * every request of the analysed task can be delayed by any request
//!   of the contender (no per-target disjointness), and
//! * each interference event costs the *global* maximum latency.
//!
//! Comparing [`FsbModel`] against [`crate::IlpPtacModel`] quantifies
//! how much tightness the cross-bar awareness buys on the TC27x.

use crate::counts::AccessBounds;
use crate::error::ModelError;
use crate::platform::Platform;
use crate::profile::IsolationProfile;
use crate::wcet::{ContentionBound, ContentionModel};

/// A bus-style contention model: all targets collapsed into one shared
/// resource.
///
/// With `contender_aware` (the default), the number of interference
/// events is capped by the contender's own bounded request count —
/// the bus-level analogue of the ILP-PTAC model. Without it, every
/// request of the analysed task pays the worst delay — the bus-level
/// analogue of the fTC model.
///
/// # Examples
///
/// ```
/// use contention::{ContentionModel, DebugCounters, FsbModel, IlpPtacModel,
///                  IsolationProfile, Platform, ScenarioConstraints};
///
/// # fn main() -> Result<(), contention::ModelError> {
/// let platform = Platform::tc277_reference();
/// let a = IsolationProfile::new("a", DebugCounters {
///     ccnt: 100_000, pmem_stall: 600, dmem_stall: 1_000, ..Default::default()
/// });
/// let b = IsolationProfile::new("b", DebugCounters {
///     ccnt: 100_000, pmem_stall: 300, dmem_stall: 500, ..Default::default()
/// });
/// let fsb = FsbModel::new(&platform).pairwise_bound(&a, &b)?;
/// let xbar = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained())
///     .pairwise_bound(&a, &b)?;
/// assert!(xbar.delta_cycles <= fsb.delta_cycles, "cross-bar awareness tightens");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FsbModel<'p> {
    platform: &'p Platform,
    contender_aware: bool,
}

impl<'p> FsbModel<'p> {
    /// Creates the contender-aware bus model.
    pub fn new(platform: &'p Platform) -> Self {
        FsbModel {
            platform,
            contender_aware: true,
        }
    }

    /// Disables contender awareness: the bus-level fTC analogue.
    #[must_use]
    pub fn fully_time_composable(mut self) -> Self {
        self.contender_aware = false;
        self
    }

    /// The worst per-request delay on the collapsed bus: the global
    /// maximum latency over all feasible (target, operation) pairs.
    pub fn l_bus_max(&self) -> u64 {
        self.platform
            .paths()
            .pairs()
            .into_iter()
            .map(|(t, o)| self.platform.latency(t, o))
            .max()
            .unwrap_or_else(|| unreachable!("some pair is always feasible"))
    }
}

impl ContentionModel for FsbModel<'_> {
    fn name(&self) -> &str {
        if self.contender_aware {
            "FSB-aware"
        } else {
            "FSB-fTC"
        }
    }

    fn pairwise_bound(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<ContentionBound, ModelError> {
        let na = AccessBounds::from_counters(self.platform, a.counters());
        let l = self.l_bus_max();
        let events = if self.contender_aware {
            let nb = AccessBounds::from_counters(self.platform, b.counters());
            na.total().min(nb.total())
        } else {
            na.total()
        };
        // On a bus there is no per-class separation; attribute the
        // delay proportionally for reporting.
        let total = events * l;
        let code_share = if na.total() == 0 {
            0
        } else {
            total * na.code / na.total()
        };
        Ok(ContentionBound::from_parts(code_share, total - code_share))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftc::FtcModel;
    use crate::ilp_ptac::IlpPtacModel;
    use crate::scenario::ScenarioConstraints;
    use crate::DebugCounters;

    fn profile(name: &str, ps: u64, ds: u64) -> IsolationProfile {
        IsolationProfile::new(
            name,
            DebugCounters {
                ccnt: 1_000_000,
                pmem_stall: ps,
                dmem_stall: ds,
                ..Default::default()
            },
        )
    }

    #[test]
    fn bus_max_is_the_dflash_latency() {
        let p = Platform::tc277_reference();
        assert_eq!(FsbModel::new(&p).l_bus_max(), 43);
    }

    #[test]
    fn arithmetic_of_the_aware_bound() {
        let p = Platform::tc277_reference();
        let a = profile("a", 600, 1_000); // n̂ = 100 + 100 = 200
        let b = profile("b", 60, 100); // n̂ = 10 + 10 = 20
        let bound = FsbModel::new(&p).pairwise_bound(&a, &b).unwrap();
        assert_eq!(bound.delta_cycles, 20 * 43);
    }

    #[test]
    fn fsb_ftc_ignores_contender() {
        let p = Platform::tc277_reference();
        let m = FsbModel::new(&p).fully_time_composable();
        let a = profile("a", 600, 1_000);
        let b1 = profile("b", 6, 10);
        let b2 = profile("b", 600_000, 1_000_000);
        assert_eq!(
            m.pairwise_bound(&a, &b1).unwrap(),
            m.pairwise_bound(&a, &b2).unwrap()
        );
        assert_eq!(m.pairwise_bound(&a, &b1).unwrap().delta_cycles, 200 * 43);
    }

    #[test]
    fn crossbar_models_dominate_their_bus_reductions() {
        // The §4.3 claim, pairwise: the bus collapse can only lose
        // tightness relative to the per-slave models.
        let p = Platform::tc277_reference();
        let a = profile("a", 6_000, 10_000);
        let b = profile("b", 3_000, 4_000);
        let fsb_ftc = FsbModel::new(&p)
            .fully_time_composable()
            .pairwise_bound(&a, &b)
            .unwrap()
            .delta_cycles;
        let ftc = FtcModel::new(&p)
            .pairwise_bound(&a, &b)
            .unwrap()
            .delta_cycles;
        assert!(ftc <= fsb_ftc, "fTC {ftc} must be ≤ FSB-fTC {fsb_ftc}");

        let fsb = FsbModel::new(&p)
            .pairwise_bound(&a, &b)
            .unwrap()
            .delta_cycles;
        let ilp = IlpPtacModel::new(&p, ScenarioConstraints::unconstrained())
            .pairwise_bound(&a, &b)
            .unwrap()
            .delta_cycles;
        assert!(ilp <= fsb, "ILP {ilp} must be ≤ FSB-aware {fsb}");
    }

    #[test]
    fn names_distinguish_variants() {
        let p = Platform::tc277_reference();
        assert_eq!(FsbModel::new(&p).name(), "FSB-aware");
        assert_eq!(FsbModel::new(&p).fully_time_composable().name(), "FSB-fTC");
    }

    #[test]
    fn zero_traffic_zero_bound() {
        let p = Platform::tc277_reference();
        let a = profile("a", 0, 0);
        let b = profile("b", 100, 100);
        assert_eq!(
            FsbModel::new(&p)
                .pairwise_bound(&a, &b)
                .unwrap()
                .delta_cycles,
            0
        );
    }
}
