//! The fully time-composable (fTC) model (§3.4, Eqs. 6–8).
//!
//! Uses only the analysed task's cumulative stall counters: every one of
//! its (bounded) requests is assumed to suffer the longest delay any
//! contender request could inflict on the interfaces that class of
//! request can address:
//!
//! ```text
//! l^{co}_max = max(l^{pf0,co}, l^{pf0,da}, l^{pf1,co}, l^{pf1,da}, l^{lmu,co}, l^{lmu,da})   (Eq. 6)
//! l^{da}_max = max(l^{co}_max, l^{dfl,da})                                                   (Eq. 7)
//! Δcont     = n̂^{co}_a · l^{co}_max + n̂^{da}_a · l^{da}_max                                  (Eq. 8)
//! ```
//!
//! The result is valid against *any* contender under *any* schedule —
//! and correspondingly pessimistic (Figure 4).

use crate::counts::AccessBounds;
use crate::error::ModelError;
use crate::platform::Platform;
use crate::profile::IsolationProfile;
use crate::wcet::{ContentionBound, ContentionModel};
use crate::{Operation, Target};

/// The fTC model.
///
/// With [`FtcModel::assume_dirty_lmu`], cacheable-LMU interference is
/// charged at the dirty-miss latency (Table 2's bracketed 21 cycles) —
/// the pessimistic assumption §4.1 describes for Scenario 2, where
/// contender data in the LMU is cacheable and write-backs can occur.
///
/// # Examples
///
/// ```
/// use contention::{ContentionModel, DebugCounters, FtcModel, IsolationProfile, Platform};
///
/// # fn main() -> Result<(), contention::ModelError> {
/// let platform = Platform::tc277_reference();
/// let a = IsolationProfile::new("app", DebugCounters {
///     ccnt: 100_000, pmem_stall: 600, dmem_stall: 1000, ..Default::default()
/// });
/// let b = IsolationProfile::new("load", DebugCounters::default());
/// let bound = FtcModel::new(&platform).pairwise_bound(&a, &b)?;
/// // n̂co = 100, n̂da = 100: 100×16 + 100×43.
/// assert_eq!(bound.delta_cycles, 100 * 16 + 100 * 43);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FtcModel<'p> {
    platform: &'p Platform,
    assume_dirty_lmu: bool,
}

impl<'p> FtcModel<'p> {
    /// Creates the model with plain Table 2 latencies.
    pub fn new(platform: &'p Platform) -> Self {
        FtcModel {
            platform,
            assume_dirty_lmu: false,
        }
    }

    /// Charges LMU interference at the dirty-miss latency (Scenario 2
    /// pessimism).
    #[must_use]
    pub fn assume_dirty_lmu(mut self) -> Self {
        self.assume_dirty_lmu = true;
        self
    }

    fn lmu_latency(&self, op: Operation) -> u64 {
        if self.assume_dirty_lmu && op == Operation::Data {
            self.platform.lmu_dirty_latency()
        } else {
            self.platform.latency(Target::Lmu, op)
        }
    }

    /// Eq. 6: the longest delay a code request of the analysed task can
    /// suffer.
    pub fn l_code_max(&self) -> u64 {
        self.platform
            .paths()
            .targets_for(Operation::Code)
            .into_iter()
            .flat_map(|t| {
                Operation::all().into_iter().filter_map(move |o| {
                    // Interfering requests of either type can occupy the
                    // interface, provided that type can address it.
                    self.platform.paths().is_feasible(t, o).then_some((t, o))
                })
            })
            .map(|(t, o)| {
                if t == Target::Lmu {
                    self.lmu_latency(o)
                } else {
                    self.platform.latency(t, o)
                }
            })
            .max()
            .unwrap_or_else(|| unreachable!("code can reach at least one target"))
    }

    /// Eq. 7: the longest delay a data request can suffer (adds the
    /// data-flash path).
    pub fn l_data_max(&self) -> u64 {
        self.l_code_max()
            .max(self.platform.latency(Target::Dfl, Operation::Data))
    }
}

impl ContentionModel for FtcModel<'_> {
    fn name(&self) -> &str {
        "fTC"
    }

    /// Eq. 8. The contender profile is deliberately ignored — full time
    /// composability means the bound holds whatever `b` does.
    fn pairwise_bound(
        &self,
        a: &IsolationProfile,
        _b: &IsolationProfile,
    ) -> Result<ContentionBound, ModelError> {
        let bounds = AccessBounds::from_counters(self.platform, a.counters());
        let code = bounds.code * self.l_code_max();
        let data = bounds.data * self.l_data_max();
        Ok(ContentionBound::from_parts(code, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DebugCounters;

    fn profile(ps: u64, ds: u64) -> IsolationProfile {
        IsolationProfile::new(
            "a",
            DebugCounters {
                ccnt: 1,
                pmem_stall: ps,
                dmem_stall: ds,
                ..Default::default()
            },
        )
    }

    #[test]
    fn reference_maxima() {
        let p = Platform::tc277_reference();
        let m = FtcModel::new(&p);
        // Eq. 6 over pf/lmu latencies: max(16,16,16,16,11,11) = 16.
        assert_eq!(m.l_code_max(), 16);
        // Eq. 7 adds dfl: max(16, 43) = 43.
        assert_eq!(m.l_data_max(), 43);
    }

    #[test]
    fn dirty_lmu_raises_code_max() {
        let p = Platform::tc277_reference();
        let m = FtcModel::new(&p).assume_dirty_lmu();
        // lmu data interference now costs 21, still below pf's 16? No:
        // max(16, 21) = 21.
        assert_eq!(m.l_code_max(), 21);
        assert_eq!(m.l_data_max(), 43);
    }

    #[test]
    fn bound_is_contender_independent() {
        let p = Platform::tc277_reference();
        let m = FtcModel::new(&p);
        let a = profile(600, 1000);
        let light = profile(1, 1);
        let heavy = profile(1_000_000, 1_000_000);
        let b1 = m.pairwise_bound(&a, &light).unwrap();
        let b2 = m.pairwise_bound(&a, &heavy).unwrap();
        assert_eq!(b1, b2, "fTC ignores the contender by construction");
    }

    #[test]
    fn eq8_arithmetic() {
        let p = Platform::tc277_reference();
        let m = FtcModel::new(&p);
        // n̂co = ceil(13/6) = 3, n̂da = ceil(25/10) = 3.
        let bound = m.pairwise_bound(&profile(13, 25), &profile(0, 0)).unwrap();
        assert_eq!(bound.code_delta, 3 * 16);
        assert_eq!(bound.data_delta, 3 * 43);
        assert!(bound.interference.is_none());
    }

    #[test]
    fn zero_traffic_zero_bound() {
        let p = Platform::tc277_reference();
        let m = FtcModel::new(&p);
        let bound = m.pairwise_bound(&profile(0, 0), &profile(9, 9)).unwrap();
        assert_eq!(bound.delta_cycles, 0);
    }
}
