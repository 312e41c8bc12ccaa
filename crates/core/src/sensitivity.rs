//! Sensitivity analysis: how a model's bound reacts to each counter.
//!
//! For budgeting discussions ("how much LMU traffic can we still add
//! before the WCET budget breaks?") it is useful to know the marginal
//! cost of each debug counter. [`SensitivityReport::analyze`] perturbs
//! one counter at a time by a configurable step and reports the bound
//! delta — a finite-difference sensitivity that works with any
//! [`ContentionModel`], including the ILP where no closed form exists.

use crate::error::ModelError;
use crate::profile::IsolationProfile;
use crate::wcet::ContentionModel;
use crate::DebugCounters;
use std::fmt;

/// The perturbable counters of a profile.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CounterKind {
    /// PMEM_STALL.
    PmemStall,
    /// DMEM_STALL.
    DmemStall,
    /// P$_MISS.
    PcacheMiss,
    /// D$_MISS_CLEAN.
    DcacheMissClean,
    /// D$_MISS_DIRTY.
    DcacheMissDirty,
}

impl CounterKind {
    /// All perturbable counters.
    pub fn all() -> [CounterKind; 5] {
        [
            CounterKind::PmemStall,
            CounterKind::DmemStall,
            CounterKind::PcacheMiss,
            CounterKind::DcacheMissClean,
            CounterKind::DcacheMissDirty,
        ]
    }

    fn bump(self, c: &DebugCounters, step: u64) -> DebugCounters {
        let mut c = *c;
        match self {
            CounterKind::PmemStall => c.pmem_stall += step,
            CounterKind::DmemStall => c.dmem_stall += step,
            CounterKind::PcacheMiss => c.pcache_miss += step,
            CounterKind::DcacheMissClean => c.dcache_miss_clean += step,
            CounterKind::DcacheMissDirty => c.dcache_miss_dirty += step,
        }
        c
    }
}

impl fmt::Display for CounterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterKind::PmemStall => write!(f, "PMEM_STALL"),
            CounterKind::DmemStall => write!(f, "DMEM_STALL"),
            CounterKind::PcacheMiss => write!(f, "P$_MISS"),
            CounterKind::DcacheMissClean => write!(f, "D$_MISS_CLEAN"),
            CounterKind::DcacheMissDirty => write!(f, "D$_MISS_DIRTY"),
        }
    }
}

/// Which side of the analysis a perturbation applies to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// Perturb the analysed task's profile.
    Analysed,
    /// Perturb the contender's profile.
    Contender,
}

/// One sensitivity entry: bound growth per unit of counter growth.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Sensitivity {
    /// The perturbed counter.
    pub counter: CounterKind,
    /// Which profile was perturbed.
    pub side: Side,
    /// Bound delta for the whole `step` perturbation (cycles).
    pub bound_delta: i64,
    /// The perturbation step used.
    pub step: u64,
}

impl Sensitivity {
    /// Marginal cost: bound cycles per counter unit.
    pub fn per_unit(&self) -> f64 {
        self.bound_delta as f64 / self.step as f64
    }
}

/// A full finite-difference sensitivity report.
#[derive(Clone, Debug)]
pub struct SensitivityReport {
    entries: Vec<Sensitivity>,
}

impl SensitivityReport {
    /// Perturbs each counter of the analysed task and of the contender
    /// by `step` and records the bound deltas under `model`.
    ///
    /// # Errors
    ///
    /// Propagates model evaluation errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use contention::{DebugCounters, FtcModel, IsolationProfile, Platform,
    ///                  SensitivityReport};
    ///
    /// # fn main() -> Result<(), contention::ModelError> {
    /// let platform = Platform::tc277_reference();
    /// let a = IsolationProfile::new("a", DebugCounters {
    ///     ccnt: 10_000, pmem_stall: 600, dmem_stall: 1_000, ..Default::default()
    /// });
    /// let b = IsolationProfile::new("b", DebugCounters::default());
    /// let report = SensitivityReport::analyze(&FtcModel::new(&platform), &a, &b, 60)?;
    /// // 60 extra PMEM_STALL cycles = 10 extra code requests × 16 cycles.
    /// let s = report.for_counter(contention::CounterKind::PmemStall,
    ///                            contention::Sensitivity::ANALYSED_SIDE);
    /// assert_eq!(s.unwrap().bound_delta, 160);
    /// # Ok(())
    /// # }
    /// ```
    pub fn analyze<M: ContentionModel>(
        model: &M,
        a: &IsolationProfile,
        b: &IsolationProfile,
        step: u64,
    ) -> Result<SensitivityReport, ModelError> {
        let base = model.pairwise_bound(a, b)?.delta_cycles as i64;
        let mut entries = Vec::new();
        for counter in CounterKind::all() {
            for side in [Side::Analysed, Side::Contender] {
                let (pa, pb) = match side {
                    Side::Analysed => (
                        IsolationProfile::new(a.name(), counter.bump(a.counters(), step)),
                        b.clone(),
                    ),
                    Side::Contender => (
                        a.clone(),
                        IsolationProfile::new(b.name(), counter.bump(b.counters(), step)),
                    ),
                };
                let bumped = model.pairwise_bound(&pa, &pb)?.delta_cycles as i64;
                entries.push(Sensitivity {
                    counter,
                    side,
                    bound_delta: bumped - base,
                    step,
                });
            }
        }
        Ok(SensitivityReport { entries })
    }

    /// All entries.
    pub fn entries(&self) -> &[Sensitivity] {
        &self.entries
    }

    /// Looks up one entry.
    pub fn for_counter(&self, counter: CounterKind, side: Side) -> Option<&Sensitivity> {
        self.entries
            .iter()
            .find(|s| s.counter == counter && s.side == side)
    }

    /// The counter with the largest marginal cost on the analysed side.
    pub fn dominant(&self) -> Option<&Sensitivity> {
        self.entries
            .iter()
            .filter(|s| s.side == Side::Analysed)
            .max_by_key(|s| s.bound_delta)
    }
}

impl Sensitivity {
    /// Convenience alias for [`Side::Analysed`] in doc examples.
    pub const ANALYSED_SIDE: Side = Side::Analysed;
    /// Convenience alias for [`Side::Contender`].
    pub const CONTENDER_SIDE: Side = Side::Contender;
}

impl fmt::Display for SensitivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.entries {
            writeln!(
                f,
                "{:<14} ({:?}): {:+} cycles / {} units ({:+.2}/unit)",
                s.counter.to_string(),
                s.side,
                s.bound_delta,
                s.step,
                s.per_unit()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftc::FtcModel;
    use crate::ilp_ptac::IlpPtacModel;
    use crate::platform::Platform;
    use crate::scenario::ScenarioConstraints;

    fn profile(name: &str, ps: u64, ds: u64) -> IsolationProfile {
        IsolationProfile::new(
            name,
            DebugCounters {
                ccnt: 100_000,
                pmem_stall: ps,
                dmem_stall: ds,
                ..Default::default()
            },
        )
    }

    #[test]
    fn ftc_sensitivities_match_closed_form() {
        let p = Platform::tc277_reference();
        let a = profile("a", 600, 1_000);
        let b = profile("b", 0, 0);
        let r = SensitivityReport::analyze(&FtcModel::new(&p), &a, &b, 60).unwrap();
        // +60 PS = +10 code requests × lco_max(16) = +160.
        assert_eq!(
            r.for_counter(CounterKind::PmemStall, Side::Analysed)
                .unwrap()
                .bound_delta,
            160
        );
        // +60 DS = +6 data requests × lda_max(43) = +258.
        assert_eq!(
            r.for_counter(CounterKind::DmemStall, Side::Analysed)
                .unwrap()
                .bound_delta,
            258
        );
        // fTC ignores the contender entirely.
        for c in CounterKind::all() {
            assert_eq!(
                r.for_counter(c, Side::Contender).unwrap().bound_delta,
                0,
                "{c}"
            );
        }
    }

    #[test]
    fn ilp_contender_sensitivity_is_positive_when_binding() {
        let p = Platform::tc277_reference();
        // Contender lighter than the app: its counters bind the min().
        let a = profile("a", 6_000, 10_000);
        let b = profile("b", 600, 1_000);
        let model = IlpPtacModel::new(&p, ScenarioConstraints::unconstrained());
        let r = SensitivityReport::analyze(&model, &a, &b, 600).unwrap();
        let s = r
            .for_counter(CounterKind::DmemStall, Side::Contender)
            .unwrap();
        assert!(s.bound_delta > 0, "contender data traffic binds: {s:?}");
    }

    #[test]
    fn dominant_picks_largest_analysed_entry() {
        let p = Platform::tc277_reference();
        let a = profile("a", 600, 1_000);
        let b = profile("b", 0, 0);
        let r = SensitivityReport::analyze(&FtcModel::new(&p), &a, &b, 60).unwrap();
        // Data stalls cost 43/10 per cycle vs code's 16/6: data dominates.
        assert_eq!(r.dominant().unwrap().counter, CounterKind::DmemStall);
    }

    #[test]
    fn report_displays_all_entries() {
        let p = Platform::tc277_reference();
        let a = profile("a", 60, 100);
        let b = profile("b", 60, 100);
        let r = SensitivityReport::analyze(&FtcModel::new(&p), &a, &b, 10).unwrap();
        assert_eq!(r.entries().len(), 10);
        let text = r.to_string();
        assert!(text.contains("PMEM_STALL"));
        assert!(text.contains("D$_MISS_DIRTY"));
    }
}
