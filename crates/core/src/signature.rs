//! Contender signatures: abstract resource-usage templates.
//!
//! In the integration workflow the paper motivates, a supplier often
//! must analyse its task against contenders that *do not exist yet* —
//! only their allowed SRI usage is specified contractually. Following
//! the "resource usage templates and signatures" idea the paper builds
//! on (Fernandez et al., DAC'15 — reference [10]), a
//! [`ContenderSignature`] captures a ceiling on a contender's request
//! counts and converts it into a synthetic [`IsolationProfile`] whose
//! counter readings encode exactly those ceilings.
//!
//! The key property (tested below and as a workspace property test):
//! a bound computed against a signature dominates the bound against
//! **any** real contender whose measured counters stay within the
//! signature.

use crate::platform::Platform;
use crate::profile::IsolationProfile;
use crate::DebugCounters;

/// A ceiling on a contender's SRI usage over the analysis window.
///
/// # Examples
///
/// ```
/// use contention::{ContenderSignature, ContentionModel, DebugCounters,
///                  FtcModel, IlpPtacModel, IsolationProfile, Platform,
///                  ScenarioConstraints};
///
/// # fn main() -> Result<(), contention::ModelError> {
/// let platform = Platform::tc277_reference();
/// let app = IsolationProfile::new("app", DebugCounters {
///     ccnt: 1_000_000, pmem_stall: 6_000, dmem_stall: 10_000,
///     pcache_miss: 800, ..Default::default()
/// });
///
/// // Contract: the co-runner may issue at most 500 code and 400 data
/// // SRI requests while the app runs.
/// let sig = ContenderSignature::new("partner-budget", 500, 400);
/// let model = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());
/// let worst = model.wcet_estimate(&app, &[&sig.to_profile(&platform)])?;
/// assert!(worst.contention_cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct ContenderSignature {
    name: String,
    /// Maximum code (fetch) requests on the SRI.
    pub code_requests: u64,
    /// Maximum data requests on the SRI.
    pub data_requests: u64,
}

impl ContenderSignature {
    /// Creates a signature from request ceilings.
    pub fn new(name: impl Into<String>, code_requests: u64, data_requests: u64) -> Self {
        ContenderSignature {
            name: name.into(),
            code_requests,
            data_requests,
        }
    }

    /// Derives the signature that covers a measured contender: the
    /// smallest ceilings whose synthetic profile dominates the measured
    /// counters under the platform's bounding equations (Eq. 4).
    pub fn covering(platform: &Platform, profile: &IsolationProfile) -> Self {
        let bounds = crate::counts::AccessBounds::from_counters(platform, profile.counters());
        ContenderSignature {
            name: format!("covers-{}", profile.name()),
            code_requests: bounds.code,
            data_requests: bounds.data,
        }
    }

    /// The signature's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Converts the ceilings into a synthetic isolation profile.
    ///
    /// The stall counters are set to `n × cs_min` so that the models'
    /// access-count bounding (Eq. 4) recovers exactly the declared
    /// ceilings; `P$_MISS` carries the code ceiling for the
    /// scenario-tailored exact-code constraint.
    pub fn to_profile(&self, platform: &Platform) -> IsolationProfile {
        let ps = self.code_requests * platform.cs_code_min();
        let ds = self.data_requests * platform.cs_data_min();
        IsolationProfile::new(
            self.name.clone(),
            DebugCounters {
                ccnt: ps + ds,
                pmem_stall: ps,
                dmem_stall: ds,
                pcache_miss: self.code_requests,
                dcache_miss_clean: 0,
                dcache_miss_dirty: 0,
            },
        )
    }

    /// Returns `true` if a measured contender stays within this
    /// signature (its bounded request counts do not exceed the
    /// ceilings).
    pub fn admits(&self, platform: &Platform, profile: &IsolationProfile) -> bool {
        let bounds = crate::counts::AccessBounds::from_counters(platform, profile.counters());
        bounds.code <= self.code_requests && bounds.data <= self.data_requests
    }
}

impl std::fmt::Display for ContenderSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: ≤{} code, ≤{} data requests",
            self.name, self.code_requests, self.data_requests
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftc::FtcModel;
    use crate::ilp_ptac::IlpPtacModel;
    use crate::scenario::ScenarioConstraints;
    use crate::wcet::ContentionModel;

    fn app() -> IsolationProfile {
        IsolationProfile::new(
            "app",
            DebugCounters {
                ccnt: 500_000,
                pmem_stall: 6_000,
                dmem_stall: 10_000,
                pcache_miss: 800,
                ..Default::default()
            },
        )
    }

    fn measured(ps: u64, ds: u64, pm: u64) -> IsolationProfile {
        IsolationProfile::new(
            "measured",
            DebugCounters {
                ccnt: 400_000,
                pmem_stall: ps,
                dmem_stall: ds,
                pcache_miss: pm,
                ..Default::default()
            },
        )
    }

    #[test]
    fn profile_roundtrips_the_ceilings() {
        let p = Platform::tc277_reference();
        let sig = ContenderSignature::new("s", 500, 400);
        let prof = sig.to_profile(&p);
        let b = crate::counts::AccessBounds::from_counters(&p, prof.counters());
        assert_eq!(b.code, 500);
        assert_eq!(b.data, 400);
        assert_eq!(prof.counters().pcache_miss, 500);
    }

    #[test]
    fn signature_bound_dominates_admitted_contenders() {
        let p = Platform::tc277_reference();
        let sig = ContenderSignature::new("budget", 300, 500);
        let sig_profile = sig.to_profile(&p);
        let a = app();
        let model = IlpPtacModel::new(&p, ScenarioConstraints::unconstrained());
        let against_sig = model.pairwise_bound(&a, &sig_profile).unwrap().delta_cycles;
        // Any contender within the ceilings is dominated.
        for (ps, ds, pm) in [(600, 1_000, 100), (1_800, 5_000, 300), (0, 0, 0)] {
            let real = measured(ps, ds, pm);
            assert!(sig.admits(&p, &real), "({ps},{ds}) should be admitted");
            let against_real = model.pairwise_bound(&a, &real).unwrap().delta_cycles;
            assert!(
                against_real <= against_sig,
                "{against_real} > {against_sig} for ({ps},{ds})"
            );
        }
    }

    #[test]
    fn admits_rejects_heavier_contenders() {
        let p = Platform::tc277_reference();
        let sig = ContenderSignature::new("budget", 10, 10);
        assert!(!sig.admits(&p, &measured(600, 1_000, 0)));
        assert!(sig.admits(&p, &measured(60, 100, 0)));
    }

    #[test]
    fn covering_signature_admits_its_source() {
        let p = Platform::tc277_reference();
        let real = measured(1_234, 5_678, 99);
        let sig = ContenderSignature::covering(&p, &real);
        assert!(sig.admits(&p, &real));
        assert!(sig.name().contains("measured"));
    }

    #[test]
    fn ftc_is_signature_invariant() {
        // Sanity: the fTC model ignores contenders, so signatures make
        // no difference there.
        let p = Platform::tc277_reference();
        let a = app();
        let m = FtcModel::new(&p);
        let s1 = ContenderSignature::new("s1", 1, 1).to_profile(&p);
        let s2 = ContenderSignature::new("s2", 10_000, 10_000).to_profile(&p);
        assert_eq!(
            m.pairwise_bound(&a, &s1).unwrap(),
            m.pairwise_bound(&a, &s2).unwrap()
        );
    }

    #[test]
    fn display_reads_well() {
        let sig = ContenderSignature::new("partner", 5, 7);
        assert_eq!(sig.to_string(), "partner: ≤5 code, ≤7 data requests");
    }
}
