//! Fault injection at the harness level: perturb *model-side* isolation
//! profiles with the simulator's deterministic [`FaultInjector`].
//!
//! [`tc27x_sim::faults`] works on raw counter blocks; the evaluation
//! pipeline works on [`contention::IsolationProfile`]s. This module
//! bridges the two so fault campaigns can run end to end:
//! perturb a profile here, then push it through validation
//! ([`contention::Validator`]) and evaluation
//! ([`contention::Evaluator`]) and check that the pipeline either
//! repairs the damage or rejects the profile with diagnostics — but
//! never panics and never returns an unsound bound silently.

use contention::IsolationProfile;
use tc27x_sim::{FaultInjector, FaultRecord};

/// Applies one to three seeded counter faults to an isolation profile
/// and reports what changed.
///
/// The perturbed profile keeps its name but **drops its PTAC**: a
/// fault on the debug-counter read leaves any previously captured
/// ground truth unwitnessed, and keeping it would let the ideal model
/// silently mask counter corruption. Equal seeds produce equal
/// perturbations, so campaigns are replayable.
///
/// # Examples
///
/// ```
/// use contention::{DebugCounters, IsolationProfile};
/// use mbta::perturb_profile;
///
/// let clean = IsolationProfile::new("app", DebugCounters {
///     ccnt: 846_103, pmem_stall: 109_736, dmem_stall: 123_840,
///     pcache_miss: 18_136, ..Default::default()
/// });
/// let (noisy, records) = perturb_profile(&clean, 7);
/// assert!(!records.is_empty());
/// let (again, _) = perturb_profile(&clean, 7);
/// assert_eq!(noisy.counters(), again.counters());
/// ```
pub fn perturb_profile(
    profile: &IsolationProfile,
    seed: u64,
) -> (IsolationProfile, Vec<FaultRecord>) {
    let (noisy, records) = FaultInjector::new(seed).perturb(profile.counters());
    (
        IsolationProfile::new(profile.name().to_string(), noisy),
        records,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention::DebugCounters;

    fn sample() -> IsolationProfile {
        IsolationProfile::new(
            "app",
            DebugCounters {
                ccnt: 846_103,
                pmem_stall: 109_736,
                dmem_stall: 123_840,
                pcache_miss: 18_136,
                dcache_miss_clean: 192,
                dcache_miss_dirty: 17,
            },
        )
    }

    #[test]
    fn perturbation_is_seed_deterministic() {
        let clean = sample();
        for seed in 0..32 {
            let (a, ra) = perturb_profile(&clean, seed);
            let (b, rb) = perturb_profile(&clean, seed);
            assert_eq!(a.counters(), b.counters(), "seed {seed}");
            assert_eq!(ra, rb, "seed {seed}");
        }
    }

    #[test]
    fn perturbed_profiles_drop_ptac_and_keep_name() {
        let clean = sample().with_ptac(contention::AccessCounts::new());
        let (noisy, _) = perturb_profile(&clean, 3);
        assert_eq!(noisy.name(), "app");
        assert!(noisy.ptac().is_none(), "corrupted reads lose ground truth");
    }
}
