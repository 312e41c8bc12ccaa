//! The ideal contention model (§3.2, Eq. 1).
//!
//! Assumes exact per-target access counts (PTAC) for both the analysed
//! task and the contender — information a real TC27x cannot provide, but
//! a simulator (or an ideal DSU) can. Each contender request delays one
//! request of the analysed task on the same target:
//!
//! ```text
//! Δcont_{b→a} = Σ_{t∈T} Σ_{o∈O} min(n_a^{t,o}, n_b^{t,o}) · l^{t,o}
//! ```
//!
//! Note the min is taken per (target, operation) pair, exactly as
//! written in Eq. 1.

use crate::error::ModelError;
use crate::platform::Platform;
use crate::profile::{AccessCounts, IsolationProfile};
use crate::wcet::{ContentionBound, ContentionModel};
use crate::Operation;

/// The ideal (full-information) model.
///
/// # Examples
///
/// ```
/// use contention::{
///     AccessCounts, ContentionModel, DebugCounters, IdealModel, IsolationProfile,
///     Operation, Platform, Target,
/// };
///
/// # fn main() -> Result<(), contention::ModelError> {
/// let platform = Platform::tc277_reference();
/// let mut na = AccessCounts::new();
/// na.set(Target::Lmu, Operation::Data, 100);
/// let mut nb = AccessCounts::new();
/// nb.set(Target::Lmu, Operation::Data, 40);
///
/// let a = IsolationProfile::new("a", DebugCounters::default()).with_ptac(na);
/// let b = IsolationProfile::new("b", DebugCounters::default()).with_ptac(nb);
///
/// let bound = IdealModel::new(&platform).pairwise_bound(&a, &b)?;
/// assert_eq!(bound.delta_cycles, 40 * 11); // min(100, 40) × l^{lmu,da}
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct IdealModel<'p> {
    platform: &'p Platform,
}

impl<'p> IdealModel<'p> {
    /// Creates the model over a platform description.
    pub fn new(platform: &'p Platform) -> Self {
        IdealModel { platform }
    }
}

fn require_ptac(p: &IsolationProfile) -> Result<&AccessCounts, ModelError> {
    p.ptac().ok_or_else(|| ModelError::MissingPtac {
        task: p.name().to_owned(),
    })
}

impl ContentionModel for IdealModel<'_> {
    fn name(&self) -> &str {
        "ideal"
    }

    fn pairwise_bound(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<ContentionBound, ModelError> {
        let na = require_ptac(a)?;
        let nb = require_ptac(b)?;
        let mut code = 0u64;
        let mut data = 0u64;
        let mut mapping = AccessCounts::new();
        for (t, o) in self.platform.paths().pairs() {
            let n = na.get(t, o).min(nb.get(t, o));
            let delay = n * self.platform.latency(t, o);
            mapping.set(t, o, n);
            match o {
                Operation::Code => code += delay,
                Operation::Data => data += delay,
            }
        }
        Ok(ContentionBound {
            delta_cycles: code + data,
            code_delta: code,
            data_delta: data,
            interference: Some(mapping),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DebugCounters, Target};

    fn profile(name: &str, ptac: AccessCounts) -> IsolationProfile {
        IsolationProfile::new(name, DebugCounters::default()).with_ptac(ptac)
    }

    #[test]
    fn min_is_per_pair() {
        let platform = Platform::tc277_reference();
        let mut na = AccessCounts::new();
        na.set(Target::Pf0, Operation::Code, 10);
        na.set(Target::Lmu, Operation::Data, 5);
        let mut nb = AccessCounts::new();
        nb.set(Target::Pf0, Operation::Code, 3);
        nb.set(Target::Lmu, Operation::Data, 50);
        let bound = IdealModel::new(&platform)
            .pairwise_bound(&profile("a", na), &profile("b", nb))
            .unwrap();
        // code: min(10,3)×16 = 48; data: min(5,50)×11 = 55.
        assert_eq!(bound.code_delta, 48);
        assert_eq!(bound.data_delta, 55);
        assert_eq!(bound.delta_cycles, 103);
        let m = bound.interference.unwrap();
        assert_eq!(m.get(Target::Pf0, Operation::Code), 3);
        assert_eq!(m.get(Target::Lmu, Operation::Data), 5);
    }

    #[test]
    fn disjoint_targets_no_contention() {
        let platform = Platform::tc277_reference();
        let mut na = AccessCounts::new();
        na.set(Target::Pf0, Operation::Code, 100);
        let mut nb = AccessCounts::new();
        nb.set(Target::Pf1, Operation::Code, 100);
        let bound = IdealModel::new(&platform)
            .pairwise_bound(&profile("a", na), &profile("b", nb))
            .unwrap();
        assert_eq!(bound.delta_cycles, 0);
    }

    #[test]
    fn missing_ptac_is_an_error() {
        let platform = Platform::tc277_reference();
        let a = IsolationProfile::new("a", DebugCounters::default());
        let b = profile("b", AccessCounts::new());
        match IdealModel::new(&platform).pairwise_bound(&a, &b) {
            Err(ModelError::MissingPtac { task }) => assert_eq!(task, "a"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn symmetric_counts_give_symmetric_bounds() {
        let platform = Platform::tc277_reference();
        let mut n = AccessCounts::new();
        n.set(Target::Dfl, Operation::Data, 7);
        n.set(Target::Pf1, Operation::Code, 3);
        let a = profile("a", n);
        let b = profile("b", n);
        let m = IdealModel::new(&platform);
        let ab = m.pairwise_bound(&a, &b).unwrap();
        let ba = m.pairwise_bound(&b, &a).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.delta_cycles, 7 * 43 + 3 * 16);
    }
}
