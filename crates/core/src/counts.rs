//! Access-count bounding from stall counters (§3.3.2, Eqs. 2–4).
//!
//! The TC27x cannot count SRI accesses per resource, so the paper upper
//! bounds them: divide the cumulative stall cycles by the *minimum*
//! stall a single request can cause. Assuming every request was of the
//! cheapest kind can only over-count requests — which is the
//! conservative direction for a contention bound.

use crate::platform::Platform;
use crate::DebugCounters;

/// Upper bounds on a task's SRI access counts derived from its stall
/// counters (Eq. 4: `n̂ = ⌈cs / cs_min⌉`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct AccessBounds {
    /// Upper bound on code requests, `n̂^{co}`.
    pub code: u64,
    /// Upper bound on data requests, `n̂^{da}`.
    pub data: u64,
}

impl AccessBounds {
    /// Derives the bounds for a task from its isolation counters.
    ///
    /// # Examples
    ///
    /// ```
    /// use contention::{AccessBounds, DebugCounters, Platform};
    ///
    /// let p = Platform::tc277_reference();
    /// let c = DebugCounters { pmem_stall: 61, dmem_stall: 100, ..Default::default() };
    /// let b = AccessBounds::from_counters(&p, &c);
    /// assert_eq!(b.code, 11); // ⌈61 / 6⌉
    /// assert_eq!(b.data, 10); // ⌈100 / 10⌉
    /// ```
    pub fn from_counters(platform: &Platform, counters: &DebugCounters) -> Self {
        AccessBounds {
            code: div_ceil(counters.pmem_stall, platform.cs_code_min()),
            data: div_ceil(counters.dmem_stall, platform.cs_data_min()),
        }
    }

    /// Total bound across both classes (Eq. 5's left-hand side).
    pub fn total(&self) -> u64 {
        self.code + self.data
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0, "minimum stall cycles are positive");
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(ps: u64, ds: u64) -> DebugCounters {
        DebugCounters {
            pmem_stall: ps,
            dmem_stall: ds,
            ..Default::default()
        }
    }

    #[test]
    fn exact_division() {
        let p = Platform::tc277_reference();
        let b = AccessBounds::from_counters(&p, &counters(60, 100));
        assert_eq!(b.code, 10);
        assert_eq!(b.data, 10);
        assert_eq!(b.total(), 20);
    }

    #[test]
    fn rounding_up() {
        let p = Platform::tc277_reference();
        let b = AccessBounds::from_counters(&p, &counters(1, 1));
        assert_eq!(b.code, 1);
        assert_eq!(b.data, 1);
    }

    #[test]
    fn zero_stalls_zero_accesses() {
        let p = Platform::tc277_reference();
        let b = AccessBounds::from_counters(&p, &counters(0, 0));
        assert_eq!(b.code, 0);
        assert_eq!(b.data, 0);
        assert_eq!(b.total(), 0);
    }

    /// The bound must over-approximate any mix of real requests: for any
    /// (t,o) split, Σ n^{t,o} ≤ n̂^{o} when cs were produced honestly.
    #[test]
    fn bound_dominates_honest_mixes() {
        let p = Platform::tc277_reference();
        use crate::{Operation, Target};
        // 30 pf0-code and 12 lmu-code requests at min stalls each.
        let ps =
            30 * p.stall(Target::Pf0, Operation::Code) + 12 * p.stall(Target::Lmu, Operation::Code);
        let b = AccessBounds::from_counters(&p, &counters(ps, 0));
        assert!(b.code >= 42, "n̂ = {} must cover 42 requests", b.code);
    }
}
