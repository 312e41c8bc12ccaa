//! Contention bounds, WCET estimates and the model interface.

use crate::error::ModelError;
use crate::profile::{AccessCounts, IsolationProfile};
use std::fmt;

/// The outcome of a contention model: an upper bound `Δcont_{b→a}` on
/// the extra cycles the analysed task can suffer.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ContentionBound {
    /// Total bound in cycles.
    pub delta_cycles: u64,
    /// Portion attributed to code-request interference (`Δcs^{co}`).
    pub code_delta: u64,
    /// Portion attributed to data-request interference (`Δcs^{da}`).
    pub data_delta: u64,
    /// The interfering request mapping `n_{b→a}^{t,o}` the bound is built
    /// from, when the model produces one (the ILP-PTAC and ideal models
    /// do; the fTC model does not).
    pub interference: Option<AccessCounts>,
}

impl ContentionBound {
    /// Creates a bound from its code/data parts.
    pub fn from_parts(code_delta: u64, data_delta: u64) -> Self {
        ContentionBound {
            delta_cycles: code_delta + data_delta,
            code_delta,
            data_delta,
            interference: None,
        }
    }

    /// Accumulates another contender's bound (multi-contender case).
    pub fn accumulate(&mut self, other: &ContentionBound) {
        self.delta_cycles += other.delta_cycles;
        self.code_delta += other.code_delta;
        self.data_delta += other.data_delta;
        // Mappings from different contenders are not comparable; keep none.
        self.interference = None;
    }
}

impl fmt::Display for ContentionBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Δcont = {} cycles (code {}, data {})",
            self.delta_cycles, self.code_delta, self.data_delta
        )
    }
}

/// A contention-aware WCET estimate: observed isolation time plus the
/// model's contention bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct WcetEstimate {
    /// Execution time observed in isolation (cycles).
    pub isolation_cycles: u64,
    /// Contention bound added on top (cycles).
    pub contention_cycles: u64,
}

impl WcetEstimate {
    /// The estimate itself: isolation + contention.
    pub fn bound_cycles(&self) -> u64 {
        self.isolation_cycles + self.contention_cycles
    }

    /// Predicted execution-time increase w.r.t. isolation — the metric
    /// Figure 4 plots (e.g. 1.49 means +49%).
    pub fn ratio(&self) -> f64 {
        if self.isolation_cycles == 0 {
            return 1.0;
        }
        self.bound_cycles() as f64 / self.isolation_cycles as f64
    }
}

impl fmt::Display for WcetEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} + {} = {} cycles ({:.2}x)",
            self.isolation_cycles,
            self.contention_cycles,
            self.bound_cycles(),
            self.ratio()
        )
    }
}

/// A multicore contention model in the sense of the paper: maps
/// isolation profiles to an upper bound on inter-core interference.
///
/// The primitive is the pairwise bound against one contender;
/// [`ContentionModel::contention_bound`] extends it to any number of
/// contenders by summation, which is sound under the SRI's round-robin
/// arbitration (each own request can wait for at most one in-flight
/// request per other core).
pub trait ContentionModel {
    /// Model name for reports.
    fn name(&self) -> &str;

    /// Bound on the interference a single contender `b` can inflict on
    /// the analysed task `a`.
    ///
    /// # Errors
    ///
    /// Model-specific; see [`ModelError`].
    fn pairwise_bound(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<ContentionBound, ModelError>;

    /// Bound against a set of contenders (sum of pairwise bounds).
    ///
    /// # Errors
    ///
    /// Propagates the first pairwise error.
    fn contention_bound(
        &self,
        a: &IsolationProfile,
        contenders: &[&IsolationProfile],
    ) -> Result<ContentionBound, ModelError> {
        let mut total = ContentionBound::default();
        let mut first = true;
        for b in contenders {
            let pb = self.pairwise_bound(a, b)?;
            if first {
                total = pb;
                first = false;
            } else {
                total.accumulate(&pb);
            }
        }
        Ok(total)
    }

    /// Contention-aware WCET estimate: isolation CCNT plus the bound.
    ///
    /// # Errors
    ///
    /// Propagates [`ContentionModel::contention_bound`] errors.
    fn wcet_estimate(
        &self,
        a: &IsolationProfile,
        contenders: &[&IsolationProfile],
    ) -> Result<WcetEstimate, ModelError> {
        let bound = self.contention_bound(a, contenders)?;
        Ok(WcetEstimate {
            isolation_cycles: a.counters().ccnt,
            contention_cycles: bound.delta_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DebugCounters;

    struct Fixed(u64);
    impl ContentionModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn pairwise_bound(
            &self,
            _a: &IsolationProfile,
            _b: &IsolationProfile,
        ) -> Result<ContentionBound, ModelError> {
            Ok(ContentionBound::from_parts(self.0, 2 * self.0))
        }
    }

    fn profile(ccnt: u64) -> IsolationProfile {
        IsolationProfile::new(
            "p",
            DebugCounters {
                ccnt,
                ..Default::default()
            },
        )
    }

    #[test]
    fn multi_contender_sums_pairwise() {
        let m = Fixed(10);
        let a = profile(1000);
        let b = profile(0);
        let c = profile(0);
        let bound = m.contention_bound(&a, &[&b, &c]).unwrap();
        assert_eq!(bound.delta_cycles, 60);
        assert_eq!(bound.code_delta, 20);
        assert_eq!(bound.data_delta, 40);
    }

    #[test]
    fn no_contenders_no_contention() {
        let m = Fixed(10);
        let a = profile(1000);
        let bound = m.contention_bound(&a, &[]).unwrap();
        assert_eq!(bound.delta_cycles, 0);
    }

    #[test]
    fn wcet_estimate_combines_isolation_and_bound() {
        let m = Fixed(50);
        let a = profile(300);
        let b = profile(0);
        let est = m.wcet_estimate(&a, &[&b]).unwrap();
        assert_eq!(est.bound_cycles(), 450);
        assert!((est.ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_zero_isolation_is_one() {
        let est = WcetEstimate {
            isolation_cycles: 0,
            contention_cycles: 5,
        };
        assert_eq!(est.ratio(), 1.0);
    }

    #[test]
    fn displays() {
        let b = ContentionBound::from_parts(3, 4);
        assert_eq!(b.to_string(), "Δcont = 7 cycles (code 3, data 4)");
        let e = WcetEstimate {
            isolation_cycles: 100,
            contention_cycles: 50,
        };
        assert!(e.to_string().contains("1.50x"));
    }
}
