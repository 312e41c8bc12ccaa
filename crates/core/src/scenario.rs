//! Deployment-scenario tailoring of the ILP-PTAC model (§4.1, Table 5).
//!
//! Knowledge of the deployment configuration restricts the feasible
//! per-target access counts and lets the model read some PTAC off the
//! cache-miss counters. [`ScenarioConstraints`] encodes the extra ILP
//! constraints of Table 5 in a composable form; the two paper scenarios
//! are provided as constructors.

use crate::{Operation, Target};
use std::fmt;

/// Extra per-task constraints on feasible access counts, derived from
/// the deployment configuration (Table 5). The same constraints are
/// applied to the analysed task and to contenders, matching the paper's
/// "deployment configurations equally apply" assumption.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScenarioConstraints {
    name: String,
    /// `(target, op)` pairs with no traffic in this deployment.
    zeroed: Vec<(Target, Operation)>,
    /// If set, `n^{pf0,co} + n^{pf1,co} = PM` — the P$_MISS counter is
    /// exact because all SRI code requests are cacheable.
    exact_code_from_pcache: bool,
    /// If set, `n^{pf0,da} + n^{pf1,da} + n^{lmu,da} ≥ DMC + DMD` — the
    /// cacheable-data misses must land on some cacheable-data target,
    /// but which one is unknown (Scenario 2).
    min_cacheable_data: bool,
}

impl ScenarioConstraints {
    /// No tailoring: the generic ILP-PTAC model.
    pub fn unconstrained() -> Self {
        ScenarioConstraints {
            name: "generic".into(),
            ..Default::default()
        }
    }

    /// Scenario 1 (Figure 3-a, Table 5 left column): cacheable code in
    /// pf0/pf1, non-cacheable shared data in the LMU, nothing else on
    /// the SRI.
    pub fn scenario1() -> Self {
        ScenarioConstraints {
            name: "scenario1".into(),
            zeroed: vec![
                (Target::Dfl, Operation::Data),
                (Target::Lmu, Operation::Code),
                (Target::Pf0, Operation::Data),
                (Target::Pf1, Operation::Data),
            ],
            exact_code_from_pcache: true,
            min_cacheable_data: false,
        }
    }

    /// Scenario 2 (Figure 3-b, Table 5 right column): cacheable code in
    /// pf0/pf1, data in the LMU ($ and n$) and constant cacheable data
    /// in pf0/pf1.
    pub fn scenario2() -> Self {
        ScenarioConstraints {
            name: "scenario2".into(),
            zeroed: vec![
                (Target::Dfl, Operation::Data),
                (Target::Lmu, Operation::Code),
            ],
            exact_code_from_pcache: true,
            min_cacheable_data: true,
        }
    }

    /// Builder: forces `n^{t,o} = 0`.
    #[must_use]
    pub fn with_zero(mut self, target: Target, op: Operation) -> Self {
        if !self.zeroed.contains(&(target, op)) {
            self.zeroed.push((target, op));
        }
        self
    }

    /// Builder: names the constraint set.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builder: enables the exact-code constraint
    /// (`Σ n^{pf,co} = P$_MISS`).
    #[must_use]
    pub fn with_exact_code_from_pcache(mut self) -> Self {
        self.exact_code_from_pcache = true;
        self
    }

    /// Builder: enables the cacheable-data lower bound
    /// (`Σ n^{·,da} ≥ DMC + DMD` over pf0/pf1/lmu).
    #[must_use]
    pub fn with_min_cacheable_data(mut self) -> Self {
        self.min_cacheable_data = true;
        self
    }

    /// Name of this scenario.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `(target, op)` pairs constrained to zero traffic.
    pub fn zeroed(&self) -> &[(Target, Operation)] {
        &self.zeroed
    }

    /// Whether code counts are pinned to the P$_MISS reading.
    pub fn exact_code_from_pcache(&self) -> bool {
        self.exact_code_from_pcache
    }

    /// Whether the cacheable-data lower bound applies.
    pub fn min_cacheable_data(&self) -> bool {
        self.min_cacheable_data
    }

    /// Returns `true` if `(target, op)` is forced to zero.
    pub fn is_zeroed(&self, target: Target, op: Operation) -> bool {
        self.zeroed.contains(&(target, op))
    }
}

impl fmt::Display for ScenarioConstraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario1_matches_table5_left() {
        let s = ScenarioConstraints::scenario1();
        assert!(s.is_zeroed(Target::Dfl, Operation::Data));
        assert!(s.is_zeroed(Target::Lmu, Operation::Code));
        assert!(s.is_zeroed(Target::Pf0, Operation::Data));
        assert!(s.is_zeroed(Target::Pf1, Operation::Data));
        assert!(s.exact_code_from_pcache());
        assert!(!s.min_cacheable_data());
    }

    #[test]
    fn scenario2_matches_table5_right() {
        let s = ScenarioConstraints::scenario2();
        assert!(s.is_zeroed(Target::Dfl, Operation::Data));
        assert!(s.is_zeroed(Target::Lmu, Operation::Code));
        assert!(!s.is_zeroed(Target::Pf0, Operation::Data));
        assert!(!s.is_zeroed(Target::Lmu, Operation::Data));
        assert!(s.exact_code_from_pcache());
        assert!(s.min_cacheable_data());
    }

    #[test]
    fn unconstrained_is_empty() {
        let s = ScenarioConstraints::unconstrained();
        assert!(s.zeroed().is_empty());
        assert!(!s.exact_code_from_pcache());
        assert!(!s.min_cacheable_data());
    }

    #[test]
    fn builder_composition_and_dedup() {
        let s = ScenarioConstraints::unconstrained()
            .with_name("custom")
            .with_zero(Target::Dfl, Operation::Data)
            .with_zero(Target::Dfl, Operation::Data)
            .with_exact_code_from_pcache();
        assert_eq!(s.name(), "custom");
        assert_eq!(s.zeroed().len(), 1);
        assert!(s.exact_code_from_pcache());
        assert_eq!(s.to_string(), "custom");
    }
}
