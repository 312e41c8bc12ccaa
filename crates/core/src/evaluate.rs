//! Fault-tolerant evaluation pipeline: validate, solve, degrade soundly.
//!
//! The [`Evaluator`] chains three stages in front of a Δcont bound:
//!
//! 1. **Validation** — both profiles go through a
//!    [`Validator`](crate::validate::Validator) under the configured
//!    [`ValidationPolicy`]: strict rejects inconsistent counters,
//!    repair clamps them and records what changed.
//! 2. **ILP-PTAC** — the scenario-tailored ILP is solved *exactly*
//!    under its deterministic node budget
//!    ([`IlpPtacModel::solve_exact`]); no silent LP relaxation.
//! 3. **fTC fallback** — if the budget is exhausted or the formulation
//!    infeasible (possible with strict stall equalities), the pipeline
//!    degrades to the fTC bound (Eqs. 6–8), which is valid for *any*
//!    contender and therefore dominates every ILP-PTAC optimum. The
//!    result is tagged with the model that actually produced it.
//!
//! Everything is deterministic: budgets count branch & bound nodes, not
//! wall-clock time, so the exact/fallback decision — and hence every
//! reported bound — is bit-identical across `--jobs N` and machines.
//!
//! # Examples
//!
//! A node budget of 1 cannot close the contention ILP, so the pipeline
//! returns the fTC bound and says so:
//!
//! ```
//! use contention::evaluate::{BoundSource, EvalOptions, Evaluator};
//! use contention::{
//!     ContentionModel, DebugCounters, FtcModel, IsolationProfile, Platform,
//!     ScenarioConstraints,
//! };
//!
//! # fn main() -> Result<(), contention::ModelError> {
//! let platform = Platform::tc277_reference();
//! let app = IsolationProfile::new("app", DebugCounters {
//!     ccnt: 500_000, pmem_stall: 6_000, dmem_stall: 30_000,
//!     pcache_miss: 1_000, ..Default::default()
//! });
//! let load = IsolationProfile::new("load", DebugCounters {
//!     ccnt: 400_000, pmem_stall: 3_000, dmem_stall: 10_000,
//!     pcache_miss: 500, ..Default::default()
//! });
//!
//! let mut options = EvalOptions::for_scenario(ScenarioConstraints::scenario1());
//! options.ilp.node_budget = 1;
//! let evaluated = Evaluator::new(&platform, options).bound(&app, &load)?;
//!
//! assert_eq!(evaluated.source, BoundSource::Ftc);
//! assert_eq!(evaluated.source.tag(), "fallback=ftc");
//! let ftc = FtcModel::new(&platform).pairwise_bound(&app, &load)?;
//! assert_eq!(evaluated.bound.delta_cycles, ftc.delta_cycles);
//! # Ok(())
//! # }
//! ```

use crate::error::ModelError;
use crate::ftc::FtcModel;
use crate::ilp_ptac::{IlpPtacModel, IlpPtacOptions};
use crate::platform::Platform;
use crate::profile::IsolationProfile;
use crate::scenario::ScenarioConstraints;
use crate::validate::{ValidationPolicy, ValidationReport, Validator};
use crate::wcet::{ContentionBound, ContentionModel};
use std::fmt;

/// Which model produced an [`EvaluatedBound`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BoundSource {
    /// The scenario-tailored ILP-PTAC optimum, solved exactly within
    /// its node budget.
    Ilp,
    /// The fTC bound: the ILP ran out of budget (or was infeasible) and
    /// the pipeline degraded to the contender-independent model.
    Ftc,
}

impl BoundSource {
    /// Stable machine-readable tag (`ilp` / `fallback=ftc`) for CSV
    /// columns and logs.
    pub fn tag(self) -> &'static str {
        match self {
            BoundSource::Ilp => "ilp",
            BoundSource::Ftc => "fallback=ftc",
        }
    }

    /// `true` when the bound came from the fallback model.
    pub fn is_fallback(self) -> bool {
        self == BoundSource::Ftc
    }
}

impl fmt::Display for BoundSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A Δcont bound together with its provenance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvaluatedBound {
    /// The contention bound (always finite, always sound).
    pub bound: ContentionBound,
    /// The model that produced it.
    pub source: BoundSource,
    /// Validation reports for the analysed task and the contender, in
    /// that order.
    pub reports: Vec<ValidationReport>,
    /// Branch & bound nodes the ILP explored before this bound was
    /// settled — the solver's logical clock, deterministic across
    /// machines and worker counts. On the fTC path this is the
    /// exhausted node budget (or 0 for an infeasible formulation that
    /// never searched).
    pub nodes_explored: u64,
}

impl EvaluatedBound {
    /// `true` when either input profile was repaired.
    pub fn any_repairs(&self) -> bool {
        self.reports.iter().any(|r| r.repaired)
    }
}

/// Options for the evaluation pipeline.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// How to treat invariant violations in the input profiles.
    pub policy: ValidationPolicy,
    /// ILP-PTAC formulation options, including the node budget that
    /// decides when to degrade to fTC.
    pub ilp: IlpPtacOptions,
}

impl EvalOptions {
    /// Defaults for a deployment scenario: repair policy, standard ILP
    /// options.
    pub fn for_scenario(scenario: ScenarioConstraints) -> Self {
        EvalOptions {
            policy: ValidationPolicy::default(),
            ilp: IlpPtacOptions::for_scenario(scenario),
        }
    }
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions::for_scenario(ScenarioConstraints::unconstrained())
    }
}

/// The fault-tolerant evaluation pipeline.
#[derive(Clone, Debug)]
pub struct Evaluator<'p> {
    platform: &'p Platform,
    options: EvalOptions,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator over `platform` with `options`.
    pub fn new(platform: &'p Platform, options: EvalOptions) -> Self {
        Evaluator { platform, options }
    }

    /// The options in effect.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Bounds the contention `b` can inflict on `a`, degrading from
    /// ILP-PTAC to fTC when the solve budget runs out.
    ///
    /// # Errors
    ///
    /// [`ModelError::InconsistentProfile`] under the strict policy when
    /// a profile violates an invariant; [`ModelError::Ilp`] only for
    /// solver failures the fallback cannot absorb (e.g. an unbounded
    /// formulation, which indicates a modelling bug rather than noisy
    /// input).
    pub fn bound(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<EvaluatedBound, ModelError> {
        let validator = Validator::new(self.platform, self.options.policy);
        let (a, report_a) = validator.apply(a)?;
        let (b, report_b) = validator.apply(b)?;
        let reports = vec![report_a, report_b];

        let ilp = IlpPtacModel::with_options(self.platform, self.options.ilp.clone());
        match ilp.solve_exact(&a, &b) {
            Ok(sol) => Ok(EvaluatedBound {
                bound: sol.bound,
                source: BoundSource::Ilp,
                reports,
                nodes_explored: sol.nodes_explored,
            }),
            Err(ModelError::Ilp(
                e @ (ilp::SolveError::BudgetExhausted { .. } | ilp::SolveError::Infeasible),
            )) => {
                let nodes_explored = match e {
                    ilp::SolveError::BudgetExhausted { limit, .. } => limit,
                    _ => 0,
                };
                let bound = FtcModel::new(self.platform).pairwise_bound(&a, &b)?;
                Ok(EvaluatedBound {
                    bound,
                    source: BoundSource::Ftc,
                    reports,
                    nodes_explored,
                })
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DebugCounters;

    fn profile(name: &str, ps: u64, ds: u64, pm: u64) -> IsolationProfile {
        IsolationProfile::new(
            name,
            DebugCounters {
                ccnt: 1_000_000,
                pmem_stall: ps,
                dmem_stall: ds,
                pcache_miss: pm,
                ..Default::default()
            },
        )
    }

    #[test]
    fn default_budget_matches_the_exact_ilp() {
        let p = Platform::tc277_reference();
        let a = profile("a", 6_000, 10_000, 800);
        let b = profile("b", 3_000, 4_000, 300);
        let options = EvalOptions::for_scenario(ScenarioConstraints::scenario1());
        let ev = Evaluator::new(&p, options).bound(&a, &b).unwrap();
        assert_eq!(ev.source, BoundSource::Ilp);
        assert!(!ev.source.is_fallback());
        let direct = IlpPtacModel::new(&p, ScenarioConstraints::scenario1())
            .pairwise_bound(&a, &b)
            .unwrap();
        assert_eq!(ev.bound, direct);
        assert!(ev.reports.iter().all(|r| r.is_clean()));
    }

    #[test]
    fn budget_of_one_degrades_to_ftc_everywhere() {
        let p = Platform::tc277_reference();
        let ftc = FtcModel::new(&p);
        let pairs = [
            (
                profile("a", 6_000, 10_000, 800),
                profile("b", 3_000, 4_000, 300),
            ),
            (
                profile("a", 34_212, 83_450, 2_365),
                profile("b", 17_441, 42_518, 1_205),
            ),
            (profile("a", 600, 1_000, 80), profile("b", 600, 1_000, 80)),
        ];
        for scenario in [
            ScenarioConstraints::unconstrained(),
            ScenarioConstraints::scenario1(),
            ScenarioConstraints::scenario2(),
        ] {
            let mut options = EvalOptions::for_scenario(scenario);
            options.ilp.node_budget = 1;
            let evaluator = Evaluator::new(&p, options);
            for (a, b) in &pairs {
                let ev = evaluator.bound(a, b).unwrap();
                assert_eq!(ev.source, BoundSource::Ftc, "{a} vs {b}");
                let expected = ftc.pairwise_bound(a, b).unwrap().delta_cycles;
                assert_eq!(ev.bound.delta_cycles, expected);
            }
        }
    }

    #[test]
    fn ftc_fallback_dominates_the_ilp_bound() {
        let p = Platform::tc277_reference();
        let a = profile("a", 6_000, 10_000, 800);
        let b = profile("b", 3_000, 4_000, 300);
        let exact = Evaluator::new(
            &p,
            EvalOptions::for_scenario(ScenarioConstraints::scenario1()),
        )
        .bound(&a, &b)
        .unwrap();
        let mut options = EvalOptions::for_scenario(ScenarioConstraints::scenario1());
        options.ilp.node_budget = 1;
        let fallback = Evaluator::new(&p, options).bound(&a, &b).unwrap();
        assert!(fallback.bound.delta_cycles >= exact.bound.delta_cycles);
    }

    #[test]
    fn strict_policy_rejects_noisy_input() {
        let p = Platform::tc277_reference();
        let options = EvalOptions {
            policy: ValidationPolicy::Strict,
            ..Default::default()
        };
        let evaluator = Evaluator::new(&p, options);
        let bad = IsolationProfile::new(
            "bad",
            DebugCounters {
                ccnt: 10,
                pmem_stall: 600,
                dmem_stall: 1_000,
                pcache_miss: 80,
                ..Default::default()
            },
        );
        let good = profile("good", 600, 1_000, 80);
        let err = evaluator.bound(&bad, &good).unwrap_err();
        assert!(matches!(err, ModelError::InconsistentProfile { .. }));
    }

    #[test]
    fn repair_policy_still_produces_a_bound() {
        let p = Platform::tc277_reference();
        let evaluator = Evaluator::new(&p, EvalOptions::default());
        let bad = IsolationProfile::new(
            "bad",
            DebugCounters {
                ccnt: 10,
                pmem_stall: 600,
                dmem_stall: 1_000,
                pcache_miss: 80,
                ..Default::default()
            },
        );
        let good = profile("good", 600, 1_000, 80);
        let ev = evaluator.bound(&bad, &good).unwrap();
        assert!(ev.any_repairs());
        assert!(!ev.reports[0].is_clean());
        assert!(ev.reports[1].is_clean());
    }
}
