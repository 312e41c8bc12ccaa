//! Profile validation: counter invariants checked before any model runs.
//!
//! Real TC27x DSU readings arrive noisy, saturated or mutually
//! inconsistent; feeding them to the models unchecked either panics the
//! pipeline or silently corrupts a bound that is supposed to be *sound*.
//! This module checks every [`IsolationProfile`] against the platform
//! invariants below and either repairs it (clamp-and-warn) or rejects it
//! with a machine-readable [`ModelError::InconsistentProfile`].
//!
//! ## Invariants
//!
//! With `cs_co` = [`Platform::cs_code_min`] (Eq. 2) and `cs_da` =
//! [`Platform::cs_data_min`] (Eq. 3):
//!
//! | id | invariant | rationale |
//! |----|-----------|-----------|
//! | `zero-run` | `CCNT = 0 ⇒` all counters `= 0` | a task that ran for zero cycles observed nothing |
//! | `stall-budget` | `PS + DS ≤ CCNT` | stall cycles are a subset of execution cycles (CCNT monotonicity) |
//! | `code-miss-stall` | `PM · cs_co ≤ PS` | every instruction-cache miss stalls at least `cs_co` cycles |
//! | `data-miss-stall` | `(DMC + DMD) · cs_da ≤ DS` | every data-cache miss stalls at least `cs_da` cycles |
//! | `ptac-path` | `n^{t,o} = 0` for infeasible `(t,o)` | Figure 2: e.g. code cannot address dflash |
//! | `ptac-code-stall` | `Σ_t n^{t,co} · cs^{t,co} ≤ PS` | PTAC must fit the cumulative code-stall counter |
//! | `ptac-data-stall` | `Σ_t n^{t,da} · cs^{t,da} ≤ DS` | PTAC must fit the cumulative data-stall counter |
//! | `ptac-code-cover` | `PM ≤ Σ_t n^{t,co}` | every cache miss is an SRI code request |
//!
//! All eight hold for every profile the in-tree simulator produces (and
//! must hold on silicon by construction of the DSU), so enforcing them
//! never perturbs a genuine measurement.
//!
//! ## Repair policy
//!
//! [`ValidationPolicy::Repair`] clamps counters downwards to the nearest
//! consistent value — downwards because every model treats the counters
//! as *budgets*, so shrinking them can only tighten, never unsound-en, a
//! bound derived from a contender profile, and the repaired analysed
//! task is flagged so the caller can decide whether to trust it. An
//! inconsistent PTAC attachment is dropped entirely (clamped to
//! "unknown") rather than guessed at. After repair the profile satisfies
//! every invariant; [`ValidationPolicy::Strict`] rejects instead.
//!
//! # Examples
//!
//! ```
//! use contention::validate::{ValidationPolicy, Validator};
//! use contention::{DebugCounters, IsolationProfile, Platform};
//!
//! let platform = Platform::tc277_reference();
//! // 100 misses × 6 cycles each cannot fit a 300-cycle stall counter.
//! let bad = IsolationProfile::new("app", DebugCounters {
//!     ccnt: 10_000, pmem_stall: 300, dmem_stall: 0, pcache_miss: 100,
//!     ..Default::default()
//! });
//!
//! let strict = Validator::new(&platform, ValidationPolicy::Strict);
//! assert!(strict.apply(&bad).is_err());
//!
//! let repair = Validator::new(&platform, ValidationPolicy::Repair);
//! let (fixed, report) = repair.apply(&bad).unwrap();
//! assert_eq!(fixed.counters().pcache_miss, 50); // 300 / 6
//! assert!(!report.is_clean());
//! assert!(repair.check(&fixed).is_clean());
//! ```

use crate::error::ModelError;
use crate::platform::Platform;
use crate::profile::{AccessCounts, IsolationProfile};
use crate::{DebugCounters, Operation};
use std::fmt;

/// What to do with a profile that violates an invariant.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ValidationPolicy {
    /// Reject: [`Validator::apply`] returns
    /// [`ModelError::InconsistentProfile`] carrying every violated
    /// invariant.
    Strict,
    /// Clamp-and-warn: counters are clamped downwards to consistency, an
    /// inconsistent PTAC is dropped, and the report lists what changed.
    #[default]
    Repair,
}

/// The invariant a [`ValidationIssue`] refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[non_exhaustive]
pub enum Invariant {
    /// `CCNT = 0` but some other counter is non-zero.
    ZeroRun,
    /// `PMEM_STALL + DMEM_STALL > CCNT`.
    StallBudget,
    /// `P$_MISS · cs_co_min > PMEM_STALL`.
    CodeMissStall,
    /// `(D$_MISS_CLEAN + D$_MISS_DIRTY) · cs_da_min > DMEM_STALL`.
    DataMissStall,
    /// PTAC counts a request on an architecturally infeasible path.
    PtacPath,
    /// PTAC code requests outgrow the cumulative code-stall counter.
    PtacCodeStall,
    /// PTAC data requests outgrow the cumulative data-stall counter.
    PtacDataStall,
    /// PTAC code requests cannot cover the instruction-cache misses.
    PtacCodeCover,
}

impl Invariant {
    /// Stable machine-readable identifier.
    pub fn id(self) -> &'static str {
        match self {
            Invariant::ZeroRun => "zero-run",
            Invariant::StallBudget => "stall-budget",
            Invariant::CodeMissStall => "code-miss-stall",
            Invariant::DataMissStall => "data-miss-stall",
            Invariant::PtacPath => "ptac-path",
            Invariant::PtacCodeStall => "ptac-code-stall",
            Invariant::PtacDataStall => "ptac-data-stall",
            Invariant::PtacCodeCover => "ptac-code-cover",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violated invariant, with the observed values and the repair the
/// [`ValidationPolicy::Repair`] policy applies (or would apply).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationIssue {
    /// Which invariant was violated.
    pub invariant: Invariant,
    /// Machine-readable `key=value` description of the observation.
    pub detail: String,
    /// Machine-readable `key=value` description of the clamp.
    pub repair: String,
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant={} {} repair: {}",
            self.invariant, self.detail, self.repair
        )
    }
}

/// The outcome of validating one profile.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationReport {
    /// Name of the validated task.
    pub task: String,
    /// Every violated invariant, in checking order.
    pub issues: Vec<ValidationIssue>,
    /// `true` when the returned profile differs from the input (repair
    /// policy only).
    pub repaired: bool,
}

impl ValidationReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Semicolon-joined machine-readable summary of every issue — the
    /// `detail` payload of [`ModelError::InconsistentProfile`].
    pub fn detail(&self) -> String {
        self.issues
            .iter()
            .map(|i| format!("invariant={} {}", i.invariant, i.detail))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "profile `{}` is consistent", self.task);
        }
        writeln!(
            f,
            "profile `{}`: {} invariant violation(s){}",
            self.task,
            self.issues.len(),
            if self.repaired { " (repaired)" } else { "" }
        )?;
        for issue in &self.issues {
            writeln!(f, "  {issue}")?;
        }
        Ok(())
    }
}

/// Validates [`IsolationProfile`]s against a [`Platform`]'s invariants.
#[derive(Clone, Copy, Debug)]
pub struct Validator<'p> {
    platform: &'p Platform,
    policy: ValidationPolicy,
}

impl<'p> Validator<'p> {
    /// Creates a validator for `platform` under `policy`.
    pub fn new(platform: &'p Platform, policy: ValidationPolicy) -> Self {
        Validator { platform, policy }
    }

    /// The policy in effect.
    pub fn policy(&self) -> ValidationPolicy {
        self.policy
    }

    /// Checks `profile` without modifying anything.
    pub fn check(&self, profile: &IsolationProfile) -> ValidationReport {
        let (_, _, report) = self.run(profile);
        report
    }

    /// Applies the policy: returns the (possibly repaired) profile and
    /// its report, or rejects under [`ValidationPolicy::Strict`].
    ///
    /// # Errors
    ///
    /// [`ModelError::InconsistentProfile`] when the policy is strict and
    /// at least one invariant is violated; the `detail` field carries
    /// every violation in `invariant=<id> key=value…` form.
    pub fn apply(
        &self,
        profile: &IsolationProfile,
    ) -> Result<(IsolationProfile, ValidationReport), ModelError> {
        let (counters, ptac, mut report) = self.run(profile);
        if report.is_clean() {
            return Ok((profile.clone(), report));
        }
        match self.policy {
            ValidationPolicy::Strict => Err(ModelError::InconsistentProfile {
                task: profile.name().to_string(),
                detail: report.detail(),
            }),
            ValidationPolicy::Repair => {
                report.repaired = true;
                let mut fixed = IsolationProfile::new(profile.name(), counters);
                if let Some(ptac) = ptac {
                    fixed = fixed.with_ptac(ptac);
                }
                Ok((fixed, report))
            }
        }
    }

    /// Checks every invariant in order, computing the repaired counters
    /// and PTAC along the way so later checks see earlier clamps (which
    /// is what makes the repaired profile consistent by construction).
    fn run(
        &self,
        profile: &IsolationProfile,
    ) -> (DebugCounters, Option<AccessCounts>, ValidationReport) {
        let mut c = *profile.counters();
        let mut issues = Vec::new();

        // zero-run: CCNT monotonicity at the origin.
        let others = [
            c.pmem_stall,
            c.dmem_stall,
            c.pcache_miss,
            c.dcache_miss_clean,
            c.dcache_miss_dirty,
        ];
        if c.ccnt == 0 && others.iter().any(|&v| v != 0) {
            issues.push(ValidationIssue {
                invariant: Invariant::ZeroRun,
                detail: format!(
                    "ccnt=0 pmem_stall={} dmem_stall={} pcache_miss={} dcache_miss_clean={} dcache_miss_dirty={}",
                    c.pmem_stall, c.dmem_stall, c.pcache_miss, c.dcache_miss_clean, c.dcache_miss_dirty
                ),
                repair: "all counters clamped to 0".into(),
            });
            c = DebugCounters::default();
        }

        // stall-budget: PS + DS ≤ CCNT.
        if c.pmem_stall.saturating_add(c.dmem_stall) > c.ccnt {
            let ps = c.pmem_stall.min(c.ccnt);
            let ds = c.dmem_stall.min(c.ccnt - ps);
            issues.push(ValidationIssue {
                invariant: Invariant::StallBudget,
                detail: format!(
                    "pmem_stall={} dmem_stall={} ccnt={}",
                    c.pmem_stall, c.dmem_stall, c.ccnt
                ),
                repair: format!("pmem_stall={ps} dmem_stall={ds}"),
            });
            c.pmem_stall = ps;
            c.dmem_stall = ds;
        }

        // code-miss-stall: PM · cs_co ≤ PS (division form avoids overflow
        // on saturated counter readings).
        let cs_co = self.platform.cs_code_min().max(1);
        if c.pcache_miss > c.pmem_stall / cs_co {
            let pm = c.pmem_stall / cs_co;
            issues.push(ValidationIssue {
                invariant: Invariant::CodeMissStall,
                detail: format!(
                    "pcache_miss={} cs_code_min={} pmem_stall={}",
                    c.pcache_miss, cs_co, c.pmem_stall
                ),
                repair: format!("pcache_miss={pm}"),
            });
            c.pcache_miss = pm;
        }

        // data-miss-stall: (DMC + DMD) · cs_da ≤ DS.
        let cs_da = self.platform.cs_data_min().max(1);
        let dm_total = c.dcache_miss_clean.saturating_add(c.dcache_miss_dirty);
        if dm_total > c.dmem_stall / cs_da {
            let cap = c.dmem_stall / cs_da;
            // Keep dirty misses first: they are the more expensive kind,
            // so preserving them keeps the repaired profile pessimistic.
            let dmd = c.dcache_miss_dirty.min(cap);
            let dmc = c.dcache_miss_clean.min(cap - dmd);
            issues.push(ValidationIssue {
                invariant: Invariant::DataMissStall,
                detail: format!(
                    "dcache_miss_clean={} dcache_miss_dirty={} cs_data_min={} dmem_stall={}",
                    c.dcache_miss_clean, c.dcache_miss_dirty, cs_da, c.dmem_stall
                ),
                repair: format!("dcache_miss_clean={dmc} dcache_miss_dirty={dmd}"),
            });
            c.dcache_miss_clean = dmc;
            c.dcache_miss_dirty = dmd;
        }

        // PTAC attachment: checked against the *repaired* counters; any
        // violation drops it (clamp to "unknown") rather than guessing a
        // per-target redistribution.
        let mut ptac = profile.ptac().copied();
        if let Some(counts) = ptac {
            if let Some(issue) = self.check_ptac(&counts, &c) {
                issues.push(issue);
                ptac = None;
            }
        }

        let report = ValidationReport {
            task: profile.name().to_string(),
            issues,
            repaired: false,
        };
        (c, ptac, report)
    }

    /// Returns the first PTAC violation against counters `c`, if any.
    fn check_ptac(&self, counts: &AccessCounts, c: &DebugCounters) -> Option<ValidationIssue> {
        let paths = self.platform.paths();
        for (t, o, v) in counts.iter() {
            if v > 0 && !paths.is_feasible(t, o) {
                return Some(ValidationIssue {
                    invariant: Invariant::PtacPath,
                    detail: format!("target={t} op={o} count={v}"),
                    repair: "ptac dropped".into(),
                });
            }
        }
        let stall_sum = |op: Operation| -> u64 {
            counts
                .iter()
                .filter(|&(t, o, _)| o == op && paths.is_feasible(t, o))
                .fold(0u64, |acc, (t, o, v)| {
                    acc.saturating_add(v.saturating_mul(self.platform.stall(t, o)))
                })
        };
        let code_stall = stall_sum(Operation::Code);
        if code_stall > c.pmem_stall {
            return Some(ValidationIssue {
                invariant: Invariant::PtacCodeStall,
                detail: format!(
                    "ptac_code_stall_min={code_stall} pmem_stall={}",
                    c.pmem_stall
                ),
                repair: "ptac dropped".into(),
            });
        }
        let data_stall = stall_sum(Operation::Data);
        if data_stall > c.dmem_stall {
            return Some(ValidationIssue {
                invariant: Invariant::PtacDataStall,
                detail: format!(
                    "ptac_data_stall_min={data_stall} dmem_stall={}",
                    c.dmem_stall
                ),
                repair: "ptac dropped".into(),
            });
        }
        let code_total = counts.op_total(Operation::Code);
        if c.pcache_miss > code_total {
            return Some(ValidationIssue {
                invariant: Invariant::PtacCodeCover,
                detail: format!("pcache_miss={} ptac_code_total={code_total}", c.pcache_miss),
                repair: "ptac dropped".into(),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;

    fn platform() -> Platform {
        Platform::tc277_reference()
    }

    fn counters(ccnt: u64, ps: u64, ds: u64, pm: u64, dmc: u64, dmd: u64) -> DebugCounters {
        DebugCounters {
            ccnt,
            pmem_stall: ps,
            dmem_stall: ds,
            pcache_miss: pm,
            dcache_miss_clean: dmc,
            dcache_miss_dirty: dmd,
        }
    }

    #[test]
    fn clean_profile_passes_both_policies() {
        let p = platform();
        let profile = IsolationProfile::new("ok", counters(1_000_000, 6_000, 10_000, 800, 100, 50));
        for policy in [ValidationPolicy::Strict, ValidationPolicy::Repair] {
            let v = Validator::new(&p, policy);
            assert!(v.check(&profile).is_clean());
            let (out, report) = v.apply(&profile).unwrap();
            assert_eq!(out, profile);
            assert!(report.is_clean());
            assert!(!report.repaired);
        }
    }

    #[test]
    fn zero_run_clamps_everything() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Repair);
        let profile = IsolationProfile::new("z", counters(0, 10, 20, 3, 1, 1));
        let (out, report) = v.apply(&profile).unwrap();
        assert_eq!(*out.counters(), DebugCounters::default());
        assert!(report
            .issues
            .iter()
            .any(|i| i.invariant == Invariant::ZeroRun));
        assert!(v.check(&out).is_clean());
    }

    #[test]
    fn stall_budget_clamp_prefers_code_stall() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Repair);
        let profile = IsolationProfile::new("s", counters(100, 80, 80, 0, 0, 0));
        let (out, _) = v.apply(&profile).unwrap();
        assert_eq!(out.counters().pmem_stall, 80);
        assert_eq!(out.counters().dmem_stall, 20);
        assert!(v.check(&out).is_clean());
    }

    #[test]
    fn miss_clamps_use_platform_minima() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Repair);
        let profile = IsolationProfile::new("m", counters(1_000_000, 60, 95, 100, 7, 4));
        let (out, report) = v.apply(&profile).unwrap();
        // 60 / 6 = 10 misses fit the code-stall budget.
        assert_eq!(out.counters().pcache_miss, 10);
        // 95 / 10 = 9 data misses; dirty kept first.
        assert_eq!(out.counters().dcache_miss_dirty, 4);
        assert_eq!(out.counters().dcache_miss_clean, 5);
        assert_eq!(report.issues.len(), 2);
        assert!(v.check(&out).is_clean());
    }

    #[test]
    fn strict_rejects_with_machine_readable_detail() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Strict);
        let profile = IsolationProfile::new("bad", counters(5, 80, 80, 100, 0, 0));
        let err = v.apply(&profile).unwrap_err();
        match err {
            ModelError::InconsistentProfile { task, detail } => {
                assert_eq!(task, "bad");
                assert!(detail.contains("invariant=stall-budget"));
                assert!(detail.contains("invariant=code-miss-stall"));
                assert!(detail.contains("ccnt=5"));
            }
            other => panic!("expected InconsistentProfile, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_ptac_is_dropped() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Repair);
        let mut ptac = AccessCounts::new();
        // Code on dflash is architecturally impossible.
        ptac.set(Target::Dfl, Operation::Code, 5);
        let profile = IsolationProfile::new("x", counters(1_000_000, 6_000, 10_000, 800, 0, 0))
            .with_ptac(ptac);
        let (out, report) = v.apply(&profile).unwrap();
        assert!(out.ptac().is_none());
        assert!(report
            .issues
            .iter()
            .any(|i| i.invariant == Invariant::PtacPath));
        assert!(v.check(&out).is_clean());
    }

    #[test]
    fn ptac_stall_and_cover_checks() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Repair);
        // 2_000 pf0 code requests × 6 stall cycles > 6_000 stall budget.
        let mut heavy = AccessCounts::new();
        heavy.set(Target::Pf0, Operation::Code, 2_000);
        let profile = IsolationProfile::new("x", counters(1_000_000, 6_000, 10_000, 800, 0, 0))
            .with_ptac(heavy);
        let report = v.check(&profile);
        assert!(report
            .issues
            .iter()
            .any(|i| i.invariant == Invariant::PtacCodeStall));

        // 100 code requests cannot cover 800 cache misses.
        let mut thin = AccessCounts::new();
        thin.set(Target::Pf0, Operation::Code, 100);
        let profile = IsolationProfile::new("x", counters(1_000_000, 6_000, 10_000, 800, 0, 0))
            .with_ptac(thin);
        let report = v.check(&profile);
        assert!(report
            .issues
            .iter()
            .any(|i| i.invariant == Invariant::PtacCodeCover));
    }

    #[test]
    fn saturated_counters_do_not_overflow() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Repair);
        let profile = IsolationProfile::new(
            "sat",
            counters(u64::MAX, u64::MAX, u64::MAX, u64::MAX, u64::MAX, u64::MAX),
        );
        let (out, _) = v.apply(&profile).unwrap();
        assert!(v.check(&out).is_clean());
    }

    #[test]
    fn report_display_lists_issues() {
        let p = platform();
        let v = Validator::new(&p, ValidationPolicy::Repair);
        let profile = IsolationProfile::new("noisy", counters(5, 80, 80, 100, 0, 0));
        let (_, report) = v.apply(&profile).unwrap();
        let text = report.to_string();
        assert!(text.contains("`noisy`"));
        assert!(text.contains("repaired"));
        assert!(text.contains("invariant=stall-budget"));
    }
}
