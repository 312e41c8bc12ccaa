//! The ILP-PTAC model (§3.5, Eqs. 9–23) with scenario tailoring (§4.1).
//!
//! Per-target access counts (PTAC) are not observable on the TC27x, so
//! the model *searches* over every per-target mapping of the analysed
//! task's and the contender's requests that is consistent with the
//! observed debug counters, and maximises the stall cycles the contender
//! can inflict. The result is a partially time-composable bound: valid
//! for any contender whose counters are dominated by the profiled one.
//!
//! ## Formulation notes (deviations documented in DESIGN.md)
//!
//! * Eqs. 15–16 of the paper contain typos (`n^{pf1,co}` repeated); the
//!   implementation uses the obvious pf1 counterparts of Eqs. 11–13.
//! * Eq. 10's `min` of two decision quantities is linearised as a pair
//!   of `≤` constraints — equivalent under maximisation.
//! * Eqs. 20–23 are implemented in *stall-budget* form
//!   (`Σ n·cs_min ≤ cs_observed`) by default: always feasible, same
//!   optimum. `strict_stall_equality` restores the paper's literal
//!   equalities.

use crate::error::ModelError;
use crate::platform::{Operation, Platform, Target};
use crate::profile::{AccessCounts, DebugCounters, IsolationProfile};
use crate::scenario::ScenarioConstraints;
use crate::wcet::{ContentionBound, ContentionModel};
use ilp::{LinExpr, Problem, Var};

/// Options controlling the ILP-PTAC formulation.
#[derive(Clone, Debug)]
pub struct IlpPtacOptions {
    /// Emit the contender constraints (Eqs. 22–23 and the `≤ n_b`
    /// halves of Eqs. 10–19). Disabling them yields the fully
    /// time-composable ILP variant the paper mentions after Eq. 23.
    pub contender_constraints: bool,
    /// Use the paper's literal stall equalities instead of the
    /// (equivalent at the optimum, always feasible) budget form.
    pub strict_stall_equality: bool,
    /// Deployment-scenario tailoring (Table 5), applied to the analysed
    /// task and — when contender constraints are on — to contenders.
    pub scenario: ScenarioConstraints,
    /// Branch & bound node budget. A search that does not close within
    /// it degrades differently per entry point: only
    /// [`IlpPtacModel::solve_detailed`] relaxes to the LP, whose value
    /// dominates the ILP optimum and so stays sound (at most a fraction
    /// of a percent looser on degenerate, symmetric-plateau instances).
    /// [`IlpPtacModel::solve_exact`] reports the exhaustion instead, and
    /// the [`Evaluator`](crate::evaluate::Evaluator) then degrades to
    /// the fTC bound.
    pub node_budget: u64,
}

impl IlpPtacOptions {
    /// Default options for a scenario: contender constraints on, budget
    /// stall form.
    pub fn for_scenario(scenario: ScenarioConstraints) -> Self {
        IlpPtacOptions {
            contender_constraints: true,
            strict_stall_equality: false,
            scenario,
            node_budget: 128,
        }
    }
}

impl Default for IlpPtacOptions {
    fn default() -> Self {
        IlpPtacOptions::for_scenario(ScenarioConstraints::unconstrained())
    }
}

/// Detailed ILP-PTAC outcome: the bound plus the witnessing access-count
/// mappings.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IlpPtacSolution {
    /// The contention bound (Eq. 9 value, split by class).
    pub bound: ContentionBound,
    /// Worst-case per-target mapping of the analysed task's requests.
    pub na: AccessCounts,
    /// Worst-case per-target mapping of the contender's requests (absent
    /// in the fully time-composable variant).
    pub nb: Option<AccessCounts>,
    /// `true` when the exact search hit its node budget and the bound is
    /// the (sound, marginally looser) LP-relaxation value; the mappings
    /// are then rounded witnesses rather than exact optima.
    pub relaxed: bool,
    /// Branch & bound nodes the solve explored — the solver's logical
    /// clock, recorded by the telemetry layer. Equals the node budget
    /// when the exact search was exhausted and the relaxation answered.
    pub nodes_explored: u64,
}

/// The ILP-PTAC contention model.
///
/// # Examples
///
/// ```
/// use contention::{
///     ContentionModel, DebugCounters, IlpPtacModel, IsolationProfile, Platform,
///     ScenarioConstraints,
/// };
///
/// # fn main() -> Result<(), contention::ModelError> {
/// let platform = Platform::tc277_reference();
/// let model = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());
///
/// let app = IsolationProfile::new("app", DebugCounters {
///     ccnt: 500_000, pmem_stall: 6_000, dmem_stall: 30_000,
///     pcache_miss: 1_000, ..Default::default()
/// });
/// let load = IsolationProfile::new("load", DebugCounters {
///     ccnt: 400_000, pmem_stall: 3_000, dmem_stall: 10_000,
///     pcache_miss: 500, ..Default::default()
/// });
///
/// let bound = model.pairwise_bound(&app, &load)?;
/// // Code: min(PM_a, PM_b) × 16; data: min(DS_a/10, DS_b/10) × 11.
/// assert_eq!(bound.code_delta, 500 * 16);
/// assert_eq!(bound.data_delta, 1_000 * 11);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IlpPtacModel<'p> {
    platform: &'p Platform,
    options: IlpPtacOptions,
}

/// Per-task variable block in the ILP.
struct TaskVars {
    /// `n^{t,o}` for each feasible (t,o); `None` where zeroed/absent.
    n: Vec<Option<Var>>,
}

impl TaskVars {
    fn get(&self, pairs: &[(Target, Operation)], t: Target, o: Operation) -> Option<Var> {
        pairs
            .iter()
            .position(|&(pt, po)| pt == t && po == o)
            .and_then(|i| self.n[i])
    }
}

impl<'p> IlpPtacModel<'p> {
    /// Creates the model with default options for a scenario.
    pub fn new(platform: &'p Platform, scenario: ScenarioConstraints) -> Self {
        IlpPtacModel {
            platform,
            options: IlpPtacOptions::for_scenario(scenario),
        }
    }

    /// Creates the model with explicit options.
    pub fn with_options(platform: &'p Platform, options: IlpPtacOptions) -> Self {
        IlpPtacModel { platform, options }
    }

    /// The options in effect.
    pub fn options(&self) -> &IlpPtacOptions {
        &self.options
    }

    /// Adds one task's variable block and counter constraints to `p`.
    fn add_task_vars(
        &self,
        p: &mut Problem,
        label: &str,
        counters: &DebugCounters,
        pairs: &[(Target, Operation)],
    ) -> TaskVars {
        let scenario = &self.options.scenario;
        let mut n = Vec::with_capacity(pairs.len());
        for &(t, o) in pairs {
            if scenario.is_zeroed(t, o) {
                n.push(None);
                continue;
            }
            let stall = self.platform.stall(t, o).max(1);
            let budget = match o {
                Operation::Code => counters.pmem_stall,
                Operation::Data => counters.dmem_stall,
            };
            // Loose but finite upper bound; the stall/exact-code
            // constraints below are what actually bind.
            let mut ub = budget.div_ceil(stall);
            if o == Operation::Code && scenario.exact_code_from_pcache() {
                ub = ub.max(counters.pcache_miss);
            }
            n.push(Some(
                p.add_int_var(format!("n_{label}[{t},{o}]"), ub as i128),
            ));
        }
        let vars = TaskVars { n };

        // Stall accounting (Eqs. 20–23). The code equation is superseded
        // by the exact P$_MISS constraint when the scenario provides it.
        let stall_exprs = |op: Operation| -> LinExpr {
            let mut e = LinExpr::new();
            for &(t, o) in pairs {
                if o == op {
                    if let Some(v) = vars.get(pairs, t, o) {
                        e += v * (self.platform.stall(t, o) as i128);
                    }
                }
            }
            e
        };
        if scenario.exact_code_from_pcache() {
            // Σ n^{pf,co} = PM (Table 5); lmu code is zeroed in both
            // paper scenarios, but add it defensively when present.
            let mut e = LinExpr::new();
            for t in [Target::Pf0, Target::Pf1, Target::Lmu] {
                if let Some(v) = vars.get(pairs, t, Operation::Code) {
                    e += v;
                }
            }
            p.add_eq(e, counters.pcache_miss as i128);
        } else if self.options.strict_stall_equality {
            p.add_eq(stall_exprs(Operation::Code), counters.pmem_stall as i128);
        } else {
            p.add_le(stall_exprs(Operation::Code), counters.pmem_stall as i128);
        }
        if self.options.strict_stall_equality {
            p.add_eq(stall_exprs(Operation::Data), counters.dmem_stall as i128);
        } else {
            p.add_le(stall_exprs(Operation::Data), counters.dmem_stall as i128);
        }

        // Scenario 2: cacheable data misses must land on some cacheable
        // data target.
        if scenario.min_cacheable_data() {
            let mut e = LinExpr::new();
            let mut any = false;
            for t in [Target::Pf0, Target::Pf1, Target::Lmu] {
                if let Some(v) = vars.get(pairs, t, Operation::Data) {
                    e += v;
                    any = true;
                }
            }
            if any {
                p.add_ge(e, counters.dcache_miss_total() as i128);
            }
        }
        vars
    }

    /// Builds and solves the ILP for one contender; returns the detailed
    /// solution.
    ///
    /// # Errors
    ///
    /// [`ModelError::Ilp`] if the formulation is infeasible (possible
    /// only with `strict_stall_equality`) or the solver budget runs out.
    pub fn solve_detailed(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<IlpPtacSolution, ModelError> {
        self.solve_inner(a, b, true)
    }

    /// Like [`solve_detailed`](Self::solve_detailed) but *without* the
    /// internal LP-relaxation fallback: a blown node budget surfaces as
    /// [`ModelError::Ilp`] with [`ilp::SolveError::BudgetExhausted`] so a
    /// caller can degrade to a different (sound) model instead — see the
    /// [`evaluate`](crate::evaluate) pipeline, which falls back to fTC.
    pub fn solve_exact(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<IlpPtacSolution, ModelError> {
        self.solve_inner(a, b, false)
    }

    fn solve_inner(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
        relax_on_budget: bool,
    ) -> Result<IlpPtacSolution, ModelError> {
        let pairs = self.platform.paths().pairs();
        let mut p = Problem::maximize();

        let va = self.add_task_vars(&mut p, "a", a.counters(), &pairs);
        let vb = if self.options.contender_constraints {
            Some(self.add_task_vars(&mut p, "b", b.counters(), &pairs))
        } else {
            None
        };

        // Interference variables n_{b→a}^{t,o} and the Eqs. 10–19
        // constraint block.
        // Even when the scenario zeroes a (t,o) pair for τa, the
        // interference variable stays: contender requests of type o can
        // still delay τa's *other*-type requests at that slave. The
        // per-target sum constraints bound it correctly.
        let mut nba: Vec<Var> = Vec::with_capacity(pairs.len());
        for &(t, o) in &pairs {
            let ub = {
                // n_{b→a}^{t,o} ≤ n_a^{t,co} + n_a^{t,da} ≤ sum of ubs;
                // a loose explicit bound keeps branch & bound finite.
                let code_ub = a.counters().pmem_stall + a.counters().pcache_miss;
                let data_ub = a.counters().dmem_stall;
                (code_ub + data_ub) as i128
            };
            nba.push(p.add_int_var(format!("n_ba[{t},{o}]"), ub));
        }
        let nba_get = |t: Target, o: Operation| -> Option<Var> {
            pairs
                .iter()
                .position(|&(pt, po)| pt == t && po == o)
                .map(|i| nba[i])
        };

        // Per-target sums of τa's requests.
        let ta_sum = |t: Target| -> LinExpr {
            let mut e = LinExpr::new();
            for o in Operation::all() {
                if let Some(v) = va.get(&pairs, t, o) {
                    e += v;
                }
            }
            e
        };

        // Eq. 10: dfl (data only).
        if let Some(dfl_ba) = nba_get(Target::Dfl, Operation::Data) {
            p.add_le(dfl_ba, ta_sum(Target::Dfl));
            if let Some(vb) = &vb {
                match vb.get(&pairs, Target::Dfl, Operation::Data) {
                    Some(nb) => p.add_le(dfl_ba, nb),
                    None => p.add_le(dfl_ba, 0),
                }
            }
        }

        // Eqs. 11–19 for pf0, pf1, lmu (pf1 with the typos corrected).
        for t in [Target::Pf0, Target::Pf1, Target::Lmu] {
            let sum_a = ta_sum(t);
            let mut both = LinExpr::new();
            for o in Operation::all() {
                if !self.platform.paths().is_feasible(t, o) {
                    continue;
                }
                let Some(v) = nba_get(t, o) else { continue };
                p.add_le(v, sum_a.clone());
                both += v;
                if let Some(vb) = &vb {
                    match vb.get(&pairs, t, o) {
                        Some(nb) => p.add_le(v, nb),
                        None => p.add_le(v, 0),
                    }
                }
            }
            // Cumulative conflict cap (Eqs. 13/16/19).
            p.add_le(both, sum_a);
        }

        // Objective (Eq. 9): Σ n_{b→a}^{t,o} · l^{t,o}.
        let mut objective = LinExpr::new();
        for (i, &(t, o)) in pairs.iter().enumerate() {
            objective += nba[i] * (self.platform.latency(t, o) as i128);
        }
        p.set_objective(objective);

        p.set_node_limit(self.options.node_budget);
        // Exact first; on a blown node budget fall back to the LP
        // relaxation, whose value dominates the ILP optimum and is
        // therefore still a valid contention bound. The exact path
        // surfaces the exhaustion instead so callers can pick their own
        // fallback (the evaluate pipeline degrades to fTC); it also
        // demands the search finish *strictly within* the budget — a
        // solve that spends its whole allowance counts as exhausted, so
        // a budget of 1 is a guaranteed-fallback switch regardless of
        // how easy the instance happens to be.
        let (sol, relaxed, nodes_explored) = match p.solve_with_stats() {
            Ok((s, stats)) => {
                if !relax_on_budget && stats.nodes_explored >= self.options.node_budget {
                    return Err(ilp::SolveError::BudgetExhausted {
                        budget: ilp::Budget::Nodes,
                        limit: self.options.node_budget,
                    }
                    .into());
                }
                let nodes = stats.nodes_explored;
                (s, false, nodes)
            }
            Err(e @ ilp::SolveError::BudgetExhausted { .. }) => {
                if relax_on_budget {
                    (p.solve_relaxation()?, true, self.options.node_budget)
                } else {
                    return Err(e.into());
                }
            }
            Err(e) => return Err(e.into()),
        };

        let value_of = |v: Var| -> u64 {
            // Exact solutions are integral; relaxation witnesses are
            // floored for reporting.
            sol.value(v).floor() as u64
        };
        let mut mapping = AccessCounts::new();
        let mut code = 0u64;
        let mut data = 0u64;
        for (i, &(t, o)) in pairs.iter().enumerate() {
            let v = value_of(nba[i]);
            mapping.set(t, o, v);
            let delay = v * self.platform.latency(t, o);
            match o {
                Operation::Code => code += delay,
                Operation::Data => data += delay,
            }
        }
        // In relaxed mode the bound is the floor of the LP objective,
        // not the (lower) value of the floored witness.
        let (delta, code_delta, data_delta) = if relaxed {
            let total = sol.objective().floor() as u64;
            // Attribute the rounding remainder to the larger class so the
            // parts still sum to the total.
            let rem = total - (code + data);
            if code >= data {
                (total, code + rem, data)
            } else {
                (total, code, data + rem)
            }
        } else {
            (code + data, code, data)
        };
        let read_counts = |tv: &TaskVars| {
            let mut c = AccessCounts::new();
            for &(t, o) in &pairs {
                if let Some(v) = tv.get(&pairs, t, o) {
                    c.set(t, o, value_of(v));
                }
            }
            c
        };
        Ok(IlpPtacSolution {
            bound: ContentionBound {
                delta_cycles: delta,
                code_delta,
                data_delta,
                interference: Some(mapping),
            },
            na: read_counts(&va),
            nb: vb.as_ref().map(&read_counts),
            relaxed,
            nodes_explored,
        })
    }
}

impl ContentionModel for IlpPtacModel<'_> {
    fn name(&self) -> &str {
        if self.options.contender_constraints {
            "ILP-PTAC"
        } else {
            "ILP-fTC"
        }
    }

    fn pairwise_bound(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<ContentionBound, ModelError> {
        Ok(self.solve_detailed(a, b)?.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftc::FtcModel;

    fn profile(name: &str, ps: u64, ds: u64, pm: u64) -> IsolationProfile {
        IsolationProfile::new(
            name,
            DebugCounters {
                ccnt: 1_000_000,
                pmem_stall: ps,
                dmem_stall: ds,
                pcache_miss: pm,
                dcache_miss_clean: 0,
                dcache_miss_dirty: 0,
            },
        )
    }

    #[test]
    fn scenario1_closed_form() {
        // Sc1: code on pf (exact via PM), data on lmu only.
        let p = Platform::tc277_reference();
        let m = IlpPtacModel::new(&p, ScenarioConstraints::scenario1());
        let a = profile("a", 6_000, 10_000, 800);
        let b = profile("b", 3_000, 4_000, 300);
        let sol = m.solve_detailed(&a, &b).unwrap();
        // Code interference = min(PMa, PMb) × 16 = 300 × 16.
        // Data interference = min(DSa/10, DSb/10) × 11 = 400 × 11.
        assert_eq!(sol.bound.code_delta, 300 * 16);
        assert_eq!(sol.bound.data_delta, 400 * 11);
        // Witness mappings respect the scenario.
        assert_eq!(sol.na.get(Target::Dfl, Operation::Data), 0);
        assert_eq!(sol.na.get(Target::Lmu, Operation::Code), 0);
        assert_eq!(
            sol.na.get(Target::Pf0, Operation::Code) + sol.na.get(Target::Pf1, Operation::Code),
            800
        );
    }

    #[test]
    fn adapts_to_contender_load() {
        let p = Platform::tc277_reference();
        let m = IlpPtacModel::new(&p, ScenarioConstraints::scenario1());
        let a = profile("a", 6_000, 10_000, 800);
        let heavy = profile("h", 6_000, 10_000, 800);
        let light = profile("l", 600, 1_000, 80);
        let bh = m.pairwise_bound(&a, &heavy).unwrap().delta_cycles;
        let bl = m.pairwise_bound(&a, &light).unwrap().delta_cycles;
        assert!(
            bl < bh,
            "lighter contender must give a tighter bound ({bl} vs {bh})"
        );
    }

    #[test]
    fn never_exceeds_ftc() {
        let p = Platform::tc277_reference();
        let ftc = FtcModel::new(&p);
        for scen in [
            ScenarioConstraints::unconstrained(),
            ScenarioConstraints::scenario1(),
            ScenarioConstraints::scenario2(),
        ] {
            let m = IlpPtacModel::new(&p, scen);
            let a = profile("a", 6_000, 10_000, 800);
            let b = profile("b", 4_000, 9_000, 500);
            let ilp = m.pairwise_bound(&a, &b).unwrap().delta_cycles;
            let f = ftc.pairwise_bound(&a, &b).unwrap().delta_cycles;
            assert!(ilp <= f, "ILP ({ilp}) must not exceed fTC ({f})");
        }
    }

    #[test]
    fn dropping_contender_constraints_loosens_the_bound() {
        let p = Platform::tc277_reference();
        let scen = ScenarioConstraints::scenario1();
        let with = IlpPtacModel::new(&p, scen.clone());
        let without = IlpPtacModel::with_options(
            &p,
            IlpPtacOptions {
                contender_constraints: false,
                ..IlpPtacOptions::for_scenario(scen)
            },
        );
        let a = profile("a", 6_000, 10_000, 800);
        let b = profile("b", 600, 1_000, 80);
        let tight = with.pairwise_bound(&a, &b).unwrap().delta_cycles;
        let loose = without.pairwise_bound(&a, &b).unwrap().delta_cycles;
        assert!(loose >= tight);
        assert_eq!(without.name(), "ILP-fTC");
        // The fully TC variant must be contender-independent.
        let heavy = profile("h", 60_000, 100_000, 8_000);
        assert_eq!(
            loose,
            without.pairwise_bound(&a, &heavy).unwrap().delta_cycles
        );
    }

    #[test]
    fn zero_contender_zero_bound() {
        let p = Platform::tc277_reference();
        let m = IlpPtacModel::new(&p, ScenarioConstraints::scenario1());
        let a = profile("a", 6_000, 10_000, 800);
        let idle = profile("idle", 0, 0, 0);
        assert_eq!(m.pairwise_bound(&a, &idle).unwrap().delta_cycles, 0);
    }

    #[test]
    fn scenario2_mixes_code_and_data_on_pflash() {
        let p = Platform::tc277_reference();
        let m = IlpPtacModel::new(&p, ScenarioConstraints::scenario2());
        let mut ca = DebugCounters {
            ccnt: 1_000_000,
            pmem_stall: 5_000,
            dmem_stall: 2_000,
            pcache_miss: 400,
            dcache_miss_clean: 100,
            dcache_miss_dirty: 0,
        };
        let a = IsolationProfile::new("a", ca);
        ca.pcache_miss = 200;
        ca.dmem_stall = 1_000;
        let b = IsolationProfile::new("b", ca);
        let sol = m.solve_detailed(&a, &b).unwrap();
        // Data can now interfere on pf0/pf1 and lmu; bound is positive
        // and the witness satisfies the cacheable-data floor.
        assert!(sol.bound.delta_cycles > 0);
        let da_total: u64 = [Target::Pf0, Target::Pf1, Target::Lmu]
            .iter()
            .map(|t| sol.na.get(*t, Operation::Data))
            .sum();
        assert!(da_total >= 100);
    }

    #[test]
    fn strict_equality_mode_solves_divisible_profiles() {
        let p = Platform::tc277_reference();
        let m = IlpPtacModel::with_options(
            &p,
            IlpPtacOptions {
                strict_stall_equality: true,
                ..IlpPtacOptions::for_scenario(ScenarioConstraints::unconstrained())
            },
        );
        // Stalls divisible by the minima: feasible under equality.
        let a = profile("a", 600, 1_000, 0);
        let b = profile("b", 60, 100, 0);
        let bound = m.pairwise_bound(&a, &b).unwrap();
        assert!(bound.delta_cycles > 0);
    }

    #[test]
    fn budget_mode_dominates_strict_mode() {
        let p = Platform::tc277_reference();
        let scen = ScenarioConstraints::unconstrained();
        let strict = IlpPtacModel::with_options(
            &p,
            IlpPtacOptions {
                strict_stall_equality: true,
                ..IlpPtacOptions::for_scenario(scen.clone())
            },
        );
        let budget = IlpPtacModel::new(&p, scen);
        let a = profile("a", 600, 1_000, 0);
        let b = profile("b", 600, 1_000, 0);
        let s = strict.pairwise_bound(&a, &b).unwrap().delta_cycles;
        let bu = budget.pairwise_bound(&a, &b).unwrap().delta_cycles;
        assert!(bu >= s, "budget relaxation can only widen the optimum");
    }
}
