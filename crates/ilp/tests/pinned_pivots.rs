//! Pins the solver's search path on three fixed problems.
//!
//! Each case asserts the exact `(objective, nodes_explored, pivots)`
//! triple. Bland's rule, the DFS node order and the floor heuristic fix
//! every pivot, so any change to the arithmetic kernel that moves one of
//! these numbers has changed a solver decision, not just its speed.

use ilp::{Budget, LinExpr, Problem, Rational, SolveError, SolveStats};

/// A 10-item 0/1 knapsack (the `ilp` bench's `knapsack_10_binary`).
fn knapsack_problem(items: usize) -> Problem {
    let mut p = Problem::maximize();
    let mut obj = LinExpr::new();
    let mut cons = LinExpr::new();
    for i in 0..items {
        let v = p.add_var(format!("x{i}")).integer().bounds(0, 1).build();
        obj += v * (3 + (7 * i as i128) % 11);
        cons += v * (2 + (5 * i as i128) % 9);
    }
    p.set_objective(obj);
    p.add_le(cons, 4 * items as i128 / 2);
    p
}

/// The Scenario-1 ILP-PTAC structure with realistic magnitudes (the
/// `ilp` bench's `ptac_shaped_exact`).
fn ptac_shaped_problem() -> Problem {
    let mut p = Problem::maximize();
    let pm_a = 18_136i128;
    let pm_b = 18_136i128;
    let (ds_a, ds_b) = (123_840i128, 123_840i128);
    let na0 = p.add_var("na_pf0_co").integer().bounds(0, pm_a).build();
    let na1 = p.add_var("na_pf1_co").integer().bounds(0, pm_a).build();
    let nad = p
        .add_var("na_lmu_da")
        .integer()
        .bounds(0, ds_a / 10)
        .build();
    let nb0 = p.add_var("nb_pf0_co").integer().bounds(0, pm_b).build();
    let nb1 = p.add_var("nb_pf1_co").integer().bounds(0, pm_b).build();
    let nbd = p
        .add_var("nb_lmu_da")
        .integer()
        .bounds(0, ds_b / 10)
        .build();
    let i0 = p.add_var("nba_pf0_co").integer().bounds(0, pm_a).build();
    let i1 = p.add_var("nba_pf1_co").integer().bounds(0, pm_a).build();
    let id = p
        .add_var("nba_lmu_da")
        .integer()
        .bounds(0, ds_a / 10)
        .build();
    p.add_eq(na0 + na1, pm_a);
    p.add_eq(nb0 + nb1, pm_b);
    p.add_le(nad * 10, ds_a);
    p.add_le(nbd * 10, ds_b);
    p.add_le(i0, na0);
    p.add_le(i0, nb0);
    p.add_le(i1, na1);
    p.add_le(i1, nb1);
    p.add_le(id, nad);
    p.add_le(id, nbd);
    p.set_objective(i0 * 16 + i1 * 16 + id * 11);
    p
}

/// The Scenario-2 ILP-PTAC instance the contention model builds on the
/// TC277 reference platform for the golden `sweep_sc2.csv` row at
/// intensity 500‰: the `control_loop` app (PS=110326, DS=7516,
/// PM=18136, DMC=192) against the sweep contender (PS=496, DS=20000,
/// PM=81). Variables and constraints are added in the model's order, so
/// the tableau is the one the model solves. `integer = false` gives its
/// LP relaxation.
fn sc2_sweep_500_problem(integer: bool) -> Problem {
    let mut p = Problem::maximize();
    let var = |p: &mut Problem, name: String, ub: i128| {
        let b = p.add_var(name).bounds(0, ub);
        if integer {
            b.integer().build()
        } else {
            b.build()
        }
    };
    let na = [
        ("pf0,co", 18_388),
        ("pf0,da", 684),
        ("pf1,co", 18_388),
        ("pf1,da", 684),
        ("lmu,da", 752),
    ]
    .map(|(t, ub)| var(&mut p, format!("n_a[{t}]"), ub));
    let nb = [
        ("pf0,co", 83),
        ("pf0,da", 1_819),
        ("pf1,co", 83),
        ("pf1,da", 1_819),
        ("lmu,da", 2_000),
    ]
    .map(|(t, ub)| var(&mut p, format!("n_b[{t}]"), ub));
    let ba = [
        "pf0,co", "pf0,da", "pf1,co", "pf1,da", "dfl,da", "lmu,co", "lmu,da",
    ]
    .map(|t| var(&mut p, format!("n_ba[{t}]"), 135_978));
    // Eqs. 20–23 and the Scenario-2 cacheable-miss floor, per task.
    p.add_eq(na[0] + na[2], 18_136);
    p.add_le(na[1] * 11 + na[3] * 11 + na[4] * 10, 7_516);
    p.add_ge(na[1] + na[3] + na[4], 192);
    p.add_eq(nb[0] + nb[2], 81);
    p.add_le(nb[1] * 11 + nb[3] * 11 + nb[4] * 10, 20_000);
    p.add_ge(nb[1] + nb[3] + nb[4], 0);
    // Eq. 10 (dfl, zeroed for both tasks).
    p.add_le(ba[4], 0);
    p.add_le(ba[4], 0);
    // Eqs. 11–19 for pf0, pf1 and lmu.
    p.add_le(ba[0], na[0] + na[1]);
    p.add_le(ba[0], nb[0]);
    p.add_le(ba[1], na[0] + na[1]);
    p.add_le(ba[1], nb[1]);
    p.add_le(ba[0] + ba[1], na[0] + na[1]);
    p.add_le(ba[2], na[2] + na[3]);
    p.add_le(ba[2], nb[2]);
    p.add_le(ba[3], na[2] + na[3]);
    p.add_le(ba[3], nb[3]);
    p.add_le(ba[2] + ba[3], na[2] + na[3]);
    p.add_le(ba[5], na[4]);
    p.add_le(ba[5], 0);
    p.add_le(ba[6], na[4]);
    p.add_le(ba[6], nb[4]);
    p.add_le(ba[5] + ba[6], na[4]);
    // Eq. 9.
    p.set_objective(
        ba[0] * 16 + ba[1] * 16 + ba[2] * 16 + ba[3] * 16 + ba[4] * 43 + ba[5] * 11 + ba[6] * 11,
    );
    p.set_node_limit(128);
    p
}

fn stats(nodes_explored: u64, pivots: u64, incumbent_from_heuristic: bool) -> SolveStats {
    SolveStats {
        nodes_explored,
        pivots,
        incumbent_from_heuristic,
    }
}

#[test]
fn knapsack_search_is_pinned() {
    let (sol, st) = knapsack_problem(10).solve_with_stats().unwrap();
    assert_eq!(sol.objective(), Rational::from_int(45));
    assert_eq!(st, stats(17, 195, true));
}

#[test]
fn ptac_shaped_search_is_pinned() {
    let (sol, st) = ptac_shaped_problem().solve_with_stats().unwrap();
    assert_eq!(sol.objective(), Rational::from_int(426_400));
    assert_eq!(st, stats(1, 9, false));
}

#[test]
fn sc2_relaxation_is_pinned() {
    let (sol, st) = sc2_sweep_500_problem(false).solve_with_stats().unwrap();
    assert_eq!(sol.objective(), Rational::new(334_256, 11));
    assert_eq!(st, stats(0, 16, false));
}

/// The instance sits on a symmetric plateau and does not close within
/// 128 nodes, so no `SolveStats` come back. The pivot count those 128
/// nodes spend is pinned through the pivot budget instead: the search
/// reaches its node limit on exactly 1426 pivots and runs out of pivots
/// one short of that.
#[test]
fn sc2_search_at_128_nodes_is_pinned() {
    let exhausted = |budget, limit| SolveError::BudgetExhausted { budget, limit };
    let p = sc2_sweep_500_problem(true);
    assert_eq!(p.solve_with_stats(), Err(exhausted(Budget::Nodes, 128)));

    let mut p = sc2_sweep_500_problem(true);
    p.set_iteration_limit(1_426);
    assert_eq!(p.solve_with_stats(), Err(exhausted(Budget::Nodes, 128)));
    p.set_iteration_limit(1_425);
    assert_eq!(p.solve_with_stats(), Err(exhausted(Budget::Pivots, 1_425)));
}
