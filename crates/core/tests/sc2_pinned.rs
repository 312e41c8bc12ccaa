//! Pins the Scenario-2 bound of one golden sweep pair.
//!
//! The pair is the golden `sweep_sc2.csv` row at intensity 500‰ on the
//! TC277 reference platform: the `control_loop` app against the sweep's
//! scaled contender, with the isolation counters the simulator measures
//! for them. The exact ILP does not close within the default 128-node
//! budget, so the evaluator degrades to fTC after exactly 128 nodes and
//! `solve_detailed` answers with the LP relaxation. Both outcomes are
//! fixed by the solver's pivot and node sequence; a kernel change that
//! moves either has changed a solver decision.

use contention::{
    BoundSource, DebugCounters, EvalOptions, Evaluator, IlpPtacModel, IsolationProfile, Platform,
    ScenarioConstraints,
};

fn sweep_500_pair() -> (IsolationProfile, IsolationProfile) {
    let app = IsolationProfile::new(
        "control-loop-sc2",
        DebugCounters {
            ccnt: 296_513,
            pmem_stall: 110_326,
            dmem_stall: 7_516,
            pcache_miss: 18_136,
            dcache_miss_clean: 192,
            dcache_miss_dirty: 0,
        },
    );
    let load = IsolationProfile::new(
        "sweep-load-500",
        DebugCounters {
            ccnt: 45_316,
            pmem_stall: 496,
            dmem_stall: 20_000,
            pcache_miss: 81,
            dcache_miss_clean: 0,
            dcache_miss_dirty: 0,
        },
    );
    (app, load)
}

#[test]
fn evaluator_bound_on_sweep_pair_is_pinned() {
    let platform = Platform::tc277_reference();
    let (app, load) = sweep_500_pair();
    let options = EvalOptions::for_scenario(ScenarioConstraints::scenario2());
    assert_eq!(options.ilp.node_budget, 128);
    let evaluated = Evaluator::new(&platform, options)
        .bound(&app, &load)
        .unwrap();
    assert_eq!(evaluated.bound.delta_cycles, 326_544);
    assert_eq!(evaluated.source, BoundSource::Ftc);
    assert_eq!(evaluated.nodes_explored, 128);
}

#[test]
fn relaxed_solve_on_sweep_pair_is_pinned() {
    let platform = Platform::tc277_reference();
    let (app, load) = sweep_500_pair();
    let sol = IlpPtacModel::new(&platform, ScenarioConstraints::scenario2())
        .solve_detailed(&app, &load)
        .unwrap();
    assert!(sol.relaxed);
    assert_eq!(sol.nodes_explored, 128);
    assert_eq!(sol.bound.delta_cycles, 30_386);
}
