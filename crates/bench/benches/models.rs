//! Benches for model evaluation (experiment E4): how fast the fTC
//! closed form and the ILP-PTAC solve are on Figure-4 profiles.
//!
//! `evaluator_scenario2` times the solve that serve and the sweep's
//! fallback report run for a Scenario-2 pair: `Evaluator::bound` on
//! Scenario-2 isolation profiles at the default 128-node budget. Its
//! `elements` field in `BENCH_models.json` is the node count, so the
//! per-node cost is `median_ns / elements`; `perf_gate` checks its
//! median against the `ceilings_ms` entry of `BENCH_baseline.json`.
//! (`ilp_ptac_scenario2` keeps its historical inputs: Scenario-1
//! profiles under Scenario-2 constraints.)

use contention::{
    ContentionModel, EvalOptions, Evaluator, FtcModel, IlpPtacModel, Platform, ScenarioConstraints,
};
use contention_bench::harness::Harness;
use std::hint::black_box;
use std::path::PathBuf;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::{contender, control_loop, LoadLevel};

fn main() {
    // `finish()` writes BENCH_<group>.json into the working directory;
    // anchor it at the repo root, next to BENCH_sim.json, for perf_gate.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("warning: could not enter {}: {e}", root.display());
    }

    let platform = Platform::tc277_reference();
    let app = mbta::isolation_profile(
        &control_loop(DeploymentScenario::Scenario1, CoreId(1), 42),
        CoreId(1),
    )
    .unwrap();
    let load = mbta::isolation_profile(
        &contender(DeploymentScenario::Scenario1, LoadLevel::High, CoreId(2), 7),
        CoreId(2),
    )
    .unwrap();

    let mut h = Harness::new("models");
    h.sample_size(30);

    let ftc = FtcModel::new(&platform);
    h.bench("ftc_closed_form", || {
        black_box(ftc.pairwise_bound(&app, &load).unwrap().delta_cycles)
    });
    let ilp = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());
    h.bench("ilp_ptac_scenario1", || {
        black_box(ilp.pairwise_bound(&app, &load).unwrap().delta_cycles)
    });
    let ilp2 = IlpPtacModel::new(&platform, ScenarioConstraints::scenario2());
    h.bench("ilp_ptac_scenario2", || {
        black_box(ilp2.pairwise_bound(&app, &load).unwrap().delta_cycles)
    });

    let app2 = mbta::isolation_profile(
        &control_loop(DeploymentScenario::Scenario2, CoreId(1), 42),
        CoreId(1),
    )
    .unwrap();
    let load2 = mbta::isolation_profile(
        &contender(DeploymentScenario::Scenario2, LoadLevel::High, CoreId(2), 7),
        CoreId(2),
    )
    .unwrap();
    let evaluator = Evaluator::new(
        &platform,
        EvalOptions::for_scenario(ScenarioConstraints::scenario2()),
    );
    let evaluated = evaluator.bound(&app2, &load2).unwrap();
    println!(
        "evaluator_scenario2: {} nodes, source {}",
        evaluated.nodes_explored, evaluated.source
    );
    h.throughput_elements(evaluated.nodes_explored);
    h.bench("evaluator_scenario2", || {
        black_box(evaluator.bound(&app2, &load2).unwrap().bound.delta_cycles)
    });

    h.finish();
}
