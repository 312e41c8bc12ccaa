//! Benches for the ILP-PTAC ablations (experiment E7): cost of each
//! formulation variant.

use contention::{ContentionModel, IlpPtacModel, IlpPtacOptions, Platform, ScenarioConstraints};
use contention_bench::harness::Harness;
use std::hint::black_box;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::{contender_on, control_loop_on, LoadLevel};

fn main() {
    let platform = Platform::tc277_reference();
    let engine = mbta::ExecEngine::sequential();
    let (desc, scenario, a, b) = (
        engine.platform(),
        DeploymentScenario::Scenario1,
        CoreId(1),
        CoreId(2),
    );
    let app = engine
        .isolation(&control_loop_on(desc, scenario, a, 42), a)
        .unwrap();
    let load = engine
        .isolation(&contender_on(desc, scenario, LoadLevel::Medium, b, 7), b)
        .unwrap();

    let mut h = Harness::new("ablation");
    h.sample_size(20);
    for (name, opts) in [
        (
            "tailored_budget",
            IlpPtacOptions::for_scenario(ScenarioConstraints::scenario1()),
        ),
        (
            "untailored_budget",
            IlpPtacOptions::for_scenario(ScenarioConstraints::unconstrained()),
        ),
        (
            "tailored_strict",
            IlpPtacOptions {
                strict_stall_equality: true,
                ..IlpPtacOptions::for_scenario(ScenarioConstraints::scenario1())
            },
        ),
        (
            "fully_tc_variant",
            IlpPtacOptions {
                contender_constraints: false,
                ..IlpPtacOptions::for_scenario(ScenarioConstraints::scenario1())
            },
        ),
    ] {
        let model = IlpPtacModel::with_options(&platform, opts);
        h.bench(name, || {
            black_box(model.pairwise_bound(&app, &load).unwrap().delta_cycles)
        });
    }

    h.finish();
}
