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
//!
//! `serve_answer_sc1` times `QueryEngine::answer` on a warm engine for
//! fresh Scenario-1 `rta` requests: each call asks a new period, so it
//! would miss a response cache, while its isolation profiles come from
//! the engine's recipe aliases. It is the model evaluation plus the
//! profile lookup, and `perf_gate` caps it in `ceilings_ms` too.
//!
//! `sweep_row_sc1` times one Scenario-1 sweep row on a warm engine:
//! `run_batch` of [app isolation, 500‰ contender isolation, co-run].
//! Both profiles are memoized, so the row is two spec hashes and the
//! co-run, whose contender-free tail splices from the app's solo
//! timeline; `perf_gate` caps it as well.
//!
//! `pairs_batch_fresh` is that row as a sweep or `pairs-sim` op meets
//! it: the app is a clone of one spec (keyed by identity, memoized),
//! the contender is new on every call (its isolation simulates, its
//! steady loops warped). It is the row's two simulations and little
//! else, and `perf_gate` caps it too.

use contention::{
    ContentionModel, EvalOptions, Evaluator, FtcModel, IlpPtacModel, Platform, ScenarioConstraints,
};
use contention_bench::harness::Harness;
use mbta::SimJob;
use serve::{QueryEngine, QueryKind, QueryOptions, Request};
use std::hint::black_box;
use std::path::PathBuf;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::{contender_on, control_loop_on, LoadLevel};

fn main() {
    // `finish()` writes BENCH_<group>.json into the working directory;
    // anchor it at the repo root, next to BENCH_sim.json, for perf_gate.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("warning: could not enter {}: {e}", root.display());
    }

    let platform = Platform::tc277_reference();
    let engine = mbta::ExecEngine::sequential();
    let (desc, a, b) = (engine.platform(), CoreId(1), CoreId(2));
    let app_of = |s| engine.isolation(&control_loop_on(desc, s, a, 42), a);
    let load_of = |s| engine.isolation(&contender_on(desc, s, LoadLevel::High, b, 7), b);
    let app = app_of(DeploymentScenario::Scenario1).unwrap();
    let load = load_of(DeploymentScenario::Scenario1).unwrap();

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

    let app2 = app_of(DeploymentScenario::Scenario2).unwrap();
    let load2 = load_of(DeploymentScenario::Scenario2).unwrap();
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

    let engine = mbta::ExecEngine::new(1);
    let query = QueryEngine::new(&engine, QueryOptions::default());
    let mut period = 40_000_000u64;
    let mut fresh_rta = || {
        period += 1;
        Request {
            id: "bench".to_string(),
            tenant: "bench".to_string(),
            kind: QueryKind::Rta {
                scenario: DeploymentScenario::Scenario1,
                level: LoadLevel::High,
                period,
                deadline: period,
            },
            budget: None,
            strict: false,
        }
    };
    // Warm the engine: the first answer simulates both profiles.
    query.answer(&fresh_rta()).unwrap();
    h.throughput_elements(1);
    h.bench("serve_answer_sc1", || {
        black_box(query.answer(&fresh_rta()).unwrap().body.len())
    });

    let (app_core, load_core) = (CoreId(1), CoreId(2));
    let app_spec = control_loop_on(desc, DeploymentScenario::Scenario1, app_core, 42);
    let load_spec = contention_bench::scaled_contender(load_core, 500);
    let row = [
        SimJob::Isolation {
            spec: app_spec.clone(),
            core: app_core,
        },
        SimJob::Isolation {
            spec: load_spec.clone(),
            core: load_core,
        },
        SimJob::Corun {
            app: app_spec,
            app_core,
            load: load_spec,
            load_core,
        },
    ];
    // Warm the engine: the first row simulates both profiles.
    let row_engine = mbta::ExecEngine::new(1);
    row_engine.run_batch(&row).unwrap();
    h.bench("sweep_row_sc1", || {
        black_box(row_engine.run_batch(&row).unwrap().len())
    });

    // The same row with a contender never seen before: 450-550 permille
    // and a fresh seed each call, so its isolation always simulates
    // while the app's is keyed by identity and memoized.
    let app_spec = control_loop_on(desc, DeploymentScenario::Scenario1, app_core, 42);
    let fresh_engine = mbta::ExecEngine::new(1);
    let mut call = 0u64;
    let mut fresh_row = || {
        call += 1;
        let mut load_spec =
            contention_bench::scaled_contender(load_core, 450 + (call % 101) as u32);
        load_spec.seed = call;
        [
            SimJob::Isolation {
                spec: app_spec.clone(),
                core: app_core,
            },
            SimJob::Isolation {
                spec: load_spec.clone(),
                core: load_core,
            },
            SimJob::Corun {
                app: app_spec.clone(),
                app_core,
                load: load_spec,
                load_core,
            },
        ]
    };
    fresh_engine.run_batch(&fresh_row()).unwrap();
    h.bench("pairs_batch_fresh", || {
        black_box(fresh_engine.run_batch(&fresh_row()).unwrap().len())
    });

    h.finish();
}
