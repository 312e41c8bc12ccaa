//! The full OEM integration loop: contention-aware WCET bounds feed a
//! fixed-priority response-time analysis, answering "do all
//! applications still fit their time budgets once multicore contention
//! is factored in?" — the question the paper's introduction motivates.
//!
//! ```text
//! cargo run --example schedulability
//! ```

use aurix_contention::prelude::*;
use contention::rta::{analyze, PeriodicTask};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mbta::ExecEngine::new(2);
    let platform = Platform::from_desc(engine.platform());
    let scenario = DeploymentScenario::Scenario1;

    // The core-1 task set: a fast control task (modelled as a fixed
    // budget) and the cruise-control application under analysis.
    let app_spec = workloads::control_loop_on(engine.platform(), scenario, CoreId(1), 42);
    let app = engine.isolation(&app_spec, CoreId(1))?;
    let model = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());

    // Periods chosen around the measured isolation time.
    let period_fast: u64 = 400_000;
    let wcet_fast: u64 = 90_000;
    let period_app: u64 = 1_600_000;

    println!("core-1 task set: fast-ctrl (C={wcet_fast}, T={period_fast}),");
    println!(
        "cruise-control (isolation {} cycles, T={period_app})\n",
        app.counters().ccnt
    );

    for level in [None, Some(LoadLevel::Low), Some(LoadLevel::High)] {
        let (label, wcet_app) = match level {
            None => ("single-core view (no contention)".to_owned(), {
                app.counters().ccnt
            }),
            Some(l) => {
                let load = engine.isolation(
                    &workloads::contender_on(engine.platform(), scenario, l, CoreId(2), 7),
                    CoreId(2),
                )?;
                let est = model.wcet_estimate(&app, &[&load])?;
                (
                    format!("with {l} contender (ILP bound {:.2}x)", est.ratio()),
                    est.bound_cycles(),
                )
            }
        };
        let verdict = analyze(&[
            PeriodicTask::new("fast-ctrl", period_fast, wcet_fast),
            PeriodicTask::new("cruise-control", period_app, wcet_app),
        ]);
        println!("{label}:");
        print!("{verdict}");
        println!(
            "  => {} (U = {:.2})\n",
            if verdict.is_schedulable() {
                "schedulable"
            } else {
                "NOT schedulable"
            },
            verdict.utilization()
        );
    }

    println!("reading guide: the set fits in the single-core view and under a");
    println!("light contender, but the heavy contender's contention bound");
    println!("pushes the cruise-control task past its budget — detected at");
    println!("analysis time, long before integration.");
    Ok(())
}
