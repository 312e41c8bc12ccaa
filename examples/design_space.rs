//! Pre-integration design-space exploration — the industrial use case
//! the paper motivates: an OEM hands software providers a time budget,
//! and each provider must check *before integration* whether its task
//! still fits under worst-case contention, for every deployment option
//! on the table.
//!
//! This example sweeps deployment scenarios and contender intensities
//! and prints the WCET estimate as a fraction of a fixed budget.
//!
//! ```text
//! cargo run --example design_space
//! ```

use aurix_contention::prelude::*;
use mbta::report::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mbta::ExecEngine::new(2);
    let platform = Platform::from_desc(engine.platform());
    // The OEM's time budget for this task (cycles).
    let budget: u64 = 1_500_000;

    println!("pre-integration exploration: does the task fit in {budget} cycles?\n");
    let mut table = Table::new(vec![
        "deployment",
        "isolation",
        "worst contender",
        "ILP-PTAC bound",
        "budget use",
        "verdict",
    ]);

    for scenario in [
        DeploymentScenario::Scenario1,
        DeploymentScenario::Scenario2,
        DeploymentScenario::LowTraffic,
    ] {
        let app_spec = workloads::control_loop_on(engine.platform(), scenario, CoreId(1), 42);
        let app = engine.isolation(&app_spec, CoreId(1))?;
        let model = IlpPtacModel::new(&platform, mbta::constraints_for(scenario));

        // The provider does not know the final co-runner; it explores
        // the contender intensities the OEM allows.
        for level in [LoadLevel::Low, LoadLevel::High] {
            let load_spec =
                workloads::contender_on(engine.platform(), scenario, level, CoreId(2), 7);
            let load = engine.isolation(&load_spec, CoreId(2))?;
            let est = model.wcet_estimate(&app, &[&load])?;
            let use_pct = 100.0 * est.bound_cycles() as f64 / budget as f64;
            table.row(vec![
                scenario.to_string(),
                app.counters().ccnt.to_string(),
                level.to_string(),
                format!("{} ({:.2}x)", est.bound_cycles(), est.ratio()),
                format!("{use_pct:.0}%"),
                if est.bound_cycles() <= budget {
                    "fits".into()
                } else {
                    "OVER BUDGET".into()
                },
            ]);
        }
    }
    print!("{}", table.render());

    println!("\nreading guide: the model lets a supplier rule deployments in or out");
    println!("months before integration — the low-traffic deployment fits under any");
    println!("allowed contender, while scenario 1 only fits next to a light one.");
    Ok(())
}
