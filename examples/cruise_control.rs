//! The full paper workflow on the cruise-control application (§4.2):
//! calibrate the platform tables from microbenchmarks, profile the app
//! and the H/M/L-Load contenders in isolation, compute fTC and
//! ILP-PTAC WCET estimates, and validate them against real co-runs.
//!
//! ```text
//! cargo run --example cruise_control
//! ```

use aurix_contention::prelude::*;
use mbta::report::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mbta::ExecEngine::new(2);
    // 1. Calibration campaign: recover the Table 2 constants from
    //    DSU-observable measurements (no platform documentation used).
    let calibration = mbta::calibrate(&engine)?;
    let platform = calibration.into_platform();
    println!(
        "calibrated: cs_co_min = {}, cs_da_min = {}, lmu dirty = {} cycles\n",
        platform.cs_code_min(),
        platform.cs_data_min(),
        platform.lmu_dirty_latency()
    );

    for scenario in [DeploymentScenario::Scenario1, DeploymentScenario::Scenario2] {
        let panel = mbta::figure4_panel(&engine, scenario, &platform, 42)?;
        println!(
            "{scenario}: isolation = {} cycles",
            panel.app.counters().ccnt
        );
        let mut table = Table::new(vec!["contender", "fTC", "ILP-PTAC", "observed co-run"]);
        for cell in panel.cells.iter().rev() {
            table.row(vec![
                cell.level.to_string(),
                format!("{:.2}x", cell.ftc.ratio()),
                format!("{:.2}x", cell.ilp.ratio()),
                format!("{:.2}x", cell.observed_ratio()),
            ]);
        }
        print!("{}", table.render());
        println!(
            "all bounds sound: {}\n",
            if panel.all_bounds_sound() {
                "yes"
            } else {
                "NO"
            }
        );
    }

    println!("paper bands: Sc1 fTC 1.95x / ILP 1.49-1.24x; Sc2 fTC 2.33x / ILP 1.67-1.34x");
    Ok(())
}
