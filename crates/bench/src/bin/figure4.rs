//! Regenerates **Figure 4** of the paper: model predictions w.r.t.
//! execution in isolation, for both deployment scenarios and the three
//! contender load levels — plus the observed co-run execution time the
//! bounds must dominate.
//!
//! ```text
//! cargo run -p contention-bench --bin figure4 [-- --scenario sc1|sc2|low] [--platform NAME] [--jobs N]
//! ```
//!
//! Without `--scenario` both paper scenarios are printed. `--scenario
//! low` runs the §4.2 closing-remark variant: a realistic
//! scratchpad-dominant application whose contention bounds drop to the
//! ~10% range the paper reports for real automotive use cases.
//! `--platform NAME` selects the simulated machine, and the models
//! derive their tables from the same description. Each panel's seven
//! simulations run as one batch on `--jobs N` workers. Each panel also
//! reports the fault-tolerant evaluator's fTC fallback rate on stderr;
//! `--ilp-budget N` caps the ILP node budget for that report.
//! `--journal <file>` / `--resume <file>` run the panels as a
//! crash-safe campaign (see `mbta::args`).

use contention::Platform;
use contention_bench::{fig4_cell, panel_fallback_report, write_engine_report};
use mbta::args::{report_campaign, take_parsed, CommonArgs};
use mbta::report::{ratio, Table};
use tc27x_sim::DeploymentScenario;

/// The panel heading of a scenario.
fn label(scenario: DeploymentScenario) -> &'static str {
    match scenario {
        DeploymentScenario::Scenario1 => "Scenario 1",
        DeploymentScenario::Scenario2 => "Scenario 2",
        DeploymentScenario::LowTraffic => "real-world-like (low SRI traffic)",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = args.clone();
    let only: Option<DeploymentScenario> = take_parsed(&mut rest, "--scenario")?;
    let common = CommonArgs::parse(rest)?;
    let scenarios = match only {
        Some(s) => vec![s],
        None => vec![DeploymentScenario::Scenario1, DeploymentScenario::Scenario2],
    };
    let low_traffic = only == Some(DeploymentScenario::LowTraffic);
    let budget = common.ilp_budget;
    let telemetry = common.recorder("figure4");
    if let Some(t) = &telemetry {
        t.meta(
            "variant",
            mbta::Val::str(if low_traffic {
                "low-traffic"
            } else {
                "standard"
            }),
        );
    }
    let engine = common.engine_with(telemetry.as_ref());
    common.campaign(&engine, telemetry.as_deref())?;
    let platform = Platform::from_desc(engine.platform());

    println!("Figure 4: model predictions w.r.t. execution in isolation");
    println!("(ratios are bound/isolation; 'observed' is the measured co-run)\n");

    for scenario in scenarios {
        let label = label(scenario);
        let panel = mbta::figure4_panel(&engine, scenario, &platform, 42)?;
        eprintln!(
            "{label}: {}",
            panel_fallback_report(&engine, scenario, 42, budget, telemetry.as_deref())?
        );
        println!(
            "{label}  —  isolation CCNT = {} cycles",
            panel.app.counters().ccnt
        );
        let mut t = Table::new(vec!["contender", "fTC", "ILP-PTAC", "ideal", "observed"]);
        for cell in panel.cells.iter().rev() {
            t.row(vec![
                cell.level.to_string(),
                fig4_cell(&cell.ftc),
                fig4_cell(&cell.ilp),
                fig4_cell(&cell.ideal),
                format!(
                    "{}x ({} cyc)",
                    ratio(cell.observed_ratio()),
                    cell.observed_cycles
                ),
            ]);
        }
        print!("{}", t.render());
        println!(
            "sound: {}\n",
            if panel.all_bounds_sound() {
                "yes — every model prediction upper-bounds the observed co-run"
            } else {
                "NO — a bound was violated"
            }
        );
    }

    if !low_traffic {
        println!("paper reference: Scenario 1 — fTC 1.95x, ILP 1.49x (H) to 1.24x (L);");
        println!("                 Scenario 2 — fTC 2.33x, ILP 1.67x (H) to 1.34x (L).");
        println!("shape to check: fTC load-invariant and ~2x pessimistic; ILP adapts");
        println!("to contender load and stays roughly below half the fTC contention.");
    } else {
        println!("paper reference: real-world use cases show much lower contention");
        println!("bounds (~10%) than the 30-40% of the stressing benchmarks.");
    }

    let complete = report_campaign(&engine, telemetry.as_deref());
    write_engine_report(&engine, &args);
    if let Some(t) = &telemetry {
        // The reproducibility footer goes under the figure: how the
        // numbers above were obtained, from deterministic counters only.
        print!("{}", mbta::report::reproducibility_footer(t));
    }
    common.flush_telemetry(telemetry.as_deref())?;
    if !complete {
        std::process::exit(2);
    }
    Ok(())
}
