//! Fine-grained contention sweep: the Figure 4 experiment extended from
//! three contender levels to a continuous intensity axis. Emits a CSV
//! (stdout) of contender intensity vs the fTC, ILP-PTAC, ideal and
//! FSB-aware bounds plus the observed co-run slowdown — the data a plot
//! of the full trade-off curve needs.
//!
//! All simulations of the sweep go out as one engine batch, so
//! `--jobs N` spreads them over N workers with byte-identical CSV
//! output (see `contention_bench::sweep_csv`).
//!
//! ```text
//! cargo run -p contention-bench --bin sweep [-- --scenario sc1|sc2|low] [--platform NAME] [--jobs N] [--ilp-budget N] > sweep.csv
//! cargo run -p contention-bench --bin sweep -- --journal sweep.journal > sweep.csv
//! cargo run -p contention-bench --bin sweep -- --resume sweep.journal > sweep.csv
//! ```
//!
//! `--platform NAME` selects the simulated machine (see
//! `platform::PlatformDesc::names()`): core placement, slave topology
//! and arbitration all follow the description, and the models derive
//! their tables from it. The default is the paper's `tc27x`.
//!
//! With `--journal <file>` every completed simulation is appended to a
//! crash-safe journal; after an interruption, `--resume <file>` replays
//! the completed jobs and re-executes only the missing ones — the CSV
//! is byte-identical to an uninterrupted run at any `--jobs N`. A
//! journaled sweep plans, keys, splices and replays exactly as a plain
//! one. The sweep also degrades gracefully: a row whose simulation
//! stays unrecovered is skipped (and named on stderr) instead of
//! aborting the whole sweep.
//!
//! After the CSV, the fault-tolerant evaluator re-runs every pair
//! (profiles come from the memo cache) and reports its fTC fallback
//! rate on stderr; `--ilp-budget N` caps the ILP node budget for that
//! report. The CSV itself always uses the exact models, so stdout stays
//! byte-identical regardless of the budget.

use contention_bench::{sweep_csv_partial, sweep_fallback_report, write_engine_report};
use mbta::args::{report_campaign, take_parsed, CommonArgs};
use tc27x_sim::DeploymentScenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = args.clone();
    let scenario = take_parsed(&mut rest, "--scenario")?.unwrap_or(DeploymentScenario::Scenario1);
    let scenario_label = scenario.token();
    let common = CommonArgs::parse(rest)?;
    let telemetry = common.recorder(&format!("sweep {scenario_label}"));
    if let Some(t) = &telemetry {
        t.meta("scenario", mbta::Val::str(scenario_label));
    }
    let engine = common.engine_with(telemetry.as_ref());
    common.campaign(&engine, telemetry.as_deref())?;

    // Degrade gracefully: keep every computable row and name the
    // skipped ones instead of aborting.
    let partial = sweep_csv_partial(&engine, scenario)?;
    print!("{}", partial.csv);
    let sweep_complete = partial.is_complete();
    if !sweep_complete {
        eprintln!(
            "sweep: {} row(s) skipped (intensities {:?} permille) — resume to recover",
            partial.skipped.len(),
            partial.skipped
        );
    }
    eprintln!(
        "{}",
        sweep_fallback_report(&engine, scenario, common.ilp_budget, telemetry.as_deref())?
    );

    let campaign_complete = report_campaign(&engine, telemetry.as_deref());
    write_engine_report(&engine, &args);
    if let Some(t) = &telemetry {
        eprint!("{}", mbta::report::reproducibility_footer(t));
    }
    common.flush_telemetry(telemetry.as_deref())?;
    if !(sweep_complete && campaign_complete) {
        std::process::exit(2);
    }
    Ok(())
}
