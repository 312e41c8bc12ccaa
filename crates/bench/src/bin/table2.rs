//! Regenerates **Table 2** of the paper: maximum observable end-to-end
//! latency and minimum stall cycles per SRI target, derived by the
//! calibration microbenchmark campaign on the simulated TC277.
//!
//! ```text
//! cargo run -p contention-bench --bin table2 [-- --jobs N] [--journal <file> | --resume <file>]
//! ```
//!
//! The calibration campaign (28 probe runs) accepts the shared flags:
//! `--jobs N` sizes the engine, and `--journal`/`--resume` make the
//! campaign crash-safe (`--ilp-budget` is accepted for driver
//! uniformity; Table 2 runs no ILP solve). The probes run on the
//! `--platform`'s application core and address all four TC27x slaves
//! (pf0, pf1, dfl, lmu), so a platform that lacks one, such as `ahb2`,
//! is refused before any simulation with a one-line error naming the
//! platform and the slave (exit 1).

use contention::{Operation, Platform, Target};
use contention_bench::{paper_vs, write_engine_report};
use mbta::args::{report_campaign, CommonArgs};
use mbta::report::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let common = CommonArgs::parse(args.clone())?;
    let telemetry = common.recorder("table2");
    let engine = common.engine_with(telemetry.as_ref());
    common.campaign(&engine, telemetry.as_deref())?;
    // A platform without a probed slave is refused before any probe
    // runs; every calibration error prints as one line.
    let cal = mbta::calibrate(&engine).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let paper = Platform::tc277_reference();

    println!("Table 2: maximum latency and minimum stall cycles per SRI target");
    println!("(measured = calibration campaign on the simulator; paper = DAC'18 Table 2)\n");

    let mut t = Table::new(vec!["target (t)", "lmax", "cs^{t,co}", "cs^{t,da}"]);
    for target in [Target::Lmu, Target::Pf0, Target::Pf1, Target::Dfl] {
        let lmax_measured = Operation::all()
            .iter()
            .map(|o| cal.latency.get(target, *o))
            .max()
            .unwrap_or(0);
        let lmax_paper = Operation::all()
            .iter()
            .map(|o| paper.latency(target, *o))
            .max()
            .unwrap_or(0);
        let lmax = if target == Target::Lmu {
            paper_vs(
                format!("{lmax_measured} ({})", cal.lmu_dirty_latency),
                format!("{lmax_paper} ({})", paper.lmu_dirty_latency()),
            )
        } else {
            paper_vs(lmax_measured, lmax_paper)
        };
        let co = if target == Target::Dfl {
            "-".to_owned()
        } else {
            paper_vs(
                cal.stall.get(target, Operation::Code),
                paper.stall(target, Operation::Code),
            )
        };
        let da = paper_vs(
            cal.stall.get(target, Operation::Data),
            paper.stall(target, Operation::Data),
        );
        t.row(vec![target.to_string(), lmax, co, da]);
    }
    print!("{}", t.render());

    println!(
        "\nderived minima (Eqs. 2-3): cs_co_min = {}, cs_da_min = {}",
        cal.into_platform().cs_code_min(),
        cal.into_platform().cs_data_min()
    );

    let complete = report_campaign(&engine, telemetry.as_deref());
    write_engine_report(&engine, &args);
    common.flush_telemetry(telemetry.as_deref())?;
    if !complete {
        std::process::exit(2);
    }
    Ok(())
}
