//! Regenerates **Table 3** of the paper: the architectural constraints
//! on code/data placement w.r.t. the SRI slaves, as enforced by the
//! linker's placement validator.
//!
//! ```text
//! cargo run -p contention-bench --bin table3 [-- --jobs N]
//! ```
//!
//! Table 3 needs no simulation, but the binary still takes the common
//! flags (`--jobs`, `--ilp-budget`, `--journal`/`--resume`) and emits
//! `BENCH_engine.json` (with zero runs) so the evaluation driver can
//! treat all six artefact binaries uniformly. A journal written here
//! records nothing beyond its header — there are no jobs to journal.

use contention_bench::write_engine_report;
use mbta::args::{report_campaign, CommonArgs};
use mbta::report::Table;
use tc27x_sim::{Operation, Placement, Region};

fn cell(class: Operation, region: Region, cacheable: bool) -> String {
    if Placement::new(region, cacheable).validate(class).is_ok() {
        "ok".into()
    } else {
        "x".into()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let common = CommonArgs::parse(args.clone())?;
    let telemetry = common.recorder("table3");
    let engine = common.engine_with(telemetry.as_ref());
    common.campaign(&engine, telemetry.as_deref())?;

    println!("Table 3: constraints on code/data placement w.r.t. SRI slaves");
    println!("('ok' = admissible, 'x' = forbidden; matches the paper cell for cell)\n");

    let mut t = Table::new(vec!["", "pf0", "pf1", "dfl", "LMU"]);
    let regions = [
        Region::Pflash0,
        Region::Pflash1,
        Region::Dflash,
        Region::Lmu,
    ];
    for (label, class, cacheable) in [
        ("Code $", Operation::Code, true),
        ("Code n$", Operation::Code, false),
        ("Data $", Operation::Data, true),
        ("Data n$", Operation::Data, false),
    ] {
        let mut row = vec![label.to_owned()];
        row.extend(regions.iter().map(|r| cell(class, *r, cacheable)));
        t.row(row);
    }
    print!("{}", t.render());

    // The paper's Table 3 admits cacheable code/data in every slave but
    // dfl; non-cacheable data only in dfl and the LMU.
    println!("\npaper reference:");
    println!("  Code $ : ok ok x ok     Code n$: ok ok x ok");
    println!("  Data $ : ok ok x ok     Data n$: x  x  ok ok");

    report_campaign(&engine, telemetry.as_deref());
    write_engine_report(&engine, &args);
    common.flush_telemetry(telemetry.as_deref())?;
    Ok(())
}
