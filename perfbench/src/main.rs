//! Command-line entry point of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pairs-sim|pairs-ilp|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the metrics by name and unit, the output digest, and as the
//! last stdout line the result object. Exits 1 when any op failed, 2 on
//! bad arguments or a failed set-up.

use perfbench::{run, RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload pairs-sim|pairs-ilp|serve-mixed --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<usize>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(RunConfig {
        workload,
        seed,
        ops: seconds * workload.ops_per_second(),
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", config.workload.name());
            return ExitCode::from(2);
        }
    };
    for m in &report.metrics {
        println!(
            "{:<12} {:<28} {:>24} {}",
            config.workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    for f in &report.failures {
        eprintln!("perfbench: failed op: {f}");
    }
    println!(
        "{} digest fnv1a={:016x} ops={} seed={}",
        config.workload.name(),
        report.digest,
        report.attempted,
        config.seed
    );
    println!("{}", report.to_json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
