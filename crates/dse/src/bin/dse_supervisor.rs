//! `dse-supervisor` — crash-tolerant sharded design-space campaigns.
//!
//! ```text
//! dse-supervisor --state-dir DIR [--shards N] [--jobs M]
//!                [--seed S] [--scenario sc1|sc2|low] [--platform NAME]
//!                [--report txt|md]
//!                [--utils U] [--util-min-ppm P] [--util-max-ppm P]
//!                [--sets K] [--tasks T]
//!                [--watchdog-ms W] [--max-attempts A] [--backoff-ms B]
//!                [--resume] [--worker-bin PATH] [--point-delay-ms D]
//!                [--chaos-seed C --chaos-kill P --chaos-stall P
//!                 --chaos-tear P [--chaos-shard I]]
//! ```
//!
//! Writes `curves.txt` and `manifest.txt` into the state dir and prints
//! both to stdout. With `--report md` the merged curves are also
//! rendered as a markdown table (written to `curves.md` and printed in
//! place of the plain text) — same rows, headed by the
//! platform/arbitration variant. A per-shard progress summary (points
//! merged, attempts, retries, coverage %, then wall-clock points/s)
//! goes to stderr so stdout stays byte-stable. Exit status: 0 on full
//! coverage, 3 when any shard exhausted its retries (partial coverage
//! — the manifest says which), 1 on error, 2 on usage.
//!
//! The curves are byte-identical for a fixed seed at any
//! `--shards`/`--jobs` split, across kill -9s of workers or of this
//! supervisor itself, and under `--resume`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dse::{supervise, DseConfig, ShardChaos, SupervisorConfig};
use mbta::args::{reject_rest, take_flag, take_parsed, take_positive, take_value};
use mbta::{Backoff, RetryPolicy};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dse-supervisor --state-dir DIR [options]";

fn default_worker_bin() -> PathBuf {
    // Installed next to this binary by cargo; overridable for tests.
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("dse-worker")))
        .unwrap_or_else(|| PathBuf::from("dse-worker"))
}

struct Args {
    sup: SupervisorConfig,
    report_md: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if take_flag(&mut args, "--help") || take_flag(&mut args, "-h") {
        return Err(String::new());
    }
    let cfg = DseConfig::take(&mut args)?;
    let state_dir = take_value(&mut args, "--state-dir")?.ok_or("--state-dir is required")?;
    let worker_bin =
        take_value(&mut args, "--worker-bin")?.map_or_else(default_worker_bin, PathBuf::from);
    let shards = take_parsed(&mut args, "--shards")?.unwrap_or(4);
    let jobs = take_positive(&mut args, "--jobs")?.unwrap_or(2);
    let watchdog_millis = take_parsed(&mut args, "--watchdog-ms")?.unwrap_or(5_000);
    let max_attempts =
        take_parsed(&mut args, "--max-attempts")?.unwrap_or(RetryPolicy::default().max_attempts);
    let backoff_ms = take_parsed(&mut args, "--backoff-ms")?.unwrap_or(50);
    let point_delay_millis = take_parsed(&mut args, "--point-delay-ms")?.unwrap_or(0);
    let resume = take_flag(&mut args, "--resume");
    let report_md = match take_value(&mut args, "--report")?.as_deref() {
        None | Some("txt" | "text") => false,
        Some("md" | "markdown") => true,
        Some(other) => return Err(format!("unknown report format `{other}` (txt or md)")),
    };
    let chaos = ShardChaos::take(&mut args)?;
    reject_rest(&args)?;
    Ok(Args {
        sup: SupervisorConfig {
            cfg,
            shards,
            jobs,
            state_dir: PathBuf::from(state_dir),
            worker_bin,
            watchdog_millis,
            retry: RetryPolicy { max_attempts },
            backoff: Backoff {
                base_millis: backoff_ms,
                ..Default::default()
            },
            resume,
            chaos,
            point_delay_millis,
        },
        report_md,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("dse-supervisor: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sup = &args.sup;
    let report = match supervise(sup) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dse-supervisor: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut artifacts = vec![
        ("curves.txt", &report.curves_text),
        ("manifest.txt", &report.manifest_text),
    ];
    if args.report_md {
        artifacts.push(("curves.md", &report.curves_md_text));
    }
    for (name, text) in artifacts {
        if let Err(e) = std::fs::write(sup.state_dir.join(name), text) {
            eprintln!("dse-supervisor: writing {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report.manifest_text);
    if args.report_md {
        print!("{}", report.curves_md_text);
    } else {
        print!("{}", report.curves_text);
    }
    // Progress summary on stderr: stdout stays the byte-stable
    // artifacts; the summary's timing section is wall-clock.
    eprint!("{}", report.render_summary());
    if report.partial {
        eprintln!(
            "dse-supervisor: PARTIAL coverage {:.4} — see manifest.txt",
            report.coverage.fraction()
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
