//! `dse-worker` — one shard of a design-space campaign.
//!
//! Spawned by `dse-supervisor`; runnable by hand for debugging:
//!
//! ```text
//! dse-worker --state-dir DIR --shard I --shards N
//!            [--seed S] [--scenario sc1|sc2|low] [--platform NAME]
//!            [--utils U] [--util-min-ppm P] [--util-max-ppm P]
//!            [--sets K] [--tasks T] [--attempt A] [--point-delay-ms D]
//!            [--chaos-seed C --chaos-kill P --chaos-stall P
//!             --chaos-tear P [--chaos-shard I]]
//! ```
//!
//! Exit status: 0 when the shard's done marker is written, 1 on error,
//! 2 on usage. A chaos kill aborts (SIGABRT) — deliberately
//! indistinguishable from an external `kill -9` to the supervisor.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dse::{model_ratios_on, run_shard, DseConfig, ShardChaos};
use mbta::args::{reject_rest, take_flag, take_parsed, take_value};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dse-worker --state-dir DIR --shard I --shards N [options]";

struct Args {
    cfg: DseConfig,
    state_dir: PathBuf,
    shard: u32,
    shards: u32,
    attempt: u32,
    point_delay_ms: u64,
    chaos: Option<ShardChaos>,
}

fn parse_args() -> Result<Args, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if take_flag(&mut args, "--help") || take_flag(&mut args, "-h") {
        return Err(String::new());
    }
    let cfg = DseConfig::take(&mut args)?;
    let state_dir = take_value(&mut args, "--state-dir")?.ok_or("--state-dir is required")?;
    let shard = take_parsed(&mut args, "--shard")?.ok_or("--shard is required")?;
    let shards = take_parsed(&mut args, "--shards")?.ok_or("--shards is required")?;
    let attempt = take_parsed(&mut args, "--attempt")?.unwrap_or(0);
    let point_delay_ms = take_parsed(&mut args, "--point-delay-ms")?.unwrap_or(0);
    let chaos = ShardChaos::take(&mut args)?;
    reject_rest(&args)?;
    Ok(Args {
        cfg,
        state_dir: PathBuf::from(state_dir),
        shard,
        shards,
        attempt,
        point_delay_ms,
        chaos,
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
            eprintln!("dse-worker: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ratios = match model_ratios_on(&args.cfg.platform, args.cfg.scenario, args.cfg.seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dse-worker: deriving model ratios: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_shard(
        &args.cfg,
        args.shards,
        args.shard,
        &args.state_dir,
        &ratios,
        args.attempt,
        args.chaos.as_ref(),
        args.point_delay_ms,
    ) {
        Ok(stats) => {
            println!(
                "dse-worker: shard {} attempt {}: {} computed, {} resumed{}",
                args.shard,
                args.attempt,
                stats.computed,
                stats.resumed,
                if stats.truncated_bytes > 0 {
                    format!(", torn tail truncated ({} bytes)", stats.truncated_bytes)
                } else {
                    String::new()
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dse-worker: shard {}: {e}", args.shard);
            ExitCode::FAILURE
        }
    }
}
