//! `contention-serve` — the crash-tolerant bound-query daemon.
//!
//! ```text
//! contention-serve --state DIR [--unix PATH] [--tcp ADDR]
//!                  [--jobs N] [--workers N] [--queue-cap N]
//!                  [--global-queue-cap N] [--retry-after-ms N]
//!                  [--io-timeout-ms N] [--default-budget N]
//!                  [--telemetry FILE[:FORMAT]] [--platform NAME]
//! ```
//!
//! At least one of `--unix` / `--tcp` is required. The daemon replays
//! its stores from `--state` on startup, logs what it recovered, and
//! runs until a `shutdown` request (or the process is killed — which
//! is the point: restart and replay).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mbta::args::{reject_rest, take_jobs, take_parsed, take_platform, take_value};
use mbta::{ExecEngine, SinkSpec, Telemetry};
use serve::query::QueryOptions;
use serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    config: ServerConfig,
    jobs: usize,
    telemetry: Option<SinkSpec>,
    platform: platform::PlatformDesc,
}

fn parse(mut args: Vec<String>) -> Result<Args, String> {
    let mut config = ServerConfig {
        state_dir: take_value(&mut args, "--state")?
            .map(PathBuf::from)
            .ok_or("--state DIR is required")?,
        unix_socket: take_value(&mut args, "--unix")?.map(PathBuf::from),
        tcp_addr: take_value(&mut args, "--tcp")?,
        ..ServerConfig::default()
    };
    if config.unix_socket.is_none() && config.tcp_addr.is_none() {
        return Err("at least one of --unix / --tcp is required".to_string());
    }
    if let Some(n) = take_parsed(&mut args, "--workers")? {
        config.workers = n;
    }
    if let Some(n) = take_parsed(&mut args, "--queue-cap")? {
        config.queue_cap = n;
    }
    if let Some(n) = take_parsed(&mut args, "--global-queue-cap")? {
        config.global_queue_cap = n;
    }
    if let Some(n) = take_parsed(&mut args, "--retry-after-ms")? {
        config.retry_after_ms = n;
    }
    if let Some(n) = take_parsed(&mut args, "--io-timeout-ms")? {
        config.io_timeout_ms = n;
    }
    config.query = QueryOptions {
        default_budget: take_parsed(&mut args, "--default-budget")?,
    };
    let jobs = take_jobs(&mut args, 2)?;
    let telemetry = take_parsed(&mut args, "--telemetry")?;
    // The platform flag changes the *results* the daemon serves, and
    // the store fingerprint tracks it: a state dir written for one
    // machine model is never replayed for another.
    let platform = take_platform(&mut args)?;
    reject_rest(&args)?;
    Ok(Args {
        config,
        jobs,
        telemetry,
        platform,
    })
}

fn run() -> Result<(), String> {
    let args = parse(std::env::args().skip(1).collect())?;
    let telemetry = args
        .telemetry
        .as_ref()
        .map(|_| Arc::new(Telemetry::new("contention-serve")));
    let mut engine = ExecEngine::new(args.jobs).with_platform(args.platform.clone());
    if let Some(t) = &telemetry {
        engine = engine.with_telemetry(Arc::clone(t));
    }
    let engine = Arc::new(engine);
    let server = Server::start(Arc::clone(&engine), args.config.clone())
        .map_err(|e| format!("cannot start daemon: {e}"))?;
    let rec = server.recovery();
    println!(
        "contention-serve: listening (unix={:?} tcp={:?}); recovered {} response(s), {} profile(s), {} torn byte(s) truncated",
        args.config.unix_socket,
        server.tcp_addr(),
        rec.responses,
        rec.profiles,
        rec.truncated_bytes,
    );
    server.wait();
    println!("contention-serve: shut down cleanly");
    if let (Some(t), Some(spec)) = (telemetry.as_deref(), args.telemetry.as_ref()) {
        t.record_engine(&engine.report());
        t.flush(spec)
            .map_err(|e| format!("cannot write telemetry to {}: {e}", spec.path))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("contention-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
