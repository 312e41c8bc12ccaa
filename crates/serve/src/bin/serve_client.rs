//! `serve-client` — drives a batch of requests against the daemon.
//!
//! ```text
//! serve-client --addr unix:/path|tcp:host:port --batch FILE.jsonl
//!              [--limit N] [--out FILE] [--timeout-ms N]
//! ```
//!
//! The batch file holds one JSON request per line. All requests are
//! sent pipelined over one connection; responses are re-ordered to
//! batch order (matched by `id`) and written one per line, so the
//! output file is byte-comparable across runs regardless of worker
//! scheduling. `--limit N` sends only the first N lines — the CI
//! crash-recovery stage uses it to stop a batch halfway before the
//! daemon is killed.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mbta::args::{reject_rest, take_parsed, take_value};
use serve::client::{Addr, Client};
use serve::Request;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let addr = Addr::parse(&take_value(&mut args, "--addr")?.ok_or("--addr is required")?);
    let batch_path = take_value(&mut args, "--batch")?.ok_or("--batch FILE is required")?;
    let limit: Option<usize> = take_parsed(&mut args, "--limit")?;
    let out_path = take_value(&mut args, "--out")?;
    let timeout_ms: u64 = take_parsed(&mut args, "--timeout-ms")?.unwrap_or(60_000);
    reject_rest(&args)?;

    let text = std::fs::read_to_string(&batch_path)
        .map_err(|e| format!("cannot read {batch_path}: {e}"))?;
    let mut requests = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let req = Request::parse(line.as_bytes())
            .map_err(|e| format!("{batch_path}:{}: {e}", lineno + 1))?;
        requests.push(req);
    }
    if let Some(n) = limit {
        requests.truncate(n);
    }

    let mut client = Client::connect(&addr, Duration::from_millis(timeout_ms.max(1)))
        .map_err(|e| format!("cannot connect: {e}"))?;
    for req in &requests {
        client
            .send(req)
            .map_err(|e| format!("send failed for `{}`: {e}", req.id))?;
    }

    // Collect one response per request, then restore batch order by
    // id (a repeated id keeps arrival order within that id).
    let mut by_id: BTreeMap<String, std::collections::VecDeque<String>> = BTreeMap::new();
    for _ in 0..requests.len() {
        let resp = client
            .recv()
            .map_err(|e| format!("receive failed: {e}"))?
            .ok_or("server closed the stream before all responses arrived")?;
        let id = obs::json::parse(&resp)
            .ok()
            .and_then(|d| d.get("id").and_then(|v| v.as_str().map(String::from)))
            .unwrap_or_else(|| "-".to_string());
        by_id.entry(id).or_default().push_back(resp);
    }
    let mut lines = Vec::with_capacity(requests.len());
    for req in &requests {
        let resp = by_id
            .get_mut(&req.id)
            .and_then(std::collections::VecDeque::pop_front)
            .ok_or_else(|| format!("no response for id `{}`", req.id))?;
        lines.push(resp);
    }

    let mut rendered = lines.join("\n");
    rendered.push('\n');
    match out_path {
        Some(path) => {
            std::fs::write(&path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            lock.write_all(rendered.as_bytes())
                .map_err(|e| format!("cannot write stdout: {e}"))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve-client: {e}");
            ExitCode::FAILURE
        }
    }
}
