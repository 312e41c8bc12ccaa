//! `serve-chaos` — throws a seeded fault plan at a live daemon.
//!
//! ```text
//! serve-chaos --addr unix:/path|tcp:host:port [--seed N] [--ops N]
//!             [--timeout-ms N] [--oracle-jobs N]
//! ```
//!
//! The plan is a pure function of `--seed`; a CI failure replays with
//! the same number. Before running, every semantically distinct
//! well-formed request in the plan is answered *locally* by an
//! in-process [`serve::QueryEngine`] — that oracle is what makes the
//! "never a wrong bound" assertion byte-exact. Exits non-zero when the
//! daemon wedged, answered wrongly, or diverged on duplicates.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mbta::args::{reject_rest, take_parsed, take_positive, take_value};
use mbta::ExecEngine;
use serve::chaos::{self, ChaosConfig};
use serve::client::Addr;
use serve::query::QueryOptions;
use serve::QueryEngine;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

fn run() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let addr = Addr::parse(&take_value(&mut args, "--addr")?.ok_or("--addr is required")?);
    let config = ChaosConfig {
        seed: take_parsed(&mut args, "--seed")?.unwrap_or(42),
        ops: take_parsed(&mut args, "--ops")?.unwrap_or(40),
        read_timeout: Duration::from_millis(
            take_parsed(&mut args, "--timeout-ms")?
                .unwrap_or(30_000u64)
                .max(1),
        ),
    };
    let oracle_jobs = take_positive(&mut args, "--oracle-jobs")?.unwrap_or(2);
    reject_rest(&args)?;

    let ops = chaos::plan(&config);
    let pool = chaos::semantic_pool(&ops);
    eprintln!(
        "serve-chaos: seed {} — {} op(s), {} distinct semantic request(s) to oracle",
        config.seed,
        ops.len(),
        pool.len()
    );

    // The oracle: compute every expected body locally. Must use the
    // same defaults as the daemon under test (no --default-budget).
    let engine = ExecEngine::new(oracle_jobs);
    let qe = QueryEngine::new(&engine, QueryOptions::default());
    let mut oracle = BTreeMap::new();
    for req in &pool {
        if let Ok(answer) = qe.answer(req) {
            oracle.insert(req.fingerprint(), answer.body);
        }
    }

    let report = chaos::run(&addr, &config, &ops, &oracle);
    println!(
        "serve-chaos: seed {} ops {} — valid_ok {} wrong {} garbage_rejected {} \
         overloaded {} dup_identical {} dup_diverged {} faults {} transport_errors {} wedged {}",
        config.seed,
        report.ops,
        report.valid_ok,
        report.wrong_answers,
        report.garbage_rejected,
        report.overloaded_seen,
        report.duplicates_identical,
        report.duplicates_diverged,
        report.faults_injected,
        report.transport_errors,
        report.wedged,
    );
    Ok(report.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("serve-chaos: FAILED — daemon wedged, answered wrongly or diverged");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("serve-chaos: {e}");
            ExitCode::FAILURE
        }
    }
}
