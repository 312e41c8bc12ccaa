//! Journal I/O error paths, driven through a fallible [`RecordSink`]
//! shim.
//!
//! PR-3 specified the journal's *corruption* behaviour (torn tails,
//! bad CRCs); these tests pin down its *I/O failure* behaviour: a disk
//! that fills or a file handle that dies mid-campaign must surface as
//! a counted warning (lenient mode) or a clean
//! [`JobFailure::Transient`] (strict mode) — never a panic, and never
//! a silently dropped record.

use mbta::store::CAMPAIGN_NAMESPACE;
use mbta::{ExecEngine, JobFailure, RecordSink, SimJob, Store, Telemetry};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tc27x_sim::{CoreId, DeploymentScenario};

/// A sink that forwards to an in-memory buffer until its write budget
/// is exhausted, then fails every call — the shape of a disk filling
/// up mid-campaign.
struct FallibleSink {
    written: Vec<u8>,
    budget: u64,
    writes: Arc<AtomicU64>,
    fail_sync: bool,
}

impl FallibleSink {
    fn new(budget: u64, writes: Arc<AtomicU64>, fail_sync: bool) -> FallibleSink {
        FallibleSink {
            written: Vec::new(),
            budget,
            writes,
            fail_sync,
        }
    }
}

impl RecordSink for FallibleSink {
    fn write_record(&mut self, bytes: &[u8]) -> io::Result<()> {
        let n = self.writes.fetch_add(1, Ordering::SeqCst);
        if n >= self.budget {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated full disk",
            ));
        }
        self.written.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.fail_sync {
            Err(io::Error::other("simulated fsync failure"))
        } else {
            Ok(())
        }
    }
}

fn batch() -> Vec<SimJob> {
    [
        tc27x_sim::DeploymentScenario::Scenario1,
        DeploymentScenario::Scenario2,
        DeploymentScenario::LowTraffic,
    ]
    .into_iter()
    .map(|scenario| SimJob::Isolation {
        spec: workloads::control_loop(scenario, CoreId(1), 42),
        core: CoreId(1),
    })
    .collect()
}

/// Journal whose sink accepts `budget` record writes (the header is
/// written before the budget applies — `with_sink` would fail
/// otherwise, which is exactly the clean-surface behaviour we want on
/// a dead-at-open handle).
fn fallible_journal(budget: u64, writes: &Arc<AtomicU64>, fail_sync: bool) -> Store {
    // Budget +1: the header consumes the first write.
    let sink = Box::new(FallibleSink::new(budget + 1, Arc::clone(writes), fail_sync));
    Store::with_sink("fallible.journal", sink, CAMPAIGN_NAMESPACE, 0xfeed)
        .expect("header write within budget")
}

#[test]
fn dead_handle_at_open_is_a_clean_error_not_a_panic() {
    let writes = Arc::new(AtomicU64::new(0));
    let sink = Box::new(FallibleSink::new(0, Arc::clone(&writes), false));
    let result = Store::with_sink("dead.journal", sink, CAMPAIGN_NAMESPACE, 0xfeed);
    assert!(result.is_err(), "header write must fail cleanly");
}

#[test]
fn lenient_mode_counts_errors_warns_once_and_keeps_results() {
    let telemetry = Arc::new(Telemetry::new("journal-errors-lenient"));
    let runner = ExecEngine::new(1)
        .with_telemetry(Arc::clone(&telemetry))
        .with_journal_strict(false);
    let writes = Arc::new(AtomicU64::new(0));
    // First record append succeeds, everything after fails.
    runner.attach_store(fallible_journal(1, &writes, false));

    let results = runner.run_batch_detailed(&batch());
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(r.is_ok(), "lenient mode must not fail jobs: {r:?}");
    }
    let stats = runner.report();
    assert_eq!(
        stats.journal_errors, 2,
        "both post-budget appends must be counted"
    );
    // Deduplicated: one warning code, count = number of failures.
    let warnings = telemetry.warnings();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(warnings[0].code, "journal.append_failed");
    assert_eq!(warnings[0].count, 2);
    assert!(warnings[0].message.contains("simulated full disk"));
}

#[test]
fn strict_mode_surfaces_transient_failures_instead_of_dropping() {
    let runner = ExecEngine::new(1).with_journal_strict(true);
    let writes = Arc::new(AtomicU64::new(0));
    runner.attach_store(fallible_journal(1, &writes, false));

    let results = runner.run_batch_detailed(&batch());
    assert_eq!(results.len(), 3);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let transient = results
        .iter()
        .filter(|r| matches!(r, Err(JobFailure::Transient { .. })))
        .count();
    assert_eq!(ok, 1, "the journaled job must succeed");
    assert_eq!(
        transient, 2,
        "unjournaled jobs must surface as clean Transient failures: {results:?}"
    );
    if let Some(Err(JobFailure::Transient { detail })) = results.iter().find(|r| r.is_err()) {
        assert!(detail.contains("journal append failed"), "{detail}");
    }
    // The manifest must list them as unrecovered, not pretend success.
    let manifest = runner.manifest();
    assert!(!manifest.is_complete());
    assert_eq!(manifest.unrecovered.len(), 2);
}

#[test]
fn fsync_failure_is_caught_like_a_write_failure() {
    let writes = Arc::new(AtomicU64::new(0));
    // Writes always succeed; sync always fails. The header sync fails
    // too, so construction itself must already surface it.
    let sink = Box::new(FallibleSink::new(u64::MAX, Arc::clone(&writes), true));
    assert!(
        Store::with_sink("nosync.journal", sink, CAMPAIGN_NAMESPACE, 0xfeed).is_err(),
        "a failing fsync must not be swallowed at open"
    );
}
