//! Property suite for campaign journal recovery: replay idempotence,
//! torn-trailing-record tolerance, and cross-worker-count resume
//! bit-identity — the guarantees DESIGN.md §4c promises.

use mbta::{ExecEngine, FaultPlan, JobFailure, RetryPolicy, SimJob, SimOutcome};
use std::path::PathBuf;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::{contender, control_loop, LoadLevel};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mbta-journal-prop-{}-{name}", std::process::id()));
    p
}

/// A representative campaign batch: isolation runs plus co-runs across
/// contender levels and intensities, with deliberate duplicates.
fn campaign_batch() -> Vec<SimJob> {
    let (a, b) = (CoreId(1), CoreId(2));
    let app = control_loop(DeploymentScenario::Scenario1, a, 42);
    let mut jobs = vec![SimJob::Isolation {
        spec: app.clone(),
        core: a,
    }];
    for level in LoadLevel::all() {
        let load = contender(DeploymentScenario::Scenario1, level, b, 7);
        jobs.push(SimJob::Isolation {
            spec: load.clone(),
            core: b,
        });
        jobs.push(SimJob::Corun {
            app: app.clone(),
            app_core: a,
            load,
            load_core: b,
        });
    }
    for seed in [250, 750] {
        let load = contender(DeploymentScenario::Scenario1, LoadLevel::Medium, b, seed);
        jobs.push(SimJob::Corun {
            app: app.clone(),
            app_core: a,
            load,
            load_core: b,
        });
    }
    // Duplicate of the first job: exercises in-batch deduplication.
    jobs.push(SimJob::Isolation { spec: app, core: a });
    jobs
}

fn values(results: &[Result<SimOutcome, JobFailure>]) -> Vec<u64> {
    results
        .iter()
        .map(|r| match r.as_ref().unwrap() {
            SimOutcome::Isolation(p) => p.counters().ccnt,
            SimOutcome::Corun(c) => *c,
        })
        .collect()
}

/// Replay idempotence: resuming a finished journal N times, at varying
/// worker counts, always reproduces the original outcomes without a
/// single re-simulation.
#[test]
fn replayed_campaigns_are_idempotent_across_worker_counts() {
    let path = tmp("idempotent");
    let reference = {
        let engine = ExecEngine::new(4);
        engine.journal(&path).unwrap();
        values(&engine.run_batch_detailed(&campaign_batch()))
    };
    // A journal written at --jobs 4 resumes bit-identically at --jobs 1
    // (and any other worker count) — repeatedly.
    for jobs in [1, 2, 4, 1] {
        let engine = ExecEngine::new(jobs);
        let report = engine.resume(&path).unwrap();
        assert_eq!(report.truncated_bytes, 0, "jobs = {jobs}");
        let got = values(&engine.run_batch_detailed(&campaign_batch()));
        assert_eq!(got, reference, "jobs = {jobs}");
        assert_eq!(
            engine.report().simulations_run,
            0,
            "jobs = {jobs}: replay must not re-simulate"
        );
        assert_eq!(engine.report().simulations_run, 0, "jobs = {jobs}");
    }
    std::fs::remove_file(&path).ok();
}

/// Torn-write tolerance: for EVERY truncation point inside the final
/// record, resume recovers all preceding records, re-executes only the
/// torn one, and ends byte-identical to the uninterrupted run.
#[test]
fn every_torn_trailing_truncation_point_recovers() {
    let complete = tmp("torn-complete");
    let jobs = campaign_batch();
    let reference = {
        let engine = ExecEngine::new(2);
        engine.journal(&complete).unwrap();
        values(&engine.run_batch_detailed(&jobs))
    };
    let full = std::fs::read(&complete).unwrap();
    let last_line_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap();

    // Cut at several points inside the final record, including "just
    // the newline missing" and "only one byte of the record on disk".
    let torn = tmp("torn-cut");
    for cut in [
        full.len() - 1,
        full.len() - 7,
        last_line_start + 17,
        last_line_start + 1,
    ] {
        std::fs::write(&torn, &full[..cut]).unwrap();
        let engine = ExecEngine::new(2);
        let report = engine.resume(&torn).unwrap();
        assert!(
            report.truncated_bytes > 0,
            "cut at {cut}: the tear must be reported, never silent"
        );
        let got = values(&engine.run_batch_detailed(&jobs));
        assert_eq!(got, reference, "cut at {cut}");
        assert!(engine.manifest().is_complete(), "cut at {cut}");
        // Only the torn job (plus nothing else) was re-executed.
        assert_eq!(engine.report().simulations_run, 1, "cut at {cut}");
    }
    std::fs::remove_file(&complete).ok();
    std::fs::remove_file(&torn).ok();
}

/// The resumed journal file itself converges: after recovery and
/// re-execution it replays fully, so a second crash loses nothing.
#[test]
fn recovered_journal_is_again_fully_replayable() {
    let path = tmp("converge");
    let jobs = campaign_batch();
    {
        let engine = ExecEngine::new(2);
        engine.journal(&path).unwrap();
        engine.run_batch_detailed(&jobs);
    }
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 11]).unwrap();
    let reference = {
        let engine = ExecEngine::new(2);
        engine.resume(&path).unwrap();
        values(&engine.run_batch_detailed(&jobs))
    };
    // Second resume: everything now comes from disk.
    let engine = ExecEngine::new(2);
    let report = engine.resume(&path).unwrap();
    assert_eq!(report.truncated_bytes, 0);
    let got = values(&engine.run_batch_detailed(&jobs));
    assert_eq!(got, reference);
    assert_eq!(engine.report().simulations_run, 0);
    std::fs::remove_file(&path).ok();
}

/// A faulted, retried campaign journals its way to the same final
/// outcomes an uninterrupted faulted campaign produces, and resume
/// replays the retried successes.
#[test]
fn faulted_campaign_resume_matches_uninterrupted_run() {
    let faulted = |jobs: usize| {
        ExecEngine::new(jobs)
            .with_retry(RetryPolicy { max_attempts: 4 })
            .with_fault_plan(Some(FaultPlan {
                rate_permille: 400,
                seed: 11,
            }))
    };
    let jobs = campaign_batch();
    let reference = {
        let engine = faulted(2);
        let results = engine.run_batch_detailed(&jobs);
        assert!(engine.report().injected_faults > 0, "plan never fired");
        assert!(results.iter().all(Result::is_ok), "seed 11 must recover");
        values(&results)
    };
    let path = tmp("faulted");
    {
        let engine = faulted(4);
        engine.journal(&path).unwrap();
        assert_eq!(values(&engine.run_batch_detailed(&jobs)), reference);
    }
    let engine = faulted(1);
    engine.resume(&path).unwrap();
    let got = values(&engine.run_batch_detailed(&jobs));
    assert_eq!(got, reference);
    assert_eq!(
        engine.report().simulations_run,
        0,
        "retried successes replay"
    );
    std::fs::remove_file(&path).ok();
}

/// Interior corruption — a flipped bit before the final record — is
/// refused outright, never silently skipped.
#[test]
fn interior_corruption_refuses_to_resume() {
    let path = tmp("interior");
    {
        let engine = ExecEngine::new(1);
        engine.journal(&path).unwrap();
        engine.run_batch_detailed(&campaign_batch());
    }
    let mut bytes = std::fs::read(&path).unwrap();
    let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 25;
    bytes[second_line] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let engine = ExecEngine::new(1);
    let err = engine.resume(&path).unwrap_err();
    assert!(
        matches!(err, mbta::JournalError::Corrupt { line: 2, .. }),
        "expected Corrupt, got {err}"
    );
    std::fs::remove_file(&path).ok();
}
