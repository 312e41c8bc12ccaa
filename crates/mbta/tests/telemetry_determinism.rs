//! The telemetry determinism contract, end to end: for a seeded batch
//! of simulation jobs, the deterministic subset of the rendered JSONL
//! stream is **byte-identical** across worker counts and across the two
//! timing kernels. Only the `det:false` records (kernel statistics,
//! profile) may differ.

use mbta::{ExecEngine, Format, SimJob, Telemetry};
use std::sync::Arc;
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{CoreId, DeploymentScenario, Engine};
use workloads::{contender_on, control_loop_on, LoadLevel};

/// A seeded mixed batch: isolations and co-runs across both deployment
/// scenarios, with duplicates so the memo cache participates.
fn seeded_batch(seed: u64, len: usize) -> Vec<SimJob> {
    let mut rng = SplitMix64::new(seed);
    let scenarios = [DeploymentScenario::Scenario1, DeploymentScenario::Scenario2];
    let levels = LoadLevel::all();
    let mut batch = Vec::with_capacity(len);
    for _ in 0..len {
        let scenario = scenarios[rng.below(2) as usize];
        let level = levels[rng.below(levels.len() as u64) as usize];
        let task_seed = rng.below(4); // small range => in-batch duplicates
        if rng.flip() {
            batch.push(SimJob::Isolation {
                spec: contender_on(
                    platform::default_platform(),
                    scenario,
                    level,
                    CoreId(2),
                    task_seed,
                ),
                core: CoreId(2),
            });
        } else {
            batch.push(SimJob::Corun {
                app: control_loop_on(platform::default_platform(), scenario, CoreId(1), 42),
                app_core: CoreId(1),
                load: contender_on(
                    platform::default_platform(),
                    scenario,
                    level,
                    CoreId(2),
                    task_seed,
                ),
                load_core: CoreId(2),
            });
        }
    }
    batch
}

/// Runs the batch on a fresh instrumented engine and returns the full
/// JSONL rendering (engine report folded in, as the binaries do).
fn run_instrumented(batch: &[SimJob], jobs: usize, sim_engine: Engine) -> String {
    let telemetry = Arc::new(Telemetry::new("determinism-test"));
    let engine = ExecEngine::new(jobs)
        .with_sim_engine(sim_engine)
        .with_telemetry(Arc::clone(&telemetry));
    let outcomes = engine.run_batch_detailed(batch);
    assert!(outcomes.iter().all(Result::is_ok), "seeded batch must run");
    telemetry.record_engine(&engine.report());
    telemetry.render(Format::Jsonl)
}

/// The deterministic subset: every record that claims `"det":true`.
fn det_lines(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines().filter(|l| l.contains("\"det\":true")) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn det_stream_is_byte_identical_across_worker_counts() {
    let batch = seeded_batch(0x5eed_1001, 14);
    let reference = run_instrumented(&batch, 1, Engine::Tick);
    for jobs in [2, 4] {
        let got = run_instrumented(&batch, jobs, Engine::Tick);
        assert_eq!(
            det_lines(&reference),
            det_lines(&got),
            "det subset diverged at --jobs {jobs}"
        );
    }
    // Sanity: the deterministic subset is substantial, not vacuous.
    let det = det_lines(&reference);
    assert!(det.contains("\"k\":\"span\""), "spans present: {det}");
    assert!(det.contains("sri."), "SRI metrics present");
    assert!(det.contains("exec.jobs_recorded"), "exec counters present");
}

#[test]
fn det_stream_is_byte_identical_across_timing_kernels() {
    let batch = seeded_batch(0x5eed_2002, 10);
    let tick = run_instrumented(&batch, 2, Engine::Tick);
    let event = run_instrumented(&batch, 2, Engine::Event);
    assert_eq!(
        det_lines(&tick),
        det_lines(&event),
        "det subset diverged between tick and event kernels"
    );
    // The event kernel leaves its mark only in non-deterministic
    // records (fast-forward statistics), which the tick kernel lacks.
    assert!(event.contains("kernel.ff_jumps"));
}

/// Runs the batch with attribution recording on and returns the folded
/// attribution matrix alongside the rendered JSONL stream.
fn run_attributed(
    batch: &[SimJob],
    jobs: usize,
    sim_engine: Engine,
) -> (tc27x_sim::AttributionMatrix, String) {
    let telemetry = Arc::new(Telemetry::new("attribution-test"));
    let engine = ExecEngine::new(jobs)
        .with_sim_engine(sim_engine)
        .with_attribution(true)
        .with_telemetry(Arc::clone(&telemetry));
    let outcomes = engine.run_batch_detailed(batch);
    assert!(outcomes.iter().all(Result::is_ok), "seeded batch must run");
    (telemetry.attribution(), telemetry.render(Format::Jsonl))
}

#[test]
fn attribution_matrix_is_identical_across_workers_and_kernels() {
    let batch = seeded_batch(0x5eed_4004, 12);
    let (reference, jsonl) = run_attributed(&batch, 1, Engine::Tick);
    assert!(
        !reference.is_zero(),
        "seeded co-run batch must record contention"
    );
    assert!(
        jsonl.contains("\"k\":\"matrix\"") && jsonl.contains("attribution.wait"),
        "matrix records present in the stream: {jsonl}"
    );
    for (jobs, kernel) in [(4, Engine::Tick), (1, Engine::Event), (4, Engine::Event)] {
        let (got, _) = run_attributed(&batch, jobs, kernel);
        assert_eq!(
            reference, got,
            "attribution diverged at --jobs {jobs} on {kernel:?}"
        );
    }
}

#[test]
fn attribution_off_records_nothing_and_changes_nothing() {
    let batch = seeded_batch(0x5eed_5005, 8);
    // Same stream name as `run_attributed`, so the two det subsets can
    // only differ in actual records, not in the meta line.
    let telemetry = Arc::new(Telemetry::new("attribution-test"));
    let engine = ExecEngine::new(2).with_telemetry(Arc::clone(&telemetry));
    let outcomes = engine.run_batch_detailed(&batch);
    assert!(outcomes.iter().all(Result::is_ok));
    assert!(telemetry.attribution().is_zero(), "off means zero matrices");
    let jsonl = telemetry.render(Format::Jsonl);
    assert!(
        !jsonl.contains("\"k\":\"matrix\""),
        "no matrix records when attribution is off"
    );
    // Observation-only: the attributed engine's det stream is the bare
    // engine's det stream plus the matrix records, nothing else moves.
    let (_, attributed) = run_attributed(&batch, 2, Engine::Tick);
    let without_matrices: String = det_lines(&attributed)
        .lines()
        .filter(|l| !l.contains("\"k\":\"matrix\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(det_lines(&jsonl), without_matrices);
}

#[test]
fn profile_record_is_the_only_home_for_worker_count() {
    let batch = seeded_batch(0x5eed_3003, 6);
    let jsonl = run_instrumented(&batch, 3, Engine::Event);
    let mut saw_profile = false;
    for line in jsonl.lines() {
        if line.contains("\"k\":\"profile\"") {
            saw_profile = true;
            assert!(line.contains("\"det\":false"), "profile must be nondet");
            assert!(line.contains("\"jobs\":3"), "profile carries jobs: {line}");
        } else {
            assert!(
                !line.contains("wall_seconds"),
                "wall clock outside profile: {line}"
            );
        }
    }
    assert!(saw_profile, "profile record missing:\n{jsonl}");
}
