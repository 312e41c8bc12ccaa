//! End-to-end determinism of the parallel experiment engine: the sweep
//! binary's CSV — the largest single batch any artefact submits — must
//! be *byte*-identical whether the engine runs with one worker or many,
//! and whether co-runs splice their contender-free tails or simulate
//! them in full.

use contention::Platform;
use contention_bench::sweep_csv;
use mbta::{figure4_panel_with, ExecEngine, Telemetry};
use std::sync::Arc;
use tc27x_sim::{DeploymentScenario, Engine};

#[test]
fn sweep_csv_is_byte_identical_across_worker_counts() {
    let single = ExecEngine::sequential();
    let multi = ExecEngine::new(4);
    let a = sweep_csv(&single, DeploymentScenario::Scenario1).unwrap();
    let b = sweep_csv(&multi, DeploymentScenario::Scenario1).unwrap();
    assert_eq!(a, b, "sweep CSV must not depend on the worker count");

    // Sanity: the CSV has a header plus one row per intensity step.
    assert_eq!(a.lines().count(), 1 + 11);
    assert!(a.starts_with("intensity_permille,"));
}

#[test]
fn sweep_batch_reuses_the_idle_contender_profile_on_rerun() {
    let engine = ExecEngine::new(2);
    sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
    let first = engine.report();
    // A second sweep over the same engine re-submits the same isolation
    // jobs; every one is a cache hit and only the (uncacheable) co-runs
    // simulate again.
    sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
    let second = engine.report();
    assert_eq!(second.cache_misses, first.cache_misses);
    assert_eq!(
        second.cache_hits,
        first.cache_hits + first.cache_misses,
        "every isolation job of the rerun must hit the cache"
    );
}

/// One platform's engines for the three ways a batch can run: spliced
/// (the default), in full on a telemetry engine, and in full on the
/// reference stepper.
fn three_ways(desc: &::platform::PlatformDesc, jobs: usize) -> [ExecEngine; 3] {
    let on = || ExecEngine::new(jobs).with_platform(desc.clone());
    [
        on(),
        on().with_telemetry(Arc::new(Telemetry::new("full"))),
        on().with_sim_engine(Engine::Tick),
    ]
}

/// The figure4 panel checked: Scenario 2's runs are the shortest of
/// the three, which keeps the reference stepper's share quick.
const FIGURE4: DeploymentScenario = DeploymentScenario::Scenario2;

/// The scenario each platform's sweep can run: the sweep builds the
/// tc27x `control_loop`, whose Scenario 1 and 2 need a second flash
/// bank `ahb2` lacks. figure4 builds its tasks for the engine's
/// platform, so its panel runs everywhere.
fn scenario_on(name: &str) -> DeploymentScenario {
    match name {
        "ahb2" => DeploymentScenario::LowTraffic,
        _ => DeploymentScenario::Scenario1,
    }
}

/// Runs one platform's sweep and figure4 panel the three ways and
/// compares their outcomes.
fn spliced_runs_match_full_runs_on(name: &str) {
    let desc = ::platform::PlatformDesc::by_name(name).unwrap();
    let platform = Platform::from_desc(&desc);
    let scenario = scenario_on(name);
    let [spliced, telemetry, tick] = three_ways(&desc, 2);
    let sweep = sweep_csv(&spliced, scenario).unwrap();
    for full in [&telemetry, &tick] {
        assert_eq!(sweep_csv(full, scenario).unwrap(), sweep, "{name}");
    }
    let observed = |engine: &ExecEngine| {
        let panel = figure4_panel_with(engine, FIGURE4, &platform, 42).unwrap();
        let cycles: Vec<u64> = panel.cells.iter().map(|c| c.observed_cycles).collect();
        (*panel.app.counters(), cycles)
    };
    let want = observed(&spliced);
    assert_eq!(observed(&telemetry), want, "{name}");
    assert_eq!(observed(&tick), want, "{name}");
    // The Scenario 1 sweeps' eleven co-runs splice. The low-traffic
    // app ends before any contender, and figure4's contenders run
    // as long as the app, so those co-runs need not.
    if scenario == DeploymentScenario::Scenario1 {
        assert!(spliced.report().tail_splices >= 11, "{name}");
    }
    for full in [&telemetry, &tick] {
        let r = full.report();
        assert_eq!((r.tail_recordings, r.tail_splices), (0, 0), "{name}");
        assert_eq!(full.cached_timelines(), 0, "{name}");
    }
}

// One test per platform, so the harness runs them side by side.
#[test]
fn spliced_sweeps_and_figure4_panels_match_full_runs_on_tc27x() {
    spliced_runs_match_full_runs_on("tc27x");
}

#[test]
fn spliced_sweeps_and_figure4_panels_match_full_runs_on_tc27x_tdma() {
    spliced_runs_match_full_runs_on("tc27x-tdma");
}

#[test]
fn spliced_sweeps_match_full_runs_on_ahb2() {
    spliced_runs_match_full_runs_on("ahb2");
}

#[test]
fn every_builtin_platform_is_covered() {
    assert_eq!(
        ::platform::PlatformDesc::names(),
        ["tc27x", "tc27x-tdma", "ahb2"]
    );
}

#[test]
fn spliced_sweeps_are_worker_count_invariant_on_every_platform() {
    for name in ::platform::PlatformDesc::names() {
        let desc = ::platform::PlatformDesc::by_name(name).unwrap();
        let [one, ..] = three_ways(&desc, 1);
        let [four, ..] = three_ways(&desc, 4);
        assert_eq!(
            sweep_csv(&one, scenario_on(name)).unwrap(),
            sweep_csv(&four, scenario_on(name)).unwrap(),
            "{name}"
        );
        assert_eq!(
            one.report().tail_splices,
            four.report().tail_splices,
            "{name}"
        );
    }
}

#[test]
fn every_golden_sc1_sweep_corun_splices_from_one_app_timeline() {
    let engine = ExecEngine::new(2);
    let csv = sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
    assert_eq!(csv, include_str!("golden/sweep_sc1.csv"));
    let r = engine.report();
    assert_eq!((r.tail_recordings, r.tail_splices), (1, 11));
    // One timeline, for the app; none for the eleven contenders.
    assert_eq!(engine.cached_timelines(), 1);
    assert_eq!(engine.cached_profiles(), 12);

    sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
    let r = engine.report();
    assert_eq!((r.tail_recordings, r.tail_splices), (1, 22), "reused");

    engine.clear_cache();
    assert_eq!(engine.cached_timelines(), 0);
}

/// A journaled sweep plans, keys, splices and replays exactly as a plain
/// one: the golden CSV, the plain engine's simulations (23) and tail
/// splices (11), and a resume of its journal simulates nothing. A
/// journaled figure4 panel runs the plain panel's simulations.
#[test]
fn journaled_sweeps_splice_like_plain_ones_and_resume_without_simulating() {
    let goldens = [
        (
            DeploymentScenario::Scenario1,
            include_str!("golden/sweep_sc1.csv"),
        ),
        (
            DeploymentScenario::Scenario2,
            include_str!("golden/sweep_sc2.csv"),
        ),
    ];
    for (scenario, golden) in goldens {
        for jobs in [1, 4] {
            let at = format!("{scenario:?} at --jobs {jobs}");
            let path = std::env::temp_dir().join(format!(
                "bench-engine-journal-{}-{scenario:?}-{jobs}",
                std::process::id()
            ));
            let plain = ExecEngine::new(jobs);
            assert_eq!(sweep_csv(&plain, scenario).unwrap(), golden, "{at}");
            let journaled = ExecEngine::new(jobs);
            journaled.journal(&path).unwrap();
            assert_eq!(sweep_csv(&journaled, scenario).unwrap(), golden, "{at}");
            let (p, j) = (plain.report(), journaled.report());
            assert_eq!((j.simulations_run, j.tail_splices), (23, 11), "{at}");
            assert_eq!(
                (j.simulations_run, j.tail_splices),
                (p.simulations_run, p.tail_splices),
                "{at}"
            );
            drop(journaled);

            let resumed = ExecEngine::new(jobs);
            resumed.resume(&path).unwrap();
            assert_eq!(sweep_csv(&resumed, scenario).unwrap(), golden, "{at}");
            assert_eq!(resumed.report().simulations_run, 0, "{at}");
            std::fs::remove_file(&path).ok();
        }
    }

    let path = std::env::temp_dir().join(format!("bench-engine-panel-{}", std::process::id()));
    let plain = ExecEngine::new(2);
    let journaled = ExecEngine::new(2);
    journaled.journal(&path).unwrap();
    let platform = Platform::from_desc(plain.platform());
    let a = figure4_panel_with(&plain, FIGURE4, &platform, 42).unwrap();
    let b = figure4_panel_with(&journaled, FIGURE4, &platform, 42).unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(
        journaled.report().simulations_run,
        plain.report().simulations_run
    );
    std::fs::remove_file(&path).ok();
}
