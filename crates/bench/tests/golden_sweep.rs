//! Golden regression for the ILP-PTAC evaluation output: with the
//! default solve budget the sweep CSV must stay byte-identical to the
//! captured pre-refactor run, at any worker count. This pins down that
//! neither the validation pass, the budget plumbing nor the engine
//! hardening changed a single emitted digit.

use contention_bench::{sweep_csv, sweep_fallback_report};
use mbta::ExecEngine;
use tc27x_sim::DeploymentScenario;

const GOLDEN: &str = include_str!("golden/sweep_sc1.csv");
const GOLDEN_SC2: &str = include_str!("golden/sweep_sc2.csv");
const GOLDEN_SC2_TDMA: &str = include_str!("golden/sweep_sc2_tdma.csv");
const GOLDEN_LOW_AHB2: &str = include_str!("golden/sweep_low_ahb2.csv");
const GOLDEN_SC1_AHB2: &str = include_str!("golden/sweep_sc1_ahb2.csv");
const GOLDEN_SC2_AHB2: &str = include_str!("golden/sweep_sc2_ahb2.csv");

#[test]
fn sweep_csv_matches_golden_capture_at_jobs_1_and_4() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs);
        let csv = sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
        assert_eq!(
            csv, GOLDEN,
            "sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

#[test]
fn scenario2_sweep_csv_matches_golden_capture() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs);
        let csv = sweep_csv(&engine, DeploymentScenario::Scenario2).unwrap();
        assert_eq!(
            csv, GOLDEN_SC2,
            "Scenario 2 sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

/// The non-default platforms have golden captures of their own: the
/// TDMA TC27x variant on the Scenario 2 mix and the dual-core AHB
/// machine on every mix. Worker-count invariance must hold on these
/// platforms exactly as on the default.
#[test]
fn tdma_platform_sweep_matches_its_golden_capture() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs).with_platform(platform::PlatformDesc::tc27x_tdma());
        let csv = sweep_csv(&engine, DeploymentScenario::Scenario2).unwrap();
        assert_eq!(
            csv, GOLDEN_SC2_TDMA,
            "tc27x-tdma sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

#[test]
fn ahb2_platform_sweep_matches_its_golden_capture() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs).with_platform(platform::PlatformDesc::ahb2());
        let csv = sweep_csv(&engine, DeploymentScenario::LowTraffic).unwrap();
        assert_eq!(
            csv, GOLDEN_LOW_AHB2,
            "ahb2 sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

/// The paper's two scenarios on ahb2: both flash banks of the app and
/// contender fold onto its one flash slave.
#[test]
fn ahb2_scenario_sweeps_match_their_golden_captures() {
    for (scenario, golden) in [
        (DeploymentScenario::Scenario1, GOLDEN_SC1_AHB2),
        (DeploymentScenario::Scenario2, GOLDEN_SC2_AHB2),
    ] {
        for jobs in [1usize, 4] {
            let engine = ExecEngine::new(jobs).with_platform(platform::PlatformDesc::ahb2());
            let csv = sweep_csv(&engine, scenario).unwrap();
            assert_eq!(
                csv, golden,
                "ahb2 {scenario} sweep CSV diverged from the golden capture at --jobs {jobs}"
            );
        }
    }
}

/// The crash-safety machinery must be invisible in the output: a
/// journaled Scenario 2 sweep, and a resume of that journal on a fresh
/// single-worker engine, both reproduce the golden capture byte for
/// byte.
#[test]
fn journaled_and_resumed_sweeps_match_the_golden_capture() {
    let mut path = std::env::temp_dir();
    path.push(format!("bench-golden-journal-{}", std::process::id()));
    {
        let campaign = ExecEngine::new(4);
        campaign.journal(&path).unwrap();
        let csv = sweep_csv(&campaign, DeploymentScenario::Scenario2).unwrap();
        assert_eq!(csv, GOLDEN_SC2, "journaled sweep diverged from golden");
    }
    let engine = ExecEngine::new(1);
    let report = engine.resume(&path).unwrap();
    assert_eq!(report.truncated_bytes, 0);
    let csv = sweep_csv(&engine, DeploymentScenario::Scenario2).unwrap();
    assert_eq!(csv, GOLDEN_SC2, "resumed sweep diverged from golden");
    assert_eq!(
        engine.report().simulations_run,
        0,
        "resume must replay, not re-simulate"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn default_budget_never_falls_back_budget_one_always_does() {
    let engine = ExecEngine::new(2);
    // Warm the memo cache so both reports replay cached profiles.
    sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();

    let exact = sweep_fallback_report(&engine, DeploymentScenario::Scenario1, None, None).unwrap();
    assert_eq!(exact.ftc, 0, "default budget must solve every pair exactly");
    assert_eq!(exact.ilp, 11);
    assert_eq!(exact.rate(), 0.0);

    // A starved budget degrades every pair — and with a recorder
    // attached, the solves and the fallback warning are recorded.
    let telemetry = mbta::Telemetry::new("golden-fallback");
    let starved = sweep_fallback_report(
        &engine,
        DeploymentScenario::Scenario1,
        Some(1),
        Some(&telemetry),
    )
    .unwrap();
    assert_eq!(
        starved.ilp, 0,
        "a node budget of 1 must always degrade to fTC"
    );
    assert_eq!(starved.ftc, 11);
    assert_eq!(starved.rate(), 1.0);
    assert_eq!(telemetry.det_counter("ilp.solves"), 11);
    assert_eq!(telemetry.det_counter("ilp.fallback_ftc"), 11);
    assert_eq!(telemetry.warning_count(), 1, "fallback warning recorded");
}
