//! End-to-end integration: calibration → platform tables → isolation
//! profiling → models → co-run validation, across all crates.

use aurix_contention::prelude::*;

#[test]
fn calibrated_platform_reproduces_reference_tables() {
    let cal = mbta::calibrate(&mbta::ExecEngine::sequential()).expect("calibration campaign");
    let reference = Platform::tc277_reference();
    for (t, o, v) in reference.stall_table().iter() {
        if reference.paths().is_feasible(t, o) {
            assert_eq!(cal.stall.get(t, o), v, "cs^{{{t},{o}}}");
        }
    }
    for (t, o, v) in reference.latency_table().iter() {
        if reference.paths().is_feasible(t, o) {
            assert_eq!(cal.latency.get(t, o), v, "l^{{{t},{o}}}");
        }
    }
    assert_eq!(cal.lmu_dirty_latency, reference.lmu_dirty_latency());
}

#[test]
fn full_pipeline_with_calibrated_tables() {
    // Use the *calibrated* platform end to end, not the reference one:
    // this is exactly the paper's deployment story.
    let platform = mbta::calibrate(&mbta::ExecEngine::sequential())
        .expect("calibration")
        .into_platform();
    let panel = mbta::figure4_panel(
        &mbta::ExecEngine::sequential(),
        DeploymentScenario::Scenario1,
        &platform,
        42,
    )
    .expect("figure 4 panel");
    assert!(panel.all_bounds_sound());
    // fTC stays load-invariant, ILP adapts.
    assert_eq!(
        panel.cells[0].ftc.bound_cycles(),
        panel.cells[2].ftc.bound_cycles()
    );
    assert!(panel.cells[0].ilp.bound_cycles() < panel.cells[2].ilp.bound_cycles());
}

#[test]
fn wcet_estimates_scale_with_isolation_time() {
    let engine = mbta::ExecEngine::sequential();
    let platform = Platform::tc277_reference();
    let app_spec = workloads::control_loop_on(
        engine.platform(),
        DeploymentScenario::Scenario1,
        CoreId(1),
        42,
    );
    let load_spec = workloads::contender_on(
        engine.platform(),
        DeploymentScenario::Scenario1,
        LoadLevel::High,
        CoreId(2),
        7,
    );
    let app = engine.isolation(&app_spec, CoreId(1)).unwrap();
    let load = engine.isolation(&load_spec, CoreId(2)).unwrap();
    let model = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());
    let est = model.wcet_estimate(&app, &[&load]).unwrap();
    assert_eq!(est.isolation_cycles, app.counters().ccnt);
    assert_eq!(
        est.bound_cycles(),
        est.isolation_cycles + est.contention_cycles
    );
}

#[test]
fn hwm_campaign_feeds_models_conservatively() {
    let engine = mbta::ExecEngine::sequential();
    let platform = Platform::tc277_reference();
    let spec = workloads::control_loop_on(
        engine.platform(),
        DeploymentScenario::Scenario1,
        CoreId(1),
        3,
    );
    let hwm = mbta::hwm_campaign(&engine, &spec, CoreId(1), 3).unwrap();
    let single = engine.isolation(&spec, CoreId(1)).unwrap();
    // Envelope counters dominate the single-run profile, so the fTC
    // bound from the campaign dominates the single-run bound.
    let load = engine
        .isolation(
            &workloads::contender_on(
                engine.platform(),
                DeploymentScenario::Scenario1,
                LoadLevel::Low,
                CoreId(2),
                7,
            ),
            CoreId(2),
        )
        .unwrap();
    let ftc = FtcModel::new(&platform);
    let from_hwm = ftc.contention_bound(&hwm.profile, &[&load]).unwrap();
    let from_single = ftc.contention_bound(&single, &[&load]).unwrap();
    assert!(from_hwm.delta_cycles >= from_single.delta_cycles);
}

#[test]
fn table6_counter_identities() {
    // Scenario 1: P$_MISS equals the exact number of SRI code requests
    // — the identity the tailoring exploits.
    let block = mbta::table6_block(
        &mbta::ExecEngine::sequential(),
        DeploymentScenario::Scenario1,
        42,
    )
    .unwrap();
    for profile in [&block.core1, &block.core2] {
        let ptac = profile.ptac().expect("simulator attaches PTAC");
        let code_reqs = ptac.op_total(Operation::Code);
        assert_eq!(
            profile.counters().pcache_miss,
            code_reqs,
            "{}",
            profile.name()
        );
        // And data never touches the flash banks in scenario 1.
        assert_eq!(ptac.get(Target::Pf0, Operation::Data), 0);
        assert_eq!(ptac.get(Target::Pf1, Operation::Data), 0);
        assert_eq!(ptac.get(Target::Dfl, Operation::Data), 0);
    }
}

#[test]
fn low_traffic_contention_is_about_ten_percent() {
    // §4.2 closing remark: realistic applications see ~10% bounds.
    let platform = Platform::tc277_reference();
    let panel = mbta::figure4_panel(
        &mbta::ExecEngine::sequential(),
        DeploymentScenario::LowTraffic,
        &platform,
        42,
    )
    .unwrap();
    let h = panel.cells.last().unwrap();
    let overhead = h.ilp.ratio() - 1.0;
    assert!(
        overhead > 0.0 && overhead < 0.25,
        "low-traffic ILP overhead {overhead:.2} should be small"
    );
    // And far below the stressing benchmark's 30-50%.
    let stress = mbta::figure4_panel(
        &mbta::ExecEngine::sequential(),
        DeploymentScenario::Scenario1,
        &platform,
        42,
    )
    .unwrap();
    let stress_overhead = stress.cells.last().unwrap().ilp.ratio() - 1.0;
    assert!(overhead < stress_overhead / 2.0);
}

#[test]
fn facade_prelude_covers_the_workflow() {
    // Compile-time check that the prelude exposes what the README
    // advertises; minimal smoke use.
    let platform = Platform::tc277_reference();
    let _ = FtcModel::new(&platform);
    let _ = IdealModel::new(&platform);
    let _: ScenarioConstraints = ScenarioConstraints::scenario2();
    let _: SimConfig = SimConfig::tc277_reference();
    let bounds = AccessBounds::from_counters(
        &platform,
        &contention::DebugCounters {
            pmem_stall: 60,
            dmem_stall: 100,
            ..Default::default()
        },
    );
    assert_eq!(bounds.total(), 20);
}
