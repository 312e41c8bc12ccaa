//! Multi-contender analysis — the paper's model "can be easily extended
//! to consider more contenders at the same time" (§2). On the TC277 the
//! task under analysis can face contenders on *both* other cores; under
//! round-robin arbitration each own request can wait for one request
//! from each of them, so pairwise bounds compose by summation.
//!
//! ```text
//! cargo run --example multi_contender
//! ```

use aurix_contention::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mbta::ExecEngine::new(2);
    let platform = Platform::from_desc(engine.platform());
    let scenario = DeploymentScenario::Scenario1;

    // App on core 1; contenders on core 2 (high load) and on the
    // efficiency core 0 (low load).
    let app_spec = workloads::control_loop_on(engine.platform(), scenario, CoreId(1), 42);
    let heavy_spec =
        workloads::contender_on(engine.platform(), scenario, LoadLevel::High, CoreId(2), 7);
    let light_spec =
        workloads::contender_on(engine.platform(), scenario, LoadLevel::Low, CoreId(0), 9);

    let app = engine.isolation(&app_spec, CoreId(1))?;
    let heavy = engine.isolation(&heavy_spec, CoreId(2))?;
    let light = engine.isolation(&light_spec, CoreId(0))?;

    let model = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());

    let vs_heavy = model.wcet_estimate(&app, &[&heavy])?;
    let vs_light = model.wcet_estimate(&app, &[&light])?;
    let vs_both = model.wcet_estimate(&app, &[&heavy, &light])?;

    println!("ILP-PTAC estimates for the cruise-control app:");
    println!("  vs heavy contender only : {vs_heavy}");
    println!("  vs light contender only : {vs_light}");
    println!("  vs both contenders      : {vs_both}");
    assert_eq!(
        vs_both.contention_cycles,
        vs_heavy.contention_cycles + vs_light.contention_cycles,
        "pairwise bounds compose additively"
    );

    // Validate against a 3-core co-run.
    let mut sys = System::with_config(SimConfig::from_platform(engine.platform()));
    sys.load(CoreId(1), &app_spec)?;
    sys.load(CoreId(2), &heavy_spec)?;
    sys.load(CoreId(0), &light_spec)?;
    let out = sys.run_until(CoreId(1))?;
    let observed = out.counters(CoreId(1)).ccnt;
    println!("\nobserved 3-core co-run: {observed} cycles");
    assert!(
        vs_both.bound_cycles() >= observed,
        "multi-contender bound must dominate the observation"
    );
    println!(
        "bound {} >= observed {} — sound under dual contention",
        vs_both.bound_cycles(),
        observed
    );
    Ok(())
}
