//! Contender signatures: analyse a task against a *contractual* ceiling
//! on co-runner traffic instead of a concrete co-runner — the
//! "resource usage templates and signatures" workflow (reference [10]
//! of the paper) that makes pre-integration analysis possible when the
//! other suppliers' code does not exist yet.
//!
//! ```text
//! cargo run --example signatures
//! ```

use aurix_contention::prelude::*;
use contention::ContenderSignature;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mbta::ExecEngine::new(2);
    let platform = Platform::from_desc(engine.platform());
    let scenario = DeploymentScenario::Scenario1;

    // Our own task, measured in isolation.
    let app_spec = workloads::control_loop_on(engine.platform(), scenario, CoreId(1), 42);
    let app = engine.isolation(&app_spec, CoreId(1))?;
    println!("app isolation: {} cycles\n", app.counters().ccnt);

    // The integration contract: the co-runner may issue at most this
    // many SRI requests while our task runs.
    let contract = ContenderSignature::new("integration-contract", 12_000, 8_000);
    println!("contract: {contract}");

    let model = IlpPtacModel::new(&platform, ScenarioConstraints::scenario1());
    let worst = model.wcet_estimate(&app, &[&contract.to_profile(&platform)])?;
    println!(
        "WCET under the contract: {} cycles ({:.2}x)\n",
        worst.bound_cycles(),
        worst.ratio()
    );

    // Months later, the real co-runner arrives. Check it against the
    // contract and against the pre-computed bound.
    for level in [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High] {
        let real_spec = workloads::contender_on(engine.platform(), scenario, level, CoreId(2), 7);
        let real = engine.isolation(&real_spec, CoreId(2))?;
        let admitted = contract.admits(&platform, &real);
        let est = model.wcet_estimate(&app, &[&real])?;
        println!(
            "{level}: {} the contract; exact bound {:.2}x {}",
            if admitted { "within" } else { "EXCEEDS" },
            est.ratio(),
            if admitted {
                assert!(est.bound_cycles() <= worst.bound_cycles());
                "(covered by the contract bound)"
            } else {
                "(contract bound not applicable)"
            }
        );
    }

    println!(
        "\ncovering signature for the H-Load contender: {}",
        ContenderSignature::covering(
            &platform,
            &engine.isolation(
                &workloads::contender_on(
                    engine.platform(),
                    scenario,
                    LoadLevel::High,
                    CoreId(2),
                    7
                ),
                CoreId(2)
            )?
        )
    );
    Ok(())
}
