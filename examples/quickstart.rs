//! Quickstart: bound the contention a task can suffer without ever
//! co-running it with its contender.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use aurix_contention::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = mbta::ExecEngine::new(2);
    // 1. Describe a small task: sequential loads from a shared LMU
    //    buffer, with code fetched from program flash.
    let program = Program::build(|b| {
        b.repeat(500, |b| {
            b.load("shared", Pattern::Sequential);
            b.compute(6);
            b.store("shared", Pattern::Sequential);
        });
    });
    let task = TaskSpec::new("probe", program, Placement::new(Region::Pflash0, true)).with_object(
        DataObject::new("shared", 4 << 10, Placement::new(Region::Lmu, false)),
    );

    // 2. A contender that also hammers the LMU from another core.
    let rival_prog = Program::build(|b| {
        b.repeat(800, |b| {
            b.load("rival_buf", Pattern::Sequential);
            b.compute(3);
        });
    });
    let rival =
        TaskSpec::new("rival", rival_prog, Placement::new(Region::Pflash1, true)).with_object(
            DataObject::new("rival_buf", 4 << 10, Placement::new(Region::Lmu, false)),
        );

    // 3. Measure each in isolation on the engine's platform, the
    //    simulated TC277 (this is all the information the models are
    //    allowed to use).
    let task_profile = engine.isolation(&task, CoreId(1))?;
    let rival_profile = engine.isolation(&rival, CoreId(2))?;
    println!("isolation profiles:");
    println!("  {task_profile}");
    println!("  {rival_profile}");

    // 4. Bound the interference with both models, on the tables of
    //    the same platform.
    let platform = Platform::from_desc(engine.platform());
    let ftc = FtcModel::new(&platform).wcet_estimate(&task_profile, &[&rival_profile])?;
    let ilp = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained())
        .wcet_estimate(&task_profile, &[&rival_profile])?;
    println!("\nWCET estimates (isolation + contention bound):");
    println!("  fTC      : {ftc}");
    println!("  ILP-PTAC : {ilp}");

    // 5. Validate: actually co-run the two tasks and compare.
    let observed = engine.corun(&task, CoreId(1), &rival, CoreId(2))?;
    println!("\nobserved co-run: {observed} cycles");
    assert!(ftc.bound_cycles() >= observed, "fTC bound must be sound");
    assert!(ilp.bound_cycles() >= observed, "ILP bound must be sound");
    assert!(ilp.bound_cycles() <= ftc.bound_cycles(), "ILP is tighter");
    println!("both bounds dominate the observation; ILP-PTAC is the tighter one");
    Ok(())
}
