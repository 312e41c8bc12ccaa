//! Signature contracts + runtime capacity enforcement (reference [16]):
//! the combination that makes a pre-computed, signature-based WCET bound
//! hold even against a misbehaving co-runner.

use contention::{
    ContenderSignature, ContentionModel, IlpPtacModel, Platform, ScenarioConstraints,
};
use tc27x_sim::{
    CoreId, DataObject, Pattern, Placement, Program, Region, SimConfig, System, TaskSpec,
};

fn lmu_hammer(core: CoreId, accesses: u32) -> TaskSpec {
    let prog = Program::build(|b| {
        b.repeat(accesses, |b| {
            b.load("buf", Pattern::Sequential);
        });
    });
    TaskSpec::new("hammer", prog, Placement::pspr(core)).with_object(DataObject::new(
        "buf",
        4 << 10,
        Placement::new(Region::Lmu, false),
    ))
}

/// Without enforcement, a contender that ignores its contract can push
/// the victim past the signature-based bound; with the [16]-style SRI
/// quota, the bound holds.
#[test]
fn enforcement_restores_signature_soundness() {
    let platform = Platform::tc277_reference();
    let (victim_core, rogue_core) = (CoreId(1), CoreId(2));
    let victim = lmu_hammer(victim_core, 400);
    // The rogue issues 10x more traffic than its contract admits.
    let rogue = lmu_hammer(rogue_core, 4_000);
    let contract = ContenderSignature::new("contract", 0, 60);

    let engine = mbta::ExecEngine::sequential();
    let victim_profile = engine.isolation(&victim, victim_core).unwrap();
    let rogue_profile = engine.isolation(&rogue, rogue_core).unwrap();
    assert!(
        !contract.admits(&platform, &rogue_profile),
        "the rogue must actually violate its contract"
    );

    let model = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained());
    let contract_bound = model
        .wcet_estimate(&victim_profile, &[&contract.to_profile(&platform)])
        .unwrap()
        .bound_cycles();

    // Unenforced co-run: the contract bound is broken.
    let unenforced = {
        let mut sys = System::tc277();
        sys.load(victim_core, &victim).unwrap();
        sys.load(rogue_core, &rogue).unwrap();
        sys.run_until(victim_core)
            .unwrap()
            .execution_time(victim_core)
    };
    assert!(
        unenforced > contract_bound,
        "the rogue should break the contract bound ({unenforced} <= {contract_bound})"
    );

    // Enforced co-run: quota = contract ceiling; the bound holds.
    let cfg = SimConfig::tc277_reference().with_sri_quota(rogue_core, 60);
    let mut sys = System::with_config(cfg);
    sys.load(victim_core, &victim).unwrap();
    sys.load(rogue_core, &rogue).unwrap();
    let out = sys.run_until(victim_core).unwrap();
    assert!(
        out.result(rogue_core).suspended,
        "the rogue must be cut off"
    );
    let enforced = out.execution_time(victim_core);
    assert!(
        enforced <= contract_bound,
        "enforced co-run {enforced} must respect the contract bound {contract_bound}"
    );
}

/// Enforcement is invisible to well-behaved contenders: with a quota
/// above its real usage, the co-run is cycle-identical to the
/// unenforced one.
#[test]
fn enforcement_is_transparent_within_budget() {
    let (a, b) = (CoreId(1), CoreId(2));
    let victim = lmu_hammer(a, 300);
    let polite = lmu_hammer(b, 200);

    let unenforced = {
        let mut sys = System::tc277();
        sys.load(a, &victim).unwrap();
        sys.load(b, &polite).unwrap();
        sys.run_until(a).unwrap().execution_time(a)
    };
    let enforced = {
        let cfg = SimConfig::tc277_reference().with_sri_quota(b, 10_000);
        let mut sys = System::with_config(cfg);
        sys.load(a, &victim).unwrap();
        sys.load(b, &polite).unwrap();
        sys.run_until(a).unwrap().execution_time(a)
    };
    assert_eq!(unenforced, enforced);
}
