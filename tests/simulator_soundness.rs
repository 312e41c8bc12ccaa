//! The strongest cross-crate property: for *randomly generated*
//! workloads, every model's WCET estimate must dominate the observed
//! co-run execution time on the simulator. This exercises the entire
//! stack — program builder, linker, caches, SRI arbitration, counters,
//! access-count bounding and the ILP — against the ground truth.
//!
//! Workload shapes are drawn from the simulator's seeded
//! [`SplitMix64`]; each case index is a deterministic reproducer.

use contention::{ContentionModel, FtcModel, IlpPtacModel, Platform, ScenarioConstraints};
use mbta::ExecEngine;
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{
    CoreId, DataObject, Pattern, Placement, Program, Region, SimConfig, System, TaskSpec,
};

/// A fresh system of `engine`'s platform, outside the engine: the
/// independent reference the engine's profiles are checked against.
fn reference_system(engine: &ExecEngine) -> System {
    System::with_config(SimConfig::from_platform(engine.platform()))
}

/// The CCNT of `spec` run alone on the reference system.
fn direct_ccnt(engine: &ExecEngine, spec: &TaskSpec, core: CoreId) -> u64 {
    let mut sys = reference_system(engine);
    sys.load(core, spec).unwrap();
    sys.run().unwrap().counters(core).ccnt
}

/// The app's observed CCNT co-running against `load` on the reference
/// system.
fn direct_corun(
    engine: &ExecEngine,
    app: &TaskSpec,
    app_core: CoreId,
    load: &TaskSpec,
    load_core: CoreId,
) -> u64 {
    let mut sys = reference_system(engine);
    sys.load(app_core, app).unwrap();
    sys.load(load_core, load).unwrap();
    sys.run_until(app_core).unwrap().counters(app_core).ccnt
}

/// A randomly shaped task: loops of loads/stores/computes over objects
/// in randomly chosen (admissible) shared placements.
#[derive(Clone, Debug)]
struct RandTask {
    code_bank: u8,
    code_cacheable: bool,
    obj_region: u8,
    iters: u32,
    loads: u32,
    stores: u32,
    compute: u32,
    seed: u64,
}

fn rand_task(rng: &mut SplitMix64) -> RandTask {
    RandTask {
        code_bank: rng.below(3) as u8,
        code_cacheable: rng.flip(),
        obj_region: rng.below(3) as u8,
        iters: 1 + rng.below_u32(39),
        loads: rng.below_u32(12),
        stores: rng.below_u32(6),
        compute: rng.below_u32(30),
        seed: rng.below(1000),
    }
}

fn build_spec(t: &RandTask, name: &str) -> TaskSpec {
    let code_region = match t.code_bank {
        0 => Region::Pflash0,
        1 => Region::Pflash1,
        _ => Region::Lmu,
    };
    let (obj_region, obj_cacheable, stores_allowed) = match t.obj_region {
        0 => (Region::Lmu, false, true),
        1 => (Region::Dflash, false, true),
        // Flash data must be cacheable; keep it read-only so write-backs
        // never target the flash (realistic: constants).
        _ => (Region::Pflash0, true, false),
    };
    let prog = Program::build(|b| {
        b.repeat(t.iters, |b| {
            for _ in 0..t.loads {
                b.load("obj", Pattern::Sequential);
            }
            if stores_allowed {
                for _ in 0..t.stores {
                    b.store("obj", Pattern::Sequential);
                }
            }
            if t.compute > 0 {
                b.compute(t.compute);
            }
        });
    });
    TaskSpec::new(name, prog, Placement::new(code_region, t.code_cacheable))
        .with_object(DataObject::new(
            "obj",
            4 << 10,
            Placement::new(obj_region, obj_cacheable),
        ))
        .with_seed(t.seed)
}

/// fTC and (unconstrained) ILP-PTAC bounds computed from isolation
/// profiles dominate the observed co-run time, whatever the
/// workloads look like.
#[test]
fn bounds_dominate_random_corun() {
    let engine = ExecEngine::sequential();
    let platform = Platform::from_desc(engine.platform());
    for case in 0..20u64 {
        let mut rng = SplitMix64::new(0xb0d0_0000 + case);
        let a = rand_task(&mut rng);
        let b = rand_task(&mut rng);
        let (ca, cb) = (CoreId(1), CoreId(2));
        let spec_a = build_spec(&a, "rand-a");
        let spec_b = build_spec(&b, "rand-b");

        let pa = engine.isolation(&spec_a, ca).unwrap();
        let pb = engine.isolation(&spec_b, cb).unwrap();
        let observed = direct_corun(&engine, &spec_a, ca, &spec_b, cb);

        let ftc = FtcModel::new(&platform).wcet_estimate(&pa, &[&pb]).unwrap();
        assert!(
            ftc.bound_cycles() >= observed,
            "case {case}: fTC bound {} < observed {} for {a:?} vs {b:?}",
            ftc.bound_cycles(),
            observed,
        );

        let ilp = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained())
            .wcet_estimate(&pa, &[&pb])
            .unwrap();
        assert!(
            ilp.bound_cycles() >= observed,
            "case {case}: ILP bound {} < observed {} for {a:?} vs {b:?}",
            ilp.bound_cycles(),
            observed,
        );
        assert!(ilp.bound_cycles() <= ftc.bound_cycles(), "case {case}");
    }
}

/// Co-running never makes a task faster, and isolation is
/// deterministic.
#[test]
fn corun_never_speeds_up() {
    let engine = ExecEngine::sequential();
    for case in 0..20u64 {
        let mut rng = SplitMix64::new(0xc0f0_0000 + case);
        let a = rand_task(&mut rng);
        let b = rand_task(&mut rng);
        let (ca, cb) = (CoreId(1), CoreId(2));
        let spec_a = build_spec(&a, "rand-a");
        let spec_b = build_spec(&b, "rand-b");
        let iso1 = engine.isolation(&spec_a, ca).unwrap().counters().ccnt;
        let iso2 = direct_ccnt(&engine, &spec_a, ca);
        assert_eq!(iso1, iso2, "case {case}: isolation runs are deterministic");
        let co = direct_corun(&engine, &spec_a, ca, &spec_b, cb);
        assert!(co >= iso1, "case {case}");
    }
}

/// Deterministic regression: a hand-picked nasty pair (both hammering
/// the same flash bank with non-cacheable code and the LMU with data).
#[test]
fn worst_alignment_pair_is_still_bounded() {
    let engine = ExecEngine::sequential();
    let platform = Platform::from_desc(engine.platform());
    let mk = |_core: CoreId| {
        let prog = Program::build(|b| {
            b.repeat(300, |b| {
                b.load("obj", Pattern::Sequential);
            });
        });
        TaskSpec::new("hammer", prog, Placement::new(Region::Pflash0, false)).with_object(
            DataObject::new("obj", 2 << 10, Placement::new(Region::Lmu, false)),
        )
    };
    let (ca, cb) = (CoreId(1), CoreId(2));
    let (sa, sb) = (mk(ca), mk(cb));
    let pa = engine.isolation(&sa, ca).unwrap();
    let pb = engine.isolation(&sb, cb).unwrap();
    let observed = direct_corun(&engine, &sa, ca, &sb, cb);
    let ftc = FtcModel::new(&platform).wcet_estimate(&pa, &[&pb]).unwrap();
    let ilp = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained())
        .wcet_estimate(&pa, &[&pb])
        .unwrap();
    assert!(ftc.bound_cycles() >= observed);
    assert!(ilp.bound_cycles() >= observed);
    // This pair really does contend hard — the observation should be
    // clearly above isolation, making the soundness check meaningful.
    assert!(observed as f64 > 1.1 * pa.counters().ccnt as f64);
}
