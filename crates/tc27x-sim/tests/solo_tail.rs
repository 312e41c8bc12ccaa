//! Randomized differential suite for solo-tail splicing: a co-run that
//! computes its contender-free tail from the app's solo timeline
//! (`System::run_until_spliced`) against the same co-run simulated in
//! full on the per-cycle reference stepper.
//!
//! Each case index maps through [`SplitMix64`] to one reproducer on a
//! builtin platform: a long app and a short contender (random programs,
//! placements on the platform's slaves, master priorities, SRI quotas —
//! including a contender its quota suspends — and, in a third of the
//! cases, a random mix of round-robin, fixed-priority and TDMA slaves). Every case
//! checks:
//!
//! * the solo recording run's outcome equals a plain `run()`;
//! * the spliced co-run answers the full co-run's CCNT;
//! * `CycleLimit` is raised, or not, identically at `max_cycles` = f−1,
//!   f, f+1 and an interior point, where f is the full run's end;
//! * a contender that outlives the app, and a traced configuration,
//!   never splice and still answer the full run's value.
//!
//! At least a quarter of the cases must splice, so the suite cannot
//! pass by never splicing. The default run is short; the `#[ignore]`d
//! long run covers ten times as many cases.

use platform::{Arbitration, PlatformDesc};
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{
    CoreId, DataObject, Engine, Pattern, Placement, Program, Region, SimConfig, SimError,
    SoloTimeline, System, Target, TaskSpec,
};

const CASES: u64 = 64;
const LONG_CASES: u64 = 640;
const BASE_SEED: u64 = 0x5010_7a11_5eed_0000;

/// One generated co-run.
struct Case {
    config: SimConfig,
    app_core: CoreId,
    app: TaskSpec,
    load_core: CoreId,
    load: TaskSpec,
}

fn present(config: &SimConfig, region: Region) -> bool {
    region
        .sri_target()
        .is_none_or(|t| config.slave_present[t.index()])
}

/// A random placement among `options` whose slave the platform has.
fn pick(rng: &mut SplitMix64, config: &SimConfig, options: &[Placement]) -> Placement {
    let ok: Vec<Placement> = options
        .iter()
        .copied()
        .filter(|p| present(config, p.region))
        .collect();
    ok[rng.below(ok.len() as u64) as usize]
}

fn code_placement(rng: &mut SplitMix64, config: &SimConfig, core: CoreId) -> Placement {
    pick(
        rng,
        config,
        &[
            Placement::new(Region::Pflash0, true),
            Placement::new(Region::Pflash0, false),
            Placement::new(Region::Pflash1, true),
            Placement::new(Region::Lmu, false),
            Placement::pspr(core),
        ],
    )
}

fn data_placement(rng: &mut SplitMix64, config: &SimConfig, core: CoreId) -> Placement {
    pick(
        rng,
        config,
        &[
            Placement::new(Region::Lmu, false),
            Placement::new(Region::Lmu, true),
            Placement::new(Region::Dflash, false),
            Placement::new(Region::Pflash0, true),
            Placement::dspr(core),
        ],
    )
}

fn pattern(rng: &mut SplitMix64) -> Pattern {
    match rng.below(4) {
        0 => Pattern::Sequential,
        1 => Pattern::Stride(4 * (1 + rng.below_u32(8))),
        2 => Pattern::Random,
        _ => Pattern::Fixed(rng.below_u32(1 << 10)),
    }
}

/// One loop body: per step an optional compute burst, then an access
/// to `obj` with a pattern, a store when the flag is set.
type Body = Vec<(Option<u32>, usize, Pattern, bool)>;

fn body(rng: &mut SplitMix64, objects: usize) -> Body {
    (0..2 + rng.below(5))
        .map(|_| {
            let compute = rng.flip().then(|| 1 + rng.below_u32(12));
            (
                compute,
                rng.below(objects as u64) as usize,
                pattern(rng),
                rng.below(4) == 0,
            )
        })
        .collect()
}

/// A task of one to three phases, each a loop over its own random body
/// of compute bursts and shared-memory accesses, `iterations` in all.
/// Phases let the slaves a task uses change mid-run, so a splice point
/// can sit between a phase on one slave and a phase on another.
fn task(
    rng: &mut SplitMix64,
    config: &SimConfig,
    name: &str,
    core: CoreId,
    iterations: u32,
) -> TaskSpec {
    let objects = 1 + rng.below(3) as usize;
    let phases: Vec<Body> = (0..1 + rng.below(3)).map(|_| body(rng, objects)).collect();
    let per_phase = (iterations / phases.len() as u32).max(1);
    let prog = Program::build(|b| {
        for phase in &phases {
            b.repeat(per_phase, |b| {
                for (compute, obj, pattern, write) in phase {
                    if let Some(n) = compute {
                        b.compute(*n);
                    }
                    let name = format!("obj{obj}");
                    if *write {
                        b.store(name, *pattern);
                    } else {
                        b.load(name, *pattern);
                    }
                }
            });
        }
    });
    let mut spec = TaskSpec::new(name, prog, code_placement(rng, config, core));
    for o in 0..objects {
        spec = spec.with_object(DataObject::new(
            format!("obj{o}"),
            64 + rng.below_u32(4000),
            data_placement(rng, config, core),
        ));
    }
    spec.seed = rng.next_u64();
    spec
}

/// The case for one index: the app runs `app_iters` loop iterations,
/// the contender `load_iters`.
fn case(rng: &mut SplitMix64, app_iters: u32, load_iters: u32) -> Case {
    let names = PlatformDesc::names();
    let desc = PlatformDesc::by_name(names[rng.below(names.len() as u64) as usize])
        .unwrap_or_else(|e| panic!("{e}"));
    let mut config = SimConfig::from_platform(&desc).with_max_cycles(5_000_000);
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    if rng.flip() {
        config = config.with_master_priority([
            rng.below(3) as u8,
            rng.below(3) as u8,
            rng.below(3) as u8,
        ]);
    }
    if rng.below(3) == 0 {
        // Mixed arbitration: a contender can then delay the app on one
        // slave and shift its phase against another's TDMA schedule.
        for (arbitration, timing) in config.arbitration.iter_mut().zip(&config.slaves) {
            let longest = timing
                .service
                .max(timing.service_sequential)
                .max(timing.writeback_service);
            *arbitration = match rng.below(3) {
                0 => Arbitration::PriorityRoundRobin,
                1 => Arbitration::FixedPriority,
                _ => Arbitration::Tdma {
                    slot_len: longest + rng.below_u32(8),
                },
            };
        }
    }
    match rng.below(4) {
        // A contender its quota suspends mid-run.
        0 => config = config.with_sri_quota(load_core, 10 + rng.below(200)),
        // An app quota (possibly suspending the app itself).
        1 => config = config.with_sri_quota(app_core, 500 + rng.below(3_000)),
        _ => {}
    }
    let app = task(rng, &config, "app", app_core, app_iters);
    let load = task(rng, &config, "load", load_core, load_iters);
    Case {
        config,
        app_core,
        app,
        load_core,
        load,
    }
}

fn loaded(case: &Case, config: SimConfig) -> System {
    let mut sys = System::with_config(config);
    sys.load(case.app_core, &case.app)
        .unwrap_or_else(|e| panic!("app: {e}"));
    sys.load(case.load_core, &case.load)
        .unwrap_or_else(|e| panic!("load: {e}"));
    sys
}

/// The app's CCNT in a full co-run on the reference stepper, with the
/// cycle the run stopped at.
fn full(case: &Case, config: &SimConfig) -> Result<(u64, u64), SimError> {
    let mut sys = loaded(case, config.clone().with_engine(Engine::Tick));
    let out = sys.run_until(case.app_core)?;
    Ok((out.execution_time(case.app_core), out.cycles))
}

/// The spliced co-run's answer and whether it spliced.
fn spliced(
    case: &Case,
    config: &SimConfig,
    timeline: &SoloTimeline,
) -> Result<(u64, bool), SimError> {
    let run = loaded(case, config.clone()).run_until_spliced(case.app_core, timeline)?;
    Ok((run.cycles, run.spliced))
}

/// The app's solo timeline, after checking the recording run against a
/// plain run.
fn record(case: &Case) -> SoloTimeline {
    let mut plain = System::with_config(case.config.clone());
    plain.load(case.app_core, &case.app).unwrap();
    let expected = plain.run();
    let mut sys = System::with_config(case.config.clone());
    sys.load(case.app_core, &case.app).unwrap();
    let (outcome, timeline) = sys.run_solo().unwrap();
    assert_eq!(Ok(outcome), expected, "recording must not change the run");
    timeline
}

/// Runs `cases` seeded cases; returns how many spliced.
fn differential(cases: u64) -> u64 {
    let mut splices = 0;
    for case_no in 0..cases {
        let mut rng = SplitMix64::new(BASE_SEED.wrapping_add(case_no));
        let app_iters = 150 + rng.below_u32(250);
        let load_iters = 5 + rng.below_u32(40);
        let case = case(&mut rng, app_iters, load_iters);
        let timeline = record(&case);
        let label = format!("case {case_no}");

        let reference = full(&case, &case.config);
        let got = spliced(&case, &case.config, &timeline);
        assert_eq!(
            got.clone().map(|(c, _)| c),
            reference.clone().map(|(c, _)| c),
            "{label}: spliced CCNT"
        );
        let Ok((_, end)) = reference else { continue };
        if got.is_ok_and(|(_, s)| s) {
            splices += 1;
        }

        // Truncation around the full run's end and at an interior point.
        let mut cuts = vec![end.saturating_sub(1).max(1), end, end + 1];
        if end > 2 {
            cuts.push(1 + rng.below(end - 1));
        }
        for cut in cuts {
            let config = case.config.clone().with_max_cycles(cut);
            assert_eq!(
                spliced(&case, &config, &timeline).map(|(c, _)| c),
                full(&case, &config).map(|(c, _)| c),
                "{label}: cut at {cut}"
            );
        }

        // Tracing forbids splicing and must not change the answer.
        let traced = case.config.clone().with_trace_capacity(256);
        assert_eq!(
            spliced(&case, &traced, &timeline),
            reference.map(|(c, _)| (c, false)),
            "{label}: traced"
        );
    }
    splices
}

#[test]
fn spliced_corun_matches_the_full_run() {
    let splices = differential(CASES);
    assert!(
        splices * 4 >= CASES,
        "only {splices} of {CASES} cases spliced"
    );
}

#[test]
#[ignore = "long run: cargo test -p tc27x-sim --test solo_tail -- --ignored"]
fn spliced_corun_matches_the_full_run_long() {
    let splices = differential(LONG_CASES);
    assert!(
        splices * 4 >= LONG_CASES,
        "only {splices} of {LONG_CASES} cases spliced"
    );
}

#[test]
fn a_contender_that_outlives_the_app_never_splices() {
    for case_no in 0..12 {
        let mut rng = SplitMix64::new(BASE_SEED ^ 0xfeed ^ case_no);
        // Swap the roles' lengths: a short app, a long contender.
        let case = case(&mut rng, 80, 2_000);
        let timeline = record(&case);
        let reference = full(&case, &case.config).map(|(c, _)| c);
        let got = spliced(&case, &case.config, &timeline);
        // A suspended contender may still end first; otherwise the app
        // finishes alongside a live contender and cannot splice.
        let load_quota = case.config.sri_quota[case.load_core.index()];
        if load_quota.is_none() {
            assert_eq!(got, reference.map(|c| (c, false)), "case {case_no}");
        } else {
            assert_eq!(got.map(|(c, _)| c), reference, "case {case_no}");
        }
    }
}

#[test]
fn tick_timelines_and_foreign_cores_never_splice() {
    let mut rng = SplitMix64::new(BASE_SEED);
    let case = case(&mut rng, 200, 10);
    let reference = full(&case, &case.config).map(|(c, _)| c);

    let mut tick = System::with_config(case.config.clone().with_engine(Engine::Tick));
    tick.load(case.app_core, &case.app).unwrap();
    let (_, empty) = tick.run_solo().unwrap();
    assert_eq!(empty.checkpoints(), 0, "the stepper records no checkpoints");
    assert_eq!(
        spliced(&case, &case.config, &empty),
        reference.clone().map(|c| (c, false))
    );

    // A timeline of the contender's core is not the app's.
    let mut other = System::with_config(case.config.clone());
    other.load(case.load_core, &case.load).unwrap();
    let (_, foreign) = other.run_solo().unwrap();
    assert_eq!(
        spliced(&case, &case.config, &foreign),
        reference.map(|c| (c, false))
    );
}

#[test]
fn run_solo_needs_exactly_one_task() {
    let mut rng = SplitMix64::new(BASE_SEED);
    let case = case(&mut rng, 10, 10);
    assert_eq!(
        System::with_config(case.config.clone())
            .run_solo()
            .unwrap_err(),
        SimError::NothingLoaded
    );
    let err = loaded(&case, case.config.clone()).run_solo().unwrap_err();
    assert_eq!(err, SimError::NotSolo { loaded: 2 });
    assert!(err.to_string().contains("2 loaded"));
}

#[test]
fn every_target_slot_is_covered() {
    // The generator reaches each slave the builtin platforms have.
    let mut seen = [false; Target::COUNT];
    for case_no in 0..CASES {
        let mut rng = SplitMix64::new(BASE_SEED.wrapping_add(case_no));
        let app_iters = 150 + rng.below_u32(250);
        let load_iters = 5 + rng.below_u32(40);
        let case = case(&mut rng, app_iters, load_iters);
        let mut sys = System::with_config(case.config.clone());
        sys.load(case.app_core, &case.app).unwrap();
        let truth = sys.run().unwrap().ground_truth(case.app_core);
        for t in Target::all() {
            seen[t.index()] |= truth.accesses(t, tc27x_sim::Operation::Code)
                + truth.accesses(t, tc27x_sim::Operation::Data)
                > 0;
        }
    }
    assert!(seen.iter().all(|&s| s), "slaves reached: {seen:?}");
}
