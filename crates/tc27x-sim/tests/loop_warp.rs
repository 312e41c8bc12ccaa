//! Randomized differential suite for the loop-iteration warp: a solo run
//! on the event kernel, whose repeating loop iterations are applied in
//! one delta, against the same run on the per-cycle reference stepper.
//!
//! Each case index maps through [`SplitMix64`] to one task on a builtin
//! platform: one to three phases, each a counted loop (sometimes with a
//! nested loop) over compute bursts and accesses to scratchpad, LMU,
//! data flash and program flash objects, cacheable and not, with
//! sequential, strided, random and fixed patterns; random trip counts,
//! activations, an SRI quota in a third of the cases (often one that
//! suspends the task mid-loop), and in a third of the cases a random mix
//! of round-robin, fixed-priority and TDMA slaves, with the block memo
//! off in a quarter of the cases. Every case checks
//! that the [`RunOutcome`] and the per-slave statistics
//! ([`SimStats::slaves`]) equal the stepper's bit for bit, also with
//! `max_cycles` cut at f−1, f, f+1 and an interior point, where f is the
//! run's end.
//!
//! At least a quarter of the cases must warp, so the suite cannot pass
//! by never warping. The default run is short; the `#[ignore]`d long
//! run covers ten times as many cases.

use platform::{Arbitration, PlatformDesc};
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{
    CoreId, DataObject, Engine, Pattern, Placement, ProgramBuilder, Region, RunOutcome, SimConfig,
    SimError, SlaveStats, System, Target, TaskSpec,
};

const CASES: u64 = 64;
const LONG_CASES: u64 = 640;
const BASE_SEED: u64 = 0x100b_3a4b_5eed_0000;

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
            Placement::new(Region::Lmu, false),
            Placement::new(Region::Lmu, true),
            Placement::new(Region::Dflash, false),
            Placement::new(Region::Pflash0, true),
            Placement::dspr(core),
        ],
    )
}

fn pattern(rng: &mut SplitMix64) -> Pattern {
    match rng.below(5) {
        0 | 1 => Pattern::Sequential,
        2 => Pattern::Stride(4 * (1 + rng.below_u32(8))),
        3 => Pattern::Random,
        _ => Pattern::Fixed(rng.below_u32(1 << 10)),
    }
}

/// Appends one step: an optional compute burst, then an access.
fn step(rng: &mut SplitMix64, b: &mut ProgramBuilder, objects: u64) {
    if rng.flip() {
        b.compute(1 + rng.below_u32(12));
    }
    let name = format!("obj{}", rng.below(objects));
    let pattern = pattern(rng);
    if rng.below(4) == 0 {
        b.store(name, pattern);
    } else {
        b.load(name, pattern);
    }
}

/// One to three phases, each a loop of a few steps, sometimes around a
/// nested loop.
fn task(rng: &mut SplitMix64, config: &SimConfig, core: CoreId) -> TaskSpec {
    let objects = 1 + rng.below(3);
    let mut b = ProgramBuilder::new();
    for _ in 0..1 + rng.below(3) {
        let trips = 1 + rng.below_u32(120);
        let steps = 1 + rng.below(4);
        let inner = (rng.below(3) == 0).then(|| (1 + rng.below_u32(6), 1 + rng.below(3)));
        let seed = rng.next_u64();
        b.repeat(trips, |b| {
            let mut local = SplitMix64::new(seed);
            for _ in 0..steps {
                step(&mut local, b, objects);
            }
            if let Some((inner_trips, inner_steps)) = inner {
                b.repeat(inner_trips, |b| {
                    for _ in 0..inner_steps {
                        step(&mut local, b, objects);
                    }
                });
            }
        });
    }
    let mut spec = TaskSpec::new("looped", b.finish(), code_placement(rng, config, core));
    for o in 0..objects {
        let size = match rng.below(4) {
            0 => 4 + 4 * rng.below_u32(8),
            _ => 64 + rng.below_u32(4000),
        };
        spec = spec.with_object(DataObject::new(
            format!("obj{o}"),
            size,
            data_placement(rng, config, core),
        ));
    }
    spec.activations = 1 + rng.below_u32(3);
    spec.seed = rng.next_u64();
    spec
}

/// The configuration and task of one case.
fn case(rng: &mut SplitMix64) -> (SimConfig, CoreId, TaskSpec) {
    let names = PlatformDesc::names();
    let desc = PlatformDesc::by_name(names[rng.below(names.len() as u64) as usize])
        .unwrap_or_else(|e| panic!("{e}"));
    let mut config = SimConfig::from_platform(&desc).with_max_cycles(5_000_000);
    let core = if rng.flip() {
        CoreId(desc.app_core as u8)
    } else {
        CoreId(desc.load_core as u8)
    };
    if rng.below(3) == 0 {
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
    if rng.below(3) == 0 {
        config = config.with_sri_quota(core, 20 + rng.below(600));
    }
    if rng.below(4) == 0 {
        // Without the block memo every iteration start is stepped live.
        config = config.with_block_memo(false);
    }
    let spec = task(rng, &config, core);
    (config, core, spec)
}

/// What a run shows: its outcome and the per-slave statistics.
type Shown = (
    Result<RunOutcome, SimError>,
    [SlaveStats; Target::COUNT],
    u64,
);

fn run(config: SimConfig, core: CoreId, spec: &TaskSpec) -> Shown {
    let mut sys = System::with_config(config);
    sys.load(core, spec).unwrap_or_else(|e| panic!("load: {e}"));
    let outcome = sys.run();
    let stats = sys.stats();
    (outcome, stats.slaves, stats.kernel.loop_warp_cycles)
}

/// Checks one configuration: the warped run against the stepper.
/// Returns the warped cycles.
fn check(config: &SimConfig, core: CoreId, spec: &TaskSpec, label: &str) -> u64 {
    let (warped, warped_slaves, cycles) = run(config.clone(), core, spec);
    let (tick, tick_slaves, _) = run(config.clone().with_engine(Engine::Tick), core, spec);
    assert_eq!(warped, tick, "{label}: outcome");
    assert_eq!(warped_slaves, tick_slaves, "{label}: slave statistics");
    cycles
}

/// Runs `cases` seeded cases; returns how many warped.
fn differential(cases: u64) -> u64 {
    let mut warped = 0;
    for case_no in 0..cases {
        let mut rng = SplitMix64::new(BASE_SEED.wrapping_add(case_no));
        let (config, core, spec) = case(&mut rng);
        let label = format!("case {case_no}");
        if check(&config, core, &spec, &label) > 0 {
            warped += 1;
        }
        let Ok(end) = run(config.clone(), core, &spec).0.map(|o| o.cycles) else {
            continue;
        };
        let mut cuts = vec![end.saturating_sub(1).max(1), end, end + 1];
        if end > 2 {
            cuts.push(1 + rng.below(end - 1));
        }
        for cut in cuts {
            let config = config.clone().with_max_cycles(cut);
            check(&config, core, &spec, &format!("{label}: cut at {cut}"));
        }
    }
    warped
}

#[test]
fn warped_solo_runs_match_the_stepper() {
    let warped = differential(CASES);
    assert!(warped * 4 >= CASES, "only {warped} of {CASES} cases warped");
}

#[test]
#[ignore = "long run: cargo test -p tc27x-sim --test loop_warp -- --ignored"]
fn warped_solo_runs_match_the_stepper_long() {
    let warped = differential(LONG_CASES);
    assert!(
        warped * 4 >= LONG_CASES,
        "only {warped} of {LONG_CASES} cases warped"
    );
}

/// A contender-like task (a cached flash compute loop, then an LMU
/// streaming loop) spends at least 90 % of its cycles in warps on the
/// round-robin platforms, and most of them under TDMA, whose schedule
/// only recurs every few iterations; a co-run never warps.
#[test]
fn steady_loops_warp_and_co_runs_do_not() {
    for name in PlatformDesc::names() {
        let desc = PlatformDesc::by_name(name).unwrap_or_else(|e| panic!("{e}"));
        let config = SimConfig::from_platform(&desc);
        let core = CoreId(desc.load_core as u8);
        let mut b = ProgramBuilder::new();
        b.repeat(20, |b| {
            for _ in 0..640 {
                b.compute(1);
            }
        });
        let mut code = TaskSpec::new("code", b.finish(), Placement::new(Region::Pflash0, true));
        let mut b = ProgramBuilder::new();
        b.repeat(2_000, |b| {
            b.load("buf", Pattern::Sequential);
            b.compute(4);
        });
        code = code
            .with_segment(b.finish(), Placement::pspr(core))
            .with_object(DataObject::new(
                "buf",
                4 << 10,
                Placement::new(Region::Lmu, false),
            ));
        let (outcome, _, cycles) = run(config.clone(), core, &code);
        let ccnt = outcome.unwrap().execution_time(core);
        let tdma = config
            .arbitration
            .iter()
            .any(|a| matches!(a, Arbitration::Tdma { .. }));
        let share = if tdma { 5 } else { 9 };
        assert!(cycles * 10 >= ccnt * share, "{name}: {cycles} of {ccnt}");
        check(&config, core, &code, name);

        let other = CoreId(desc.app_core as u8);
        let mut sys = System::with_config(config.clone());
        sys.load(core, &code).unwrap();
        let mut relocated = code.clone();
        relocated.segments[1].placement = Placement::pspr(other);
        sys.load(other, &relocated).unwrap();
        sys.run().unwrap();
        assert_eq!(sys.stats().kernel.loop_warps, 0, "{name}: a co-run");
    }
}
