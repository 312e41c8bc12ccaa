//! Property suite for the contention attribution ledger: conservation
//! against `queue_delay`, byte-identity across timing kernels and memo
//! settings, timing invariance, and the zero-matrix-off guarantee.
//!
//! Cases are generated with the simulator's own seeded [`SplitMix64`] —
//! each case index is one deterministic reproducer.

use platform::PlatformDesc;
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{
    AttributionMatrix, CoreId, DataObject, Engine, Operation, Pattern, Placement, Program, Region,
    SimConfig, SimStats, System, Target, TaskSpec,
};

/// A random co-run workload: every active core hammers a mix of shared
/// slaves with interleaved compute, seeded per (case, core).
fn random_spec(rng: &mut SplitMix64) -> TaskSpec {
    let iters = 1 + rng.below_u32(30);
    // A quarter of the seeds runs uncached PFLASH0 code whose loop body
    // is exactly one 32-byte line of 1-cycle computes, so the LoopEnd
    // is the first instruction of the next line: the sequential fetch
    // of that line hides the prefetch lead, the core resumes inside
    // its own fetch's service window, and the backward-jump refetch
    // queues behind the core's own PMI transaction — the only way a
    // core delays itself, and the ledger's self column.
    if rng.below(4) == 0 {
        let prog = Program::build(|b| {
            b.repeat(iters, |b| {
                for _ in 0..8 {
                    b.compute(1);
                }
            });
        });
        return TaskSpec::new("t", prog, Placement::new(Region::Pflash0, false));
    }
    let loads = 1 + rng.below_u32(6);
    let stores = rng.below_u32(3);
    let compute = rng.below_u32(12);
    let prog = Program::build(|b| {
        b.repeat(iters, |b| {
            for _ in 0..loads {
                b.load("obj", Pattern::Sequential);
            }
            // Stores cover the write service path and the prefetch
            // stream invalidation on writes.
            for _ in 0..stores {
                b.store("obj", Pattern::Sequential);
            }
            if compute > 0 {
                b.compute(compute);
            }
        });
    });
    TaskSpec::new("t", prog, Placement::new(Region::Pflash0, true)).with_object(DataObject::new(
        "obj",
        2 << 10,
        Placement::new(Region::Lmu, false),
    ))
}

fn run_corun(cfg: SimConfig, case: u64) -> (SimStats, u64) {
    let active = cfg.active_cores;
    let mut sys = System::with_config(cfg);
    for c in 0..active {
        let mut rng = SplitMix64::new(0xa77_0000 + case * 8 + c as u64);
        sys.load(CoreId(c as u8), &random_spec(&mut rng)).unwrap();
    }
    let out = sys.run().unwrap();
    (sys.stats(), out.execution_time(CoreId(0)))
}

fn builtin_descs() -> Vec<PlatformDesc> {
    PlatformDesc::names()
        .into_iter()
        .map(|n| PlatformDesc::builtin(n).unwrap())
        .collect()
}

/// Conservation: per slave, the attributed cycles (all victims, all
/// aggressor columns including the schedule) sum exactly to the slave's
/// `queue_delay`, on every builtin platform.
#[test]
fn attributed_cycles_sum_to_queue_delay_per_slave() {
    for desc in builtin_descs() {
        for case in 0..12u64 {
            let cfg = SimConfig::from_platform(&desc).with_attribution(true);
            let (stats, _) = run_corun(cfg, case);
            for t in Target::all() {
                assert_eq!(
                    stats.attribution.slave_wait(t),
                    stats.slave(t).queue_delay,
                    "platform {} case {case} slave {t}",
                    desc.name
                );
            }
        }
    }
}

/// The per-victim class split is a partition of the same cycles: code
/// wait + data wait equals the victim's aggressor-row total.
#[test]
fn class_split_partitions_the_victim_wait() {
    let mut self_wait_seen = 0u64;
    for desc in builtin_descs() {
        for case in 0..8u64 {
            let cfg = SimConfig::from_platform(&desc).with_attribution(true);
            let (stats, _) = run_corun(cfg, case);
            let m = &stats.attribution;
            for t in Target::all() {
                for v in CoreId::all() {
                    assert_eq!(
                        m.class_wait(t, v, Operation::Code) + m.class_wait(t, v, Operation::Data),
                        m.victim_wait(t, v),
                        "platform {} case {case} {t} {v}",
                        desc.name
                    );
                    assert!(
                        u128::from(m.max_wait(t, v)) <= u128::from(m.victim_wait(t, v)),
                        "a single grant cannot wait more than the victim's total"
                    );
                    // Interference (other cores) + self-delay (the
                    // core's own PMI/DMI queueing behind each other) +
                    // schedule alignment partition each class's wait.
                    self_wait_seen += m.wait_cycles(t, v, v);
                    for class in [Operation::Code, Operation::Data] {
                        assert_eq!(
                            m.interference(t, v, class)
                                + m.cell(t, v, v.index(), class)
                                + m.cell(t, v, tc27x_sim::attribution::SCHED_COL, class),
                            m.class_wait(t, v, class),
                            "platform {} case {case} {t} {v}",
                            desc.name
                        );
                    }
                }
            }
        }
    }
    // The generator places data in PFLASH0 for a quarter of the seeds,
    // so the self column must actually fire somewhere in the sweep —
    // otherwise the partition above is vacuous on the diagonal.
    assert!(self_wait_seen > 0, "no case exercised PMI/DMI self-delay");
}

/// Byte-identity: the matrix is identical across the per-cycle stepper,
/// the event kernel, and the event kernel with block-memo disabled.
#[test]
fn matrix_is_identical_across_kernels_and_memo() {
    for desc in builtin_descs() {
        for case in 0..8u64 {
            let base = SimConfig::from_platform(&desc).with_attribution(true);
            let variants: Vec<AttributionMatrix> = [
                base.clone().with_engine(Engine::Tick),
                base.clone().with_engine(Engine::Event),
                base.clone()
                    .with_engine(Engine::Event)
                    .with_block_memo(false),
            ]
            .into_iter()
            .map(|cfg| run_corun(cfg, case).0.attribution)
            .collect();
            assert_eq!(
                variants[0], variants[1],
                "platform {} case {case}: tick vs event",
                desc.name
            );
            assert_eq!(
                variants[1], variants[2],
                "platform {} case {case}: memo on vs off",
                desc.name
            );
        }
    }
}

/// Recording never changes timing: execution times and slave stats are
/// bit-identical with attribution on and off, and an attribution-off
/// run reports the all-zero matrix.
#[test]
fn attribution_is_observation_only_and_zero_when_off() {
    for desc in builtin_descs() {
        for case in 0..8u64 {
            let on = run_corun(SimConfig::from_platform(&desc).with_attribution(true), case);
            let off = run_corun(SimConfig::from_platform(&desc), case);
            assert_eq!(on.1, off.1, "platform {} case {case}: timing", desc.name);
            for t in Target::all() {
                assert_eq!(
                    on.0.slave(t),
                    off.0.slave(t),
                    "platform {} case {case} {t}",
                    desc.name
                );
            }
            assert!(off.0.attribution.is_zero(), "zero matrix when off");
            // A contended co-run must actually attribute something on
            // the default platform (all three cores share the LMU).
            if desc.is_default() && on.0.slave(Target::Lmu).queue_delay > 0 {
                assert!(!on.0.attribution.is_zero());
            }
        }
    }
}

/// Under TDMA no wait cycle is ever blamed on a core whose transaction
/// was not occupying the slave: alignment waits land in the schedule
/// column, and aggressor charges never exceed the slave's total.
#[test]
fn tdma_blames_alignment_on_the_schedule() {
    let desc = PlatformDesc::builtin("tc27x-tdma").unwrap();
    for case in 0..8u64 {
        let cfg = SimConfig::from_platform(&desc).with_attribution(true);
        let (stats, _) = run_corun(cfg, case);
        let m = &stats.attribution;
        for t in Target::all() {
            let sched: u64 = CoreId::all().iter().map(|&v| m.schedule_wait(t, v)).sum();
            assert!(sched <= stats.slave(t).queue_delay);
            assert_eq!(m.slave_wait(t), stats.slave(t).queue_delay);
        }
    }
}
