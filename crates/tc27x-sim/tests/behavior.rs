//! Behavioural integration tests of the simulator: cache warm-up across
//! activations, per-core-kind differences, write traffic and the
//! interaction of code and data streams.

use tc27x_sim::{
    CoreId, DataObject, Operation, Pattern, Placement, Program, Region, SimConfig, System, Target,
    TaskSpec,
};

fn run(core: CoreId, spec: &TaskSpec) -> tc27x_sim::RunOutcome {
    let mut sys = System::tc277();
    sys.load(core, spec).unwrap();
    sys.run().unwrap()
}

/// A loop that fits in the i-cache only misses on its first activation;
/// multi-activation tasks therefore fetch far less than `activations ×
/// first-run` misses.
#[test]
fn icache_warmup_across_activations() {
    let mk = |activations: u32| {
        let prog = Program::build(|b| {
            b.repeat(4, |b| {
                for _ in 0..256 {
                    b.compute(1);
                }
            });
        });
        TaskSpec::new("warm", prog, Placement::new(Region::Pflash0, true))
            .with_activations(activations)
    };
    let one = run(CoreId(1), &mk(1)).counters(CoreId(1));
    let four = run(CoreId(1), &mk(4)).counters(CoreId(1));
    // ~33 lines of code, well inside the 16 KiB i-cache: activations
    // 2..4 hit everywhere.
    assert_eq!(one.pcache_miss, four.pcache_miss);
    assert!(four.ccnt > 3 * one.ccnt);
}

/// The efficiency core's single-line DRB thrashes where the P-cores'
/// 8 KiB data cache holds the working set.
#[test]
fn efficiency_core_data_buffer_thrashes() {
    let mk = |core: CoreId| {
        let prog = Program::build(|b| {
            b.repeat(50, |b| {
                // Two alternating lines defeat a single-line buffer.
                b.load("buf", Pattern::Stride(32));
            });
        });
        TaskSpec::new("drb", prog, Placement::pspr(core)).with_object(DataObject::new(
            "buf",
            64,
            Placement::new(Region::Lmu, true),
        ))
    };
    let e = run(CoreId(0), &mk(CoreId(0))).counters(CoreId(0));
    let p = run(CoreId(1), &mk(CoreId(1))).counters(CoreId(1));
    // P-core: both lines stay resident after the cold misses.
    assert_eq!(p.dcache_miss_total(), 2);
    // E-core: every alternation misses.
    assert_eq!(e.dcache_miss_total(), 50);
    assert!(e.dmem_stall > p.dmem_stall);
}

/// Uncacheable stores generate one write transaction each, visible in
/// the ground truth.
#[test]
fn uncached_stores_are_write_transactions() {
    let prog = Program::build(|b| {
        b.repeat(30, |b| {
            b.store("out", Pattern::Sequential);
        });
    });
    let spec = TaskSpec::new("writer", prog, Placement::pspr(CoreId(2))).with_object(
        DataObject::new("out", 1 << 10, Placement::new(Region::Dflash, false)),
    );
    let out = run(CoreId(2), &spec);
    let g = out.ground_truth(CoreId(2));
    assert_eq!(g.accesses(Target::Dfl, Operation::Data), 30);
    assert_eq!(g.writes(Target::Dfl), 30);
    // Writes are not hidden less than reads here: 43 - 1 per store.
    assert_eq!(out.counters(CoreId(2)).dmem_stall, 30 * 42);
}

/// Non-cacheable LMU code: every line transition refetches, and none of
/// it counts as an i-cache miss.
#[test]
fn uncacheable_lmu_code_refetches_every_line() {
    let prog = Program::build(|b| {
        for _ in 0..64 {
            b.compute(1);
        }
    });
    let spec = TaskSpec::new("lmu-code", prog, Placement::new(Region::Lmu, false));
    let out = run(CoreId(1), &spec);
    let k = out.counters(CoreId(1));
    assert_eq!(k.pcache_miss, 0);
    // 64 ops = 8 lines, 11 stall cycles each (no prefetcher on the LMU).
    assert_eq!(k.pmem_stall, 8 * 11);
    assert_eq!(
        out.ground_truth(CoreId(1))
            .accesses(Target::Lmu, Operation::Code),
        8
    );
}

/// Code and data streams to the *same* flash bank interleave: the
/// prefetch stream breaks and fetches pay the non-sequential price.
#[test]
fn data_traffic_disrupts_the_code_prefetch_stream() {
    // Pure code stream for reference.
    let code_only = {
        let prog = Program::build(|b| {
            for _ in 0..512 {
                b.compute(1);
            }
        });
        TaskSpec::new("co", prog, Placement::new(Region::Pflash0, true))
    };
    // Same code with a pf0 data read per line.
    let mixed = {
        let prog = Program::build(|b| {
            for i in 0..512 {
                if i % 8 == 0 {
                    b.load("tbl", Pattern::Stride(32));
                } else {
                    b.compute(1);
                }
            }
        });
        TaskSpec::new("mix", prog, Placement::new(Region::Pflash0, true)).with_object(
            DataObject::new("tbl", 64 << 10, Placement::new(Region::Pflash0, true)),
        )
    };
    let a = run(CoreId(1), &code_only).counters(CoreId(1));
    let b = run(CoreId(1), &mixed).counters(CoreId(1));
    assert_eq!(a.pcache_miss, b.pcache_miss, "same code footprint");
    assert!(
        b.pmem_stall > a.pmem_stall,
        "interleaved data reads break fetch sequentiality: {} vs {}",
        b.pmem_stall,
        a.pmem_stall
    );
}

/// Tracing has zero effect on timing.
#[test]
fn tracing_does_not_perturb_timing() {
    let prog = Program::build(|b| {
        b.repeat(100, |b| {
            b.load("x", Pattern::Random);
            b.compute(3);
        });
    });
    let spec = TaskSpec::new("t", prog, Placement::new(Region::Pflash1, true)).with_object(
        DataObject::new("x", 8 << 10, Placement::new(Region::Lmu, false)),
    );
    let plain = run(CoreId(1), &spec).counters(CoreId(1));
    let mut sys = System::with_config(SimConfig::tc277_reference().with_trace_capacity(1 << 16));
    sys.load(CoreId(1), &spec).unwrap();
    let traced = sys.run().unwrap().counters(CoreId(1));
    assert_eq!(plain, traced);
}

/// Segments in different banks produce traffic on both; the per-bank
/// split is visible in ground truth.
#[test]
fn multi_bank_code_splits_traffic() {
    let seg = || {
        Program::build(|b| {
            for _ in 0..128 {
                b.compute(1);
            }
        })
    };
    let spec = TaskSpec::empty("split")
        .with_segment(seg(), Placement::new(Region::Pflash0, true))
        .with_segment(seg(), Placement::new(Region::Pflash1, true));
    let out = run(CoreId(1), &spec);
    let g = out.ground_truth(CoreId(1));
    assert_eq!(g.accesses(Target::Pf0, Operation::Code), 16);
    assert_eq!(g.accesses(Target::Pf1, Operation::Code), 16);
}
