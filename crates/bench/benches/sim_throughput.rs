//! Tick vs event timing-kernel throughput on the Table 2 workload mix.
//!
//! Each workload is one of the calibration campaign's micro probes —
//! the same SRI-target mix that reproduces Table 2 — run to completion
//! on both engines, the event kernel twice: with basic-block
//! memoization (the default) and without. The stall-heavy probes
//! (DFLASH/LMU word streams, dirty stores) are where plain
//! fast-forwarding shines — almost every cycle sits inside a
//! multi-cycle SRI transaction the kernel can skip — while the
//! compute/cache-hit-dense probes (the PFLASH code stream, the co-run's
//! control loop) are where the block memo earns its keep by replaying
//! whole stall-free blocks in one delta. All three configurations are
//! bit-identical (asserted here per workload), so the only difference
//! reported is wall-clock per simulated cycle.
//!
//! Writes `BENCH_sim.json` with a machine-readable `ratios` member
//! (tick-median over event-median per probe); `ci.sh perf` diffs those
//! ratios against the committed floors in `BENCH_baseline.json`.

use contention_bench::harness::{Harness, MetaEnvelope};
use std::hint::black_box;
use std::path::PathBuf;
use tc27x_sim::{CoreId, Engine, Region, SimConfig, System, TaskSpec};
use workloads::micro;

/// One engine configuration under measurement.
#[derive(Clone, Copy)]
struct Variant {
    /// Benchmark-name suffix (`tick`, `event`, `event_nomemo`).
    suffix: &'static str,
    engine: Engine,
    block_memo: bool,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        suffix: "tick",
        engine: Engine::Tick,
        block_memo: true,
    },
    Variant {
        suffix: "event",
        engine: Engine::Event,
        block_memo: true,
    },
    Variant {
        suffix: "event_nomemo",
        engine: Engine::Event,
        block_memo: false,
    },
];

fn config(v: Variant) -> SimConfig {
    SimConfig::tc277_reference()
        .with_engine(v.engine)
        .with_block_memo(v.block_memo)
}

/// Runs `spec` in isolation on core 1 under `v`, returning CCNT.
fn run_isolated(spec: &TaskSpec, v: Variant) -> u64 {
    let mut sys = System::with_config(config(v));
    sys.load(CoreId(1), spec).unwrap();
    sys.run().unwrap().counters(CoreId(1)).ccnt
}

/// Runs the co-run pair under `v`, returning the app core's CCNT.
fn run_corun(app: &TaskSpec, load: &TaskSpec, v: Variant) -> u64 {
    let mut sys = System::with_config(config(v));
    sys.load(CoreId(1), app).unwrap();
    sys.load(CoreId(2), load).unwrap();
    sys.run_until(CoreId(1)).unwrap().counters(CoreId(1)).ccnt
}

/// Benches every variant of one workload and records the tick-relative
/// speedup ratios (`name` for the memoized event kernel, `name_nomemo`
/// for the memo-free one).
fn bench_variants(h: &mut Harness, name: &str, mut run: impl FnMut(Variant) -> u64) {
    let mut medians = [1u128; VARIANTS.len()];
    for (slot, v) in VARIANTS.into_iter().enumerate() {
        h.bench(&format!("{name}_{}", v.suffix), || black_box(run(v)));
        medians[slot] = h.results().last().map(|r| r.median_ns.max(1)).unwrap_or(1);
    }
    h.ratio(name, medians[0] as f64 / medians[1] as f64);
    h.ratio(
        &format!("{name}_nomemo"),
        medians[0] as f64 / medians[2] as f64,
    );
}

fn main() {
    // `finish()` writes BENCH_<group>.json into the working directory;
    // anchor it at the repo root regardless of where cargo was invoked.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("warning: could not enter {}: {e}", root.display());
    }

    let mut h = Harness::new("sim");
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Each probe runs on both kernels, single-threaded.
    h.set_envelope(MetaEnvelope::new(&args, "tick+event", 1));
    h.sample_size(5);

    // The Table 2 probe mix, one per SRI target class. The first two
    // are stall-heavy (43-cycle DFLASH and 11-cycle LMU services), the
    // code stream is the PFLASH line-fetch pattern, and the dirty
    // stores exercise the LMU write-back path.
    let probes: &[(&str, TaskSpec)] = &[
        (
            "data_words_dflash",
            micro::data_words(CoreId(1), Region::Dflash, 400, false),
        ),
        (
            "data_words_lmu",
            micro::data_words(CoreId(1), Region::Lmu, 400, false),
        ),
        ("code_stream_pf0", micro::code_stream(Region::Pflash0, 320)),
        ("dirty_stores_lmu", micro::dirty_stores(CoreId(1), 1000)),
    ];

    for (name, spec) in probes {
        let cycles = run_isolated(spec, VARIANTS[1]);
        for v in [VARIANTS[0], VARIANTS[2]] {
            assert_eq!(
                cycles,
                run_isolated(spec, v),
                "{name}: all engine configurations must be bit-identical"
            );
        }
        h.throughput_elements(cycles);
        bench_variants(&mut h, name, |v| run_isolated(spec, v));
    }

    // One contended case: the control-loop app against a high contender,
    // where SRI queueing keeps the event queue busiest.
    let desc = platform::default_platform();
    let scenario = tc27x_sim::DeploymentScenario::Scenario1;
    let app = workloads::control_loop_on(desc, scenario, CoreId(1), 42);
    let load = workloads::contender_on(desc, scenario, workloads::LoadLevel::High, CoreId(2), 7);
    let cycles = run_corun(&app, &load, VARIANTS[1]);
    for v in [VARIANTS[0], VARIANTS[2]] {
        assert_eq!(
            cycles,
            run_corun(&app, &load, v),
            "corun: all engine configurations must be bit-identical"
        );
    }
    h.throughput_elements(cycles);
    bench_variants(&mut h, "corun_hload", |v| run_corun(&app, &load, v));

    for (name, speedup) in h.ratios() {
        println!("speedup/{name:<32} event is {speedup:.2}x the tick stepper");
    }

    h.finish();
}
