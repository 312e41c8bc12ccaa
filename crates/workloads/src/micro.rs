//! Calibration microbenchmarks (§3.3.2 and reference \[10\] of the paper).
//!
//! Each probe performs a *known number of requests of a given type to a
//! desired target resource*, so that dividing the observed stall-cycle
//! counters by the request count yields the per-request stall — the
//! procedure the paper uses to populate Table 2.

use tc27x_sim::{CoreId, DataObject, Pattern, Placement, Program, Region, TaskSpec};

/// Straight-line cacheable code in a bank: `lines` code lines executed
/// once, all fetched sequentially. Derives `cs^{t,co}` (minimum) for
/// pf0/pf1 (prefetched: 6 cycles) and the LMU (11 cycles).
///
/// # Panics
///
/// Panics if `lines == 0` or the bank is the data flash (code cannot
/// live there).
pub fn code_stream(bank: Region, lines: u32) -> TaskSpec {
    assert!(lines > 0, "need at least one line");
    assert!(bank != Region::Dflash, "code cannot live in dflash");
    let prog = Program::build(|b| {
        for _ in 0..lines * 8 {
            b.compute(1);
        }
    });
    TaskSpec::new(
        format!("micro-code-stream-{lines}"),
        prog,
        Placement::new(bank, true),
    )
}

/// A non-cacheable code loop whose body spans two lines: every iteration
/// performs one *non-sequential* fetch (the branch-back target) and one
/// sequential fetch. Separating the two probes isolates the maximum
/// code-fetch latency `l^{pf,co}` (16 cycles on the reference platform).
///
/// # Panics
///
/// Panics if `iters == 0` or the bank is the data flash.
pub fn code_bounce(bank: Region, iters: u32) -> TaskSpec {
    assert!(iters > 0, "need at least one iteration");
    assert!(bank != Region::Dflash, "code cannot live in dflash");
    let prog = Program::build(|b| {
        b.repeat(iters, |b| {
            // 15 ops + the loop branch = 16 ops = 2 lines exactly.
            for _ in 0..15 {
                b.compute(1);
            }
        });
    });
    TaskSpec::new(
        format!("micro-code-bounce-{iters}"),
        prog,
        Placement::new(bank, false),
    )
}

/// `n` non-cacheable sequential word accesses (loads or stores) to the
/// LMU or data flash. Derives `cs^{lmu,da}` (10) and `cs^{dfl,da}` (42).
///
/// # Panics
///
/// Panics if the target region rejects non-cacheable data (Table 3) or
/// `n == 0`.
pub fn data_words(core: CoreId, target: Region, n: u32, write: bool) -> TaskSpec {
    assert!(n > 0, "need at least one access");
    let prog = Program::build(|b| {
        b.repeat(n, |b| {
            if write {
                b.store("buf", Pattern::Sequential);
            } else {
                b.load("buf", Pattern::Sequential);
            }
        });
    });
    TaskSpec::new(
        format!("micro-data-words-{target}-{n}"),
        prog,
        Placement::pspr(core),
    )
    .with_object(DataObject::new(
        "buf",
        4 << 10,
        Placement::new(target, false),
    ))
}

/// `n` cacheable line-granular loads from a program-flash bank,
/// walking sequential lines of a large object: every access misses and
/// fills from the (prefetch-friendly) flash. Derives `cs^{pf,da}` (11).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn data_lines(core: CoreId, bank: Region, n: u32) -> TaskSpec {
    assert!(n > 0, "need at least one access");
    let prog = Program::build(|b| {
        b.repeat(n, |b| {
            b.load("table", Pattern::Stride(32));
        });
    });
    // Object much larger than the d-cache so wrapped walks still miss.
    TaskSpec::new(
        format!("micro-data-lines-{bank}-{n}"),
        prog,
        Placement::pspr(core),
    )
    .with_object(DataObject::new(
        "table",
        256 << 10,
        Placement::new(bank, true),
    ))
}

/// `n` cacheable loads from a program-flash bank at a two-line stride:
/// every access misses on a fresh, *non-sequential* line, so each fill
/// pays the maximum flash latency `l^{pf,da}` (16) — deterministically,
/// unlike the random probe.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn data_skip(core: CoreId, bank: Region, n: u32) -> TaskSpec {
    assert!(n > 0, "need at least one access");
    let prog = Program::build(|b| {
        b.repeat(n, |b| {
            b.load("table", Pattern::Stride(64));
        });
    });
    TaskSpec::new(
        format!("micro-data-skip-{bank}-{n}"),
        prog,
        Placement::pspr(core),
    )
    .with_object(DataObject::new(
        "table",
        512 << 10,
        Placement::new(bank, true),
    ))
}

/// `n` cacheable random loads from a program-flash bank: fills are
/// almost always non-sequential, exposing the maximum flash latency
/// `l^{pf,da}` (16).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn data_random(core: CoreId, bank: Region, n: u32, seed: u64) -> TaskSpec {
    assert!(n > 0, "need at least one access");
    let prog = Program::build(|b| {
        b.repeat(n, |b| {
            b.load("table", Pattern::Random);
        });
    });
    TaskSpec::new(
        format!("micro-data-random-{bank}-{n}"),
        prog,
        Placement::pspr(core),
    )
    .with_object(DataObject::new(
        "table",
        512 << 10,
        Placement::new(bank, true),
    ))
    .with_seed(seed)
}

/// `n` cacheable stores streaming over an LMU object twice the d-cache
/// size: after warm-up every store misses *dirty*, triggering a
/// write-back + line-fill pair. Derives the LMU dirty-miss latency
/// (Table 2's bracketed 21 cycles) via CCNT deltas and exercises the
/// `DCACHE_MISS_DIRTY` counter.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn dirty_stores(core: CoreId, n: u32) -> TaskSpec {
    assert!(n > 0, "need at least one access");
    let prog = Program::build(|b| {
        b.repeat(n, |b| {
            b.store("state", Pattern::Stride(32));
        });
    });
    TaskSpec::new(
        format!("micro-dirty-stores-{n}"),
        prog,
        Placement::pspr(core),
    )
    .with_object(DataObject::new(
        "state",
        16 << 10,
        Placement::new(Region::Lmu, true),
    ))
}

/// A pure-compute task in the scratchpad: generates zero SRI traffic.
/// Baseline for CCNT-difference measurements and the "idle contender".
pub fn compute_only(core: CoreId, cycles: u32) -> TaskSpec {
    let prog = Program::build(|b| {
        b.repeat(cycles.max(1), |b| {
            b.compute(1);
        });
    });
    TaskSpec::new("micro-compute-only", prog, Placement::pspr(core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::{Operation, System, Target};

    fn run_isolated(core: CoreId, spec: &TaskSpec) -> tc27x_sim::RunOutcome {
        let mut sys = System::tc277();
        sys.load(core, spec).unwrap();
        sys.run().unwrap()
    }

    #[test]
    fn code_stream_recovers_pf_code_stall() {
        let c = CoreId(1);
        let out = run_isolated(c, &code_stream(Region::Pflash0, 200));
        let k = out.counters(c);
        // First fetch is non-sequential (16), the rest prefetched (6).
        assert_eq!(k.pmem_stall, 16 + 199 * 6);
        assert_eq!(k.pcache_miss, 200);
    }

    #[test]
    fn code_stream_recovers_lmu_code_stall() {
        let c = CoreId(1);
        let out = run_isolated(c, &code_stream(Region::Lmu, 64));
        let k = out.counters(c);
        assert_eq!(k.pmem_stall, 64 * 11);
    }

    #[test]
    fn code_bounce_exposes_max_flash_latency() {
        let c = CoreId(1);
        let iters = 50;
        let out = run_isolated(c, &code_bounce(Region::Pflash1, iters));
        let k = out.counters(c);
        // Per iteration: one non-sequential (16) + one sequential (6)
        // fetch; the very first iteration is 16 + 6 as well.
        assert_eq!(k.pmem_stall, (16 + 6) * iters as u64);
        // Non-cacheable fetches never count as cache misses.
        assert_eq!(k.pcache_miss, 0);
        let g = out.ground_truth(c);
        assert_eq!(g.max_latency(Target::Pf1), 16);
    }

    #[test]
    fn data_words_recover_lmu_and_dfl_stalls() {
        let c = CoreId(2);
        let out = run_isolated(c, &data_words(c, Region::Lmu, 100, false));
        assert_eq!(out.counters(c).dmem_stall, 100 * 10);
        let out = run_isolated(c, &data_words(c, Region::Dflash, 50, false));
        assert_eq!(out.counters(c).dmem_stall, 50 * 42);
    }

    #[test]
    fn data_lines_recover_pf_data_stall() {
        let c = CoreId(1);
        let n = 128;
        let out = run_isolated(c, &data_lines(c, Region::Pflash0, n));
        let k = out.counters(c);
        // First fill non-sequential (15), the rest sequential (11).
        assert_eq!(k.dmem_stall, 15 + (n as u64 - 1) * 11);
        assert_eq!(k.dcache_miss_clean, n as u64);
        assert_eq!(k.dcache_miss_dirty, 0);
    }

    #[test]
    fn data_skip_is_deterministically_nonsequential() {
        let c = CoreId(1);
        let n = 200;
        let out = run_isolated(c, &data_skip(c, Region::Pflash1, n));
        let k = out.counters(c);
        // Every access misses at the non-sequential fill cost (16 - 1).
        assert_eq!(k.dmem_stall, n as u64 * 15);
        assert_eq!(k.dcache_miss_clean, n as u64);
    }

    #[test]
    fn data_random_hits_max_latency() {
        let c = CoreId(1);
        let out = run_isolated(c, &data_random(c, Region::Pflash0, 300, 7));
        let g = out.ground_truth(c);
        assert_eq!(g.max_latency(Target::Pf0), 16);
    }

    #[test]
    fn dirty_stores_produce_writebacks() {
        let c = CoreId(1);
        // 16 KiB object / 32 = 512 lines; d-cache holds 256 lines.
        let n = 1024;
        let out = run_isolated(c, &dirty_stores(c, n));
        let k = out.counters(c);
        // Warm-up: 256 clean misses; then every store misses dirty.
        assert_eq!(k.dcache_miss_clean, 256);
        assert_eq!(k.dcache_miss_dirty, n as u64 - 256);
        // Dirty miss: write-back (10, unhidden) + fill (11, hide 1).
        let g = out.ground_truth(c);
        assert_eq!(
            g.accesses(Target::Lmu, Operation::Data),
            n as u64 + (n as u64 - 256)
        );
    }

    #[test]
    fn dirty_miss_end_to_end_is_21_cycles() {
        let c = CoreId(1);
        // CCNT difference between consecutive sizes isolates one store.
        let t1 = run_isolated(c, &dirty_stores(c, 600)).counters(c).ccnt;
        let t2 = run_isolated(c, &dirty_stores(c, 601)).counters(c).ccnt;
        // One extra dirty store = 1 execute + 10 wb + 10 fill-stall + 1
        // loop-branch... the loop branch is part of both; the marginal
        // cost of one more dirty store iteration is 21 + 1 (branch).
        assert_eq!(t2 - t1, 21 + 1);
    }

    #[test]
    fn compute_only_touches_no_sri() {
        let c = CoreId(0);
        let out = run_isolated(c, &compute_only(c, 500));
        let k = out.counters(c);
        assert_eq!(k.pmem_stall + k.dmem_stall, 0);
        assert_eq!(out.ground_truth(c).total(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_requests_rejected() {
        let _ = data_words(CoreId(1), Region::Lmu, 0, false);
    }
}
