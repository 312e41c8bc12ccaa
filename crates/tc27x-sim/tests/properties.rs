//! Property-style tests of the simulator's internals: the cache against
//! a reference model, SRI arbitration guarantees, linker invariants and
//! counter semantics on random workloads.
//!
//! Cases are generated with the simulator's own seeded
//! [`SplitMix64`] — each case index maps to one deterministic
//! reproducer, so failures print the case number to re-run.

use tc27x_sim::cache::{Cache, CacheGeometry, Lookup};
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::sri::{Sri, SriRequest};
use tc27x_sim::{
    CoreId, DataObject, Linker, MemMap, Operation, Pattern, Placement, Program, Region, System,
    Target, TaskSpec,
};

// ---------------------------------------------------------------------
// Cache vs. a simple reference model
// ---------------------------------------------------------------------

/// Reference LRU model: per-set vectors, most recent at the back.
struct RefCache {
    sets: u32,
    ways: usize,
    content: Vec<Vec<(u32, bool)>>, // (tag, dirty)
}

impl RefCache {
    fn new(geometry: CacheGeometry) -> Self {
        RefCache {
            sets: geometry.sets(),
            ways: geometry.ways as usize,
            content: vec![Vec::new(); geometry.sets() as usize],
        }
    }

    fn access(&mut self, line: u32, write: bool) -> (bool, Option<u32>) {
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let entries = &mut self.content[set];
        if let Some(pos) = entries.iter().position(|(t, _)| *t == tag) {
            let (t, d) = entries.remove(pos);
            entries.push((t, d || write));
            return (true, None);
        }
        let mut evicted_dirty = None;
        if entries.len() == self.ways {
            let (vt, vd) = entries.remove(0);
            if vd {
                evicted_dirty = Some(vt * self.sets + set as u32);
            }
        }
        entries.push((tag, write));
        (false, evicted_dirty)
    }
}

/// The production cache agrees with the reference model on every access
/// of a random trace (hit/miss, dirty evictions, victims).
#[test]
fn cache_matches_reference_model() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xcac4_e000 + case);
        let ways = 1 + rng.below_u32(3);
        let sets = 1u32 << rng.below_u32(4);
        let len = 1 + rng.below(199) as usize;
        let trace: Vec<(u32, bool)> = (0..len).map(|_| (rng.below_u32(64), rng.flip())).collect();
        let geometry = CacheGeometry::new(sets * ways * 32, ways);
        let mut real = Cache::new(geometry);
        let mut reference = RefCache::new(geometry);
        for (line, write) in trace {
            let (ref_hit, ref_evict) = reference.access(line, write);
            match real.access(line, write) {
                Lookup::Hit => {
                    assert!(ref_hit, "case {case}: real hit, reference miss on {line}")
                }
                Lookup::Miss { evicted_dirty } => {
                    assert!(!ref_hit, "case {case}: real miss, reference hit on {line}");
                    assert_eq!(
                        evicted_dirty, ref_evict,
                        "case {case}: victim mismatch on {line}"
                    );
                }
            }
        }
    }
}

/// hits + misses equals the number of accesses; probe agrees with a
/// subsequent access.
#[test]
fn cache_bookkeeping() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xb00c_0000 + case);
        let len = 1 + rng.below(99) as usize;
        let trace: Vec<u32> = (0..len).map(|_| rng.below_u32(32)).collect();
        let mut c = Cache::new(CacheGeometry::new(512, 2));
        for &line in &trace {
            let probed = c.probe(line);
            match c.access(line, false) {
                Lookup::Hit => assert!(probed, "case {case}"),
                Lookup::Miss { .. } => assert!(!probed, "case {case}"),
            }
        }
        assert_eq!(c.hits() + c.misses(), trace.len() as u64, "case {case}");
    }
}

// ---------------------------------------------------------------------
// SRI arbitration guarantees
// ---------------------------------------------------------------------

/// Work conservation and bounded waiting: with three cores posting
/// simultaneously, every request is granted within
/// (cores-1) × service of the slave becoming free, and grants never
/// overlap at one slave.
#[test]
fn sri_bounded_waiting() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x5317_0000 + case);
        let service = 1 + rng.below_u32(49);
        let mut sri = Sri::new();
        let t0 = 0u64;
        for c in 0..3u8 {
            sri.post(
                t0,
                SriRequest {
                    core: CoreId(c),
                    target: Target::Lmu,
                    class: Operation::Data,
                    write: false,
                    service,
                },
            );
        }
        let mut completions = Vec::new();
        let mut t = t0;
        while completions.len() < 3 {
            let g = sri.step(t);
            for gr in g.iter().flatten() {
                completions.push(gr.complete_at);
            }
            t += 1;
            assert!(t < t0 + 4 * service as u64 + 4, "case {case}: starvation");
        }
        completions.sort_unstable();
        // Back-to-back service, no overlap, no idle gaps.
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(*c, t0 + (i as u64 + 1) * service as u64, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// Linker invariants
// ---------------------------------------------------------------------

/// Linked objects never overlap, land inside their region, and are
/// line-aligned — across multiple tasks sharing one linker.
#[test]
fn linker_allocations_are_disjoint() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x11c0_0000 + case);
        let n = 1 + rng.below(7) as usize;
        let sizes: Vec<u32> = (0..n).map(|_| 1 + rng.below_u32(2047)).collect();
        let map = MemMap::tc277();
        let mut linker = Linker::new(map.clone());
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let spec = TaskSpec::empty(format!("t{i}")).with_object(DataObject::new(
                "x",
                *size,
                Placement::new(Region::Lmu, false),
            ));
            match linker.link(CoreId(1), &spec) {
                Ok(img) => {
                    let o = &img.objects[0];
                    assert_eq!(o.base.0 % 32, 0, "case {case}: line alignment");
                    let loc = map.decode(o.base).expect("mapped");
                    assert_eq!(loc.region, Region::Lmu, "case {case}");
                    assert!(
                        loc.offset + o.size <= map.region_size(Region::Lmu),
                        "case {case}"
                    );
                    for (s, e) in &ranges {
                        assert!(
                            o.base.0 + o.size <= *s || *e <= o.base.0,
                            "case {case}: overlap with [{s:#x},{e:#x})"
                        );
                    }
                    ranges.push((o.base.0, o.base.0 + o.size));
                }
                Err(tc27x_sim::LayoutError::RegionOverflow { .. }) => {
                    // Legitimate once the 32 KiB LMU fills up.
                }
                Err(e) => panic!("case {case}: unexpected error {e}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Counter semantics on random workloads
// ---------------------------------------------------------------------

/// Eq. 4 soundness against ground truth: the stall-derived access
/// bounds dominate the true SRI access counts, for random tasks.
#[test]
fn stall_bounds_dominate_true_counts() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0x50fa_0000 + case);
        let iters = 1 + rng.below_u32(29);
        let loads = rng.below_u32(10);
        let compute = rng.below_u32(20);
        let lmu_code = rng.flip();
        let core = CoreId(1);
        let code_region = if lmu_code {
            Region::Lmu
        } else {
            Region::Pflash0
        };
        let prog = Program::build(|b| {
            b.repeat(iters, |b| {
                for _ in 0..loads {
                    b.load("obj", Pattern::Sequential);
                }
                if compute > 0 {
                    b.compute(compute);
                }
            });
        });
        let spec = TaskSpec::new("t", prog, Placement::new(code_region, true)).with_object(
            DataObject::new("obj", 2 << 10, Placement::new(Region::Dflash, false)),
        );
        let mut sys = System::tc277();
        sys.load(core, &spec).unwrap();
        let out = sys.run().unwrap();
        let k = out.counters(core);
        let g = out.ground_truth(core);

        // n̂ = ⌈stall / cs_min⌉ with cs_co_min = 6, cs_da_min = 10.
        let n_code_bound = k.pmem_stall.div_ceil(6);
        let n_data_bound = k.dmem_stall.div_ceil(10);
        let true_code = g.class_total(Operation::Code);
        let true_data = g.class_total(Operation::Data);
        assert!(
            n_code_bound >= true_code,
            "case {case}: code bound {n_code_bound} < truth {true_code}"
        );
        assert!(
            n_data_bound >= true_data,
            "case {case}: data bound {n_data_bound} < truth {true_data}"
        );

        // CCNT decomposes into at least its stall components.
        assert!(k.ccnt >= k.pmem_stall + k.dmem_stall, "case {case}");
    }
}
