//! Loop-iteration warp for solo runs: once a loop's iterations repeat
//! their predecessors exactly, the event kernel applies many of them in
//! one delta instead of simulating each.
//!
//! # When an iteration repeats
//!
//! Take a core that runs alone (one loaded task, no observer, no trace,
//! no attribution). Its next iteration depends on its architectural
//! state and on its timing state. The timing state is what
//! [`crate::solo`] compares: the crossbar relative to `now` (each
//! slave's remaining busy window, and `now` modulo each TDMA period).
//! To that the warp adds the state that decides hits, misses and flash
//! sequentiality: both caches in canonical form (tag, valid and dirty
//! bits in LRU order per set), the fetch buffer's line, and the last
//! line read from every slave whose sequentiality counts (a program
//! flash, or a slave with a prefetcher).
//!
//! The architectural state differs between iterations only in ways
//! that cannot matter:
//!
//! * the loop's own counter, which only decides when the loop exits;
//! * pattern cursors and the RNG, which only pick addresses. The warp
//!   refuses loops with a site whose address decides anything
//!   ([`sensitive`]): a cacheable access that does not use a fixed
//!   offset (its line picks a cache set), and a shared read that does
//!   not use a fixed offset, from a slave whose sequentiality counts;
//! * the last line read from any other slave, which is only ever
//!   consulted for a flash or prefetch slave.
//!
//! So if the core starts an iteration of a loop (its back-edge was just
//! taken: the loop's counter is at least one) in the same timing state
//! as it started an iteration `p` iterations before, the next `p`
//! iterations repeat those `p` exactly: the same instructions and
//! posts, the same grants at the same relative cycles, the same stalls
//! and misses. Applying `k` such periods at once moves the cycle by `k`
//! times the period's length and every count by `k` times its growth
//! during the period: the stall and miss counters, the ground truth,
//! each slave's served count, delay sum and delay histogram, both
//! caches' hit and miss counts, the cursors (a modular add), the RNG
//! (a fixed step per draw) and the loop counter. `CCNT` is charged
//! lazily by the kernel, exactly as for a block-memo warp: the core is
//! left `Blocked` until the cycle at which the last applied iteration
//! ends.
//!
//! # Guards
//!
//! `k` is clamped so that every applied iteration takes the back-edge
//! (the loop exits where it would), so that the SRI quota covers every
//! applied post (a suspension lands where it would), and so that the
//! run does not pass [`crate::SimConfig::max_cycles`] (the kernel then
//! raises `CycleLimit` exactly where the stepper does). Only the arrival
//! from the back-edge is a visit (the fetch buffer still holds the
//! back-edge's line): re-processing the first instruction after its
//! code fetch happens later in the iteration. An anchor belongs to one
//! run of its loop (the enclosing loops' counters and the activation).
//! Comparing costs a
//! canonical cache snapshot, so a loop compares each new visit with
//! one anchor visit, and renews the anchor after a window of
//! mismatches that doubles each time: a loop that never repeats costs
//! a logarithmic number of snapshots. The randomized differential suite
//! `tests/loop_warp.rs` holds the argument against the per-cycle
//! stepper on every builtin platform.

use crate::core_pipeline::{CorePipeline, State};
use crate::counters::{GroundTruth, KernelStats, SlaveStats};
use crate::linker::InstrKind;
use crate::program::Pattern;
use crate::rng::SplitMix64;
use crate::sri::{RelSri, Sri};
use crate::{DebugCounters, SimConfig, Target};
use std::collections::BTreeMap;

/// No loop.
const NONE: u32 = u32::MAX;

/// Mismatching visits compared against one anchor before the first
/// renewal; each renewal doubles it. A performance knob only.
const FIRST_WINDOW: u32 = 1;

/// The largest window: past it, a loop renews its anchor at this pace.
const MAX_WINDOW: u32 = 1 << 12;

/// Iterations a run of a loop must have left for a visit to anchor: a
/// snapshot costs about as much as simulating a few short iterations.
const MIN_LEFT: u32 = 4;

/// Whether the address of a `pattern` access to a shared object decides
/// anything the warp does not compare (see the module docs).
fn sensitive(pattern: Pattern, cacheable: bool, write: bool, sequential_counts: bool) -> bool {
    !matches!(pattern, Pattern::Fixed(_)) && (cacheable || (!write && sequential_counts))
}

/// The part of a visit's state compared before the caches: cheap to
/// capture, and where the state of most non-repeating loops differs.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Timing {
    activation: u32,
    sri: RelSri,
    fetched_line: Option<u32>,
    sequential_lines: [Option<u32>; Target::COUNT],
}

/// Everything a warp scales: the counts at one visit.
#[derive(Clone, Debug)]
struct Counts {
    cycle: u64,
    counters: DebugCounters,
    truth: GroundTruth,
    rng: SplitMix64,
    cursors: Vec<u32>,
    icache: (u64, u64),
    dcache: (u64, u64),
    slaves: [SlaveStats; Target::COUNT],
}

/// The visit a loop compares later visits against.
#[derive(Clone, Debug)]
struct Anchor {
    /// The counters of the enclosing loops at the visit: with the
    /// activation, they tell one run of the loop from another.
    run: Vec<u32>,
    /// The loop counter at the visit.
    counter: u32,
    timing: Timing,
    /// Canonical i-cache then d-cache state.
    caches: Vec<u64>,
    counts: Counts,
}

/// One counted loop of the loaded image.
#[derive(Clone, Debug)]
struct Loop {
    /// The first instruction of the body.
    target: u32,
    /// The back-edge (`LoopEnd`) instruction; its counter is the loop's.
    end: u32,
    /// The code line of the back-edge.
    end_line: u32,
    count: u32,
    /// The next enclosing loop with the same first instruction.
    outer: u32,
    /// The back-edges of the loops around this one.
    enclosing: Vec<u32>,
    /// No site of the body has an address that decides anything.
    warpable: bool,
    /// The body's sequential and strided sites: `(pc, object size)`.
    /// Their cursors advance by a fixed modular step per iteration.
    cursors: Vec<(u32, u32)>,
    /// The slaves an iteration may post to: its code's, its data's,
    /// and, when it accesses cacheable data, those of every cacheable
    /// object (a miss may write back any dirty line).
    slaves: [bool; Target::COUNT],
    anchor: Option<Box<Anchor>>,
    /// Mismatching visits since the anchor.
    misses: u32,
    window: u32,
}

/// The warp state of one solo run.
#[derive(Debug)]
pub(crate) struct LoopWarp {
    /// `(first instruction, innermost loop)` of every loop body, sorted
    /// by instruction.
    heads: Vec<(u32, u32)>,
    loops: Vec<Loop>,
    /// Slaves whose last read line decides a later service time.
    sequential_counts: [bool; Target::COUNT],
    scratch: Vec<u64>,
}

impl LoopWarp {
    /// The loops of `core`'s image under `config`; `None` when none of
    /// them can warp.
    pub(crate) fn new(core: &CorePipeline, config: &SimConfig) -> Option<Self> {
        let sequential_counts: [bool; Target::COUNT] =
            std::array::from_fn(|i| Target::all()[i].is_pflash() || config.slave_prefetch[i]);
        let image = &core.image;
        let mut write_backs = [false; Target::COUNT];
        for o in image.objects.iter().filter(|o| o.cacheable) {
            if let Some(t) = o.region.sri_target() {
                write_backs[t.index()] = true;
            }
        }
        let mut heads: BTreeMap<u32, u32> = BTreeMap::new();
        let mut loops: Vec<Loop> = Vec::new();
        for (end, instr) in image.instrs.iter().enumerate() {
            let InstrKind::LoopEnd { target, count } = instr.kind else {
                continue;
            };
            let mut warpable = true;
            let mut cursors = Vec::new();
            let mut slaves = [false; Target::COUNT];
            for pc in target..=end as u32 {
                let instr = &image.instrs[pc as usize];
                if let Some(t) = instr.region.sri_target() {
                    slaves[t.index()] = true;
                }
                let InstrKind::Mem {
                    obj,
                    pattern,
                    write,
                } = instr.kind
                else {
                    continue;
                };
                let o = &image.objects[obj as usize];
                if let Some(t) = o.region.sri_target() {
                    slaves[t.index()] = true;
                    if o.cacheable {
                        for (s, w) in slaves.iter_mut().zip(write_backs) {
                            *s |= w;
                        }
                    }
                    if sensitive(pattern, o.cacheable, write, sequential_counts[t.index()]) {
                        warpable = false;
                    }
                }
                if matches!(pattern, Pattern::Sequential | Pattern::Stride(_)) {
                    // A cursor over an object smaller than a word does
                    // not advance by a plain modular add.
                    warpable &= o.size >= 4;
                    cursors.push((pc, o.size));
                }
            }
            // Loops sharing a first instruction nest, and an inner one
            // ends first: chain each new one outside the previous.
            let id = loops.len() as u32;
            match heads.get(&target) {
                None => {
                    heads.insert(target, id);
                }
                Some(&first) => {
                    let mut inner = first;
                    while loops[inner as usize].outer != NONE {
                        inner = loops[inner as usize].outer;
                    }
                    loops[inner as usize].outer = id;
                }
            }
            loops.push(Loop {
                target,
                end: end as u32,
                end_line: instr.addr.line(),
                count,
                outer: NONE,
                enclosing: Vec::new(),
                warpable,
                cursors,
                slaves,
                anchor: None,
                misses: 0,
                window: FIRST_WINDOW,
            });
        }
        for i in 0..loops.len() {
            let (target, end) = (loops[i].target, loops[i].end);
            loops[i].enclosing = loops
                .iter()
                .filter(|o| o.target <= target && o.end > end)
                .map(|o| o.end)
                .collect();
        }
        loops.iter().any(|l| l.warpable).then(|| LoopWarp {
            heads: heads.into_iter().collect(),
            loops,
            sequential_counts,
            scratch: Vec::new(),
        })
    }

    /// The loop whose iteration `core`, about to process its `pc`, is
    /// starting: the innermost loop with its body there and a counter of
    /// at least one (its back-edge was taken), if it is warpable.
    fn starting(&self, core: &CorePipeline) -> Option<usize> {
        let head = self.heads.binary_search_by_key(&core.pc, |&(pc, _)| pc);
        let mut id = self.heads[head.ok()?].1;
        while id != NONE {
            let l = &self.loops[id as usize];
            if core.loop_counters[l.end as usize] > 0 {
                return l.warpable.then_some(id as usize);
            }
            id = l.outer;
        }
        None
    }

    /// Whether the block memo must end a block before `core` processes
    /// its `pc`, so that the start of every warpable iteration is seen
    /// at a kernel loop head.
    pub(crate) fn is_iteration_start(&self, core: &CorePipeline) -> bool {
        self.starting(core).is_some()
    }

    /// The timing state of `core` as iterations of loop `l` see it: the
    /// slaves they never post to are left out.
    fn timing(&self, l: &Loop, core: &CorePipeline, sri: &Sri, now: u64) -> Option<Timing> {
        Some(Timing {
            activation: core.activation,
            sri: sri.relative(now, core.id())?.masked(&l.slaves),
            fetched_line: core.fetched_line,
            sequential_lines: std::array::from_fn(|i| {
                core.last_sri_line[i].filter(|_| self.sequential_counts[i] && l.slaves[i])
            }),
        })
    }

    fn counts(l: &Loop, core: &CorePipeline, sri: &Sri, now: u64) -> Counts {
        Counts {
            cycle: now,
            counters: core.counters,
            truth: core.truth,
            rng: core.rng.clone(),
            cursors: l
                .cursors
                .iter()
                .map(|&(pc, _)| core.cursors[pc as usize])
                .collect(),
            icache: (core.icache.hits(), core.icache.misses()),
            dcache: (core.dcache.hits(), core.dcache.misses()),
            slaves: sri.all_slave_stats(),
        }
    }

    /// Offers `core`, alone in the system and about to process an
    /// instruction at cycle `now`, to the warp. On success the core and
    /// the crossbar carry `k` more repeats of the loop's latest period
    /// and the core sits `Blocked` until they end; returns whether it
    /// warped.
    pub(crate) fn attempt(
        &mut self,
        core: &mut CorePipeline,
        sri: &mut Sri,
        now: u64,
        limit: u64,
        kernel: &mut KernelStats,
    ) -> bool {
        let Some(id) = self.starting(core) else {
            return false;
        };
        let l = &self.loops[id];
        if core.fetched_line != Some(l.end_line) {
            // Not the arrival from the back-edge, which leaves its own
            // line in the fetch buffer: the first instruction again,
            // after its code fetch, later in the same iteration.
            return false;
        }
        let counter = core.loop_counters[l.end as usize];
        let run: Vec<u32> = l
            .enclosing
            .iter()
            .map(|&e| core.loop_counters[e as usize])
            .collect();
        let anchored = l
            .anchor
            .as_ref()
            .filter(|a| a.run == run && a.timing.activation == core.activation)
            .map(|a| a.counter);
        if anchored == Some(counter) {
            return false;
        }
        let Some(timing) = self.timing(l, core, sri, now) else {
            return false;
        };
        let renew = match anchored {
            Some(c) if c < counter => {
                let matched = self.loops[id].anchor.as_ref().is_some_and(|a| {
                    a.timing == timing && {
                        self.scratch.clear();
                        core.icache.canonical_into(&mut self.scratch);
                        core.dcache.canonical_into(&mut self.scratch);
                        a.caches == self.scratch
                    }
                });
                if matched && self.warp(id, core, sri, now, limit, kernel) {
                    return true;
                }
                let l = &mut self.loops[id];
                l.misses += 1;
                let renew = !matched && l.misses >= l.window;
                if renew {
                    l.window = (l.window * 2).min(MAX_WINDOW);
                }
                renew
            }
            // No anchor yet, or a new run of the loop.
            _ => {
                self.loops[id].window = FIRST_WINDOW;
                true
            }
        };
        if renew {
            let l = &mut self.loops[id];
            l.misses = 0;
            l.anchor = None;
            if l.count - counter < MIN_LEFT {
                return false;
            }
            let mut caches = Vec::new();
            core.icache.canonical_into(&mut caches);
            core.dcache.canonical_into(&mut caches);
            let counts = Self::counts(l, core, sri, now);
            l.anchor = Some(Box::new(Anchor {
                run,
                counter,
                timing,
                caches,
                counts,
            }));
        }
        false
    }

    /// Applies as many whole periods (anchor to now) as the guards
    /// allow; `false` when not even one fits.
    fn warp(
        &mut self,
        id: usize,
        core: &mut CorePipeline,
        sri: &mut Sri,
        now: u64,
        limit: u64,
        kernel: &mut KernelStats,
    ) -> bool {
        let l = &self.loops[id];
        let Some(a) = l.anchor.as_deref() else {
            return false;
        };
        let counter = core.loop_counters[l.end as usize];
        let period = u64::from(counter - a.counter);
        let span = now - a.counts.cycle;
        let posts = core.truth.total() - a.counts.truth.total();
        // Every applied iteration must find its posts within the quota
        // and end before the cycle limit. All but the loop's last take
        // the back-edge; the last one may be applied too when the
        // periods end exactly with the loop, since an exiting back-edge
        // times exactly like a taken one.
        let left = u64::from(l.count - counter);
        let mut k = left / period;
        if let (Some(quota), true) = (core.quota_left, posts > 0) {
            k = k.min(quota / posts);
        }
        k = k.min((limit - now) / span);
        let exits = k * period == left;
        if !exits {
            k = k.min((left - 1) / period);
        }
        if k == 0 {
            return false;
        }
        let c = &mut core.counters;
        let e = &a.counts.counters;
        for (now_v, then_v) in [
            (&mut c.pmem_stall, e.pmem_stall),
            (&mut c.dmem_stall, e.dmem_stall),
            (&mut c.pcache_miss, e.pcache_miss),
            (&mut c.dcache_miss_clean, e.dcache_miss_clean),
            (&mut c.dcache_miss_dirty, e.dcache_miss_dirty),
        ] {
            *now_v += k * (*now_v - then_v);
        }
        core.truth.repeat_since(&a.counts.truth, k);
        if let Some(left) = &mut core.quota_left {
            *left -= k * posts;
        }
        core.rng.repeat_since(&a.counts.rng, k);
        for (&(pc, size), &then) in l.cursors.iter().zip(&a.counts.cursors) {
            let size = u64::from(size);
            let cursor = &mut core.cursors[pc as usize];
            let step = (u64::from(*cursor) + size - u64::from(then)) % size;
            *cursor = ((u64::from(*cursor) + (k % size) * step) % size) as u32;
        }
        core.icache.repeat_stats_since(a.counts.icache, k);
        core.dcache.repeat_stats_since(a.counts.dcache, k);
        if exits {
            core.loop_counters[l.end as usize] = 0;
            core.pc = l.end + 1;
        } else {
            core.loop_counters[l.end as usize] += (k * period) as u32;
        }
        let shift = k * span;
        sri.repeat_since(&a.counts.slaves, k, &l.slaves, now, shift);
        core.state = State::Blocked { until: now + shift };
        kernel.loop_warps += 1;
        kernel.loop_warp_cycles += shift;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_address_deciding_sites_are_sensitive() {
        let seq = Pattern::Sequential;
        assert!(sensitive(seq, true, false, false), "cacheable: picks a set");
        assert!(sensitive(seq, true, true, false));
        assert!(sensitive(Pattern::Random, false, false, true), "flash read");
        assert!(
            !sensitive(seq, false, true, true),
            "writes reset the stream"
        );
        assert!(!sensitive(seq, false, false, false), "plain LMU read");
        assert!(!sensitive(Pattern::Fixed(8), true, false, true), "one line");
    }
}
