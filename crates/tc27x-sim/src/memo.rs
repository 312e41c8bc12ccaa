//! Basic-block timing memoization for the event kernel.
//!
//! A *block* is a maximal run of instructions that a core executes
//! without touching the SRI: compute bursts, loop branches, scratchpad
//! accesses, and cache-*hit* fetches and data accesses. Inside such a
//! run the core is invisible to every other component — it posts no
//! requests, writes no trace records, and touches no counter except the
//! lazily-accounted `CCNT` — so its timing is a pure function of
//! core-private state. The event kernel exploits this twice:
//!
//! * **cold path** — instead of scheduling one kernel iteration per
//!   blocked/compute cycle, [`BlockMemo::attempt`] *interprets* the
//!   whole block in a tight loop, applies its state effects directly,
//!   and parks the core in a single `Blocked { until }` window covering
//!   the block's full cycle cost;
//! * **hot path** — the interpreted block is fingerprinted (FNV-1a over
//!   `(pc, fetch-buffer line)`, the same discipline as the profile memo
//!   cache in the `mbta` crate) and recorded with its cycle delta and
//!   state deltas, so the next visit with matching guards fast-forwards
//!   it without re-interpreting a single instruction.
//!
//! # Why bit-identity to the reference stepper holds
//!
//! The warp replaces a sequence of per-cycle steps whose *only*
//! externally visible action is `CCNT += 1` per cycle — and `CCNT` is
//! not charged eagerly. The core is left in exactly the
//! `Blocked { until }` state the live execution would reach, and the
//! kernel's existing lazy accounting ([`crate::engine`] fast-forwards
//! plus the `Blocked` arm of [`CorePipeline::step`]) charges `CCNT`
//! cycle-accurately whether or not the run survives to the end of the
//! window (cycle limits and observed-core completion cut it short in
//! some runs). Everything else a block mutates — `pc`, activation
//! wraps, loop counters, pattern cursors, the RNG, the fetch buffer and
//! the cache LRU/dirty state — is core-private and unobservable until
//! the core's next live step, at which point the warp has applied
//! precisely the mutations the reference stepper would have.
//!
//! Replay is guarded, not trusted: an entry is applied only when every
//! input the recorded block depended on matches — first-touch loop
//! counters, exact cursors for cacheable sites, the RNG state when a
//! cacheable random access occurred, residency of every recorded cache
//! line, and enough activations left to cover the recorded wraps.
//! Pattern cursors of scratchpad-resident objects evolve as pure
//! modular increments, so those need no guard at all and are replayed
//! as deltas. A fingerprint match whose guards fail counts as an
//! *invalidation* and falls back to re-interpretation (which re-records
//! the block, displacing the stale entry).
//!
//! Co-runner SRI posts need no invalidation sweep: blocks contain no
//! SRI operations by construction, so no co-runner action can change
//! what a block does or how long it takes — contention only ever shows
//! up at block *boundaries* (misses and non-cacheable accesses), which
//! always execute live through the unmodified [`CorePipeline::step`]
//! path. The adversarial co-run cases in `tests/memo_adversarial.rs`
//! and the 500-case differential suite in `tests/engine_equivalence.rs`
//! hold the whole argument to bit-identity, traces included.

use crate::core_pipeline::{CorePipeline, State};
use crate::counters::KernelStats;
use crate::linker::{InstrKind, ObjRt};
use crate::program::Pattern;
use crate::rng::SplitMix64;
use crate::warp::LoopWarp;

/// Hard cap on instructions interpreted per block: bounds the work done
/// in one warp and keeps entries small. Purely a performance knob — any
/// instruction boundary is a sound cut point.
const MAX_BLOCK: u32 = 512;

/// Replays shorter than this many cycles are declined: guard checking
/// plus delta application costs about as much as simply stepping the
/// couple of instructions live, so warping them buys nothing. Purely a
/// performance knob — the entry stays recorded and the live path is
/// bit-identical by construction.
const MIN_REPLAY_CYCLES: u64 = 4;

/// First-touch guard and final value of one loop counter.
#[derive(Clone, PartialEq, Eq, Debug)]
enum LoopSite {
    /// The site's counter reset inside the block (an execution took the
    /// exit branch), so later branch directions depend on the absolute
    /// counter value: guard on the exact entry value, restore the end
    /// value.
    Exact { idx: u32, entry: u32, end: u32 },
    /// Every execution of the site took the back-edge. Branch
    /// directions are then reproduced from *any* entry value `c` with
    /// `c + execs < count` (each of the `execs` increments stays below
    /// the trip count), and the counter simply advances by `execs` —
    /// this is what lets a block spanning a *partial* loop iteration
    /// replay across iterations, where the counter differs every visit.
    Advance { idx: u32, execs: u32, count: u32 },
}

/// Exact-cursor guard and final value (cacheable sites, whose access
/// offsets — and therefore cache lines — depend on the cursor value).
#[derive(Clone, PartialEq, Eq, Debug)]
struct CursorExact {
    idx: u32,
    entry: u32,
    end: u32,
}

/// Guard-free modular cursor advance (scratchpad sites: the offset is
/// never observable, and `k` sequential/stride steps compose to a
/// single `+= advance (mod modulus)` for *any* starting cursor).
#[derive(Clone, PartialEq, Eq, Debug)]
struct CursorDelta {
    idx: u32,
    advance: u32,
    modulus: u32,
}

/// How a block moves the core's RNG.
#[derive(Clone, PartialEq, Eq, Debug)]
enum RngEffect {
    /// No random-pattern site executed.
    Untouched,
    /// Only scratchpad random sites: the drawn values are unobservable,
    /// so skipping the stream forward by the draw count is exact.
    Draws(u64),
    /// A cacheable random site executed: the drawn offsets picked cache
    /// lines, so replay requires the exact entry state and restores the
    /// exact end state.
    Exact { entry: SplitMix64, end: SplitMix64 },
}

/// One recorded cache access. Every recorded access was a hit, and
/// replay re-performs it through the real cache so LRU order, dirty
/// bits and hit statistics move exactly as live execution would.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct HitAccess {
    /// `true` for the d-cache, `false` for the i-cache.
    dcache: bool,
    line: u32,
    write: bool,
}

/// A memoized stall-free block: entry fingerprint, guards, and the
/// complete state delta of executing it.
#[derive(Clone, PartialEq, Eq, Debug)]
struct BlockEntry {
    /// Entry `pc` (fingerprint component).
    pc: u32,
    /// Entry fetch-buffer line (fingerprint component).
    fetched_line: Option<u32>,
    /// Cycle cost of the whole block.
    dt: u64,
    /// Non-finishing activation wraps inside the block.
    wraps: u32,
    pc_end: u32,
    fetched_line_end: Option<u32>,
    loops: Vec<LoopSite>,
    cursor_exact: Vec<CursorExact>,
    cursor_delta: Vec<CursorDelta>,
    rng: RngEffect,
    accesses: Vec<HitAccess>,
}

/// FNV-1a 64 fingerprint of a block entry point.
fn fingerprint(pc: u32, fetched_line: Option<u32>) -> u64 {
    let mut bytes = [0u8; 9];
    bytes[..4].copy_from_slice(&pc.to_le_bytes());
    match fetched_line {
        Some(line) => {
            bytes[4] = 1;
            bytes[5..].copy_from_slice(&line.to_le_bytes());
        }
        None => bytes[4] = 0,
    }
    obs::fnv1a(&bytes)
}

/// Per-core block-memo table: direct-mapped over the entry fingerprint,
/// so lookup order and eviction are a pure function of the executed
/// instruction stream (no `HashMap` iteration-order hazards). Entries
/// are boxed so an empty table costs 8 bytes per slot — a run that
/// never records pays almost nothing for the table.
#[derive(Clone, Debug)]
pub(crate) struct BlockMemo {
    slots: Vec<Option<Box<BlockEntry>>>,
    /// The last few block heads whose attempt declined — `(pc,
    /// fetched_line + 1)`, zero line meaning an empty fetch buffer.
    /// A core stuck in a tight SRI-hammering loop attempts the same
    /// unprofitable head (a too-short block, or a data access that
    /// keeps missing the cache) at almost every interesting cycle;
    /// this tiny round-robin cache turns those repeats into a single
    /// compare. Purely a fast path: a skipped attempt just runs live,
    /// and a head that later becomes profitable is retried as soon as
    /// other declines rotate it out.
    declined: [(u32, u32); DECLINE_SLOTS],
    declined_next: u8,
}

/// Remembered declined heads; a hammering loop alternates between at
/// most a couple of heads, and anything bigger should fall through to
/// the real table.
const DECLINE_SLOTS: usize = 4;

impl BlockMemo {
    /// Creates a table with `capacity` direct-mapped slots, rounded up
    /// to the next power of two so slot selection is a mask rather than
    /// a division (0 disables memoization entirely).
    pub(crate) fn new(capacity: usize) -> Self {
        BlockMemo {
            slots: vec![
                None;
                capacity.next_power_of_two().min(1 << 20) * usize::from(capacity > 0)
            ],
            declined: [(u32::MAX, u32::MAX); DECLINE_SLOTS],
            declined_next: 0,
        }
    }

    /// Remembers `head` as declined and reports the attempt as such.
    fn decline(&mut self, head: (u32, u32)) -> bool {
        self.declined[self.declined_next as usize] = head;
        self.declined_next = (self.declined_next + 1) % DECLINE_SLOTS as u8;
        false
    }

    /// Tries to warp `core` across one stall-free block starting at
    /// simulation cycle `now`. On success the core's state carries all
    /// of the block's effects and sits in `Blocked { until }` at the
    /// block's exit cycle; `CCNT` is deliberately *not* charged (the
    /// kernel's lazy accounting covers the window exactly). Returns
    /// `false` — leaving the core untouched — when the very next
    /// instruction is a block boundary and must run live.
    ///
    /// The caller must only invoke this for a core in `Ready` or
    /// expired-`Blocked` state (about to process an instruction).
    pub(crate) fn attempt(
        &mut self,
        core: &mut CorePipeline,
        now: u64,
        kernel: &mut KernelStats,
        cut: Option<&LoopWarp>,
    ) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        // Statically-boundary instructions — shared non-cacheable data
        // ops — head no block, ever: skip the table entirely so cores
        // hammering the SRI pay one match, not a hash, per cycle.
        if let Some(instr) = core.image.instrs.get(core.pc as usize) {
            if let InstrKind::Mem { obj, .. } = instr.kind {
                let o = &core.image.objects[obj as usize];
                if !o.region.is_local() && !o.cacheable {
                    return false;
                }
            }
        }
        let head = (core.pc, core.fetched_line.map_or(0, |l| l + 1));
        if self.declined.contains(&head) {
            return false;
        }
        let slot =
            (fingerprint(core.pc, core.fetched_line) & (self.slots.len() as u64 - 1)) as usize;
        if let Some(entry) = &self.slots[slot] {
            if entry.pc == core.pc && entry.fetched_line == core.fetched_line {
                if entry.dt < MIN_REPLAY_CYCLES {
                    // Too short to be worth a warp; step it live.
                    return self.decline(head);
                }
                if replay_guards_hold(entry, core) {
                    apply(entry, core, now);
                    kernel.memo_hits += 1;
                    kernel.memo_warp_cycles += entry.dt;
                    return true;
                }
                kernel.memo_invalidations += 1;
            }
        }
        // Miss (or stale entry): interpret the block live, recording it.
        let Some(entry) = interpret(core, now, cut) else {
            return self.decline(head);
        };
        kernel.memo_records += 1;
        kernel.memo_warp_cycles += entry.dt;
        if self.slots[slot]
            .as_ref()
            .is_some_and(|old| old.pc != entry.pc || old.fetched_line != entry.fetched_line)
        {
            kernel.memo_evictions += 1;
        }
        self.slots[slot] = Some(Box::new(entry));
        true
    }
}

/// Checks every guard of `entry` against the core's current state.
fn replay_guards_hold(entry: &BlockEntry, core: &CorePipeline) -> bool {
    // Every recorded wrap must leave activations to spare, or the block
    // would finish the task mid-replay.
    if entry.wraps > 0
        && core.activation as u64 + entry.wraps as u64 >= core.image.activations as u64
    {
        return false;
    }
    if !entry.loops.iter().all(|l| match l {
        LoopSite::Exact { idx, entry, .. } => core.loop_counters[*idx as usize] == *entry,
        LoopSite::Advance { idx, execs, count } => {
            (core.loop_counters[*idx as usize] as u64 + *execs as u64) < *count as u64
        }
    }) {
        return false;
    }
    if !entry
        .cursor_exact
        .iter()
        .all(|c| core.cursors[c.idx as usize] == c.entry)
    {
        return false;
    }
    if let RngEffect::Exact { entry: rng_in, .. } = &entry.rng {
        if core.rng != *rng_in {
            return false;
        }
    }
    // Every recorded access was a hit; hits never change the resident
    // set, so residency against the *entry* state implies residency at
    // each access's replay position.
    entry.accesses.iter().all(|a| {
        if a.dcache {
            core.dcache.probe(a.line)
        } else {
            core.icache.probe(a.line)
        }
    })
}

/// Applies a verified entry to the core.
fn apply(entry: &BlockEntry, core: &mut CorePipeline, now: u64) {
    for a in &entry.accesses {
        if a.dcache {
            core.dcache.replay_hit(a.line, a.write);
        } else {
            core.icache.replay_hit(a.line, a.write);
        }
    }
    for l in &entry.loops {
        match l {
            LoopSite::Exact { idx, end, .. } => core.loop_counters[*idx as usize] = *end,
            LoopSite::Advance { idx, execs, .. } => {
                core.loop_counters[*idx as usize] += *execs;
            }
        }
    }
    for c in &entry.cursor_exact {
        core.cursors[c.idx as usize] = c.end;
    }
    for d in &entry.cursor_delta {
        let cur = &mut core.cursors[d.idx as usize];
        *cur = (*cur + d.advance) % d.modulus;
    }
    match &entry.rng {
        RngEffect::Untouched => {}
        RngEffect::Draws(n) => core.rng.advance(*n),
        RngEffect::Exact { end, .. } => core.rng = end.clone(),
    }
    core.activation += entry.wraps;
    core.fetched_line = entry.fetched_line_end;
    core.pc = entry.pc_end;
    core.state = State::Blocked {
        until: now + entry.dt,
    };
}

/// Records the first-touch value of a guarded site, once per index.
fn first_touch(sites: &mut Vec<(u32, u32)>, idx: u32, value: u32) {
    if !sites.iter().any(|(i, _)| *i == idx) {
        sites.push((idx, value));
    }
}

/// Recording state for one `LoopEnd` site.
struct LoopRecord {
    idx: u32,
    /// Counter value at the site's first execution in the block.
    entry: u32,
    /// Number of executions in the block.
    execs: u32,
    /// Trip count (identical at every execution of the same site).
    count: u32,
    /// An execution took the exit branch (counter reset to zero).
    reset: bool,
}

/// Notes one execution of a `LoopEnd` site (before the increment).
fn note_loop_exec(records: &mut Vec<LoopRecord>, idx: u32, value: u32, count: u32, taken: bool) {
    let rec = match records.iter_mut().find(|r| r.idx == idx) {
        Some(r) => r,
        None => {
            records.push(LoopRecord {
                idx,
                entry: value,
                execs: 0,
                count,
                reset: false,
            });
            records
                .last_mut()
                .unwrap_or_else(|| unreachable!("pushed above"))
        }
    };
    rec.execs += 1;
    if !taken {
        rec.reset = true;
    }
}

/// Accumulates a modular cursor advance for a scratchpad site.
fn accumulate_delta(deltas: &mut Vec<CursorDelta>, idx: u32, step: u32, modulus: u32) {
    if let Some(d) = deltas.iter_mut().find(|d| d.idx == idx) {
        d.advance = (d.advance + step) % modulus;
    } else {
        deltas.push(CursorDelta {
            idx,
            advance: step % modulus,
            modulus,
        });
    }
}

/// Interprets one stall-free block starting at the instruction the core
/// is about to process, mutating the core exactly as the per-cycle path
/// would, and returns the recorded entry — or `None` if the very first
/// instruction is a block boundary (SRI access or task completion) and
/// nothing was executed.
///
/// On return the core sits in `Blocked { until: now + dt }`; `CCNT` is
/// not charged (see [`BlockMemo::attempt`]). With a loop warp `cut`,
/// the block also ends before the start of any iteration the warp could
/// apply, so the kernel sees every such start at a loop head.
fn interpret(core: &mut CorePipeline, now: u64, cut: Option<&LoopWarp>) -> Option<BlockEntry> {
    let entry_pc = core.pc;
    let entry_fetched = core.fetched_line;
    let rng_at_entry = core.rng.clone();
    let mut t = now;
    let mut executed = 0u32;
    let mut wraps = 0u32;
    let mut loop_records: Vec<LoopRecord> = Vec::new();
    let mut exact_entries: Vec<(u32, u32)> = Vec::new();
    let mut cursor_delta: Vec<CursorDelta> = Vec::new();
    let mut draws = 0u64;
    let mut rng_exact = false;
    let mut accesses: Vec<HitAccess> = Vec::new();

    while executed < MAX_BLOCK {
        if executed > 0 && cut.is_some_and(|w| w.is_iteration_start(core)) {
            break;
        }
        // Activation wrap (free within the same processing cycle). A
        // wrap that would *finish* the task runs live: completion
        // writes a trace record and adjusts CCNT.
        if core.pc as usize >= core.image.instrs.len() {
            if core.activation as u64 + 1 >= core.image.activations as u64 {
                break;
            }
            core.activation += 1;
            core.pc = 0;
            wraps += 1;
        }
        let instr = core.image.instrs[core.pc as usize].clone();

        // Fetch through the PMI: scratchpad and i-cache hits stay in
        // the block; anything that would post to the SRI is a boundary.
        let line = instr.addr.line();
        if core.fetched_line != Some(line) {
            if instr.region.is_local() {
                core.fetched_line = Some(line);
            } else if instr.cacheable && core.icache.probe(line) {
                core.icache.replay_hit(line, false);
                accesses.push(HitAccess {
                    dcache: false,
                    line,
                    write: false,
                });
                core.fetched_line = Some(line);
            } else {
                break;
            }
        }

        // Execute.
        match instr.kind {
            InstrKind::Compute(n) => {
                core.pc += 1;
                t += n.max(1) as u64;
            }
            InstrKind::LoopEnd { target, count } => {
                let idx = core.pc;
                let before = core.loop_counters[idx as usize];
                let c = &mut core.loop_counters[idx as usize];
                *c += 1;
                let taken = *c < count;
                if taken {
                    core.pc = target;
                } else {
                    *c = 0;
                    core.pc += 1;
                }
                note_loop_exec(&mut loop_records, idx, before, count, taken);
                t += 1;
            }
            InstrKind::Mem {
                obj,
                pattern,
                write,
            } => {
                let idx = core.pc;
                // Copy the layout fields out rather than clone the
                // object (and its name) on every access.
                let ObjRt {
                    base,
                    size,
                    region,
                    cacheable,
                    ..
                } = core.image.objects[obj as usize];
                if region.is_local() {
                    // Offset is unobservable; only the cursor/RNG move.
                    match pattern {
                        Pattern::Sequential if size >= 4 => {
                            accumulate_delta(&mut cursor_delta, idx, 4, size);
                        }
                        Pattern::Stride(s) if size >= 4 => {
                            accumulate_delta(&mut cursor_delta, idx, s.max(4) % size, size);
                        }
                        Pattern::Sequential | Pattern::Stride(_) => {
                            // Tiny object: the cursor recurrence is not
                            // a plain modular add — guard it exactly.
                            first_touch(&mut exact_entries, idx, core.cursors[idx as usize]);
                        }
                        Pattern::Random => draws += 1,
                        Pattern::Fixed(_) => {}
                    }
                    let _ = core.next_offset(idx as usize, pattern, size);
                    core.pc += 1;
                    t += 1;
                } else if cacheable {
                    // Peek the offset without committing so a miss (run
                    // live) leaves the cursor for the live path.
                    let off = core.peek_offset(idx as usize, pattern, size);
                    let line2 = base.offset(off).line();
                    if core.dcache.probe(line2) {
                        match pattern {
                            Pattern::Sequential | Pattern::Stride(_) => {
                                first_touch(&mut exact_entries, idx, core.cursors[idx as usize]);
                            }
                            Pattern::Random => rng_exact = true,
                            Pattern::Fixed(_) => {}
                        }
                        let _ = core.next_offset(idx as usize, pattern, size);
                        core.dcache.replay_hit(line2, write);
                        accesses.push(HitAccess {
                            dcache: true,
                            line: line2,
                            write,
                        });
                        core.pc += 1;
                        t += 1;
                    } else {
                        break;
                    }
                } else {
                    // Non-cacheable shared data: SRI boundary.
                    break;
                }
            }
        }
        executed += 1;
    }

    if executed == 0 {
        return None;
    }
    core.state = State::Blocked { until: t };
    Some(BlockEntry {
        pc: entry_pc,
        fetched_line: entry_fetched,
        dt: t - now,
        wraps,
        pc_end: core.pc,
        fetched_line_end: core.fetched_line,
        loops: loop_records
            .into_iter()
            .map(|r| {
                if r.reset {
                    LoopSite::Exact {
                        idx: r.idx,
                        entry: r.entry,
                        end: core.loop_counters[r.idx as usize],
                    }
                } else {
                    LoopSite::Advance {
                        idx: r.idx,
                        execs: r.execs,
                        count: r.count,
                    }
                }
            })
            .collect(),
        cursor_exact: exact_entries
            .into_iter()
            .map(|(idx, entry)| CursorExact {
                idx,
                entry,
                end: core.cursors[idx as usize],
            })
            .collect(),
        cursor_delta,
        rng: if rng_exact {
            RngEffect::Exact {
                entry: rng_at_entry,
                end: core.rng.clone(),
            }
        } else if draws > 0 {
            RngEffect::Draws(draws)
        } else {
            RngEffect::Untouched
        },
        accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CoreId, Region};
    use crate::config::SimConfig;
    use crate::layout::{DataObject, Placement, TaskSpec};
    use crate::program::{Pattern, Program};
    use crate::system::System;

    fn pspr_compute_task(core: CoreId) -> TaskSpec {
        let prog = Program::build(|b| {
            b.repeat(10, |b| {
                b.compute(3);
                b.load("buf", Pattern::Sequential);
            });
        });
        TaskSpec::new("memo-probe", prog, Placement::pspr(core)).with_object(DataObject::new(
            "buf",
            1 << 10,
            Placement::dspr(core),
        ))
    }

    /// Builds a loaded core directly, bypassing the engines.
    fn fresh_core(core: CoreId, spec: &TaskSpec) -> (CorePipeline, System) {
        let mut sys = System::with_config(SimConfig::tc277_reference());
        sys.load(core, spec).unwrap();
        let pipeline = sys.cores[core.index()].take().unwrap();
        (pipeline, sys)
    }

    #[test]
    fn fingerprint_distinguishes_fetch_state() {
        assert_ne!(fingerprint(4, None), fingerprint(4, Some(0)));
        assert_ne!(fingerprint(4, Some(1)), fingerprint(4, Some(2)));
        assert_ne!(fingerprint(4, Some(1)), fingerprint(5, Some(1)));
        assert_eq!(fingerprint(4, Some(1)), fingerprint(4, Some(1)));
    }

    #[test]
    fn interpret_stops_before_task_completion() {
        let c = CoreId(1);
        let spec = pspr_compute_task(c);
        let (mut pipeline, _sys) = fresh_core(c, &spec);
        // The whole task is scratchpad-resident: one block covers it up
        // to (not including) the finishing wrap.
        let entry = interpret(&mut pipeline, 0, None).unwrap();
        assert!(entry.dt > 0);
        assert_eq!(entry.wraps, 0);
        assert!(!pipeline.is_done(), "completion must run live");
        assert_eq!(pipeline.pc as usize, pipeline.image.instrs.len());
    }

    #[test]
    fn interpret_declines_at_a_boundary() {
        let c = CoreId(1);
        let prog = Program::build(|b| {
            b.load("shared", Pattern::Sequential);
        });
        let spec = TaskSpec::new("boundary", prog, Placement::pspr(c)).with_object(
            DataObject::new("shared", 1 << 10, Placement::new(Region::Lmu, false)),
        );
        let (mut pipeline, _sys) = fresh_core(c, &spec);
        assert!(
            interpret(&mut pipeline, 0, None).is_none(),
            "a leading SRI access cannot be memoized"
        );
        assert_eq!(pipeline.pc, 0, "the core must be left untouched");
        assert_eq!(pipeline.counters().ccnt, 0);
    }

    #[test]
    fn record_then_replay_reproduces_state_and_timing() {
        let c = CoreId(1);
        let spec = pspr_compute_task(c);
        let (mut recorded, _sys) = fresh_core(c, &spec);
        let (mut replayed, _sys2) = fresh_core(c, &spec);

        let mut memo = BlockMemo::new(64);
        let mut kernel = KernelStats::default();
        assert!(memo.attempt(&mut recorded, 5, &mut kernel, None));
        assert_eq!(kernel.memo_records, 1);
        assert_eq!(kernel.memo_hits, 0);

        assert!(memo.attempt(&mut replayed, 5, &mut kernel, None));
        assert_eq!(kernel.memo_hits, 1);
        assert_eq!(recorded.pc, replayed.pc);
        assert_eq!(recorded.cursors, replayed.cursors);
        assert_eq!(recorded.loop_counters, replayed.loop_counters);
        assert_eq!(recorded.rng, replayed.rng);
        assert_eq!(recorded.fetched_line, replayed.fetched_line);
        match (&recorded.state, &replayed.state) {
            (State::Blocked { until: a }, State::Blocked { until: b }) => assert_eq!(a, b),
            other => panic!("expected both blocked, got {other:?}"),
        }
        assert_eq!(kernel.memo_warp_cycles % 2, 0, "both passes count cycles");
    }

    #[test]
    fn guard_failure_counts_invalidation_and_rerecords() {
        let c = CoreId(1);
        let spec = pspr_compute_task(c);
        let (mut a, _sys) = fresh_core(c, &spec);
        let mut memo = BlockMemo::new(64);
        let mut kernel = KernelStats::default();
        assert!(memo.attempt(&mut a, 0, &mut kernel, None));

        // Same entry point, perturbed cursor state: Sequential cursor
        // deltas are guard-free, so force a loop-counter mismatch
        // instead (first-touch guard).
        let (mut b, _sys2) = fresh_core(c, &spec);
        let loop_idx = b
            .image
            .instrs
            .iter()
            .position(|i| matches!(i.kind, InstrKind::LoopEnd { .. }))
            .unwrap();
        b.loop_counters[loop_idx] = 3;
        assert!(memo.attempt(&mut b, 0, &mut kernel, None));
        assert_eq!(kernel.memo_invalidations, 1);
        assert_eq!(kernel.memo_records, 2, "guard failure re-records");
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let c = CoreId(1);
        let spec = pspr_compute_task(c);
        let (mut pipeline, _sys) = fresh_core(c, &spec);
        let mut memo = BlockMemo::new(0);
        let mut kernel = KernelStats::default();
        assert!(!memo.attempt(&mut pipeline, 0, &mut kernel, None));
        assert_eq!(kernel.memo_records, 0);
        assert_eq!(pipeline.pc, 0);
    }

    #[test]
    fn cursor_delta_composition_matches_stepped_cursors() {
        // k modular steps compose to one modular add for any entry.
        for size in [4u32, 8, 36, 1000] {
            for step in [4u32, 8, 12, 32] {
                for entry in [0u32, 3, size - 1] {
                    let mut live = entry % size;
                    let mut advance = 0u32;
                    for _ in 0..7 {
                        live = (live % size + step) % size;
                        advance = (advance + step) % size;
                    }
                    assert_eq!(
                        (entry % size + advance) % size,
                        live,
                        "{size} {step} {entry}"
                    );
                }
            }
        }
    }
}
