//! The TriCore pipeline model.
//!
//! Each core executes its linked [`TaskImage`] in order. Instruction
//! fetch goes through the PMI (scratchpad / i-cache / SRI), data accesses
//! through the DMI (scratchpad / d-cache / SRI). Cycles the pipeline
//! spends waiting on the PMI or DMI are charged to the `PMEM_STALL` and
//! `DMEM_STALL` debug counters, exactly like the DSU counters the paper
//! builds on.
//!
//! ## Timing model
//!
//! A request to SRI slave `t` issued at cycle `i` and completing at cycle
//! `c` (queueing + service) stalls the pipeline for `(c − i) − hide`
//! cycles, where `hide` models the work the core overlaps with the
//! transaction: the flash prefetcher's run-ahead for sequential code
//! fetches, and the posted address phase for data accesses (see
//! [`crate::config::SimConfig::hide_cycles`]). In isolation this yields
//! exactly the best-case stall cycles of Table 2; under contention the
//! queueing delay inflates the stall, which is precisely the effect the
//! contention models bound.

use crate::addr::{CoreId, MemMap, Region, LINE_BYTES};
use crate::cache::{Cache, Lookup};
use crate::config::SimConfig;
use crate::counters::GroundTruth;
use crate::linker::{InstrKind, ObjRt, TaskImage};
use crate::program::Pattern;
use crate::rng::SplitMix64;
use crate::sri::{Grant, Sri, SriRequest};
use crate::trace::{Trace, TraceKind};
use crate::{DebugCounters, Operation, Target};
use std::collections::VecDeque;

/// One SRI operation of a (possibly multi-part) memory transaction, e.g.
/// a dirty miss = write-back followed by a line fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ChainOp {
    target: Target,
    class: Operation,
    write: bool,
    service: u32,
    hide: u32,
}

/// What to do once the current SRI chain finishes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AfterChain {
    /// The chain was an instruction fetch: re-process the same pc (the
    /// fetch buffer now holds the line).
    Refetch,
    /// The chain was a data access: charge the 1-cycle execute and move
    /// to the next instruction.
    NextInstr,
}

#[derive(Clone, Debug)]
pub(crate) enum State {
    /// Pick up the instruction at `pc` on the next step.
    Ready,
    /// Busy until the given cycle (compute bursts, post-stall execute).
    Blocked { until: u64 },
    /// An SRI request is posted and awaiting its grant.
    WaitGrant {
        issued: u64,
        hide: u32,
        class: Operation,
        target: Target,
        rest: VecDeque<ChainOp>,
        after: AfterChain,
    },
    /// Waiting for the current chain op's stall window to elapse before
    /// posting the next chain op at `at`.
    PostNext {
        at: u64,
        rest: VecDeque<ChainOp>,
        after: AfterChain,
    },
    /// Task finished.
    Done,
}

/// A live core's [`State`] with every absolute cycle made relative to
/// `now`: what the core's own timing future depends on, whatever cycle
/// it is reached at (see [`crate::solo`]). A pending chain holds at most
/// one further op (a write-back's line fill).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RelState {
    /// [`State::Ready`].
    Ready,
    /// [`State::Blocked`], `left` cycles before `until` (0 once expired:
    /// an expired window processes at the next step like any other).
    Blocked { left: u64 },
    /// [`State::WaitGrant`], posted `age` cycles ago.
    WaitGrant {
        age: u64,
        hide: u32,
        class: Operation,
        target: Target,
        rest: Option<ChainOp>,
        after: AfterChain,
    },
    /// [`State::PostNext`], `left` cycles before `at`.
    PostNext {
        left: u64,
        next: ChainOp,
        after: AfterChain,
    },
}

/// A core with a loaded task.
#[derive(Clone, Debug)]
pub struct CorePipeline {
    id: CoreId,
    pub(crate) image: TaskImage,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) pc: u32,
    pub(crate) activation: u32,
    /// Per-instruction loop iteration counters.
    pub(crate) loop_counters: Vec<u32>,
    /// Per-instruction data-pattern cursors (byte offsets).
    pub(crate) cursors: Vec<u32>,
    pub(crate) rng: SplitMix64,
    /// Line currently held by the fetch buffer.
    pub(crate) fetched_line: Option<u32>,
    /// Last line read over the SRI per target — the PMU prefetch
    /// buffer is one per flash bank and serves code fetches and data
    /// reads alike, so interleaved streams disrupt each other's
    /// sequentiality.
    pub(crate) last_sri_line: [Option<u32>; Target::COUNT],
    pub(crate) state: State,
    pub(crate) counters: DebugCounters,
    pub(crate) truth: GroundTruth,
    finish_cycle: Option<u64>,
    trace: Trace,
    /// Remaining SRI transaction quota (capacity enforcement); `None`
    /// disables enforcement.
    pub(crate) quota_left: Option<u64>,
    /// Set once the quota ran out and the core was suspended.
    suspended: bool,
}

impl CorePipeline {
    /// Creates a core executing `image`.
    pub fn new(id: CoreId, image: TaskImage, config: &SimConfig) -> Self {
        let n = image.instrs.len();
        let seed = image.seed ^ ((id.0 as u64) << 56) ^ 0x5eed_cafe_f00d_0001;
        CorePipeline {
            id,
            icache: Cache::new(config.icache_for(id)),
            dcache: Cache::new(config.dcache_for(id)),
            pc: 0,
            activation: 0,
            loop_counters: vec![0; n],
            cursors: vec![0; n],
            rng: SplitMix64::new(seed),
            fetched_line: None,
            last_sri_line: [None; Target::COUNT],
            state: if n == 0 { State::Done } else { State::Ready },
            counters: DebugCounters::default(),
            truth: GroundTruth::default(),
            finish_cycle: if n == 0 { Some(0) } else { None },
            trace: Trace::with_capacity(config.trace_capacity),
            quota_left: config.sri_quota[id.index()],
            suspended: false,
            image,
        }
    }

    /// Returns `true` if capacity enforcement suspended this core.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// The per-core execution trace (empty unless
    /// [`SimConfig::trace_capacity`] is set).
    ///
    /// [`SimConfig::trace_capacity`]: crate::config::SimConfig::trace_capacity
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The core id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Debug counter snapshot.
    pub fn counters(&self) -> DebugCounters {
        self.counters
    }

    /// Simulator-only ground truth.
    pub fn ground_truth(&self) -> GroundTruth {
        self.truth
    }

    /// Returns `true` once the task has completed all activations.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Cycle at which the task finished (if it has).
    pub fn finish_cycle(&self) -> Option<u64> {
        self.finish_cycle
    }

    /// Name of the loaded task.
    pub fn task_name(&self) -> &str {
        &self.image.name
    }

    /// Advances the core by one cycle; may post one SRI request.
    pub fn step(&mut self, now: u64, sri: &mut Sri, config: &SimConfig, map: &MemMap) {
        match std::mem::replace(&mut self.state, State::Ready) {
            State::Done => {
                self.state = State::Done;
            }
            State::WaitGrant {
                issued,
                hide,
                class,
                target,
                rest,
                after,
            } => {
                // Still waiting for arbitration; the grant arrives via
                // `apply_grant`. Restore state.
                self.counters.ccnt += 1;
                self.state = State::WaitGrant {
                    issued,
                    hide,
                    class,
                    target,
                    rest,
                    after,
                };
            }
            State::Blocked { until } => {
                self.counters.ccnt += 1;
                if now < until {
                    self.state = State::Blocked { until };
                } else {
                    self.process(now, sri, config, map);
                }
            }
            State::PostNext {
                at,
                mut rest,
                after,
            } => {
                self.counters.ccnt += 1;
                if now < at {
                    self.state = State::PostNext { at, rest, after };
                } else {
                    let Some(op) = rest.pop_front() else {
                        unreachable!("PostNext implies another op");
                    };
                    self.post_chain_op(now, sri, op, rest, after);
                }
            }
            State::Ready => {
                self.counters.ccnt += 1;
                self.process(now, sri, config, map);
            }
        }
    }

    /// Delivers an SRI grant to this core.
    pub fn apply_grant(&mut self, _now: u64, grant: Grant) {
        let State::WaitGrant {
            issued,
            hide,
            class,
            target,
            rest,
            after,
        } = std::mem::replace(&mut self.state, State::Ready)
        else {
            panic!("grant delivered to a core that was not waiting");
        };
        let latency = grant.complete_at - issued;
        self.truth.note_latency(target, latency);
        let stall = latency.saturating_sub(hide as u64);
        self.trace.record(
            issued,
            self.id,
            TraceKind::SriComplete {
                target,
                latency,
                stall,
            },
        );
        match class {
            Operation::Code => self.counters.pmem_stall += stall,
            Operation::Data => self.counters.dmem_stall += stall,
        }
        let resume = issued + stall;
        self.state = if rest.is_empty() {
            match after {
                // Re-process the same pc: the fetch buffer now holds the
                // line, so processing falls through to execution.
                AfterChain::Refetch => State::Blocked { until: resume },
                // Data access: one execute cycle on top of the stall.
                AfterChain::NextInstr => State::Blocked { until: resume + 1 },
            }
        } else {
            State::PostNext {
                at: resume,
                rest,
                after,
            }
        };
    }

    /// Returns `true` if this core has a request waiting for a grant.
    pub fn awaiting_grant(&self) -> bool {
        matches!(self.state, State::WaitGrant { .. })
    }

    /// Bulk-charges `delta` provably quiescent cycles: exactly what
    /// `delta` consecutive [`CorePipeline::step`] calls strictly before
    /// the core's next event would do — `CCNT` accrues while the core
    /// waits, nothing else moves. A finished core charges nothing
    /// (`step` on `Done` is a pure no-op).
    pub(crate) fn advance(&mut self, delta: u64) {
        if !matches!(self.state, State::Done) {
            self.counters.charge_busy(delta);
        }
    }

    /// Delegates to the [`crate::engine::EventSource`] impl without
    /// needing the trait in scope.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        crate::engine::EventSource::next_event(self, now)
    }

    /// SRI transactions this core has posted so far.
    pub(crate) fn posts(&self) -> u64 {
        self.truth.total()
    }

    /// Remaining SRI quota (`None` without enforcement).
    pub(crate) fn quota_left(&self) -> Option<u64> {
        self.quota_left
    }

    /// The core's state relative to `now` ([`RelState`]); `None` for a
    /// finished core or a chain longer than one further op.
    pub(crate) fn relative(&self, now: u64) -> Option<RelState> {
        let single = |rest: &VecDeque<ChainOp>| match rest.len() {
            0 => Some(None),
            1 => Some(rest.front().copied()),
            _ => None,
        };
        Some(match &self.state {
            State::Done => return None,
            State::Ready => RelState::Ready,
            State::Blocked { until } => RelState::Blocked {
                left: until.saturating_sub(now),
            },
            State::WaitGrant {
                issued,
                hide,
                class,
                target,
                rest,
                after,
            } => RelState::WaitGrant {
                age: now - issued,
                hide: *hide,
                class: *class,
                target: *target,
                rest: single(rest)?,
                after: *after,
            },
            State::PostNext { at, rest, after } => RelState::PostNext {
                left: at.saturating_sub(now),
                next: single(rest)??,
                after: *after,
            },
        })
    }

    fn post_chain_op(
        &mut self,
        now: u64,
        sri: &mut Sri,
        op: ChainOp,
        rest: VecDeque<ChainOp>,
        after: AfterChain,
    ) {
        // Capacity enforcement (reference [16]): a core out of SRI
        // budget is suspended instead of issuing the transaction.
        if let Some(left) = &mut self.quota_left {
            if *left == 0 {
                self.suspended = true;
                self.state = State::Done;
                self.trace.record(now, self.id, TraceKind::TaskComplete);
                return;
            }
            *left -= 1;
        }
        // Counts are recorded at issue time; the end-to-end latency is
        // only known at grant time (`apply_grant` updates the per-target
        // maximum via `note_latency`).
        self.truth.record(op.target, op.class, op.write, 0);
        self.trace.record(
            now,
            self.id,
            TraceKind::SriPost {
                target: op.target,
                class: op.class,
                write: op.write,
            },
        );
        sri.post(
            now,
            SriRequest {
                core: self.id,
                target: op.target,
                class: op.class,
                write: op.write,
                service: op.service,
            },
        );
        self.state = State::WaitGrant {
            issued: now,
            hide: op.hide,
            class: op.class,
            target: op.target,
            rest,
            after,
        };
    }

    /// Processes the instruction at `pc` (fetch check, then execute).
    fn process(&mut self, now: u64, sri: &mut Sri, config: &SimConfig, map: &MemMap) {
        // End-of-stream / activation wrap.
        if self.pc as usize >= self.image.instrs.len() {
            self.activation += 1;
            if self.activation >= self.image.activations {
                self.state = State::Done;
                self.finish_cycle = Some(now);
                self.trace.record(now, self.id, TraceKind::TaskComplete);
                // The wrap-up step itself is not an executed cycle.
                self.counters.ccnt -= 1;
                return;
            }
            self.pc = 0;
        }

        let instr = self.image.instrs[self.pc as usize].clone();

        // --- Instruction fetch through the PMI ---
        let line = instr.addr.line();
        if self.fetched_line != Some(line) {
            if instr.region.is_local() {
                self.fetched_line = Some(line);
            } else if instr.cacheable {
                match self.icache.access(line, false) {
                    Lookup::Hit => {
                        self.fetched_line = Some(line);
                    }
                    Lookup::Miss { .. } => {
                        self.counters.pcache_miss += 1;
                        self.trace
                            .record(now, self.id, TraceKind::IcacheMiss { line });
                        self.start_code_fetch(now, sri, config, instr.region, line);
                        return;
                    }
                }
            } else {
                // Non-cacheable shared code: every line change refetches.
                self.start_code_fetch(now, sri, config, instr.region, line);
                return;
            }
        }

        // --- Execute ---
        match instr.kind {
            InstrKind::Compute(n) => {
                self.pc += 1;
                self.state = State::Blocked {
                    until: now + n.max(1) as u64,
                };
            }
            InstrKind::LoopEnd { target, count } => {
                let c = &mut self.loop_counters[self.pc as usize];
                *c += 1;
                if *c < count {
                    self.pc = target;
                } else {
                    *c = 0;
                    self.pc += 1;
                }
                self.state = State::Blocked { until: now + 1 };
            }
            InstrKind::Mem {
                obj,
                pattern,
                write,
            } => {
                let idx = self.pc as usize;
                self.pc += 1;
                self.exec_mem(now, sri, config, map, idx, obj, pattern, write);
            }
        }
    }

    fn start_code_fetch(
        &mut self,
        now: u64,
        sri: &mut Sri,
        config: &SimConfig,
        region: Region,
        line: u32,
    ) {
        let target = region
            .sri_target()
            .unwrap_or_else(|| unreachable!("shared code regions have an SRI target"));
        let sequential = self.last_sri_line[target.index()] == Some(line.wrapping_sub(1));
        let timing = config.slave(target);
        let service = if sequential && target.is_pflash() {
            timing.service_sequential
        } else {
            timing.service
        };
        let hide = config.hide_cycles(Operation::Code, target, sequential);
        self.last_sri_line[target.index()] = Some(line);
        self.fetched_line = Some(line);
        self.post_chain_op(
            now,
            sri,
            ChainOp {
                target,
                class: Operation::Code,
                write: false,
                service,
                hide,
            },
            VecDeque::new(),
            AfterChain::Refetch,
        );
    }

    /// The offset [`CorePipeline::next_offset`] would return for this
    /// cursor, without committing the cursor/RNG mutation. The block
    /// memo peeks before a d-cache probe so that a miss (block boundary,
    /// executed live) leaves the cursor untouched for the live path.
    pub(crate) fn peek_offset(&self, idx: usize, pattern: Pattern, size: u32) -> u32 {
        match pattern {
            Pattern::Sequential | Pattern::Stride(_) => self.cursors[idx] % size,
            Pattern::Random => {
                let words = (size / 4).max(1);
                self.rng.clone().below_u32(words) * 4
            }
            Pattern::Fixed(o) => o % size,
        }
    }

    /// Computes the next access offset for a pattern cursor.
    pub(crate) fn next_offset(&mut self, idx: usize, pattern: Pattern, size: u32) -> u32 {
        match pattern {
            Pattern::Sequential => {
                let off = self.cursors[idx] % size;
                self.cursors[idx] = (off + 4) % size.max(4);
                off
            }
            Pattern::Stride(s) => {
                let off = self.cursors[idx] % size;
                self.cursors[idx] = (off + s.max(4)) % size.max(4);
                off
            }
            Pattern::Random => {
                let words = (size / 4).max(1);
                self.rng.below_u32(words) * 4
            }
            Pattern::Fixed(o) => o % size,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_mem(
        &mut self,
        now: u64,
        sri: &mut Sri,
        config: &SimConfig,
        map: &MemMap,
        idx: usize,
        obj: u16,
        pattern: Pattern,
        write: bool,
    ) {
        // Copy the layout fields out: this runs once per data access,
        // and cloning the object would copy its name too.
        let ObjRt {
            base,
            size,
            region,
            cacheable,
            ..
        } = self.image.objects[obj as usize];
        let off = self.next_offset(idx, pattern, size);
        let addr = base.offset(off);

        // Scratchpad: single-cycle.
        if region.is_local() {
            self.state = State::Blocked { until: now + 1 };
            return;
        }
        let target = region
            .sri_target()
            .unwrap_or_else(|| unreachable!("shared data regions have an SRI target"));
        let timing = config.slave(target);
        let data_hide = config.hide_cycles(Operation::Data, target, false);
        // The flash prefetch buffer also streams sequential data reads.
        let line = addr.line();
        let sequential = self.last_sri_line[target.index()] == Some(line.wrapping_sub(1));
        let read_service = if sequential && target.is_pflash() {
            timing.service_sequential
        } else {
            timing.service
        };

        if cacheable {
            match self.dcache.access(addr.line(), write) {
                Lookup::Hit => {
                    self.state = State::Blocked { until: now + 1 };
                }
                Lookup::Miss { evicted_dirty } => {
                    self.trace.record(
                        now,
                        self.id,
                        TraceKind::DcacheMiss {
                            line: addr.line(),
                            write,
                            dirty_eviction: evicted_dirty.is_some(),
                        },
                    );
                    let mut chain = VecDeque::new();
                    if let Some(victim_line) = evicted_dirty {
                        self.counters.dcache_miss_dirty += 1;
                        let victim_addr = crate::addr::Addr(victim_line * LINE_BYTES);
                        let victim_loc = map.decode(victim_addr).unwrap_or_else(|| {
                            unreachable!("victim lines come from mapped addresses")
                        });
                        let victim_target = victim_loc.region.sri_target().unwrap_or_else(|| {
                            unreachable!("cacheable data lives in shared regions")
                        });
                        chain.push_back(ChainOp {
                            target: victim_target,
                            class: Operation::Data,
                            write: true,
                            service: config.slave(victim_target).writeback_service,
                            hide: 0,
                        });
                    } else {
                        self.counters.dcache_miss_clean += 1;
                    }
                    // The line fill.
                    chain.push_back(ChainOp {
                        target,
                        class: Operation::Data,
                        write: false,
                        service: read_service,
                        hide: data_hide,
                    });
                    self.last_sri_line[target.index()] = Some(line);
                    let Some(first) = chain.pop_front() else {
                        unreachable!("chain has at least the fill");
                    };
                    self.post_chain_op(now, sri, first, chain, AfterChain::NextInstr);
                }
            }
        } else {
            // Non-cacheable: one word transaction per access. Writes
            // invalidate the prefetch stream rather than extending it.
            if write {
                self.last_sri_line[target.index()] = None;
            } else {
                self.last_sri_line[target.index()] = Some(line);
            }
            self.post_chain_op(
                now,
                sri,
                ChainOp {
                    target,
                    class: Operation::Data,
                    write,
                    service: if write { timing.service } else { read_service },
                    hide: data_hide,
                },
                VecDeque::new(),
                AfterChain::NextInstr,
            );
        }
    }
}

impl crate::engine::EventSource for CorePipeline {
    /// The next cycle at which [`CorePipeline::step`] does anything
    /// beyond `CCNT += 1`:
    ///
    /// * `Ready` acts immediately;
    /// * `Blocked`/`PostNext` act at their recorded deadline (clamped to
    ///   `now` — a deadline in the past fires on the next step);
    /// * `WaitGrant` is passive: the wake-up comes from the SRI arbiter,
    ///   whose own claim covers the queued request;
    /// * `Done` never acts again.
    fn next_event(&self, now: u64) -> Option<u64> {
        match &self.state {
            State::Done | State::WaitGrant { .. } => None,
            State::Ready => Some(now),
            State::Blocked { until } => Some((*until).max(now)),
            State::PostNext { at, .. } => Some((*at).max(now)),
        }
    }
}
