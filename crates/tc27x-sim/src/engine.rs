//! The event-driven timing kernel and the engine selector.
//!
//! The reference stepper ([`crate::reference`]) polls every component
//! every cycle. That is wasteful precisely in the windows the paper is
//! about: while all three cores sit out a multi-cycle PFLASH/DFLASH/LMU
//! transaction, nothing can change except the cycle counters. The event
//! kernel exploits this: every component *names* the next cycle at
//! which stepping it could do anything beyond bulk cycle accounting
//! ([`EventSource::next_event`]), the kernel keeps those claims in a
//! deterministic binary-heap queue keyed by `(cycle, source rank)`, and
//! fast-forwards `now` across the provably quiescent gap up to the
//! earliest claim, charging the skipped cycles to the busy cores in one
//! delta ([`crate::DebugCounters::charge_busy`]).
//!
//! At every *interesting* cycle the kernel then executes exactly one
//! iteration of the reference tick loop — all cores stepped in index
//! order, one SRI arbitration step, grants applied in index order — so
//! counters, traces, [`crate::system::RunOutcome`] and `max_cycles`
//! behaviour are bit-identical to the stepper by construction. The
//! randomized differential suite in `tests/engine_equivalence.rs` and
//! the quiescence argument in `DESIGN.md` §4d keep that claim honest.

use crate::addr::CoreId;
use crate::core_pipeline::{CorePipeline, State};
use crate::memo::BlockMemo;
use crate::system::{SimError, System};
use crate::warp::LoopWarp;
use std::fmt;
use std::str::FromStr;

/// Which timing kernel drives a [`System`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Engine {
    /// The reference cycle stepper: every component is polled every
    /// cycle. Kept as the differential oracle for the event kernel.
    Tick,
    /// The event-driven kernel: components schedule their next
    /// interesting cycle and quiescent gaps are skipped. Bit-identical
    /// to [`Engine::Tick`], and the default.
    #[default]
    Event,
}

impl Engine {
    /// Both engines, reference first.
    pub fn all() -> [Engine; 2] {
        [Engine::Tick, Engine::Event]
    }

    /// The CLI spelling of this engine.
    pub fn as_str(&self) -> &'static str {
        match self {
            Engine::Tick => "tick",
            Engine::Event => "event",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error for an unrecognized engine name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseEngineError(String);

impl fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown engine `{}` (expected tick or event)", self.0)
    }
}

impl std::error::Error for ParseEngineError {}

impl FromStr for Engine {
    type Err = ParseEngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tick" | "reference" => Ok(Engine::Tick),
            "event" => Ok(Engine::Event),
            other => Err(ParseEngineError(other.to_string())),
        }
    }
}

/// A component the event kernel can ask for its next interesting cycle.
///
/// The contract, for a source queried at cycle `now`:
///
/// * `Some(e)` with `e >= now` means stepping the component at any
///   cycle in `now..e` does nothing beyond bulk cycle accounting, and
///   the component must be stepped at `e`;
/// * `None` means the component is passive: it will not act on its own
///   at any future cycle (it is done, or it is waiting on another
///   source — e.g. a core awaiting an SRI grant, which the SRI's own
///   claim covers).
///
/// The kernel re-queries every source after every executed cycle, so a
/// claim only needs to be valid until the next state change.
pub trait EventSource {
    /// The earliest cycle `>= now` at which this component must be
    /// stepped, or `None` when it is passive.
    fn next_event(&self, now: u64) -> Option<u64>;
}

/// A hook the event kernel calls at the loop head after every executed
/// cycle (never after a fast-forward or a memo warp, which post
/// nothing). Returning `Some(cycles)` ends the run early with that
/// answer ([`crate::solo`]'s splice). The `()` observer of ordinary runs
/// compiles away.
pub(crate) trait StepObserver {
    /// Whether the observer watches the run at all. Only an unwatched
    /// run may warp loop iterations ([`crate::warp`]): a warp skips the
    /// cycles, and the posts, an observer would inspect.
    const WATCHES: bool = true;

    /// Inspects `sys` right after an executed cycle.
    fn after_step(&mut self, sys: &System) -> Option<u64>;
}

impl StepObserver for () {
    const WATCHES: bool = false;

    #[inline(always)]
    fn after_step(&mut self, _sys: &System) -> Option<u64> {
        None
    }
}

/// Number of claim slots: one per core, plus the SRI arbiter.
const RANKS: usize = CoreId::COUNT + 1;

/// The SRI arbiter's rank — after the cores, mirroring the tick loop's
/// cores-then-SRI order within a cycle.
pub(crate) const SRI_RANK: u8 = CoreId::COUNT as u8;

/// A deterministic event queue: a per-rank claim table scanned for its
/// minimum. With only [`RANKS`] sources (three cores plus the SRI), a
/// four-slot array scan beats any heap — no allocation, no stale
/// entries, and the result is a pure function of the claims (ties
/// resolve to the same cycle whichever rank holds them), independent of
/// update order.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    scheduled: [Option<u64>; RANKS],
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Records `rank`'s current claim, replacing any previous one.
    #[inline]
    pub(crate) fn claim(&mut self, rank: u8, at: Option<u64>) {
        self.scheduled[rank as usize] = at;
    }

    /// The earliest currently-valid claim.
    #[inline]
    pub(crate) fn earliest(&self) -> Option<u64> {
        self.scheduled.iter().flatten().copied().min()
    }
}

/// Bulk-accounts `delta` provably quiescent cycles: every unfinished
/// core charges them to CCNT exactly as `delta` per-cycle steps would
/// have, without touching any other state.
fn advance_idle(sys: &mut System, delta: u64) {
    if delta == 0 {
        return;
    }
    for core in sys.cores.iter_mut().flatten() {
        core.advance(delta);
    }
}

/// Runs `sys` to the predicate on the event kernel. Mirrors
/// [`crate::reference::run_tick`] decision for decision; see the module
/// docs for why the two are bit-identical. `Ok(Some(cycles))` means
/// `observer` ended the run early with that answer.
pub(crate) fn run_event<O: StepObserver>(
    sys: &mut System,
    keep_going: impl Fn(&[Option<CorePipeline>]) -> bool,
    observer: &mut O,
) -> Result<Option<u64>, SimError> {
    let limit = sys.config.max_cycles;
    let mut queue = EventQueue::new();
    // Per-core block-memo tables, private to this run. The reference
    // stepper never constructs them, so memo statistics stay zero under
    // `Engine::Tick` — they are kernel-dependent telemetry like
    // `ff_jumps`.
    let mut memos: Vec<BlockMemo> = if sys.config.block_memo && sys.config.block_memo_capacity > 0 {
        (0..CoreId::COUNT)
            .map(|_| BlockMemo::new(sys.config.block_memo_capacity))
            .collect()
    } else {
        Vec::new()
    };
    // The loop warp of a lone, unwatched core: its slot and loops.
    let loaded: Vec<usize> = (0..sys.cores.len())
        .filter(|&i| sys.cores[i].is_some())
        .collect();
    let c = &sys.config;
    let mut warp: Option<(usize, LoopWarp)> = match loaded.as_slice() {
        &[i] if !O::WATCHES && c.trace_capacity == 0 && !c.attribution => sys.cores[i]
            .as_ref()
            .and_then(|core| LoopWarp::new(core, c))
            .map(|w| (i, w)),
        _ => None,
    };
    loop {
        if !keep_going(&sys.cores) {
            return Ok(None);
        }
        if sys.now >= limit {
            return Err(SimError::CycleLimit { limit });
        }
        // Refresh every claim against the current state. Cores rank
        // 0..COUNT, the SRI last — the same order the tick loop polls.
        for (rank, slot) in sys.cores.iter().enumerate() {
            queue.claim(
                rank as u8,
                slot.as_ref().and_then(|c| c.next_event(sys.now)),
            );
        }
        queue.claim(SRI_RANK, sys.sri.next_event(sys.now));

        let Some(at) = queue.earliest() else {
            // Fully quiescent: every core is done and the SRI holds no
            // queued work (a core awaiting a grant always implies a
            // queued request, so it cannot be reached here). State can
            // never change again, but the predicate still wants cycles —
            // the stepper would idle to the limit; do so in one jump.
            debug_assert!(
                sys.cores.iter().flatten().all(CorePipeline::is_done),
                "an unfinished core must always hold or imply a claim"
            );
            let gap = limit - sys.now;
            if gap > 0 {
                sys.kernel.ff_jumps += 1;
                sys.kernel.gap_hist.observe(gap);
            }
            advance_idle(sys, gap);
            sys.now = limit;
            continue;
        };

        // Fast-forward across the quiescent gap, clamped to the cycle
        // limit so the loop head raises CycleLimit exactly where the
        // stepper would. A claim at or beyond the limit also bounces
        // back to the head: the stepper checks the limit *before*
        // executing a cycle, so cycle `limit` itself never runs.
        if at > sys.now {
            let target = at.min(limit);
            let gap = target - sys.now;
            sys.kernel.ff_jumps += 1;
            sys.kernel.gap_hist.observe(gap);
            advance_idle(sys, gap);
            sys.now = target;
            if target < at || target >= limit {
                continue;
            }
        }

        // A lone core about to start a loop iteration is offered to the
        // loop warp first: if the iteration repeats an earlier one, the
        // warp applies whole periods of them and leaves the core
        // `Blocked` until they end; the loop re-plans from the head.
        if let Some((i, w)) = warp.as_mut() {
            let now = sys.now;
            if let Some(core) = sys.cores[*i].as_mut() {
                let about_to_process = matches!(core.state, State::Ready)
                    || matches!(core.state, State::Blocked { until } if until <= now);
                if about_to_process && w.attempt(core, &mut sys.sri, now, limit, &mut sys.kernel) {
                    continue;
                }
            }
        }

        // Before paying for a full cycle, offer every core that is
        // about to process an instruction to the block memo: a core at
        // the head of a stall-free block is warped across the whole
        // block in one delta — left `Blocked` at the block's exit with
        // CCNT accounted lazily, exactly like any other multi-cycle
        // window — and the loop re-plans from the head, since the warp
        // may have opened a quiescent gap worth fast-forwarding. The
        // attempt must run *here*, after the fast-forward, so it always
        // sees the core exactly at a block head; cores that decline
        // (the next instruction is an SRI boundary) run live below.
        if !memos.is_empty() {
            let now = sys.now;
            let mut warped = false;
            for (i, slot) in sys.cores.iter_mut().enumerate() {
                let Some(core) = slot.as_mut() else { continue };
                let about_to_process = matches!(core.state, State::Ready)
                    || matches!(core.state, State::Blocked { until } if until <= now);
                if about_to_process {
                    debug_assert!(
                        !sys.sri.has_pending(core.id()),
                        "a core with an in-flight SRI request is never Ready/expired-Blocked"
                    );
                    // A warped core's blocks end where its iterations
                    // start, so the warp sees every iteration start.
                    let cut = warp.as_ref().filter(|(w, _)| *w == i).map(|(_, w)| w);
                    if memos[i].attempt(core, now, &mut sys.kernel, cut) {
                        warped = true;
                    }
                }
            }
            if warped {
                continue;
            }
        }

        // Execute one interesting cycle exactly like a tick iteration:
        // cores in index order, one arbitration step, grants in index
        // order.
        sys.kernel
            .depth_hist
            .observe(queue.scheduled.iter().flatten().count() as u64);
        let now = sys.now;
        for core in sys.cores.iter_mut().flatten() {
            core.step(now, &mut sys.sri, &sys.config, &sys.map);
        }
        let grants = sys.sri.step(now);
        for (i, grant) in grants.iter().enumerate() {
            if let (Some(g), Some(core)) = (grant, sys.cores[i].as_mut()) {
                core.apply_grant(now, *g);
            }
        }
        sys.now = now + 1; // tick-loop-ok: the one-cycle execute step
        if let Some(cycles) = observer.after_step(sys) {
            return Ok(Some(cycles));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_parses_and_prints() {
        assert_eq!("tick".parse::<Engine>().unwrap(), Engine::Tick);
        assert_eq!("reference".parse::<Engine>().unwrap(), Engine::Tick);
        assert_eq!("event".parse::<Engine>().unwrap(), Engine::Event);
        assert_eq!(Engine::Tick.to_string(), "tick");
        assert_eq!(Engine::Event.to_string(), "event");
        let err = "warp".parse::<Engine>().unwrap_err();
        assert!(err.to_string().contains("warp"));
        assert_eq!(Engine::default(), Engine::Event);
        assert_eq!(Engine::all(), [Engine::Tick, Engine::Event]);
    }

    #[test]
    fn queue_orders_by_cycle_then_rank() {
        let mut q = EventQueue::new();
        q.claim(2, Some(10));
        q.claim(0, Some(10));
        q.claim(1, Some(5));
        assert_eq!(q.earliest(), Some(5));
        // Rank 1 reschedules past the tie; ranks 0 and 2 tie at 10 and
        // the earliest claim is unchanged by their insertion order.
        q.claim(1, Some(20));
        assert_eq!(q.earliest(), Some(10));
    }

    #[test]
    fn queue_discards_stale_claims() {
        let mut q = EventQueue::new();
        q.claim(0, Some(3));
        q.claim(0, Some(7));
        q.claim(1, None);
        assert_eq!(q.earliest(), Some(7), "the cycle-3 entry is stale");
        q.claim(0, None);
        assert_eq!(q.earliest(), None);
    }

    #[test]
    fn queue_ignores_reclaim_of_same_cycle() {
        let mut q = EventQueue::new();
        q.claim(3, Some(42));
        for _ in 0..100 {
            q.claim(3, Some(42));
        }
        assert_eq!(q.earliest(), Some(42));
    }
}
