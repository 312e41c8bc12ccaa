//! Solo-tail splicing: once every other core has finished, the observed
//! core of a co-run runs alone, and the rest of its run is the tail of
//! its own isolation run shifted in time. The event kernel can then
//! compute the finish cycle instead of simulating the tail.
//!
//! # Why the shift is exact
//!
//! Contention changes only *when* things happen, never *what* happens:
//! the instruction stream, cache LRU order, pattern cursors, the RNG,
//! quota use and prefetch sequentiality are all functions of the
//! core's own program order. So after its k-th SRI post the core's
//! architectural state is the same in a co-run and in isolation. What
//! can differ is timing state, and only in relative form does it decide
//! the future: the core's [`State`](crate::core_pipeline) deadlines,
//! each slave's remaining busy window and queued request, and — for
//! TDMA slaves, whose grants depend on absolute time — `now` modulo the
//! schedule period. Every other decision the kernel makes (fast-forward
//! gaps, memo warps, round-robin and fixed-priority grants) depends on
//! differences of cycles only.
//!
//! A solo run records a sparse [`SoloTimeline`]: at the first kernel
//! loop head after every 64th SRI post (`STRIDE`), the cycle and the
//! relative timing state. A co-run that reaches the same post
//! count with every other core finished and an equal relative state
//! evolves exactly as the solo run did from its checkpoint, so it
//! finishes at `now + (T_solo − t_solo(k))`. If it does not match, the
//! co-run simply keeps simulating and tries again at the next stride.

use crate::addr::CoreId;
use crate::core_pipeline::{CorePipeline, RelState};
use crate::engine::StepObserver;
use crate::sri::RelSri;
use crate::system::System;

/// SRI posts between two checkpoints: a purely internal performance
/// knob (like the block memo's `MAX_BLOCK`). A smaller stride splices
/// sooner after the contender ends and stores more checkpoints.
const STRIDE: u64 = 64;

/// Everything about the observed core's timing future, relative to the
/// current cycle, plus a cheap guard that the architectural state is
/// the one recorded (`pc`, `activation`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Relative {
    pc: u32,
    activation: u32,
    state: RelState,
    quota_left: Option<u64>,
    sri: RelSri,
}

impl Relative {
    /// The state of `core` at the current cycle; `None` when it has no
    /// compact relative form (the core finished, or another core has a
    /// request queued).
    fn capture(sys: &System, core: &CorePipeline) -> Option<Relative> {
        Some(Relative {
            pc: core.pc,
            activation: core.activation,
            state: core.relative(sys.now)?,
            quota_left: core.quota_left(),
            sri: sys.sri.relative(sys.now, core.id())?,
        })
    }
}

/// One recorded checkpoint: the cycle of the loop head and the state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Checkpoint {
    cycle: u64,
    state: Relative,
}

/// The sparse solo timeline of one task on one core, recorded by
/// [`System::run_solo`] and consumed by
/// [`System::run_until_spliced`].
///
/// A timeline is valid for co-runs of the same task on the same core
/// under the same configuration (platform, quota); the caller keys it
/// accordingly. Entry `i` holds the checkpoint after post
/// `(i + 1) × STRIDE`, or `None` where the state had no compact form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoloTimeline {
    core: CoreId,
    /// The loop head the solo run stopped at: one past the cycle the
    /// task finished (or was suspended) in.
    end: u64,
    /// The task's CCNT at the end: `end − 1` for a finished task, `end`
    /// for a suspended one (suspension is itself an executed cycle).
    ccnt: u64,
    checkpoints: Vec<Option<Checkpoint>>,
}

impl SoloTimeline {
    /// The core the task ran on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The co-run CCNT that matches a spliced co-run ending at loop head
    /// `end` (see [`Splicer`]).
    pub(crate) fn ccnt_at(&self, end: u64) -> u64 {
        end - (self.end - self.ccnt)
    }

    /// Recorded checkpoints (0 for a run on the reference stepper,
    /// which records none).
    pub fn checkpoints(&self) -> usize {
        self.checkpoints.iter().flatten().count()
    }
}

/// Records a checkpoint of `core` after every [`STRIDE`]-th post.
pub(crate) struct Recorder {
    core: CoreId,
    next: u64,
    checkpoints: Vec<Option<Checkpoint>>,
}

impl Recorder {
    pub(crate) fn new(core: CoreId) -> Self {
        Recorder {
            core,
            next: STRIDE,
            checkpoints: Vec::new(),
        }
    }

    /// The timeline of a run that stopped at loop head `end` with the
    /// task's CCNT at `ccnt`.
    pub(crate) fn finish(mut self, end: u64, ccnt: u64) -> SoloTimeline {
        self.checkpoints.shrink_to_fit();
        SoloTimeline {
            core: self.core,
            end,
            ccnt,
            checkpoints: self.checkpoints,
        }
    }
}

/// The loaded core `core` of `sys`, if its post count just reached
/// `next` (posts grow by at most one per executed cycle, so equality
/// catches every stride exactly once).
fn at_stride(sys: &System, core: CoreId, next: u64) -> Option<&CorePipeline> {
    sys.cores[core.index()]
        .as_ref()
        .filter(|c| c.posts() == next)
}

impl StepObserver for Recorder {
    fn after_step(&mut self, sys: &System) -> Option<u64> {
        let core = at_stride(sys, self.core, self.next)?;
        self.next += STRIDE;
        let state = Relative::capture(sys, core);
        self.checkpoints.push(state.map(|state| Checkpoint {
            cycle: sys.now,
            state,
        }));
        None
    }
}

/// Ends a co-run at the first checkpoint where the observed core runs
/// alone in its recorded relative state, answering the loop head the
/// full co-run would stop at (the solo run's, shifted).
pub(crate) struct Splicer<'t> {
    timeline: &'t SoloTimeline,
    next: u64,
}

impl<'t> Splicer<'t> {
    pub(crate) fn new(timeline: &'t SoloTimeline) -> Self {
        Splicer {
            timeline,
            next: STRIDE,
        }
    }
}

impl StepObserver for Splicer<'_> {
    fn after_step(&mut self, sys: &System) -> Option<u64> {
        let observed = self.timeline.core;
        let core = at_stride(sys, observed, self.next)?;
        let index = (self.next / STRIDE - 1) as usize;
        self.next += STRIDE;
        let alone = sys
            .cores
            .iter()
            .flatten()
            .all(|c| c.id() == observed || c.is_done());
        if !alone {
            return None;
        }
        let checkpoint = self.timeline.checkpoints.get(index)?.as_ref()?;
        (Relative::capture(sys, core)? == checkpoint.state)
            .then(|| sys.now + (self.timeline.end - checkpoint.cycle))
    }
}
