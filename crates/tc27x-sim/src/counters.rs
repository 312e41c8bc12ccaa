//! Simulator-only ground truth and statistics.
//!
//! The DSU counter block itself is [`crate::DebugCounters`] (defined in
//! `platform`, shared with the models): exactly what the AURIX Debug
//! Support Unit exposes and the *only* information the contention
//! models may consume. [`GroundTruth`] records the per-target access counts the real
//! hardware cannot report — the simulator keeps them for the ideal model
//! (Eq. 1 assumes full PTAC knowledge) and for validating the counter
//! semantics in tests.

use crate::attribution::AttributionMatrix;
use crate::{Operation, Target};
use obs::Hist;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Timing-kernel statistics — how the event kernel spent the run, for
/// the telemetry layer. These are *non-deterministic* telemetry in the
/// layer's sense: the reference stepper never fast-forwards, so the
/// numbers legitimately differ between the bit-identical engines and
/// must never enter a deterministic record.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct KernelStats {
    /// Quiescent-gap fast-forwards taken by the event kernel.
    pub ff_jumps: u64,
    /// Distribution of fast-forward gap sizes, in cycles.
    pub gap_hist: Hist,
    /// Distribution of the claims-queue depth (live claims) at each
    /// executed cycle.
    pub depth_hist: Hist,
    /// Block-memo replays: a fingerprinted stall-free block was
    /// fast-forwarded in one kernel delta (see [`crate::memo`]).
    pub memo_hits: u64,
    /// Block-memo recordings: a block was interpreted live and its
    /// timing captured for future replay.
    pub memo_records: u64,
    /// Block-memo invalidations: a fingerprint matched but a guard
    /// (loop/cursor/RNG state, cache residency, remaining activations)
    /// differed, so the entry could not be replayed at this visit.
    pub memo_invalidations: u64,
    /// Block-memo evictions: a recording displaced a different block
    /// from its direct-mapped slot.
    pub memo_evictions: u64,
    /// Cycles skipped by block-memo replays (sum of replayed deltas).
    pub memo_warp_cycles: u64,
    /// Loop warps: a solo core's loop iterations repeated their
    /// predecessors exactly and were applied in one delta (see
    /// [`crate::warp`]).
    pub loop_warps: u64,
    /// Cycles skipped by loop warps.
    pub loop_warp_cycles: u64,
}

/// Per-slave SRI statistics for the telemetry layer. Unlike
/// [`KernelStats`] these are *deterministic*: grants — and therefore
/// queueing delays — are bit-identical across engines and worker
/// counts.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SlaveStats {
    /// Transactions served.
    pub served: u64,
    /// Total queueing delay imposed on granted requests, in cycles.
    pub queue_delay: u64,
    /// Distribution of per-grant queueing delays.
    pub delay_hist: Hist,
}

/// A post-run statistics snapshot of a [`crate::System`], assembled by
/// [`crate::System::stats`]. Kept off [`crate::system::RunOutcome`] on
/// purpose: outcomes are compared bit-for-bit across engines, while
/// `kernel` is engine-dependent by nature.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SimStats {
    /// Per-slave SRI statistics, indexed like [`Target::all`].
    pub slaves: [SlaveStats; Target::COUNT],
    /// Event-kernel statistics (all zero under the reference stepper).
    pub kernel: KernelStats,
    /// Contention attribution ledger — all-zero unless the run enabled
    /// [`crate::config::SimConfig::with_attribution`]. Deterministic:
    /// recorded at the shared grant site, so byte-identical across
    /// engines, memo settings and worker counts.
    pub attribution: AttributionMatrix,
}

impl SimStats {
    /// The statistics of one slave.
    pub fn slave(&self, target: Target) -> &SlaveStats {
        &self.slaves[target.index()]
    }
}

/// Per-(target, class) access counts — simulator ground truth that the
/// real DSU cannot provide (§3.3: "AURIX TC27x lacks SRI access counters
/// on a per-resource basis").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct GroundTruth {
    counts: [[u64; 2]; Target::COUNT],
    /// Of which: write transactions (stores and write-backs).
    writes: [u64; Target::COUNT],
    /// Maximum end-to-end latency observed for a single transaction,
    /// per target (queueing + service).
    max_latency: [u64; Target::COUNT],
}

impl GroundTruth {
    /// Records one SRI transaction (counted at issue time).
    pub fn record(&mut self, target: Target, class: Operation, write: bool, latency: u64) {
        self.counts[target.index()][class.index()] += 1;
        if write {
            self.writes[target.index()] += 1;
        }
        self.note_latency(target, latency);
    }

    /// Updates the per-target maximum end-to-end latency (known only once
    /// the transaction is granted).
    pub fn note_latency(&mut self, target: Target, latency: u64) {
        let m = &mut self.max_latency[target.index()];
        *m = (*m).max(latency);
    }

    /// Records `k` more copies of every transaction recorded since
    /// `earlier`, a past snapshot of this ground truth. The latency
    /// maxima already cover the repeated transactions.
    pub(crate) fn repeat_since(&mut self, earlier: &GroundTruth, k: u64) {
        for (t, e) in self.counts.iter_mut().zip(&earlier.counts) {
            for (c, ec) in t.iter_mut().zip(e) {
                *c += k * (*c - ec);
            }
        }
        for (w, e) in self.writes.iter_mut().zip(&earlier.writes) {
            *w += k * (*w - e);
        }
    }

    /// Access count for a (target, class) pair — the paper's `n_x^{t,o}`.
    pub fn accesses(&self, target: Target, class: Operation) -> u64 {
        self.counts[target.index()][class.index()]
    }

    /// Total SRI accesses of a class across all targets.
    pub fn class_total(&self, class: Operation) -> u64 {
        Target::all().iter().map(|t| self.accesses(*t, class)).sum()
    }

    /// Total SRI accesses.
    pub fn total(&self) -> u64 {
        self.class_total(Operation::Code) + self.class_total(Operation::Data)
    }

    /// Write transactions to a target.
    pub fn writes(&self, target: Target) -> u64 {
        self.writes[target.index()]
    }

    /// Largest observed end-to-end latency at a target.
    pub fn max_latency(&self, target: Target) -> u64 {
        self.max_latency[target.index()]
    }
}

impl Index<(Target, Operation)> for GroundTruth {
    type Output = u64;
    fn index(&self, (t, c): (Target, Operation)) -> &u64 {
        &self.counts[t.index()][c.index()]
    }
}

impl IndexMut<(Target, Operation)> for GroundTruth {
    fn index_mut(&mut self, (t, c): (Target, Operation)) -> &mut u64 {
        &mut self.counts[t.index()][c.index()]
    }
}

impl fmt::Display for GroundTruth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in Target::all() {
            write!(
                f,
                "{}: co={} da={}  ",
                t,
                self.accesses(t, Operation::Code),
                self.accesses(t, Operation::Data)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut g = GroundTruth::default();
        g.record(Target::Pf0, Operation::Code, false, 16);
        g.record(Target::Pf0, Operation::Code, false, 12);
        g.record(Target::Lmu, Operation::Data, true, 11);
        assert_eq!(g.accesses(Target::Pf0, Operation::Code), 2);
        assert_eq!(g.accesses(Target::Lmu, Operation::Data), 1);
        assert_eq!(g.class_total(Operation::Code), 2);
        assert_eq!(g.total(), 3);
        assert_eq!(g.writes(Target::Lmu), 1);
        assert_eq!(g.writes(Target::Pf0), 0);
        assert_eq!(g.max_latency(Target::Pf0), 16);
    }

    #[test]
    fn index_operators() {
        let mut g = GroundTruth::default();
        g[(Target::Dfl, Operation::Data)] = 7;
        assert_eq!(g[(Target::Dfl, Operation::Data)], 7);
    }
}
