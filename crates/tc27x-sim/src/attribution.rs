//! Contention attribution: charging every SRI wait cycle to the
//! aggressor that caused it.
//!
//! The crossbar already knows the exact queueing delay of every grant
//! (`grant cycle − posting cycle`, see [`crate::sri::Sri::queue_delay`]).
//! This module splits that delay *by cause*: while a request waited,
//! which core's transaction was occupying the slave? Each wait cycle is
//! charged to a `(victim core, aggressor core, slave)` triple at grant
//! time; cycles during which no transaction occupied the slave — TDMA
//! slot alignment, service gaps under a fitting-check — go to a
//! synthetic *schedule* column so the ledger stays conservative:
//!
//! > per slave, the attributed cycles sum **exactly** to the slave's
//! > `queue_delay`.
//!
//! Recording happens inside [`crate::sri::Sri::step`], the single grant
//! site shared by the per-cycle reference stepper and the event kernel
//! (block-memo warps never run while a core has SRI work in flight), so
//! an enabled recorder produces byte-identical matrices across engines,
//! memo settings and worker counts. Recording is opt-in
//! ([`crate::config::SimConfig::with_attribution`]) and zero-cost when
//! off: the crossbar holds an `Option<Box<..>>` that stays `None`.

use crate::addr::CoreId;
use crate::sri::Pending;
use crate::{Operation, Target};

/// Aggressor column index for wait cycles no core's transaction covers
/// (TDMA slot alignment and fitting gaps).
pub const SCHED_COL: usize = CoreId::COUNT;

/// Number of aggressor columns: one per core plus [`SCHED_COL`].
pub const AGGRESSOR_COLS: usize = CoreId::COUNT + 1;

/// Access classes tracked per victim (code, data).
const CLASSES: usize = 2;

fn class_idx(class: Operation) -> usize {
    match class {
        Operation::Code => 0,
        Operation::Data => 1,
    }
}

/// The attribution ledger: per slave, a `victim × aggressor` matrix of
/// wait cycles, plus per-victim access-class splits and per-grant
/// maxima for the bound-tightness auditor.
///
/// Matrices are plain integers with a commutative, associative
/// [`AttributionMatrix::merge`], so folding per-job matrices in a fixed
/// (job-key) order is deterministic at any worker count.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AttributionMatrix {
    /// `wait[slave][victim][aggressor][class]` in cycles; the last
    /// aggressor column is [`SCHED_COL`], classes are `[code, data]`.
    wait: [[[[u64; CLASSES]; AGGRESSOR_COLS]; CoreId::COUNT]; Target::COUNT],
    /// Grants counted per victim and access class.
    grants_by_class: [[[u64; CLASSES]; CoreId::COUNT]; Target::COUNT],
    /// Largest cross-core wait any single grant suffered, per (slave,
    /// victim). Cycles a victim spent behind its *own* other-master
    /// transaction (a PMI fetch and a DMI access can target the same
    /// slave) or behind the schedule are excluded: the arbitration
    /// bound this maximum is audited against covers contender-caused
    /// delay only.
    max_wait: [[u64; CoreId::COUNT]; Target::COUNT],
}

impl AttributionMatrix {
    /// Counts one grant of `victim` at slave slot `target`: bumps the
    /// per-class grant count and folds `cross_wait` — the grant's wait
    /// share charged to **other** cores — into the per-grant maximum.
    /// (The wait cycles themselves are added via [`charge`], split by
    /// aggressor.)
    ///
    /// [`charge`]: AttributionMatrix::charge
    pub fn note_grant(&mut self, target: usize, victim: usize, class: Operation, cross_wait: u64) {
        self.grants_by_class[target][victim][class_idx(class)] += 1;
        let m = &mut self.max_wait[target][victim];
        *m = (*m).max(cross_wait);
    }

    /// Adds `cycles` wait cycles of `victim` at slave slot `target` to
    /// aggressor column `aggressor` (a core index, or [`SCHED_COL`]).
    pub fn charge(
        &mut self,
        target: usize,
        victim: usize,
        aggressor: usize,
        class: Operation,
        cycles: u64,
    ) {
        self.wait[target][victim][aggressor][class_idx(class)] += cycles;
    }

    /// One raw ledger cell: wait cycles of `victim` at `target` on
    /// grants of `class`, charged to aggressor column `col` (a core
    /// index, or [`SCHED_COL`]). The serialization-level accessor.
    pub fn cell(&self, target: Target, victim: CoreId, col: usize, class: Operation) -> u64 {
        self.wait[target.index()][victim.index()][col][class_idx(class)]
    }

    /// Wait cycles of `victim` at `target` caused by `aggressor`'s
    /// transactions occupying the slave.
    pub fn wait_cycles(&self, target: Target, victim: CoreId, aggressor: CoreId) -> u64 {
        self.wait[target.index()][victim.index()][aggressor.index()]
            .iter()
            .sum()
    }

    /// Wait cycles of `victim` at `target` not covered by any core's
    /// transaction (TDMA slot alignment / fitting gaps).
    pub fn schedule_wait(&self, target: Target, victim: CoreId) -> u64 {
        self.wait[target.index()][victim.index()][SCHED_COL]
            .iter()
            .sum()
    }

    /// One full aggressor row (`CoreId::COUNT` cores then the schedule
    /// column), summed over classes, for rendering and serialization.
    pub fn row(&self, target: Target, victim: CoreId) -> [u64; AGGRESSOR_COLS] {
        let mut out = [0u64; AGGRESSOR_COLS];
        for (col, slot) in out.iter_mut().enumerate() {
            *slot = self.wait[target.index()][victim.index()][col].iter().sum();
        }
        out
    }

    /// Total wait of `victim` at `target`, over all aggressor columns.
    pub fn victim_wait(&self, target: Target, victim: CoreId) -> u64 {
        self.row(target, victim).iter().sum()
    }

    /// Total attributed cycles at `target`; conservation makes this
    /// exactly the slave's `queue_delay` when recording was on for the
    /// whole run.
    pub fn slave_wait(&self, target: Target) -> u64 {
        CoreId::all()
            .iter()
            .map(|&v| self.victim_wait(target, v))
            .sum()
    }

    /// Total attributed cycles over every slave.
    pub fn total_wait(&self) -> u64 {
        Target::all().iter().map(|&t| self.slave_wait(t)).sum()
    }

    /// Wait cycles of `victim` at `target` on grants of `class`, over
    /// all aggressor columns.
    pub fn class_wait(&self, target: Target, victim: CoreId, class: Operation) -> u64 {
        (0..AGGRESSOR_COLS)
            .map(|col| self.cell(target, victim, col, class))
            .sum()
    }

    /// Wait cycles of `victim` on grants of `class`, over all slaves.
    pub fn class_wait_total(&self, victim: CoreId, class: Operation) -> u64 {
        Target::all()
            .iter()
            .map(|&t| self.class_wait(t, victim, class))
            .sum()
    }

    /// *Interference*: wait cycles of `victim` at `target` on grants of
    /// `class` charged to **other cores** — the schedule column and the
    /// self column excluded. (The self column is not always zero: a
    /// core's PMI fetch and DMI access can queue behind each other at a
    /// shared slave, a delay that exists in isolation too.) This is the
    /// observation the bound-tightness audit compares against the
    /// model's per-contender budget: schedule alignment and self-delay
    /// are part of the isolation WCET, not of `Δcont`.
    pub fn interference(&self, target: Target, victim: CoreId, class: Operation) -> u64 {
        (0..CoreId::COUNT)
            .filter(|&a| a != victim.index())
            .map(|a| self.cell(target, victim, a, class))
            .sum()
    }

    /// Interference of `victim` on grants of `class`, over all slaves.
    pub fn interference_total(&self, victim: CoreId, class: Operation) -> u64 {
        Target::all()
            .iter()
            .map(|&t| self.interference(t, victim, class))
            .sum()
    }

    /// Grants of `victim` at `target` of `class`.
    pub fn class_grants(&self, target: Target, victim: CoreId, class: Operation) -> u64 {
        self.grants_by_class[target.index()][victim.index()][class_idx(class)]
    }

    /// Grants of `victim` of `class`, over all slaves.
    pub fn class_grants_total(&self, victim: CoreId, class: Operation) -> u64 {
        Target::all()
            .iter()
            .map(|&t| self.class_grants(t, victim, class))
            .sum()
    }

    /// Largest cross-core wait a single grant of `victim` suffered at
    /// `target` (self- and schedule-charged cycles excluded — see
    /// [`AttributionMatrix::note_grant`]).
    pub fn max_wait(&self, target: Target, victim: CoreId) -> u64 {
        self.max_wait[target.index()][victim.index()]
    }

    /// `true` iff nothing was ever recorded (also the snapshot an
    /// attribution-off run reports).
    pub fn is_zero(&self) -> bool {
        *self == AttributionMatrix::default()
    }

    /// Folds `other` into `self`: waits, class splits and grant counts
    /// add; per-grant maxima take the max. Commutative and associative,
    /// so any fold order over per-job matrices converges — campaigns
    /// fold in job-key order to also fix the intermediate states.
    pub fn merge(&mut self, other: &AttributionMatrix) {
        for t in 0..Target::COUNT {
            for v in 0..CoreId::COUNT {
                for a in 0..AGGRESSOR_COLS {
                    for c in 0..CLASSES {
                        self.wait[t][v][a][c] += other.wait[t][v][a][c];
                    }
                }
                for c in 0..CLASSES {
                    self.grants_by_class[t][v][c] += other.grants_by_class[t][v][c];
                }
                self.max_wait[t][v] = self.max_wait[t][v].max(other.max_wait[t][v]);
            }
        }
    }
}

/// One completed (or in-flight) service interval at a slave: the owner
/// core occupied the slave for `[start, end)`.
#[derive(Clone, Copy, Debug)]
struct Service {
    core: usize,
    start: u64,
    end: u64,
}

/// The opt-in recorder the crossbar carries: recent service intervals
/// per slave (pruned once no waiter can overlap them) plus the ledger.
#[derive(Clone, Debug, Default)]
pub(crate) struct Attribution {
    history: [Vec<Service>; Target::COUNT],
    matrix: AttributionMatrix,
}

impl Attribution {
    /// Charges the wait window `[granted.posted_at, granted_at)` of the
    /// grant just issued: overlap with each recorded service interval
    /// goes to that interval's owner, the uncovered remainder to
    /// [`SCHED_COL`]. `remaining` is the slave's queue after the grant
    /// was removed — its oldest posting cycle bounds how far back future
    /// wait windows can reach, which is the history pruning horizon.
    pub(crate) fn on_grant(
        &mut self,
        target: usize,
        granted: &Pending,
        granted_at: u64,
        complete_at: u64,
        remaining: &[Pending],
    ) {
        let victim = granted.core.index();
        let class = granted.class;
        let posted_at = granted.posted_at;
        let wait = granted_at - posted_at;
        let mut covered = 0;
        let mut cross = 0;
        for s in &self.history[target] {
            // Every recorded interval ended by `granted_at` (the slave
            // was free to grant), so the overlap is `[max(start,
            // posted_at), end)` clipped to the wait window.
            let lo = s.start.max(posted_at);
            let hi = s.end.min(granted_at);
            if lo < hi {
                self.matrix.charge(target, victim, s.core, class, hi - lo);
                covered += hi - lo;
                // The victim's own other-master transaction (PMI vs
                // DMI) is not contention; only other cores' cycles
                // count toward the audited per-grant maximum.
                if s.core != victim {
                    cross += hi - lo;
                }
            }
        }
        debug_assert!(covered <= wait, "intervals are disjoint within a slave");
        self.matrix.note_grant(target, victim, class, cross);
        if covered < wait {
            self.matrix
                .charge(target, victim, SCHED_COL, class, wait - covered);
        }
        self.history[target].push(Service {
            core: victim,
            start: granted_at,
            end: complete_at,
        });
        let horizon = remaining
            .iter()
            .map(|p| p.posted_at)
            .min()
            .unwrap_or(granted_at);
        self.history[target].retain(|s| s.end > horizon);
    }

    pub(crate) fn matrix(&self) -> &AttributionMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default platform's pflash service latency (Table 2), taken
    /// from its profile rather than restated here.
    fn pf_service() -> u32 {
        platform::PlatformDesc::tc27x()
            .slave(Target::Pf0.index())
            .service
    }

    /// Test shorthand: a [`Pending`] for `core`/`class` posted at
    /// `posted_at`.
    fn pend(core: u8, class: Operation, posted_at: u64) -> Pending {
        Pending {
            core: CoreId(core),
            service: pf_service(),
            posted_at,
            class,
        }
    }

    #[test]
    fn merge_is_additive_and_maxing() {
        let mut a = AttributionMatrix::default();
        let mut b = AttributionMatrix::default();
        a.charge(3, 1, 2, Operation::Data, 10);
        a.note_grant(3, 1, Operation::Data, 10);
        b.charge(3, 1, 2, Operation::Data, 5);
        b.charge(3, 1, SCHED_COL, Operation::Data, 2);
        b.note_grant(3, 1, Operation::Data, 7);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        let (t, v) = (Target::Lmu, CoreId(1));
        assert_eq!(ab.wait_cycles(t, v, CoreId(2)), 15);
        assert_eq!(ab.schedule_wait(t, v), 2);
        assert_eq!(ab.victim_wait(t, v), 17);
        assert_eq!(ab.slave_wait(t), 17);
        assert_eq!(ab.total_wait(), 17);
        assert_eq!(ab.class_wait(t, v, Operation::Data), 17);
        assert_eq!(ab.cell(t, v, 2, Operation::Data), 15);
        assert_eq!(
            ab.interference(t, v, Operation::Data),
            15,
            "interference counts other-core columns only"
        );
        assert_eq!(ab.interference_total(v, Operation::Data), 15);
        assert_eq!(ab.class_grants_total(v, Operation::Data), 2);
        assert_eq!(ab.class_grants_total(v, Operation::Code), 0);
        assert_eq!(ab.max_wait(t, v), 10);
        assert!(!ab.is_zero());
        assert!(AttributionMatrix::default().is_zero());
    }

    #[test]
    fn wait_window_splits_between_aggressor_and_schedule() {
        let mut attr = Attribution::default();
        // Aggressor core 2 occupied slave 0 for [0, 16).
        attr.on_grant(0, &pend(2, Operation::Code, 0), 0, 16, &[]);
        // Victim core 1 posted at 4, granted at 20: 12 cycles overlap
        // core 2's service, 4 cycles (16..20) were a schedule gap.
        attr.on_grant(0, &pend(1, Operation::Code, 4), 20, 36, &[]);
        let m = attr.matrix();
        let t = Target::Pf0;
        assert_eq!(m.wait_cycles(t, CoreId(1), CoreId(2)), 12);
        assert_eq!(m.schedule_wait(t, CoreId(1)), 4);
        assert_eq!(m.victim_wait(t, CoreId(1)), 16);
        assert_eq!(m.victim_wait(t, CoreId(2)), 0, "zero wait charges nothing");
        assert_eq!(
            m.max_wait(t, CoreId(1)),
            12,
            "per-grant max counts the cross-core share only"
        );
        assert_eq!(m.row(t, CoreId(1))[SCHED_COL], 4);
    }

    #[test]
    fn self_overlap_charges_the_diagonal_but_not_the_grant_maximum() {
        let mut attr = Attribution::default();
        // Core 1's PMI fetch occupied slave 0 for [0, 16); its own DMI
        // access posted at 2 and was granted at 16: all 14 wait cycles
        // overlap the core's own service.
        attr.on_grant(0, &pend(1, Operation::Code, 0), 0, 16, &[]);
        attr.on_grant(0, &pend(1, Operation::Data, 2), 16, 27, &[]);
        let m = attr.matrix();
        let t = Target::Pf0;
        assert_eq!(m.wait_cycles(t, CoreId(1), CoreId(1)), 14);
        assert_eq!(m.victim_wait(t, CoreId(1)), 14);
        assert_eq!(
            m.interference(t, CoreId(1), Operation::Data),
            0,
            "self-delay is not interference"
        );
        assert_eq!(
            m.max_wait(t, CoreId(1)),
            0,
            "self-delay must not trip the grant-wait audit"
        );
    }

    #[test]
    fn history_is_pruned_to_the_oldest_waiter() {
        let mut attr = Attribution::default();
        for k in 0..100u64 {
            // Back-to-back services, no waiter left behind: history
            // must not grow without bound.
            attr.on_grant(
                1,
                &pend(0, Operation::Code, k * 16),
                k * 16,
                (k + 1) * 16,
                &[],
            );
            assert!(attr.history[1].len() <= 2, "at {k}: {:?}", attr.history[1]);
        }
        // A waiter posted long ago keeps the overlapping tail alive.
        let waiter = Pending {
            core: CoreId(2),
            service: pf_service(),
            posted_at: 90 * 16,
            class: Operation::Code,
        };
        attr.on_grant(
            1,
            &pend(0, Operation::Code, 100 * 16),
            100 * 16,
            101 * 16,
            &[waiter],
        );
        assert!(attr.history[1].iter().all(|s| s.end > 90 * 16));
        assert!(attr.history[1].len() >= 2);
    }
}
