//! Bound-tightness auditing: observed contention vs modelled budget.
//!
//! The simulator's attribution ledger reports, per access class, how
//! many wait cycles the analysed core actually lost to *other cores'*
//! transactions (interference — schedule alignment excluded, because it
//! exists in isolation too and is part of the isolation WCET, not of
//! `Δcont`). This module compares those observations against what the
//! models budgeted:
//!
//! * **class interference** vs the fTC budget `k · n̂_c · l_c^max`
//!   (Eq. 6–8 latency maxima times the Eq. 2–4 access bound, per
//!   contender) — how much of the modelled `Δcont` was really consumed;
//! * **class accesses** vs the access bound `n̂_c` itself (Eq. 2–4) —
//!   how much the stall-derived access count over-approximates;
//! * **per-grant wait** vs the arbitration-level single-access bound
//!   ([`per_grant_wait_bound`]) — the worst stall any one access
//!   suffered against the worst the arbiter admits.
//!
//! Every row carries `observed`, `bound` and their ratio; a row with
//! `observed > bound` is a *violation* — either the platform breaks a
//! model assumption (e.g. the analysed core is outprioritized, reported
//! as an unbounded row) or a model is unsound, which the CI tightness
//! stage treats as fatal. The crate stays simulator-independent:
//! observations arrive as plain numbers ([`ObservedContention`]).

use crate::counts::AccessBounds;
use crate::ftc::FtcModel;
use crate::platform::Platform;
use crate::profile::IsolationProfile;
use crate::{Operation, Target};
use std::fmt;

/// What a co-run measurement observed about the analysed core, distilled
/// from an attribution ledger. Plain numbers on purpose: the model crate
/// never links the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ObservedContention {
    /// Co-running aggressor cores.
    pub contenders: usize,
    /// Per class (indexed by [`Operation::index`]): wait cycles of the
    /// analysed core charged to other cores.
    pub interference: [u64; Operation::COUNT],
    /// Per class: granted SRI accesses of the analysed core.
    pub grants: [u64; Operation::COUNT],
    /// Per slave slot (indexed like [`Target::index`]): the largest
    /// cross-core wait any single grant of the analysed core suffered.
    /// Self-delay (the core's own other master occupying the slave) and
    /// schedule alignment are excluded — both exist in isolation, so the
    /// arbitration-level bound only covers contender-caused cycles.
    pub max_wait: [u64; Target::COUNT],
}

/// What a [`TightnessRow`] audits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuditKind {
    /// Class interference vs the fTC contention budget.
    ClassWait,
    /// Class access count vs the Eq. 2–4 access bound.
    ClassAccesses,
    /// Worst single-grant wait vs the arbitration-level bound.
    GrantWait,
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditKind::ClassWait => "class-wait",
            AuditKind::ClassAccesses => "accesses",
            AuditKind::GrantWait => "grant-wait",
        })
    }
}

/// One observed-vs-bound comparison.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TightnessRow {
    /// What is audited, e.g. `co` or `pf0`.
    pub label: String,
    /// Which audit produced the row.
    pub kind: AuditKind,
    /// The measured value.
    pub observed: u64,
    /// The modelled bound; `None` when the platform admits no finite
    /// bound for the analysed core (outprioritized under priority
    /// arbitration).
    pub bound: Option<u64>,
}

impl TightnessRow {
    /// `observed ≤ bound` (an unbounded row is vacuously sound).
    pub fn sound(&self) -> bool {
        self.bound.is_none_or(|b| self.observed <= b)
    }

    /// `observed / bound` in permille, `None` for unbounded or zero
    /// bounds. 1000 means the bound was met exactly.
    pub fn tightness_permille(&self) -> Option<u64> {
        match self.bound {
            Some(b) if b > 0 => Some(self.observed.saturating_mul(1000) / b),
            _ => None,
        }
    }
}

/// A per-scenario tightness audit: every class and every present slave,
/// rendered for reports and checked by CI.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TightnessReport {
    /// Platform the scenario ran on.
    pub platform: String,
    /// Scenario label (e.g. `sc1/core0`).
    pub scenario: String,
    /// The audit rows.
    pub rows: Vec<TightnessRow>,
}

/// `true` when some other core's strictly higher priority class lets it
/// starve the analysed core under priority-aware round-robin.
fn strictly_outprioritized(desc: &::platform::PlatformDesc) -> bool {
    let mine = desc.master_priority[desc.app_core];
    (0..desc.cores).any(|c| c != desc.app_core && desc.master_priority[c] > mine)
}

/// Worst wait the arbitration of slot `slot` admits for one analysed-core
/// access with `contenders` co-runners, in cycles. `None` when the
/// analysed core can be starved (outprioritized under round-robin, or
/// outranked under fixed priority, with at least one contender); absent
/// slaves bound at zero.
///
/// Round-robin: while a request waits, every other core in its priority
/// class is granted at most once before it (each grant advances the
/// rotation strictly circularly towards the waiter), so the wait is at
/// most `contenders` full occupancies. Fixed priority with the analysed
/// core on top: only the residual of one in-flight transaction. TDMA:
/// the schedule alone bounds the wait regardless of contenders.
pub fn per_grant_wait_bound(
    desc: &::platform::PlatformDesc,
    slot: usize,
    contenders: usize,
) -> Option<u64> {
    let slave = desc.slave(slot);
    if !slave.present {
        return Some(0);
    }
    let service = u64::from(slave.max_service());
    let k = contenders.min(desc.cores.saturating_sub(1)) as u64;
    match slave.arbitration {
        ::platform::Arbitration::PriorityRoundRobin => {
            if strictly_outprioritized(desc) && k > 0 {
                None
            } else {
                Some(k * service)
            }
        }
        ::platform::Arbitration::FixedPriority => {
            if desc.outranked(desc.app_core) && k > 0 {
                None
            } else {
                Some(service.saturating_sub(1).min(k.saturating_mul(service)))
            }
        }
        ::platform::Arbitration::Tdma { slot_len } => Some(::platform::tdma_worst_wait(
            desc.cores,
            slot_len,
            slave.max_service(),
        )),
    }
}

impl TightnessReport {
    /// Audits one co-run observation of `profile`'s task on `desc`
    /// against the fTC and access bounds derived from the isolation
    /// profile.
    pub fn audit(
        desc: &::platform::PlatformDesc,
        profile: &IsolationProfile,
        observed: &ObservedContention,
        scenario: impl Into<String>,
    ) -> Self {
        let model = Platform::from_desc(desc);
        let ftc = FtcModel::new(&model);
        let n_hat = AccessBounds::from_counters(&model, profile.counters());
        let k = observed.contenders as u64;
        // A class budget spans every slave its accesses can reach: it is
        // finite only if none of them can starve the analysed core.
        let class_bounded = |op: Operation| {
            model
                .paths()
                .targets_for(op)
                .iter()
                .all(|t| per_grant_wait_bound(desc, t.index(), observed.contenders).is_some())
        };
        let mut rows = Vec::new();
        for op in Operation::all() {
            let (l_max, n) = match op {
                Operation::Code => (ftc.l_code_max(), n_hat.code),
                Operation::Data => (ftc.l_data_max(), n_hat.data),
            };
            rows.push(TightnessRow {
                label: op.to_string(),
                kind: AuditKind::ClassWait,
                observed: observed.interference[op.index()],
                bound: class_bounded(op).then(|| k.saturating_mul(n).saturating_mul(l_max)),
            });
            rows.push(TightnessRow {
                label: op.to_string(),
                kind: AuditKind::ClassAccesses,
                observed: observed.grants[op.index()],
                bound: Some(n),
            });
        }
        for t in Target::all() {
            if !desc.slave(t.index()).present {
                continue;
            }
            rows.push(TightnessRow {
                label: t.to_string(),
                kind: AuditKind::GrantWait,
                observed: observed.max_wait[t.index()],
                bound: per_grant_wait_bound(desc, t.index(), observed.contenders),
            });
        }
        TightnessReport {
            platform: desc.name.to_string(),
            scenario: scenario.into(),
            rows,
        }
    }

    /// Rows whose observation exceeds a finite bound.
    pub fn violations(&self) -> usize {
        self.rows.iter().filter(|r| !r.sound()).count()
    }
}

impl fmt::Display for TightnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "tightness {} {}", self.platform, self.scenario)?;
        writeln!(
            f,
            "  {:<10} {:>5} {:>12} {:>12} {:>8}  status",
            "audit", "what", "observed", "bound", "ratio"
        )?;
        for r in &self.rows {
            let bound = r
                .bound
                .map_or_else(|| "unbounded".into(), |b| b.to_string());
            let ratio = r
                .tightness_permille()
                .map_or_else(|| "-".into(), |p| format!("{}.{:03}", p / 1000, p % 1000));
            writeln!(
                f,
                "  {:<10} {:>5} {:>12} {:>12} {:>8}  {}",
                r.kind.to_string(),
                r.label,
                r.observed,
                bound,
                ratio,
                if r.sound() { "ok" } else { "VIOLATION" }
            )?;
        }
        write!(f, "  violations: {}", self.violations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DebugCounters;

    fn profile() -> IsolationProfile {
        IsolationProfile::new(
            "t",
            DebugCounters {
                ccnt: 10_000,
                pmem_stall: 600,
                dmem_stall: 1_000,
                pcache_miss: 40,
                dcache_miss_clean: 0,
                dcache_miss_dirty: 0,
            },
        )
    }

    #[test]
    fn per_grant_bounds_match_the_arbitration() {
        let rr = ::platform::default_platform();
        // lmu slot 3: max_service 11, two contenders under round-robin.
        assert_eq!(per_grant_wait_bound(rr, 3, 2), Some(22));
        assert_eq!(per_grant_wait_bound(rr, 3, 0), Some(0));
        // pf1 slot 1: service 16.
        assert_eq!(per_grant_wait_bound(rr, 1, 2), Some(32));

        let ahb = ::platform::PlatformDesc::ahb2();
        // The analysed core holds the top priority: residual only.
        assert_eq!(per_grant_wait_bound(&ahb, 0, 1), Some(7));
        assert_eq!(per_grant_wait_bound(&ahb, 0, 0), Some(0));
        // pf1 is absent on the AHB platform.
        assert_eq!(per_grant_wait_bound(&ahb, 1, 1), Some(0));
        // Seen from the outranked contender, the wait is unbounded.
        let mut flipped = ahb.clone();
        flipped.app_core = 1;
        assert_eq!(per_grant_wait_bound(&flipped, 0, 1), None);
        assert_eq!(per_grant_wait_bound(&flipped, 0, 0), Some(0));

        let tdma = ::platform::PlatformDesc::tc27x_tdma();
        // The schedule bounds the wait even in isolation.
        assert_eq!(
            per_grant_wait_bound(&tdma, 0, 0),
            Some(::platform::tdma_worst_wait(3, 16, 16))
        );
        assert_eq!(
            per_grant_wait_bound(&tdma, 0, 2),
            per_grant_wait_bound(&tdma, 0, 0)
        );
    }

    #[test]
    fn audit_flags_only_exceeding_rows() {
        let desc = ::platform::default_platform();
        let mut obs = ObservedContention {
            contenders: 2,
            ..Default::default()
        };
        obs.interference[Operation::Code.index()] = 100;
        obs.grants[Operation::Code.index()] = 40;
        obs.grants[Operation::Data.index()] = 100;
        obs.max_wait[Target::Lmu.index()] = 21;
        let report = TightnessReport::audit(desc, &profile(), &obs, "sc1/core0");
        assert_eq!(report.violations(), 0, "{report}");
        // n̂_co = ceil(600/6) = 100, l_co_max = 16, k = 2.
        let wait_co = report
            .rows
            .iter()
            .find(|r| r.kind == AuditKind::ClassWait && r.label == "co")
            .unwrap();
        assert_eq!(wait_co.bound, Some(2 * 100 * 16));
        assert_eq!(wait_co.tightness_permille(), Some(100 * 1000 / 3200));
        // Pushing an observation past its bound turns into a violation.
        let mut worse = obs;
        worse.grants[Operation::Data.index()] = 101;
        let report = TightnessReport::audit(desc, &profile(), &worse, "sc1/core0");
        assert_eq!(report.violations(), 1);
        assert!(report.to_string().contains("VIOLATION"));
        assert!(report.to_string().ends_with("violations: 1"));
    }

    #[test]
    fn starvable_class_budgets_are_unbounded() {
        let mut desc = ::platform::PlatformDesc::ahb2().clone();
        desc.app_core = 1; // outranked by core 0
        let obs = ObservedContention {
            contenders: 1,
            ..Default::default()
        };
        let report = TightnessReport::audit(&desc, &profile(), &obs, "x");
        let unbounded = report.rows.iter().filter(|r| r.bound.is_none()).count();
        assert!(unbounded > 0, "{report}");
        assert_eq!(report.violations(), 0, "unbounded rows are vacuously sound");
        assert!(report.to_string().contains("unbounded"));
    }

    #[test]
    fn render_carries_the_grep_anchors() {
        let desc = ::platform::default_platform();
        let report =
            TightnessReport::audit(desc, &profile(), &ObservedContention::default(), "iso");
        let text = report.to_string();
        assert!(text.starts_with("tightness tc27x iso"));
        assert!(text.contains("grant-wait"));
        assert!(text.ends_with("violations: 0"));
    }
}
