//! The analysed platform: latency and stall tables (Table 2) and the
//! feasible access paths (Figure 2), indexed by the shared
//! [`Target`]/[`Operation`] vocabulary of the `platform` crate.
//!
//! This crate is deliberately independent of the simulator: it consumes
//! only numbers a Debug Support Unit (or a calibration campaign) can
//! produce, exactly like the paper's method.

use ::platform::{Operation, Target};
use std::fmt;

/// A dense `(target, operation)`-indexed table of `u64` values, used for
/// latencies, stall cycles and access counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct PerTargetOp {
    cells: [[u64; Operation::COUNT]; Target::COUNT],
}

impl PerTargetOp {
    /// All-zero table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table from a function.
    pub fn from_fn(mut f: impl FnMut(Target, Operation) -> u64) -> Self {
        let mut t = Self::new();
        for target in Target::all() {
            for op in Operation::all() {
                t.set(target, op, f(target, op));
            }
        }
        t
    }

    /// Reads a cell.
    pub fn get(&self, target: Target, op: Operation) -> u64 {
        self.cells[target.index()][op.index()]
    }

    /// Writes a cell.
    pub fn set(&mut self, target: Target, op: Operation, value: u64) {
        self.cells[target.index()][op.index()] = value;
    }

    /// Iterates over `(target, op, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (Target, Operation, u64)> + '_ {
        Target::all().into_iter().flat_map(move |t| {
            Operation::all()
                .into_iter()
                .map(move |o| (t, o, self.get(t, o)))
        })
    }

    /// Sum across all cells.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, _, v)| v).sum()
    }

    /// Sum across targets for one operation type.
    pub fn op_total(&self, op: Operation) -> u64 {
        Target::all().iter().map(|t| self.get(*t, op)).sum()
    }
}

impl fmt::Display for PerTargetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, o, v) in self.iter() {
            write!(f, "{t}/{o}={v} ")?;
        }
        Ok(())
    }
}

/// Which `(target, operation)` pairs are architecturally possible
/// (Figure 2): code can reach pf0/pf1/lmu; data can reach all four
/// targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct AccessPaths {
    feasible: [[bool; Operation::COUNT]; Target::COUNT],
}

impl AccessPaths {
    /// The TC27x paths of Figure 2.
    pub fn tc27x() -> Self {
        let mut feasible = [[false; Operation::COUNT]; Target::COUNT];
        for t in [Target::Pf0, Target::Pf1, Target::Lmu] {
            feasible[t.index()][Operation::Code.index()] = true;
        }
        for t in Target::all() {
            feasible[t.index()][Operation::Data.index()] = true;
        }
        AccessPaths { feasible }
    }

    /// The paths of a described platform: a `(target, op)` pair is
    /// feasible iff the slot exists and the slave accepts that class.
    /// [`Target`] slot `i` is the description's slave slot `i`.
    pub fn from_desc(desc: &::platform::PlatformDesc) -> Self {
        let mut feasible = [[false; Operation::COUNT]; Target::COUNT];
        for t in Target::all() {
            let s = desc.slave(t.index());
            if s.present {
                feasible[t.index()][Operation::Code.index()] = s.code;
                feasible[t.index()][Operation::Data.index()] = s.data;
            }
        }
        AccessPaths { feasible }
    }

    /// Returns `true` if `op` requests can address `target`.
    pub fn is_feasible(&self, target: Target, op: Operation) -> bool {
        self.feasible[target.index()][op.index()]
    }

    /// All feasible `(target, op)` pairs.
    pub fn pairs(&self) -> Vec<(Target, Operation)> {
        Target::all()
            .into_iter()
            .flat_map(|t| Operation::all().into_iter().map(move |o| (t, o)))
            .filter(|(t, o)| self.is_feasible(*t, *o))
            .collect()
    }

    /// Feasible targets for one operation type.
    pub fn targets_for(&self, op: Operation) -> Vec<Target> {
        Target::all()
            .into_iter()
            .filter(|t| self.is_feasible(*t, op))
            .collect()
    }
}

impl Default for AccessPaths {
    fn default() -> Self {
        AccessPaths::tc27x()
    }
}

/// The analysed platform: worst-case request latencies `l^{t,o}`,
/// best-case stall cycles `cs^{t,o}` and the feasible access paths.
///
/// # Examples
///
/// ```
/// use contention::{Operation, Platform, Target};
///
/// let p = Platform::tc277_reference();
/// assert_eq!(p.latency(Target::Dfl, Operation::Data), 43);
/// assert_eq!(p.stall(Target::Pf0, Operation::Code), 6);
/// assert_eq!(p.cs_code_min(), 6);  // Eq. 2
/// assert_eq!(p.cs_data_min(), 10); // Eq. 3
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Platform {
    latency: PerTargetOp,
    stall: PerTargetOp,
    paths: AccessPaths,
    /// End-to-end latency of an LMU dirty-miss (write-back + fill), the
    /// bracketed `(21)` of Table 2. Only the fTC model's pessimistic
    /// variant uses it.
    lmu_dirty_latency: u64,
}

impl Platform {
    /// The TC277 reference platform: the Table 2 values, derived from
    /// the default platform description (the constants themselves live
    /// only in `platform::PlatformDesc::tc27x`).
    pub fn tc277_reference() -> Self {
        Platform::from_desc(::platform::default_platform())
    }

    /// Derives the model tables from a platform description.
    ///
    /// * `l^{t,o}` (latency) — the per-access worst-case interference
    ///   charge the slot's arbitration policy admits
    ///   (`PlatformDesc::contention_charge`): one full contender
    ///   service under round-robin, rank-dependent service or blocking
    ///   under fixed priority, the exact worst slot-alignment wait
    ///   `(S−1)·slot_len + service − 1` under TDMA. Infeasible pairs
    ///   stay 0.
    /// * `cs^{t,o}` (stall) — the best-case stall of an own access:
    ///   sequential service minus the hidden pipeline cycles (prefetch
    ///   hide for code on prefetching slaves, the posted address phase
    ///   for data).
    /// * The dirty-miss charge is `PlatformDesc::dirty_charge` (the
    ///   TC27x's bracketed 21).
    pub fn from_desc(desc: &::platform::PlatformDesc) -> Self {
        let paths = AccessPaths::from_desc(desc);
        let latency = PerTargetOp::from_fn(|t, o| {
            if !paths.is_feasible(t, o) {
                return 0;
            }
            desc.contention_charge(t.index(), desc.slave(t.index()).service)
        });
        let stall = PerTargetOp::from_fn(|t, o| {
            if !paths.is_feasible(t, o) {
                return 0;
            }
            let s = desc.slave(t.index());
            let hide = match o {
                Operation::Code if s.prefetch => desc.fetch_prefetch_hide,
                Operation::Code => 0,
                Operation::Data => desc.data_hide,
            };
            u64::from(s.service_sequential.saturating_sub(hide))
        });
        Platform {
            latency,
            stall,
            paths,
            lmu_dirty_latency: desc.dirty_charge(Target::Lmu.index()),
        }
    }

    /// Builds a platform from calibrated tables (e.g. the output of the
    /// MBTA calibration campaign).
    pub fn from_tables(latency: PerTargetOp, stall: PerTargetOp, lmu_dirty_latency: u64) -> Self {
        Platform {
            latency,
            stall,
            paths: AccessPaths::tc27x(),
            lmu_dirty_latency,
        }
    }

    /// Worst-case latency `l^{t,o}` of an `op` request at `target`.
    pub fn latency(&self, target: Target, op: Operation) -> u64 {
        self.latency.get(target, op)
    }

    /// Best-case stall cycles `cs^{t,o}` of an `op` request at `target`.
    pub fn stall(&self, target: Target, op: Operation) -> u64 {
        self.stall.get(target, op)
    }

    /// The feasible access paths.
    pub fn paths(&self) -> &AccessPaths {
        &self.paths
    }

    /// The full latency table.
    pub fn latency_table(&self) -> &PerTargetOp {
        &self.latency
    }

    /// The full stall table.
    pub fn stall_table(&self) -> &PerTargetOp {
        &self.stall
    }

    /// LMU dirty-miss end-to-end latency (Table 2's bracketed value).
    pub fn lmu_dirty_latency(&self) -> u64 {
        self.lmu_dirty_latency
    }

    /// Eq. 2: the smallest stall a code request can incur, over the
    /// targets code can address.
    pub fn cs_code_min(&self) -> u64 {
        self.paths
            .targets_for(Operation::Code)
            .into_iter()
            .map(|t| self.stall(t, Operation::Code))
            .min()
            .unwrap_or_else(|| unreachable!("code can always reach some target"))
    }

    /// Eq. 3: the smallest stall a data request can incur.
    pub fn cs_data_min(&self) -> u64 {
        self.paths
            .targets_for(Operation::Data)
            .into_iter()
            .map(|t| self.stall(t, Operation::Data))
            .min()
            .unwrap_or_else(|| unreachable!("data can always reach some target"))
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::tc277_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reference_values() {
        let p = Platform::tc277_reference();
        use Operation::{Code, Data};
        use Target::{Dfl, Lmu, Pf0, Pf1};
        assert_eq!(p.latency(Pf0, Code), 16);
        assert_eq!(p.latency(Pf1, Data), 16);
        assert_eq!(p.latency(Lmu, Code), 11);
        assert_eq!(p.latency(Dfl, Data), 43);
        assert_eq!(p.stall(Pf0, Code), 6);
        assert_eq!(p.stall(Pf1, Data), 11);
        assert_eq!(p.stall(Lmu, Code), 11);
        assert_eq!(p.stall(Lmu, Data), 10);
        assert_eq!(p.stall(Dfl, Data), 42);
        assert_eq!(p.lmu_dirty_latency(), 21);
    }

    #[test]
    fn eq2_eq3_minimum_stalls() {
        let p = Platform::tc277_reference();
        // cs_co_min = min(6, 6, 11) = 6; cs_da_min = min(11, 11, 10, 42) = 10.
        assert_eq!(p.cs_code_min(), 6);
        assert_eq!(p.cs_data_min(), 10);
    }

    #[test]
    fn figure2_access_paths() {
        let paths = AccessPaths::tc27x();
        assert!(!paths.is_feasible(Target::Dfl, Operation::Code));
        assert!(paths.is_feasible(Target::Dfl, Operation::Data));
        assert_eq!(paths.targets_for(Operation::Code).len(), 3);
        assert_eq!(paths.targets_for(Operation::Data).len(), 4);
        assert_eq!(paths.pairs().len(), 7);
    }

    #[test]
    fn per_target_op_accessors() {
        let mut t = PerTargetOp::new();
        t.set(Target::Lmu, Operation::Data, 5);
        t.set(Target::Pf0, Operation::Code, 3);
        assert_eq!(t.get(Target::Lmu, Operation::Data), 5);
        assert_eq!(t.total(), 8);
        assert_eq!(t.op_total(Operation::Code), 3);
        assert_eq!(t.op_total(Operation::Data), 5);
        let built = PerTargetOp::from_fn(|t, o| {
            if t == Target::Pf1 && o == Operation::Code {
                9
            } else {
                0
            }
        });
        assert_eq!(built.get(Target::Pf1, Operation::Code), 9);
        assert_eq!(built.total(), 9);
    }

    #[test]
    fn custom_platform_from_tables() {
        let latency = PerTargetOp::from_fn(|_, _| 20);
        let stall = PerTargetOp::from_fn(|_, _| 5);
        let p = Platform::from_tables(latency, stall, 40);
        assert_eq!(p.latency(Target::Lmu, Operation::Code), 20);
        assert_eq!(p.cs_code_min(), 5);
        assert_eq!(p.lmu_dirty_latency(), 40);
    }

    #[test]
    fn reference_is_derived_from_the_default_description() {
        assert_eq!(
            Platform::tc277_reference(),
            Platform::from_desc(::platform::default_platform())
        );
    }

    #[test]
    fn tdma_description_yields_slot_wait_latencies() {
        let desc = ::platform::PlatformDesc::tc27x_tdma();
        let p = Platform::from_desc(&desc);
        use Operation::{Code, Data};
        // pf slot: (3−1)·16 + 16 − 1 = 47; lmu slot: 2·11 + 10 = 32;
        // dfl slot: 2·43 + 42 = 128. Stalls are isolation-side and
        // unchanged from the round-robin tables.
        assert_eq!(p.latency(Target::Pf0, Code), 47);
        assert_eq!(p.latency(Target::Lmu, Data), 32);
        assert_eq!(p.latency(Target::Dfl, Data), 128);
        assert_eq!(p.stall(Target::Pf0, Code), 6);
        assert_eq!(p.stall(Target::Lmu, Data), 10);
        // Dirty miss: two independent worst slot alignments.
        assert_eq!(
            p.lmu_dirty_latency(),
            ::platform::tdma_worst_wait(3, 11, 10) + ::platform::tdma_worst_wait(3, 11, 11)
        );
    }

    #[test]
    fn ahb2_description_shrinks_the_paths_and_tables() {
        let desc = ::platform::PlatformDesc::ahb2();
        let p = Platform::from_desc(&desc);
        use Operation::{Code, Data};
        // Only the flash (slot pf0) and sram (slot lmu) exist.
        assert!(p.paths().is_feasible(Target::Pf0, Code));
        assert!(!p.paths().is_feasible(Target::Pf1, Code));
        assert!(!p.paths().is_feasible(Target::Dfl, Data));
        assert_eq!(p.paths().pairs().len(), 4);
        // The analysed core holds the top fixed-priority class: one
        // access can only be blocked by an in-flight transaction
        // (service − 1).
        assert_eq!(p.latency(Target::Pf0, Code), 7);
        assert_eq!(p.latency(Target::Lmu, Data), 1);
        assert_eq!(p.latency(Target::Dfl, Data), 0);
        // No prefetcher: code stall is the full sequential service.
        assert_eq!(p.stall(Target::Pf0, Code), 8);
        assert_eq!(p.stall(Target::Lmu, Data), 1);
        // Code can also run from sram (stall 2), data from flash (7).
        assert_eq!(p.stall(Target::Lmu, Code), 2);
        assert_eq!(p.cs_code_min(), 2);
        assert_eq!(p.cs_data_min(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Target::Pf1.to_string(), "pf1");
        assert_eq!(Operation::Data.to_string(), "da");
        let mut t = PerTargetOp::new();
        t.set(Target::Pf0, Operation::Code, 1);
        assert!(t.to_string().contains("pf0/co=1"));
    }
}
