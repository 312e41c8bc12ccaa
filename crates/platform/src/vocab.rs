//! The paper's shared vocabulary: the SRI targets and operation types
//! of Table 1 and the DSU counter block of Table 4.
//!
//! The simulator produces these values and the models consume them, so
//! both sides name them through this one definition (re-exported as
//! `tc27x_sim::{Target, Operation, DebugCounters}` and
//! `contention::{Target, Operation, DebugCounters}`).

use std::fmt;

/// An SRI target resource, `T = {dfl, pf0, pf1, lmu}` (Table 1). The
/// variant order is the slave-slot order of
/// [`PlatformDesc::slaves`](crate::PlatformDesc::slaves).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Target {
    /// Program flash bank 0.
    Pf0,
    /// Program flash bank 1.
    Pf1,
    /// Data flash.
    Dfl,
    /// LMU SRAM.
    Lmu,
}

impl Target {
    /// Number of targets.
    pub const COUNT: usize = 4;

    /// All targets in slot order (pf0, pf1, dfl, lmu).
    #[inline]
    pub fn all() -> [Target; Self::COUNT] {
        [Target::Pf0, Target::Pf1, Target::Dfl, Target::Lmu]
    }

    /// Dense index for array storage (the slave slot).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns `true` for the flash banks served by the PMU prefetcher.
    #[inline]
    pub fn is_pflash(self) -> bool {
        matches!(self, Target::Pf0 | Target::Pf1)
    }

    /// The lowercase label (`pf0`, `pf1`, `dfl`, `lmu`) used in tables,
    /// traces and metric names.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            Target::Pf0 => "pf0",
            Target::Pf1 => "pf1",
            Target::Dfl => "dfl",
            Target::Lmu => "lmu",
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An operation type, `O = {co, da}` (Table 1): whether an access
/// fetches code or moves data.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Operation {
    /// Code (instruction fetch) requests.
    Code,
    /// Data (load/store) requests.
    Data,
}

impl Operation {
    /// Number of operation types.
    pub const COUNT: usize = 2;

    /// Both operation types.
    #[inline]
    pub fn all() -> [Operation; Self::COUNT] {
        [Operation::Code, Operation::Data]
    }

    /// Dense index for array storage.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The spelled-out name (`code` / `data`) used by simulator traces
    /// and layout errors; [`Display`](fmt::Display) gives the paper's
    /// `co` / `da`.
    #[inline]
    pub fn long_name(self) -> &'static str {
        match self {
            Operation::Code => "code",
            Operation::Data => "data",
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Operation::Code => "co",
            Operation::Data => "da",
        })
    }
}

/// The TC27x debug counters used by the paper (Table 4): cumulative
/// end-to-end readings over one activation. This is the only
/// information the contention models may consume.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct DebugCounters {
    /// CCNT: cycles from task start to completion.
    pub ccnt: u64,
    /// PMEM_STALL: cycles stalled on the program memory interface.
    pub pmem_stall: u64,
    /// DMEM_STALL: cycles stalled on the data memory interface.
    pub dmem_stall: u64,
    /// P$_MISS: instruction-cache misses (cacheable fetches only).
    pub pcache_miss: u64,
    /// D$_MISS_CLEAN: data-cache misses that evicted no dirty line.
    pub dcache_miss_clean: u64,
    /// D$_MISS_DIRTY: data-cache misses that evicted a dirty line.
    pub dcache_miss_dirty: u64,
}

impl DebugCounters {
    /// Total data-cache misses (`DMC + DMD`).
    #[inline]
    pub fn dcache_miss_total(&self) -> u64 {
        self.dcache_miss_clean + self.dcache_miss_dirty
    }

    /// Delta accounting for the event kernel: charges `cycles` cycles of
    /// busy/waiting time to `CCNT` in one bulk update, equivalent to
    /// `cycles` consecutive per-tick `ccnt += 1` increments. Stall
    /// counters are *not* touched — stalls are attributed at grant time
    /// from the transaction's end-to-end latency, never per tick.
    #[inline]
    pub fn charge_busy(&mut self, cycles: u64) {
        self.ccnt += cycles;
    }

    /// The Table 6 column abbreviations
    /// (`CCNT= PS= DS= PM= DMC= DMD=`), as isolation profiles print
    /// them; [`Display`](fmt::Display) spells out the DSU names.
    pub fn abbreviated(&self) -> String {
        format!(
            "CCNT={} PS={} DS={} PM={} DMC={} DMD={}",
            self.ccnt,
            self.pmem_stall,
            self.dmem_stall,
            self.pcache_miss,
            self.dcache_miss_clean,
            self.dcache_miss_dirty
        )
    }
}

impl fmt::Display for DebugCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CCNT={} PMEM_STALL={} DMEM_STALL={} P$_MISS={} D$_MISS_CLEAN={} D$_MISS_DIRTY={}",
            self.ccnt,
            self.pmem_stall,
            self.dmem_stall,
            self.pcache_miss,
            self.dcache_miss_clean,
            self.dcache_miss_dirty
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_follow_slot_order() {
        for (i, t) in Target::all().into_iter().enumerate() {
            assert_eq!(t.index(), i);
        }
        assert_eq!(Operation::Code.index(), 0);
        assert_eq!(Operation::Data.index(), 1);
        assert!(Target::Pf1.is_pflash() && !Target::Lmu.is_pflash());
    }

    #[test]
    fn renderings() {
        let names: Vec<String> = Target::all().iter().map(Target::to_string).collect();
        assert_eq!(names, ["pf0", "pf1", "dfl", "lmu"]);
        assert_eq!(Operation::Code.to_string(), "co");
        assert_eq!(Operation::Data.long_name(), "data");
        let c = DebugCounters {
            ccnt: 1,
            pmem_stall: 2,
            dmem_stall: 3,
            pcache_miss: 4,
            dcache_miss_clean: 5,
            dcache_miss_dirty: 6,
        };
        assert_eq!(
            c.to_string(),
            "CCNT=1 PMEM_STALL=2 DMEM_STALL=3 P$_MISS=4 D$_MISS_CLEAN=5 D$_MISS_DIRTY=6"
        );
        assert_eq!(c.abbreviated(), "CCNT=1 PS=2 DS=3 PM=4 DMC=5 DMD=6");
        assert_eq!(c.dcache_miss_total(), 11);
    }

    #[test]
    fn charge_busy_matches_repeated_increments() {
        let mut bulk = DebugCounters::default();
        let mut ticked = DebugCounters::default();
        bulk.charge_busy(137);
        for _ in 0..137 {
            ticked.ccnt += 1;
        }
        assert_eq!(bulk, ticked);
        bulk.charge_busy(0);
        assert_eq!(bulk.ccnt, 137, "a zero delta charges nothing");
    }
}
