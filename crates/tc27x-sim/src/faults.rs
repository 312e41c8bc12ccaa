//! Deterministic fault injection for DSU counter readings.
//!
//! On real TC277 silicon the debug counters arrive over a debug port
//! that can drop reads, saturate at the register width, or flip bits,
//! and a co-run observation window can end before the task does. The
//! downstream pipeline (validation, model evaluation, fTC fallback)
//! must survive all of that, so this module reproduces those faults
//! *deterministically*: every perturbation is a pure function of a
//! [`SplitMix64`] seed, which makes fault campaigns replayable bit for
//! bit in tests and CI.
//!
//! # Examples
//!
//! ```
//! use tc27x_sim::DebugCounters;
//! use tc27x_sim::faults::FaultInjector;
//!
//! let clean = DebugCounters {
//!     ccnt: 846_103, pmem_stall: 109_736, dmem_stall: 123_840,
//!     pcache_miss: 18_136, ..Default::default()
//! };
//! let (noisy, records) = FaultInjector::new(7).perturb(&clean);
//! assert!(!records.is_empty());
//! // Same seed, same faults:
//! assert_eq!(FaultInjector::new(7).perturb(&clean), (noisy, records));
//! ```

use crate::rng::SplitMix64;
use crate::DebugCounters;
use std::fmt;

/// Physical width of a DSU counter register: reads saturate at
/// `2^32 - 1`, and bit-flips land within these bits.
pub const COUNTER_WIDTH_BITS: u32 = 32;

/// The saturated reading of a pegged counter.
pub const COUNTER_SATURATED: u64 = (1 << COUNTER_WIDTH_BITS) - 1;

/// Identifies one DSU counter within [`DebugCounters`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CounterId {
    /// The cycle counter.
    Ccnt,
    /// PMEM_STALL.
    PmemStall,
    /// DMEM_STALL.
    DmemStall,
    /// P$_MISS.
    PcacheMiss,
    /// D$_MISS_CLEAN.
    DcacheMissClean,
    /// D$_MISS_DIRTY.
    DcacheMissDirty,
}

impl CounterId {
    /// Number of DSU counters.
    pub const COUNT: usize = 6;

    /// All counters, in a fixed order.
    pub fn all() -> [CounterId; Self::COUNT] {
        [
            CounterId::Ccnt,
            CounterId::PmemStall,
            CounterId::DmemStall,
            CounterId::PcacheMiss,
            CounterId::DcacheMissClean,
            CounterId::DcacheMissDirty,
        ]
    }

    /// Reads this counter out of a [`DebugCounters`] block.
    pub fn read(self, c: &DebugCounters) -> u64 {
        match self {
            CounterId::Ccnt => c.ccnt,
            CounterId::PmemStall => c.pmem_stall,
            CounterId::DmemStall => c.dmem_stall,
            CounterId::PcacheMiss => c.pcache_miss,
            CounterId::DcacheMissClean => c.dcache_miss_clean,
            CounterId::DcacheMissDirty => c.dcache_miss_dirty,
        }
    }

    /// Writes this counter in a [`DebugCounters`] block.
    pub fn write(self, c: &mut DebugCounters, value: u64) {
        match self {
            CounterId::Ccnt => c.ccnt = value,
            CounterId::PmemStall => c.pmem_stall = value,
            CounterId::DmemStall => c.dmem_stall = value,
            CounterId::PcacheMiss => c.pcache_miss = value,
            CounterId::DcacheMissClean => c.dcache_miss_clean = value,
            CounterId::DcacheMissDirty => c.dcache_miss_dirty = value,
        }
    }
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CounterId::Ccnt => "ccnt",
            CounterId::PmemStall => "pmem_stall",
            CounterId::DmemStall => "dmem_stall",
            CounterId::PcacheMiss => "pcache_miss",
            CounterId::DcacheMissClean => "dcache_miss_clean",
            CounterId::DcacheMissDirty => "dcache_miss_dirty",
        };
        f.write_str(name)
    }
}

/// The kind of fault injected into a reading.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// One bit within the counter width flipped in transit.
    BitFlip {
        /// The flipped bit position, `< COUNTER_WIDTH_BITS`.
        bit: u32,
    },
    /// The counter pegged at its register width ([`COUNTER_SATURATED`]).
    Saturate,
    /// The DSU read was dropped and returned zero.
    DroppedRead,
    /// The observation window closed early: every counter holds only a
    /// `permille`/1000 prefix of the run.
    TruncatedCorun {
        /// Fraction of the run that was observed, in permille.
        permille: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BitFlip { bit } => write!(f, "bit-flip(bit={bit})"),
            FaultKind::Saturate => write!(f, "saturate"),
            FaultKind::DroppedRead => write!(f, "dropped-read"),
            FaultKind::TruncatedCorun { permille } => {
                write!(f, "truncated-corun(permille={permille})")
            }
        }
    }
}

/// One counter actually changed by an injected fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultRecord {
    /// The fault that caused the change.
    pub kind: FaultKind,
    /// The counter that changed.
    pub counter: CounterId,
    /// Reading before the fault.
    pub before: u64,
    /// Reading after the fault.
    pub after: u64,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} -> {}",
            self.kind, self.counter, self.before, self.after
        )
    }
}

/// Deterministic fault injector over a [`SplitMix64`] stream.
///
/// Each [`perturb`](Self::perturb) call injects one to three faults;
/// the choice of fault kinds, target counters, bit positions and
/// truncation points is fully determined by the seed.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    rng: SplitMix64,
}

impl FaultInjector {
    /// Creates an injector; equal seeds inject equal fault sequences.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: SplitMix64::new(seed),
        }
    }

    /// Applies one to three seeded faults to a counter block and reports
    /// every reading that changed.
    pub fn perturb(&mut self, counters: &DebugCounters) -> (DebugCounters, Vec<FaultRecord>) {
        let mut c = *counters;
        let mut records = Vec::new();
        let faults = 1 + self.rng.below(3);
        for _ in 0..faults {
            self.inject_one(&mut c, &mut records);
        }
        (c, records)
    }

    fn inject_one(&mut self, c: &mut DebugCounters, records: &mut Vec<FaultRecord>) {
        match self.rng.below(4) {
            0 => {
                let counter = self.pick_counter();
                let bit = self.rng.below_u32(COUNTER_WIDTH_BITS);
                let kind = FaultKind::BitFlip { bit };
                self.apply(c, counter, kind, |v| v ^ (1 << bit), records);
            }
            1 => {
                let counter = self.pick_counter();
                self.apply(
                    c,
                    counter,
                    FaultKind::Saturate,
                    |_| COUNTER_SATURATED,
                    records,
                );
            }
            2 => {
                let counter = self.pick_counter();
                self.apply(c, counter, FaultKind::DroppedRead, |_| 0, records);
            }
            _ => {
                let permille = self.rng.below(1000);
                let kind = FaultKind::TruncatedCorun { permille };
                for counter in CounterId::all() {
                    self.apply(c, counter, kind, |v| v * permille / 1000, records);
                }
            }
        }
    }

    fn pick_counter(&mut self) -> CounterId {
        CounterId::all()[self.rng.below(CounterId::COUNT as u64) as usize]
    }

    fn apply(
        &mut self,
        c: &mut DebugCounters,
        counter: CounterId,
        kind: FaultKind,
        f: impl Fn(u64) -> u64,
        records: &mut Vec<FaultRecord>,
    ) {
        let before = counter.read(c);
        let after = f(before);
        if after != before {
            counter.write(c, after);
            records.push(FaultRecord {
                kind,
                counter,
                before,
                after,
            });
        }
    }
}

impl crate::engine::EventSource for FaultInjector {
    /// Fault injection perturbs counter *readings* after a run
    /// completes; it never participates in the cycle loop, so it is
    /// permanently passive to the event kernel.
    fn next_event(&self, _now: u64) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DebugCounters {
        DebugCounters {
            ccnt: 846_103,
            pmem_stall: 109_736,
            dmem_stall: 123_840,
            pcache_miss: 18_136,
            dcache_miss_clean: 192,
            dcache_miss_dirty: 17,
        }
    }

    #[test]
    fn same_seed_same_faults() {
        let clean = sample();
        for seed in 0..50 {
            let a = FaultInjector::new(seed).perturb(&clean);
            let b = FaultInjector::new(seed).perturb(&clean);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn seeds_diversify_fault_kinds() {
        let clean = sample();
        let mut flip = false;
        let mut sat = false;
        let mut drop = false;
        let mut trunc = false;
        for seed in 0..200 {
            let (_, records) = FaultInjector::new(seed).perturb(&clean);
            for r in &records {
                match r.kind {
                    FaultKind::BitFlip { .. } => flip = true,
                    FaultKind::Saturate => sat = true,
                    FaultKind::DroppedRead => drop = true,
                    FaultKind::TruncatedCorun { .. } => trunc = true,
                }
            }
        }
        assert!(flip && sat && drop && trunc, "{flip} {sat} {drop} {trunc}");
    }

    #[test]
    fn records_match_the_mutation() {
        let clean = sample();
        for seed in 0..100 {
            let (noisy, records) = FaultInjector::new(seed).perturb(&clean);
            // Replaying the records over the clean block must land on the
            // perturbed block.
            let mut replay = clean;
            for r in &records {
                assert_eq!(CounterId::read(r.counter, &replay), r.before, "seed {seed}");
                CounterId::write(r.counter, &mut replay, r.after);
            }
            assert_eq!(replay, noisy, "seed {seed}");
        }
    }

    #[test]
    fn values_stay_within_u64_without_overflow() {
        // A saturated input must survive further faults (bit flips on a
        // pegged counter, truncation of a saturated value).
        let pegged = DebugCounters {
            ccnt: COUNTER_SATURATED,
            pmem_stall: COUNTER_SATURATED,
            dmem_stall: COUNTER_SATURATED,
            pcache_miss: COUNTER_SATURATED,
            dcache_miss_clean: COUNTER_SATURATED,
            dcache_miss_dirty: COUNTER_SATURATED,
        };
        for seed in 0..100 {
            let (noisy, _) = FaultInjector::new(seed).perturb(&pegged);
            for id in CounterId::all() {
                assert!(id.read(&noisy) <= COUNTER_SATURATED);
            }
        }
    }

    #[test]
    fn display_formats_are_greppable() {
        let r = FaultRecord {
            kind: FaultKind::BitFlip { bit: 5 },
            counter: CounterId::PmemStall,
            before: 3,
            after: 35,
        };
        assert_eq!(r.to_string(), "bit-flip(bit=5) on pmem_stall: 3 -> 35");
        assert_eq!(FaultKind::Saturate.to_string(), "saturate");
        assert_eq!(
            FaultKind::TruncatedCorun { permille: 250 }.to_string(),
            "truncated-corun(permille=250)"
        );
    }
}
