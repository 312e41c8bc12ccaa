//! Simulator configuration: slave service times, stall hiding and cache
//! geometries.
//!
//! The reference values ([`SimConfig::tc277_reference`]) are chosen so
//! that calibration on the simulator recovers exactly Table 2 of the
//! paper: maximum latencies of 16 (pf), 11/21 (lmu), 43 (dfl) cycles and
//! best-case stall cycles of 6 (pf code), 11 (pf data / lmu code),
//! 10 (lmu data) and 42 (dfl data).

use crate::addr::CoreId;
use crate::cache::CacheGeometry;
use crate::engine::Engine;
use crate::{Operation, Target};
use platform::{Arbitration, PlatformDesc};

// The platform crate's capacity constants and the simulator's dense
// array sizes must agree; a description with fewer cores/slaves marks
// the surplus inactive/absent.
const _: () = assert!(CoreId::COUNT == platform::MAX_CORES);
const _: () = assert!(Target::COUNT == platform::SLAVE_SLOTS);

/// Service and hiding parameters of one SRI slave.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlaveTiming {
    /// Slave occupancy for a request that hits the sequential prefetch
    /// stream (program-flash prefetch buffer); equals `service` for
    /// slaves without a prefetcher.
    pub service_sequential: u32,
    /// Slave occupancy for any other request.
    pub service: u32,
    /// Occupancy of a cache-line write-back burst to this slave.
    pub writeback_service: u32,
}

/// Full simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-target slave timing, indexed by [`Target::index`].
    pub slaves: [SlaveTiming; Target::COUNT],
    /// Which slave slots exist on this platform; placements into an
    /// absent slot are rejected at load time.
    pub slave_present: [bool; Target::COUNT],
    /// Which slaves have a sequential prefetcher (whose hits are served
    /// in `service_sequential` and hide `fetch_prefetch_hide` cycles).
    pub slave_prefetch: [bool; Target::COUNT],
    /// Arbitration policy per slave port.
    pub arbitration: [Arbitration; Target::COUNT],
    /// Number of active cores (`1..=CoreId::COUNT`); loading a task on
    /// a core at or past this index is rejected, and the TDMA schedule
    /// has one slot per active core.
    pub active_cores: usize,
    /// Pipeline cycles a *sequential, prefetched* code fetch from program
    /// flash can hide (run-ahead of the fetch engine).
    pub fetch_prefetch_hide: u32,
    /// Pipeline cycles any data access can hide (posted address phase).
    pub data_hide: u32,
    /// Instruction-cache geometry of the TriCore 1.6P cores.
    pub icache_p: CacheGeometry,
    /// Instruction-cache geometry of the TriCore 1.6E core.
    pub icache_e: CacheGeometry,
    /// Data-cache geometry of the TriCore 1.6P cores.
    pub dcache_p: CacheGeometry,
    /// Data read buffer of the TriCore 1.6E core (single line).
    pub drb_e: CacheGeometry,
    /// Hard cap on simulated cycles per run (guards against runaway
    /// workloads).
    pub max_cycles: u64,
    /// SRI priority class per core (higher wins; ties arbitrate
    /// round-robin). All-equal by default — the same-class case the
    /// paper analyses as the most stressing one.
    pub master_priority: [u8; CoreId::COUNT],
    /// Per-core trace buffer capacity in events; 0 (default) disables
    /// tracing entirely.
    pub trace_capacity: usize,
    /// Per-core SRI transaction quota — the runtime capacity
    /// enforcement of Nowotsch et al. (reference \[16\] of the paper): a
    /// core that exhausts its quota is suspended for the rest of the
    /// run, so its interference can never exceed the budgeted amount.
    /// `None` (default) disables enforcement for the core.
    pub sri_quota: [Option<u64>; CoreId::COUNT],
    /// Which timing kernel drives the run: the event-driven kernel
    /// (default) or the per-cycle reference stepper. Bit-identical
    /// outcomes either way; see [`crate::engine`].
    pub engine: Engine,
    /// Basic-block timing memoization inside the event kernel (see
    /// [`crate::memo`]): stall-free instruction runs are fingerprinted
    /// and replayed in one kernel delta. On by default; has no effect
    /// under the reference stepper. Results are bit-identical either
    /// way — this knob exists for differential testing and debugging.
    pub block_memo: bool,
    /// Slots in the per-core block-memo table (direct-mapped). Each slot
    /// holds one recorded block; colliding fingerprints evict. The
    /// default (1024) is deliberately modest: warp coverage comes from
    /// interpret-and-record as much as from replay hits, so a larger
    /// table mostly buys allocation cost on short runs.
    pub block_memo_capacity: usize,
    /// Contention attribution ([`crate::attribution`]): charge every
    /// SRI wait cycle to its `(victim, aggressor, slave)` triple at
    /// grant time. Off by default — the recorder is opt-in and
    /// zero-cost when disabled; the recorded matrix is byte-identical
    /// across engines, memo settings and worker counts.
    pub attribution: bool,
}

impl SimConfig {
    /// The TC277 reference configuration (matches Figure 1 and Table 2
    /// of the paper). Exactly [`SimConfig::from_platform`] applied to
    /// the default platform description — the Table 2 numbers live in
    /// one place, [`platform::PlatformDesc::tc27x`], and flow from
    /// there.
    pub fn tc277_reference() -> Self {
        SimConfig::from_platform(platform::default_platform())
    }

    /// Derives a configuration from a platform description: slave
    /// timings, presence, prefetchers, arbitration, hide cycles, cache
    /// geometries, priorities and the active core count all come from
    /// the description; engine/memo/trace/quota knobs get their
    /// defaults (set them with the builders). For the default TC27x
    /// description this is [`SimConfig::tc277_reference`].
    pub fn from_platform(desc: &PlatformDesc) -> Self {
        let geom = |c: platform::CacheShape| CacheGeometry::new(c.size_bytes, c.ways);
        SimConfig {
            slaves: std::array::from_fn(|i| {
                let s = desc.slave(i);
                SlaveTiming {
                    service_sequential: s.service_sequential,
                    service: s.service,
                    writeback_service: s.writeback_service,
                }
            }),
            slave_present: std::array::from_fn(|i| desc.slave(i).present),
            slave_prefetch: std::array::from_fn(|i| desc.slave(i).prefetch),
            arbitration: std::array::from_fn(|i| desc.slave(i).arbitration),
            active_cores: desc.cores.min(CoreId::COUNT),
            fetch_prefetch_hide: desc.fetch_prefetch_hide,
            data_hide: desc.data_hide,
            icache_p: geom(desc.icache_p),
            icache_e: geom(desc.icache_e),
            dcache_p: geom(desc.dcache_p),
            drb_e: geom(desc.drb_e),
            max_cycles: 500_000_000,
            master_priority: desc.master_priority,
            trace_capacity: 0,
            sri_quota: [None; CoreId::COUNT],
            engine: Engine::default(),
            block_memo: true,
            block_memo_capacity: 1024,
            attribution: false,
        }
    }

    /// Variant driven by an explicit timing kernel (builder style).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Variant with an SRI transaction quota on one core (builder
    /// style).
    #[must_use]
    pub fn with_sri_quota(mut self, core: CoreId, quota: u64) -> Self {
        self.sri_quota[core.index()] = Some(quota);
        self
    }

    /// Variant with per-core execution tracing enabled (builder style).
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Variant with an explicit per-run cycle budget (builder style):
    /// the run aborts with [`crate::SimError::CycleLimit`] once `limit`
    /// simulated cycles have elapsed. Campaign runners use this as a
    /// deterministic per-job guard underneath their wall-clock
    /// watchdogs — a livelocked job terminates at a simulated-cycle
    /// bound instead of burning host CPU until the default half-billion
    /// cycle cap.
    #[must_use]
    pub fn with_max_cycles(mut self, limit: u64) -> Self {
        self.max_cycles = limit;
        self
    }

    /// Variant with explicit SRI master priorities (builder style).
    #[must_use]
    pub fn with_master_priority(mut self, priority: [u8; CoreId::COUNT]) -> Self {
        self.master_priority = priority;
        self
    }

    /// Variant with block-memoization toggled (builder style). Memo on
    /// and off produce bit-identical runs; off trades speed for a
    /// simpler kernel, which the differential suites exploit.
    #[must_use]
    pub fn with_block_memo(mut self, enabled: bool) -> Self {
        self.block_memo = enabled;
        self
    }

    /// Variant with an explicit block-memo table capacity in slots
    /// (builder style). A capacity of zero disables memoization.
    #[must_use]
    pub fn with_block_memo_capacity(mut self, slots: usize) -> Self {
        self.block_memo_capacity = slots;
        self
    }

    /// Variant with contention attribution toggled (builder style): the
    /// crossbar charges every wait cycle to its `(victim, aggressor,
    /// slave)` triple and [`crate::System::stats`] carries the matrix.
    /// Recording never changes timing — outcomes are bit-identical with
    /// it on or off.
    #[must_use]
    pub fn with_attribution(mut self, enabled: bool) -> Self {
        self.attribution = enabled;
        self
    }

    /// Timing of one slave.
    pub fn slave(&self, target: Target) -> SlaveTiming {
        self.slaves[target.index()]
    }

    /// Cycles a request can hide, given its class and whether the flash
    /// prefetcher predicted it.
    pub fn hide_cycles(&self, class: Operation, target: Target, sequential: bool) -> u32 {
        match class {
            Operation::Code if sequential && self.slave_prefetch[target.index()] => {
                self.fetch_prefetch_hide
            }
            Operation::Code => 0,
            Operation::Data => self.data_hide,
        }
    }

    /// Instruction-cache geometry for a core.
    pub fn icache_for(&self, core: CoreId) -> CacheGeometry {
        if core.is_efficiency() {
            self.icache_e
        } else {
            self.icache_p
        }
    }

    /// Data-cache (or DRB) geometry for a core.
    pub fn dcache_for(&self, core: CoreId) -> CacheGeometry {
        if core.is_efficiency() {
            self.drb_e
        } else {
            self.dcache_p
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::tc277_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_table2_service_times() {
        let c = SimConfig::tc277_reference();
        assert_eq!(c.slave(Target::Pf0).service, 16);
        assert_eq!(c.slave(Target::Pf0).service_sequential, 12);
        assert_eq!(c.slave(Target::Pf1).service, 16);
        assert_eq!(c.slave(Target::Dfl).service, 43);
        assert_eq!(c.slave(Target::Lmu).service, 11);
        assert_eq!(c.slave(Target::Lmu).writeback_service, 10);
    }

    #[test]
    fn hiding_rules() {
        let c = SimConfig::tc277_reference();
        use Operation::{Code, Data};
        // Sequential code fetch from pflash hides the prefetch lead.
        assert_eq!(c.hide_cycles(Code, Target::Pf0, true), 6);
        // Non-sequential fetch hides nothing.
        assert_eq!(c.hide_cycles(Code, Target::Pf0, false), 0);
        // The LMU has no prefetcher.
        assert_eq!(c.hide_cycles(Code, Target::Lmu, true), 0);
        // Data always hides the posted address phase.
        assert_eq!(c.hide_cycles(Data, Target::Lmu, false), 1);
        assert_eq!(c.hide_cycles(Data, Target::Dfl, true), 1);
    }

    #[test]
    fn best_case_stalls_match_table2() {
        // stall = service(best) - hide: the Table 2 cs row.
        let c = SimConfig::tc277_reference();
        use Operation::{Code, Data};
        let cs = |t: Target, class: Operation| {
            let s = if t.is_pflash() {
                c.slave(t).service_sequential
            } else {
                c.slave(t).service
            };
            s - c.hide_cycles(class, t, true)
        };
        assert_eq!(cs(Target::Pf0, Code), 6);
        assert_eq!(cs(Target::Pf0, Data), 11);
        assert_eq!(cs(Target::Lmu, Code), 11);
        assert_eq!(cs(Target::Lmu, Data), 10);
        assert_eq!(cs(Target::Dfl, Data), 42);
    }

    #[test]
    fn max_cycles_builder_overrides_the_default() {
        let c = SimConfig::tc277_reference().with_max_cycles(1_000);
        assert_eq!(c.max_cycles, 1_000);
        assert_eq!(SimConfig::tc277_reference().max_cycles, 500_000_000);
    }

    #[test]
    fn engine_defaults_to_event_and_builds() {
        assert_eq!(SimConfig::tc277_reference().engine, Engine::Event);
        let c = SimConfig::tc277_reference().with_engine(Engine::Tick);
        assert_eq!(c.engine, Engine::Tick);
    }

    #[test]
    fn block_memo_defaults_on_and_builds() {
        let c = SimConfig::tc277_reference();
        assert!(c.block_memo);
        assert!(c.block_memo_capacity > 0);
        let c = c.with_block_memo(false).with_block_memo_capacity(16);
        assert!(!c.block_memo);
        assert_eq!(c.block_memo_capacity, 16);
    }

    #[test]
    fn default_platform_derivation_is_bit_identical_to_the_reference() {
        let derived = SimConfig::from_platform(platform::default_platform());
        let reference = SimConfig::tc277_reference();
        assert_eq!(format!("{derived:?}"), format!("{reference:?}"));
    }

    #[test]
    fn non_default_platforms_derive_their_own_shape() {
        let tdma = SimConfig::from_platform(&platform::PlatformDesc::tc27x_tdma());
        assert!(matches!(
            tdma.arbitration[0],
            Arbitration::Tdma { slot_len: 16 }
        ));
        assert_eq!(tdma.active_cores, 3);
        let ahb = SimConfig::from_platform(&platform::PlatformDesc::ahb2());
        assert_eq!(ahb.active_cores, 2);
        assert_eq!(
            ahb.slave_present,
            [true, false, false, true],
            "pf1/dfl slots are absent on ahb2"
        );
        assert_eq!(ahb.slave_prefetch, [false; Target::COUNT]);
        assert_eq!(ahb.slave(Target::Pf0).service, 8);
        assert_eq!(ahb.slave(Target::Lmu).service, 2);
        assert!(matches!(ahb.arbitration[0], Arbitration::FixedPriority));
        // No prefetcher anywhere: sequential code fetches hide nothing.
        assert_eq!(ahb.hide_cycles(Operation::Code, Target::Pf0, true), 0);
    }

    #[test]
    fn core_kind_cache_selection() {
        let c = SimConfig::tc277_reference();
        assert_eq!(c.icache_for(CoreId(0)).size_bytes, 8 << 10);
        assert_eq!(c.icache_for(CoreId(1)).size_bytes, 16 << 10);
        assert_eq!(c.dcache_for(CoreId(0)).lines(), 1);
        assert_eq!(c.dcache_for(CoreId(2)).size_bytes, 8 << 10);
    }
}
