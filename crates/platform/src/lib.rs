//! Platform descriptions: the silicon shape as data.
//!
//! The paper analyses one fixed platform — three TriCore cores behind a
//! per-slave round-robin SRI with the Table 2 service latencies. This
//! crate turns that shape into a first-class value, [`PlatformDesc`]:
//! how many cores, which slave slots exist, each slave's service
//! latencies, and which arbitration policy ([`Arbitration`]) each slave
//! runs. The simulator derives its `SimConfig` from a description and
//! the analytical models derive their latency/stall tables from the same
//! description, so the two sides can never disagree about the platform.
//!
//! The crate sits below the simulator and the models (it depends only
//! on `obs`, for the stable hasher): both `tc27x-sim` and `contention`
//! depend on it, and everything downstream (mbta, serve, dse, bench,
//! CLI) names platforms through the built-in registry
//! ([`PlatformDesc::by_name`]). It also owns the paper's shared
//! vocabulary — [`Target`], [`Operation`] and [`DebugCounters`] — so
//! the simulator and the models speak about the same values.
//!
//! ## Slave slots
//!
//! A description always has [`SLAVE_SLOTS`] = 4 slots in the fixed order
//! `[pf0, pf1, dfl, lmu]` of [`Target`], which the simulator and the
//! models share. A platform with fewer physical slaves marks the
//! unused slots absent ([`SlaveDesc::present`] = false); placements into
//! an absent slot are rejected at load time and the models treat the
//! slot's access paths as infeasible. This keeps every fingerprint,
//! table and counter layout dense and platform-independent.
//!
//! ## Arbitration and per-access interference charges
//!
//! [`PlatformDesc::contention_latency`] is the single source of truth
//! for the per-access worst-case charge `l^{t,o}` each policy admits:
//!
//! * **Priority-then-round-robin** — one contender request can occupy
//!   the slave for its full `service` ahead of ours: `l = service`
//!   (Table 2's latency row on the TC27x).
//! * **Fixed priority** — per-class worst case: a contender that
//!   outranks the analysed core gets a whole `service` ahead of us;
//!   if nobody outranks us only a non-preemptable request already in
//!   flight can block, for at most `service − 1` cycles. One request
//!   per contender per analysed access, the same single-outstanding
//!   assumption the PTAC pairing makes.
//! * **TDMA** — time composable: contenders cannot delay a grant at
//!   all, but the analysed core's own worst slot alignment costs
//!   `(S−1)·slot_len + service − 1` cycles of wait (arrive one cycle
//!   after the last feasible start in our slot, wait out the `S−1`
//!   foreign slots). That exact worst-case wait is the charge — it
//!   bounds any deployment phase against any isolation phase, and is
//!   deliberately independent of the contender.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

use obs::Fnv;
use std::fmt;
use std::sync::OnceLock;

mod vocab;

pub use vocab::{DebugCounters, Operation, Target};

/// Number of slave slots every description carries, in the fixed order
/// `[pf0, pf1, dfl, lmu]` shared with the simulator and the models.
pub const SLAVE_SLOTS: usize = 4;

/// Hard capacity bound on cores: descriptions may use fewer
/// ([`PlatformDesc::cores`]), never more.
pub const MAX_CORES: usize = 3;

/// Per-slave arbitration policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arbitration {
    /// Priority classes per core, round-robin within a class; with all
    /// cores in one class (the TC27x default) this is plain round-robin.
    PriorityRoundRobin,
    /// Strict fixed priority over cores: the highest
    /// [`PlatformDesc::master_priority`] class always wins, ties broken
    /// by the lower core index. In-flight transactions are never
    /// preempted.
    FixedPriority,
    /// Time-division multiplexing: the schedule cycles through one slot
    /// of `slot_len` cycles per active core; a request is granted only
    /// in its own slot and only if its service fits the remainder of the
    /// slot, so transactions never spill into foreign slots.
    Tdma {
        /// Slot length in cycles; must cover the slave's longest
        /// service (validated).
        slot_len: u32,
    },
}

impl fmt::Display for Arbitration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arbitration::PriorityRoundRobin => write!(f, "prr"),
            Arbitration::FixedPriority => write!(f, "fp"),
            Arbitration::Tdma { slot_len } => write!(f, "tdma({slot_len})"),
        }
    }
}

/// One slave slot of the interconnect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlaveDesc {
    /// Stable short name (used in fingerprints and reports).
    pub name: &'static str,
    /// Whether the slot exists on this platform. Absent slots reject
    /// placements and are infeasible in the models.
    pub present: bool,
    /// Whether the slave has a sequential prefetcher whose hits are
    /// served in `service_sequential` and hide
    /// [`PlatformDesc::fetch_prefetch_hide`] pipeline cycles.
    pub prefetch: bool,
    /// Whether code fetches can address this slave.
    pub code: bool,
    /// Whether data accesses can address this slave.
    pub data: bool,
    /// Occupancy of a sequential/prefetched request; equals `service`
    /// for slaves without a prefetcher.
    pub service_sequential: u32,
    /// Worst-case occupancy of a single request.
    pub service: u32,
    /// Occupancy of a cache-line write-back burst.
    pub writeback_service: u32,
    /// Arbitration policy of this slave's port.
    pub arbitration: Arbitration,
}

impl SlaveDesc {
    /// An absent slot (placeholder for platforms with fewer slaves).
    pub fn absent(name: &'static str) -> Self {
        SlaveDesc {
            name,
            present: false,
            prefetch: false,
            code: false,
            data: false,
            service_sequential: 1,
            service: 1,
            writeback_service: 1,
            arbitration: Arbitration::PriorityRoundRobin,
        }
    }

    /// The slave's longest single-transaction occupancy (regular or
    /// write-back) — what a TDMA slot must cover.
    pub fn max_service(&self) -> u32 {
        self.service.max(self.writeback_service)
    }
}

/// Cache geometry as plain numbers (the simulator converts to its own
/// `CacheGeometry`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheShape {
    /// Total size in bytes.
    pub size_bytes: u32,
    /// Associativity (ways).
    pub ways: u32,
}

/// A full platform description. Everything the simulator and the models
/// need to agree on lives here; [`PlatformDesc::fingerprint`] binds it
/// into job keys, store fingerprints and campaign identities.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlatformDesc {
    /// Registry name (`tc27x`, `tc27x-tdma`, `ahb2`, ...).
    pub name: &'static str,
    /// Active cores, `1..=MAX_CORES`. Core ids `0..cores` are usable.
    pub cores: usize,
    /// The core the sweeps and experiments analyse (the "app" core).
    pub app_core: usize,
    /// The core the sweeps place the contender on.
    pub load_core: usize,
    /// Interconnect priority class per core (higher wins). Only the
    /// first `cores` entries are meaningful.
    pub master_priority: [u8; MAX_CORES],
    /// Pipeline cycles a sequential prefetched code fetch can hide.
    pub fetch_prefetch_hide: u32,
    /// Pipeline cycles any data access can hide (posted address phase).
    pub data_hide: u32,
    /// The slave slots, `[pf0, pf1, dfl, lmu]` order.
    pub slaves: [SlaveDesc; SLAVE_SLOTS],
    /// Instruction-cache geometry of performance cores.
    pub icache_p: CacheShape,
    /// Instruction-cache geometry of the efficiency core (core 0).
    pub icache_e: CacheShape,
    /// Data-cache geometry of performance cores.
    pub dcache_p: CacheShape,
    /// Data read buffer of the efficiency core.
    pub drb_e: CacheShape,
}

/// A named entry of the built-in registry.
type BuiltinEntry = (&'static str, fn() -> PlatformDesc);

/// The built-in registry, name → constructor.
const BUILTINS: &[BuiltinEntry] = &[
    ("tc27x", PlatformDesc::tc27x),
    ("tc27x-tdma", PlatformDesc::tc27x_tdma),
    ("ahb2", PlatformDesc::ahb2),
];

impl PlatformDesc {
    /// The default platform: the paper's TC277 (3 cores, per-slave
    /// priority-then-round-robin SRI, Table 2 service latencies). This
    /// is the ONLY place the Table 2 constants 16/21/43 may appear in
    /// code form (`ci.sh lint` greps for strays).
    pub fn tc27x() -> Self {
        let pf = |name| SlaveDesc {
            name,
            present: true,
            prefetch: true,
            code: true,
            data: true,
            service_sequential: 12,
            service: 16,
            writeback_service: 16,
            arbitration: Arbitration::PriorityRoundRobin,
        };
        PlatformDesc {
            name: "tc27x",
            cores: 3,
            app_core: 1,
            load_core: 2,
            master_priority: [0; MAX_CORES],
            fetch_prefetch_hide: 6,
            data_hide: 1,
            slaves: [
                pf("pf0"),
                pf("pf1"),
                SlaveDesc {
                    name: "dfl",
                    present: true,
                    prefetch: false,
                    code: false,
                    data: true,
                    service_sequential: 43,
                    service: 43,
                    writeback_service: 43,
                    arbitration: Arbitration::PriorityRoundRobin,
                },
                SlaveDesc {
                    name: "lmu",
                    present: true,
                    prefetch: false,
                    code: true,
                    data: true,
                    service_sequential: 11,
                    service: 11,
                    writeback_service: 10,
                    arbitration: Arbitration::PriorityRoundRobin,
                },
            ],
            icache_p: CacheShape {
                size_bytes: 16 << 10,
                ways: 2,
            },
            icache_e: CacheShape {
                size_bytes: 8 << 10,
                ways: 2,
            },
            dcache_p: CacheShape {
                size_bytes: 8 << 10,
                ways: 2,
            },
            drb_e: CacheShape {
                size_bytes: 32,
                ways: 1,
            },
        }
    }

    /// TC27x silicon with every SRI slave port arbitrated TDMA instead
    /// of round-robin: one slot per core, each slot exactly covering the
    /// slave's longest transaction. Fully time composable — contenders
    /// cannot delay a grant — at the cost of slot-alignment waits that
    /// are paid even in isolation.
    pub fn tc27x_tdma() -> Self {
        let mut p = PlatformDesc::tc27x();
        p.name = "tc27x-tdma";
        for slave in &mut p.slaves {
            slave.arbitration = Arbitration::Tdma {
                slot_len: slave.max_service(),
            };
        }
        p
    }

    /// A dual-core AHB-lite microcontroller in the RP2040 mould: two
    /// symmetric cores, an XIP flash port and a single SRAM port behind
    /// fixed-priority bus arbiters (core 0, the analysed core, outranks
    /// core 1 — the BUSPRIO-style configuration of the related RP2040
    /// bus-fairness experiments). The pf1/dfl slots are absent.
    pub fn ahb2() -> Self {
        let sram_like = CacheShape {
            size_bytes: 32,
            ways: 1,
        };
        PlatformDesc {
            name: "ahb2",
            cores: 2,
            app_core: 0,
            load_core: 1,
            master_priority: [1, 0, 0],
            fetch_prefetch_hide: 0,
            data_hide: 1,
            slaves: [
                SlaveDesc {
                    name: "flash",
                    present: true,
                    prefetch: false,
                    code: true,
                    data: true,
                    service_sequential: 8,
                    service: 8,
                    writeback_service: 8,
                    arbitration: Arbitration::FixedPriority,
                },
                SlaveDesc::absent("pf1"),
                SlaveDesc::absent("dfl"),
                SlaveDesc {
                    name: "sram",
                    present: true,
                    prefetch: false,
                    code: true,
                    data: true,
                    service_sequential: 2,
                    service: 2,
                    writeback_service: 2,
                    arbitration: Arbitration::FixedPriority,
                },
            ],
            // Both cores are the same kind: give the "efficiency" and
            // "performance" slots identical geometries (an XIP cache in
            // front of flash, a single-line read buffer for data).
            icache_p: CacheShape {
                size_bytes: 16 << 10,
                ways: 2,
            },
            icache_e: CacheShape {
                size_bytes: 16 << 10,
                ways: 2,
            },
            dcache_p: sram_like,
            drb_e: sram_like,
        }
    }

    /// Looks up a built-in profile by registry name.
    pub fn builtin(name: &str) -> Option<PlatformDesc> {
        BUILTINS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, make)| make())
    }

    /// The registry names, in a stable order (for `--platform` errors).
    pub fn names() -> Vec<&'static str> {
        BUILTINS.iter().map(|(n, _)| *n).collect()
    }

    /// [`PlatformDesc::builtin`] for user input: an unknown name is an
    /// error that lists the known profiles.
    ///
    /// # Errors
    ///
    /// A readable message naming `name` and every registry entry.
    pub fn by_name(name: &str) -> Result<PlatformDesc, String> {
        Self::builtin(name).ok_or_else(|| {
            format!(
                "unknown platform `{name}` (known platforms: {})",
                Self::names().join(", ")
            )
        })
    }

    /// Whether this description is the default platform (the paper's
    /// TC27x). Default-platform fingerprints are *not* folded into job
    /// keys and store identities, so every key minted before platforms
    /// existed stays valid.
    pub fn is_default(&self) -> bool {
        self == default_platform()
    }

    /// The slave in slot `slot`.
    pub fn slave(&self, slot: usize) -> &SlaveDesc {
        &self.slaves[slot]
    }

    /// Worst-case cycles one analysed-core access to slot `slot` can be
    /// delayed by contention (or slot alignment, under TDMA) — the
    /// models' `l^{t,o}` charge for a service occupancy of `service`
    /// cycles. See the module docs for the per-policy derivations.
    pub fn contention_charge(&self, slot: usize, service: u32) -> u64 {
        let slave = &self.slaves[slot];
        let service = u64::from(service);
        match slave.arbitration {
            Arbitration::PriorityRoundRobin => service,
            Arbitration::FixedPriority => {
                if self.outranked(self.app_core) {
                    service
                } else {
                    service.saturating_sub(1)
                }
            }
            Arbitration::Tdma { slot_len } => tdma_worst_wait(self.cores, slot_len, service as u32),
        }
    }

    /// Worst-case charge for a dirty miss at slot `slot`: a write-back
    /// burst followed by a line fill. Under round-robin and fixed
    /// priority the pair occupies the slave back-to-back and is charged
    /// as one combined occupancy (Table 2's bracketed 21 on the TC27x);
    /// under TDMA each of the two transactions can independently suffer
    /// the worst slot alignment.
    pub fn dirty_charge(&self, slot: usize) -> u64 {
        let slave = &self.slaves[slot];
        match slave.arbitration {
            Arbitration::Tdma { .. } => {
                self.contention_charge(slot, slave.writeback_service)
                    + self.contention_charge(slot, slave.service)
            }
            _ => self.contention_charge(slot, slave.writeback_service + slave.service),
        }
    }

    /// Whether any other active core outranks `core` under fixed
    /// priority (strictly higher class, or equal class and lower index).
    pub fn outranked(&self, core: usize) -> bool {
        let mine = self.master_priority[core];
        (0..self.cores).any(|c| {
            c != core
                && (self.master_priority[c] > mine || (self.master_priority[c] == mine && c < core))
        })
    }

    /// FNV-1a fingerprint over every semantic field. Equal descriptions
    /// hash equal on every platform and build; any change to the shape
    /// changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str_delimited("platform-desc/v1");
        h.write_str_delimited(self.name);
        h.write_u64(self.cores as u64);
        h.write_u64(self.app_core as u64);
        h.write_u64(self.load_core as u64);
        for p in self.master_priority {
            h.write_u64(u64::from(p));
        }
        h.write_u64(u64::from(self.fetch_prefetch_hide));
        h.write_u64(u64::from(self.data_hide));
        for s in &self.slaves {
            h.write_str_delimited(s.name);
            h.write_u64(u64::from(s.present));
            h.write_u64(u64::from(s.prefetch));
            h.write_u64(u64::from(s.code));
            h.write_u64(u64::from(s.data));
            h.write_u64(u64::from(s.service_sequential));
            h.write_u64(u64::from(s.service));
            h.write_u64(u64::from(s.writeback_service));
            match s.arbitration {
                Arbitration::PriorityRoundRobin => h.write_str_delimited("prr"),
                Arbitration::FixedPriority => h.write_str_delimited("fp"),
                Arbitration::Tdma { slot_len } => {
                    h.write_str_delimited("tdma");
                    h.write_u64(u64::from(slot_len));
                }
            }
        }
        for c in [self.icache_p, self.icache_e, self.dcache_p, self.drb_e] {
            h.write_u64(u64::from(c.size_bytes));
            h.write_u64(u64::from(c.ways));
        }
        h.finish()
    }

    /// Checks every structural invariant of the description. Returns
    /// all violations (empty = valid).
    pub fn check(&self) -> Vec<String> {
        let mut issues = Vec::new();
        if self.cores == 0 || self.cores > MAX_CORES {
            issues.push(format!("cores = {} outside 1..={MAX_CORES}", self.cores));
        }
        if self.app_core >= self.cores {
            issues.push(format!("app_core {} not an active core", self.app_core));
        }
        if self.load_core >= self.cores {
            issues.push(format!("load_core {} not an active core", self.load_core));
        }
        if self.cores > 1 && self.app_core == self.load_core {
            issues.push("app_core and load_core must differ".to_string());
        }
        let present = self.slaves.iter().filter(|s| s.present);
        if !present.clone().any(|s| s.code) {
            issues.push("no present slave accepts code fetches".to_string());
        }
        if !present.clone().any(|s| s.data) {
            issues.push("no present slave accepts data accesses".to_string());
        }
        for s in self.slaves.iter().filter(|s| s.present) {
            if s.service == 0 || s.service_sequential == 0 || s.writeback_service == 0 {
                issues.push(format!("slave {}: zero service latency", s.name));
            }
            if s.service_sequential > s.service {
                issues.push(format!(
                    "slave {}: sequential service {} exceeds worst-case service {}",
                    s.name, s.service_sequential, s.service
                ));
            }
            if !s.prefetch && s.service_sequential != s.service {
                issues.push(format!(
                    "slave {}: sequential != service without a prefetcher",
                    s.name
                ));
            }
            if s.prefetch && self.fetch_prefetch_hide >= s.service_sequential {
                issues.push(format!(
                    "slave {}: prefetch hide {} swallows the whole sequential service {}",
                    s.name, self.fetch_prefetch_hide, s.service_sequential
                ));
            }
            if s.data && self.data_hide >= s.service_sequential {
                issues.push(format!(
                    "slave {}: data hide {} swallows the whole service {}",
                    s.name, self.data_hide, s.service_sequential
                ));
            }
            match s.arbitration {
                Arbitration::Tdma { slot_len } => {
                    if slot_len < s.max_service() {
                        issues.push(format!(
                            "slave {}: TDMA slot {} shorter than longest service {}",
                            s.name,
                            slot_len,
                            s.max_service()
                        ));
                    }
                }
                Arbitration::FixedPriority => {
                    // Ties are broken deterministically by core index,
                    // but a fixed-priority port with duplicate classes
                    // is almost certainly a configuration mistake.
                    for a in 0..self.cores {
                        for b in (a + 1)..self.cores {
                            if self.master_priority[a] == self.master_priority[b] {
                                issues.push(format!(
                                    "slave {}: fixed priority with equal classes on cores {a}/{b}",
                                    s.name
                                ));
                            }
                        }
                    }
                }
                Arbitration::PriorityRoundRobin => {}
            }
        }
        issues.dedup();
        issues
    }

    /// [`PlatformDesc::check`] as a result, formatting all violations.
    pub fn validate(&self) -> Result<(), String> {
        let issues = self.check();
        if issues.is_empty() {
            Ok(())
        } else {
            Err(format!("platform {}: {}", self.name, issues.join("; ")))
        }
    }
}

/// The exact worst-case cycles a request of `service` cycles waits for
/// its grant under TDMA with `cores` slots of `slot_len` cycles: it
/// arrives one cycle past the last feasible start in its own slot
/// (`service − 1` cycles of own slot remain) and then waits out the
/// `cores − 1` foreign slots.
pub fn tdma_worst_wait(cores: usize, slot_len: u32, service: u32) -> u64 {
    if cores <= 1 {
        // Sole owner of the schedule: worst case is arriving with one
        // cycle too few left in the slot and wrapping to its next start.
        return u64::from(service.saturating_sub(1));
    }
    (cores as u64 - 1) * u64::from(slot_len) + u64::from(service).saturating_sub(1)
}

/// The default platform (the paper's TC27x), cached for cheap
/// [`PlatformDesc::is_default`] checks.
pub fn default_platform() -> &'static PlatformDesc {
    static DEFAULT: OnceLock<PlatformDesc> = OnceLock::new();
    DEFAULT.get_or_init(PlatformDesc::tc27x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_and_validate() {
        for name in PlatformDesc::names() {
            let p = PlatformDesc::builtin(name).expect("registry name resolves");
            assert_eq!(p.name, name);
            assert_eq!(p.validate(), Ok(()), "{name}");
        }
        assert!(PlatformDesc::builtin("nope").is_none());
    }

    #[test]
    fn default_is_tc27x_and_only_tc27x() {
        assert!(PlatformDesc::tc27x().is_default());
        assert!(!PlatformDesc::tc27x_tdma().is_default());
        assert!(!PlatformDesc::ahb2().is_default());
        // A mutated copy of the default is NOT the default, even if it
        // keeps the name.
        let mut p = PlatformDesc::tc27x();
        p.slaves[0].service += 1;
        assert!(!p.is_default());
    }

    #[test]
    fn fingerprints_are_distinct_and_stable() {
        let fps: Vec<u64> = PlatformDesc::names()
            .iter()
            .map(|n| PlatformDesc::builtin(n).unwrap().fingerprint())
            .collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j]);
            }
        }
        // Pinned: fingerprints enter job keys, journals and stores, so
        // a change to the hashed byte stream must fail here first.
        assert_eq!(PlatformDesc::tc27x().fingerprint(), 0x8712_b2a8_5fb1_a5d7);
        assert_eq!(
            PlatformDesc::tc27x_tdma().fingerprint(),
            0xd66e_2409_1fbc_2d24
        );
        assert_eq!(PlatformDesc::ahb2().fingerprint(), 0x3159_852b_c0e4_ca84);
    }

    #[test]
    fn tc27x_matches_table2_service_times() {
        let p = PlatformDesc::tc27x();
        assert_eq!(p.slave(0).service, 16);
        assert_eq!(p.slave(0).service_sequential, 12);
        assert_eq!(p.slave(2).service, 43);
        assert_eq!(p.slave(3).service, 11);
        assert_eq!(p.slave(3).writeback_service, 10);
        for slot in 0..SLAVE_SLOTS {
            // Round-robin: the charge is exactly one service occupancy.
            let s = p.slave(slot).service;
            assert_eq!(p.contention_charge(slot, s), u64::from(s));
        }
    }

    #[test]
    fn tdma_worst_wait_formula() {
        // 3 slots of 16: miss our slot by a cycle (15 left over), then
        // two foreign slots of 16 → 32 + 15 = 47.
        assert_eq!(tdma_worst_wait(3, 16, 16), 47);
        assert_eq!(tdma_worst_wait(2, 8, 8), 15);
        assert_eq!(tdma_worst_wait(2, 8, 2), 9);
        assert_eq!(tdma_worst_wait(1, 16, 16), 15);
        let p = PlatformDesc::tc27x_tdma();
        assert_eq!(
            p.contention_charge(0, p.slave(0).service),
            tdma_worst_wait(3, 16, 16)
        );
    }

    #[test]
    fn fixed_priority_charge_depends_on_rank() {
        let p = PlatformDesc::ahb2();
        // Core 0 (the analysed core) holds the top class: only blocking.
        assert!(!p.outranked(0));
        assert!(p.outranked(1));
        assert_eq!(p.contention_charge(0, 8), 7);
        let mut low = p.clone();
        low.master_priority = [0, 1, 0];
        assert_eq!(low.contention_charge(0, 8), 8);
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let mut p = PlatformDesc::tc27x();
        p.cores = 0;
        assert!(p.validate().is_err());

        let mut p = PlatformDesc::tc27x_tdma();
        if let Arbitration::Tdma { slot_len } = &mut p.slaves[0].arbitration {
            *slot_len = 3;
        }
        assert!(p.validate().unwrap_err().contains("TDMA slot"));

        let mut p = PlatformDesc::ahb2();
        p.master_priority = [1, 1, 0];
        assert!(p.validate().unwrap_err().contains("equal classes"));

        let mut p = PlatformDesc::tc27x();
        p.slaves[3].service = 0;
        assert!(p.validate().is_err());

        let mut p = PlatformDesc::ahb2();
        for s in &mut p.slaves {
            s.present = false;
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn absent_slots_are_infeasible() {
        let p = PlatformDesc::ahb2();
        assert!(!p.slave(1).present);
        assert!(!p.slave(2).present);
        assert!(p.slave(0).code && p.slave(3).data);
    }
}
