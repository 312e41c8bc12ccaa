//! # `tc27x-sim` — a cycle-level AURIX TC27x platform simulator
//!
//! This crate stands in for the TC277 silicon used by the DAC'18 paper
//! *Modelling Multicore Contention on the AURIX TC27x*. It models the
//! pieces of the platform the contention analysis depends on:
//!
//! * three TriCore cores (one 1.6E, two 1.6P) with per-core
//!   program/data scratchpads, instruction caches and — on the 1.6P —
//!   write-back data caches ([`core_pipeline`], [`cache`]);
//! * the SRI crossbar with per-slave round-robin arbitration and
//!   parallel transactions to distinct slaves ([`sri`]);
//! * the four shared SRI slaves (PFLASH0/PFLASH1/DFLASH/LMU) with the
//!   latencies of Table 2, including the program-flash prefetch buffer
//!   ([`config`]);
//! * segment-based cacheability and the Table 3 deployment constraints
//!   ([`addr`], [`layout`], [`linker`]);
//! * the DSU debug counters the models consume: CCNT, PMEM_STALL,
//!   DMEM_STALL, PCACHE_MISS, DCACHE_MISS_CLEAN/DIRTY ([`counters`]).
//!
//! Tasks are written in an ISA-lite of compute bursts, loads and stores
//! ([`program`]) — sufficient because TC27x contention depends only on
//! the number, type and target of SRI requests (§2 of the paper).
//!
//! # Examples
//!
//! Measure a task in isolation:
//!
//! ```
//! use tc27x_sim::addr::{CoreId, Region};
//! use tc27x_sim::layout::{DataObject, Placement, TaskSpec};
//! use tc27x_sim::program::{Pattern, Program};
//! use tc27x_sim::System;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Program::build(|b| {
//!     b.repeat(1000, |b| {
//!         b.load("signal", Pattern::Sequential);
//!         b.compute(4);
//!         b.store("state", Pattern::Sequential);
//!     });
//! });
//! let task = TaskSpec::new("loop", program, Placement::new(Region::Pflash0, true))
//!     .with_object(DataObject::new("signal", 2048, Placement::new(Region::Lmu, false)))
//!     .with_object(DataObject::new("state", 2048, Placement::dspr(CoreId(1))));
//!
//! let mut system = System::tc277();
//! system.load(CoreId(1), &task)?;
//! let outcome = system.run()?;
//! println!("{}", outcome.counters(CoreId(1)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod addr;
pub mod attribution;
pub mod cache;
pub mod config;
pub mod core_pipeline;
pub mod counters;
pub mod engine;
pub mod faults;
pub mod layout;
pub mod linker;
pub mod memo;
pub mod program;
pub mod reference;
pub mod rng;
pub mod solo;
pub mod sri;
pub mod system;
pub mod trace;
pub mod warp;

pub use addr::{Addr, CoreId, MemMap, Region};
pub use attribution::AttributionMatrix;
pub use config::SimConfig;
pub use counters::{GroundTruth, KernelStats, SimStats, SlaveStats};
pub use engine::{Engine, EventSource, ParseEngineError};
pub use faults::{CounterId, FaultInjector, FaultKind, FaultRecord};
pub use layout::{CodeSegment, DataObject, DeploymentScenario, LayoutError, Placement, TaskSpec};
pub use linker::{Linker, TaskImage};
pub use platform::{DebugCounters, Operation, Target};
pub use program::{Op, Pattern, Program, ProgramBuilder};
pub use solo::SoloTimeline;
pub use sri::{Arbiter, FixedPriority, PriorityRoundRobin, Sri, SriRequest, Tdma};
pub use system::{RunOutcome, SimError, SplicedRun, System};
pub use trace::{Trace, TraceKind, TraceRecord};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<crate::System>();
        assert_ss::<crate::TaskSpec>();
        assert_ss::<crate::DebugCounters>();
        assert_ss::<crate::SimError>();
    }
}
