//! The application under analysis: a control loop mimicking an
//! Automotive Cruise Control System (§4.2).
//!
//! The task performs the typical *signal acquisition → computation →
//! status update* sequence over two medium-size data structures, and is
//! deployed in the two variants of Figure 3 (plus the low-SRI-traffic
//! variant the paper mentions for real-world use cases):
//!
//! * **Scenario 1** — cacheable code in pf0/pf1, shared non-cacheable
//!   data (sensor/actuator buffers) in the LMU;
//! * **Scenario 2** — cacheable code in pf0/pf1, a cacheable lookup
//!   table in the LMU, cacheable constant data in pf0, and a small
//!   non-cacheable shared region in the LMU;
//! * **LowTraffic** — most code and data in the core-local scratchpads.

use tc27x_sim::{
    CoreId, DataObject, DeploymentScenario, Pattern, Placement, Program, ProgramBuilder, Region,
    TaskSpec,
};

/// Control iterations per flash bank segment.
pub const ITERS_PER_BANK: u32 = 16;
/// Work units per loop body; each unit is 10 ops (one leading memory or
/// compute op plus nine compute ops), sized so that the body exceeds
/// the 16 KiB i-cache and thrashes it every iteration.
pub const UNITS_PER_ITER: u32 = 558;

/// Emits one Scenario-1 work unit: LMU traffic in 9 of 13 units plus a
/// ~33-cycle compute burst (avg 3.7 cycles per compute op).
fn sc1_unit(b: &mut ProgramBuilder, u: u32) {
    if u % 13 < 9 {
        if u % 3 == 2 {
            b.store("actuators", Pattern::Sequential);
        } else {
            b.load("sensors", Pattern::Sequential);
        }
    } else {
        b.compute(1);
    }
    for k in 0..9 {
        b.compute(if (u + k) % 10 < 7 { 4 } else { 3 });
    }
}

/// Emits one Scenario-2 work unit: mostly-cached data plus minimal
/// compute — the Scenario-2 application is fetch-dominated.
fn sc2_unit(b: &mut ProgramBuilder, u: u32) {
    match u % 35 {
        0 => b.load("shared", Pattern::Sequential),
        7 => b.load("calib", Pattern::Random),
        _ => b.load("lut", Pattern::Random),
    };
    for _ in 0..9 {
        b.compute(1);
    }
}

/// One bank's main-loop program.
fn bank_loop(iters: u32, units: u32, unit: impl Fn(&mut ProgramBuilder, u32)) -> Program {
    Program::build(|b| {
        b.repeat(iters, |b| {
            for u in 0..units {
                unit(b, u);
            }
        });
    })
}

/// A short scratchpad-resident initialisation segment (sensor warm-up
/// and state reset).
fn init_segment() -> Program {
    Program::build(|b| {
        for i in 0..16 {
            b.load("state", Pattern::Sequential);
            b.compute(2 + (i % 3));
            b.store("state", Pattern::Sequential);
        }
    })
}

/// Builds the control-loop application for one deployment scenario on
/// a platform description: placements that name the second flash bank
/// fold onto the platform's available code slave (see
/// `second_code_bank`), so on the default TC27x the two banks are pf0
/// and pf1.
///
/// `core` is the core the task will run on (its scratchpads hold the
/// init code and local state); `seed` drives the random access
/// patterns.
///
/// # Examples
///
/// ```
/// use platform::PlatformDesc;
/// use tc27x_sim::{CoreId, DeploymentScenario, SimConfig, System};
/// use workloads::control_loop_on;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let desc = PlatformDesc::tc27x();
/// let app = control_loop_on(&desc, DeploymentScenario::Scenario1, CoreId(1), 42);
/// let mut sys = System::with_config(SimConfig::from_platform(&desc));
/// sys.load(CoreId(1), &app)?;
/// let out = sys.run()?;
/// assert!(out.counters(CoreId(1)).pcache_miss > 0);
/// # Ok(())
/// # }
/// ```
pub fn control_loop_on(
    desc: &platform::PlatformDesc,
    scenario: DeploymentScenario,
    core: CoreId,
    seed: u64,
) -> TaskSpec {
    let bank2 = crate::second_code_bank(desc);
    match scenario {
        DeploymentScenario::Scenario1 => TaskSpec::empty("cruise-control-sc1")
            .with_segment(init_segment(), Placement::pspr(core))
            .with_segment(
                bank_loop(ITERS_PER_BANK, UNITS_PER_ITER, sc1_unit),
                Placement::new(Region::Pflash0, true),
            )
            .with_segment(
                bank_loop(ITERS_PER_BANK, UNITS_PER_ITER, sc1_unit),
                Placement::new(bank2, true),
            )
            .with_object(DataObject::new(
                "sensors",
                4 << 10,
                Placement::new(Region::Lmu, false),
            ))
            .with_object(DataObject::new(
                "actuators",
                2 << 10,
                Placement::new(Region::Lmu, false),
            ))
            .with_object(DataObject::new("state", 1 << 10, Placement::dspr(core)))
            .with_seed(seed),
        DeploymentScenario::Scenario2 => TaskSpec::empty("cruise-control-sc2")
            .with_segment(init_segment(), Placement::pspr(core))
            .with_segment(
                bank_loop(ITERS_PER_BANK, UNITS_PER_ITER, sc2_unit),
                Placement::new(Region::Pflash0, true),
            )
            .with_segment(
                bank_loop(ITERS_PER_BANK, UNITS_PER_ITER, sc2_unit),
                Placement::new(bank2, true),
            )
            .with_object(DataObject::new(
                "lut",
                4 << 10,
                Placement::new(Region::Lmu, true),
            ))
            .with_object(DataObject::new(
                "calib",
                2 << 10,
                Placement::new(Region::Pflash0, true),
            ))
            .with_object(DataObject::new(
                "shared",
                1 << 10,
                Placement::new(Region::Lmu, false),
            ))
            .with_object(DataObject::new("state", 1 << 10, Placement::dspr(core)))
            .with_seed(seed),
        DeploymentScenario::LowTraffic => {
            // Most code/data in the scratchpads; a small flash-resident
            // routine and rare shared-LMU accesses.
            let local = Program::build(|b| {
                b.repeat(200, |b| {
                    for i in 0..8 {
                        b.load("state", Pattern::Sequential);
                        b.compute(4 + (i % 4));
                        b.store("state", Pattern::Sequential);
                    }
                    b.load("shared", Pattern::Sequential);
                });
            });
            let flash_routine = Program::build(|b| {
                b.repeat(4, |b| {
                    for u in 0..UNITS_PER_ITER / 4 {
                        if u % 8 == 0 {
                            b.load("shared", Pattern::Sequential);
                        } else {
                            b.compute(3);
                        }
                    }
                });
            });
            TaskSpec::empty("cruise-control-low")
                .with_segment(local, Placement::pspr(core))
                .with_segment(flash_routine, Placement::new(Region::Pflash0, true))
                .with_object(DataObject::new("state", 2 << 10, Placement::dspr(core)))
                .with_object(DataObject::new(
                    "shared",
                    1 << 10,
                    Placement::new(Region::Lmu, false),
                ))
                .with_seed(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::System;

    fn run(scenario: DeploymentScenario) -> (tc27x_sim::DebugCounters, tc27x_sim::GroundTruth) {
        let core = CoreId(1);
        let app = control_loop_on(platform::default_platform(), scenario, core, 42);
        let mut sys = System::tc277();
        sys.load(core, &app).unwrap();
        let out = sys.run().unwrap();
        (out.counters(core), out.ground_truth(core))
    }

    #[test]
    fn scenario1_profile_shape() {
        let (k, g) = run(DeploymentScenario::Scenario1);
        // Code misses almost every line of the body, every iteration
        // (the body exceeds the i-cache and thrashes most sets).
        assert!(k.pcache_miss as f64 >= 0.9 * (2 * ITERS_PER_BANK * UNITS_PER_ITER) as f64);
        // Data: all non-cacheable LMU traffic, no d-cache misses. Memory
        // ops occur in 9 of every 13 units (387 per iteration).
        let mem_per_iter = (UNITS_PER_ITER / 13) * 9 + (UNITS_PER_ITER % 13).min(9);
        assert_eq!(k.dcache_miss_total(), 0);
        assert_eq!(
            k.dmem_stall,
            (2 * ITERS_PER_BANK * mem_per_iter) as u64 * 10
        );
        // Code goes only to pf0/pf1, data only to the LMU.
        use tc27x_sim::{Operation, Target};
        assert_eq!(g.accesses(Target::Lmu, Operation::Code), 0);
        assert_eq!(g.accesses(Target::Dfl, Operation::Data), 0);
        assert_eq!(g.accesses(Target::Pf0, Operation::Data), 0);
        assert!(g.accesses(Target::Pf0, Operation::Code) > 0);
        assert!(g.accesses(Target::Pf1, Operation::Code) > 0);
    }

    #[test]
    fn scenario1_pcache_miss_equals_code_sri_requests() {
        // The Scenario-1 tailoring hinges on this counter identity.
        let (k, g) = run(DeploymentScenario::Scenario1);
        use tc27x_sim::{Operation, Target};
        let code_reqs =
            g.accesses(Target::Pf0, Operation::Code) + g.accesses(Target::Pf1, Operation::Code);
        assert_eq!(k.pcache_miss, code_reqs);
    }

    #[test]
    fn scenario2_profile_shape() {
        let (k, g) = run(DeploymentScenario::Scenario2);
        // Cacheable data: some clean misses, no dirty ones (constant
        // data), exactly as Table 6 shows.
        assert!(k.dcache_miss_clean > 0);
        assert_eq!(k.dcache_miss_dirty, 0);
        // Data stalls are far smaller than code stalls (Table 6, Sc2).
        assert!(k.dmem_stall < k.pmem_stall / 5);
        use tc27x_sim::{Operation, Target};
        assert!(
            g.accesses(Target::Pf0, Operation::Data) > 0,
            "constant data in pf0"
        );
    }

    #[test]
    fn low_traffic_is_an_order_of_magnitude_quieter() {
        let (k1, _) = run(DeploymentScenario::Scenario1);
        let (kl, _) = run(DeploymentScenario::LowTraffic);
        assert!(kl.pmem_stall * 5 < k1.pmem_stall);
        assert!(kl.dmem_stall * 5 < k1.dmem_stall);
        assert!(kl.ccnt > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, _) = run(DeploymentScenario::Scenario1);
        let (b, _) = run(DeploymentScenario::Scenario1);
        assert_eq!(a, b);
    }
}
