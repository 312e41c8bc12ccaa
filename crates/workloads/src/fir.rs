//! A second application: a FIR-filter style signal-processing task.
//!
//! The cruise-control loop is the paper's evaluation subject; this task
//! broadens the suite with a different memory shape — a sliding-window
//! convolution that streams samples from a shared input buffer, reads a
//! coefficient table, and writes decimated output — showing the models
//! are not tuned to one program structure.

use tc27x_sim::{
    CoreId, DataObject, DeploymentScenario, Pattern, Placement, Program, Region, TaskSpec,
};

/// Taps of the simulated filter (reads per produced sample).
pub const FIR_TAPS: u32 = 16;
/// Output samples produced per activation.
pub const FIR_SAMPLES: u32 = 256;

/// Builds the FIR task for a deployment scenario.
///
/// * **Scenario 1** — samples stream from a non-cacheable LMU buffer
///   (shared with the producer core), coefficients live in the data
///   scratchpad, output goes back to the LMU.
/// * **Scenario 2 / LowTraffic** — coefficients are constant cacheable
///   data in pf0 and samples are mostly local; only block boundaries
///   touch the shared LMU.
///
/// # Examples
///
/// ```
/// use tc27x_sim::{CoreId, DeploymentScenario, System};
/// use workloads::fir_filter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let task = fir_filter(DeploymentScenario::Scenario1, CoreId(2), 5);
/// let mut sys = System::tc277();
/// sys.load(CoreId(2), &task)?;
/// let out = sys.run()?;
/// assert!(out.counters(CoreId(2)).dmem_stall > 0);
/// # Ok(())
/// # }
/// ```
pub fn fir_filter(scenario: DeploymentScenario, core: CoreId, seed: u64) -> TaskSpec {
    match scenario {
        DeploymentScenario::Scenario1 => {
            let prog = Program::build(|b| {
                b.repeat(FIR_SAMPLES, |b| {
                    // Multiply-accumulate over the tap window: one shared
                    // sample read plus local coefficient reads.
                    for t in 0..FIR_TAPS {
                        if t % 4 == 0 {
                            b.load("samples", Pattern::Sequential);
                        } else {
                            b.load("coeffs", Pattern::Sequential);
                        }
                        b.compute(2);
                    }
                    b.store("filtered", Pattern::Sequential);
                    b.compute(6);
                });
            });
            TaskSpec::new("fir-sc1", prog, Placement::new(Region::Pflash1, true))
                .with_object(DataObject::new(
                    "samples",
                    8 << 10,
                    Placement::new(Region::Lmu, false),
                ))
                .with_object(DataObject::new("coeffs", 1 << 10, Placement::dspr(core)))
                .with_object(DataObject::new(
                    "filtered",
                    4 << 10,
                    Placement::new(Region::Lmu, false),
                ))
                .with_seed(seed)
        }
        DeploymentScenario::Scenario2 | DeploymentScenario::LowTraffic => {
            let prog = Program::build(|b| {
                b.repeat(FIR_SAMPLES, |b| {
                    for t in 0..FIR_TAPS {
                        if t % 8 == 0 {
                            b.load("coeff_rom", Pattern::Random);
                        } else {
                            b.load("window", Pattern::Sequential);
                        }
                        b.compute(1);
                    }
                    b.store("window", Pattern::Sequential);
                    b.compute(4);
                });
                b.repeat(FIR_SAMPLES / 8, |b| {
                    b.store("block_out", Pattern::Sequential);
                });
            });
            TaskSpec::new("fir-sc2", prog, Placement::new(Region::Pflash1, true))
                .with_object(DataObject::new(
                    "coeff_rom",
                    2 << 10,
                    Placement::new(Region::Pflash0, true),
                ))
                .with_object(DataObject::new("window", 2 << 10, Placement::dspr(core)))
                .with_object(DataObject::new(
                    "block_out",
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
    use tc27x_sim::{Operation, System, Target};

    fn run(scenario: DeploymentScenario) -> tc27x_sim::RunOutcome {
        let core = CoreId(2);
        let mut sys = System::tc277();
        sys.load(core, &fir_filter(scenario, core, 5)).unwrap();
        sys.run().unwrap()
    }

    #[test]
    fn scenario1_streams_the_lmu() {
        let out = run(DeploymentScenario::Scenario1);
        let g = out.ground_truth(CoreId(2));
        // 4 shared sample reads + 1 store per produced sample.
        assert_eq!(
            g.accesses(Target::Lmu, Operation::Data),
            (FIR_SAMPLES * 5) as u64
        );
        assert_eq!(g.accesses(Target::Dfl, Operation::Data), 0);
    }

    #[test]
    fn scenario2_is_mostly_local() {
        let sc1 = run(DeploymentScenario::Scenario1).counters(CoreId(2));
        let sc2 = run(DeploymentScenario::Scenario2).counters(CoreId(2));
        assert!(sc2.dmem_stall * 3 < sc1.dmem_stall);
        // Constant coefficients produce clean misses only.
        assert_eq!(sc2.dcache_miss_dirty, 0);
    }

    #[test]
    fn fir_bounds_are_sound_against_the_cruise_control_contender() {
        use contention_model_check::check;
        check();
    }

    /// A tiny embedded module so the soundness check reads clearly.
    mod contention_model_check {
        use super::super::*;
        use crate::{contender, LoadLevel};

        pub fn check() {
            let (a, b) = (CoreId(1), CoreId(2));
            let fir = fir_filter(DeploymentScenario::Scenario1, a, 5);
            let load = contender(DeploymentScenario::Scenario1, LoadLevel::High, b, 7);
            let mut iso = tc27x_sim::System::tc277();
            iso.load(a, &fir).unwrap();
            let iso_t = iso.run().unwrap().counters(a).ccnt;
            let mut pair = tc27x_sim::System::tc277();
            pair.load(a, &fir).unwrap();
            pair.load(b, &load).unwrap();
            let co_t = pair.run_until(a).unwrap().counters(a).ccnt;
            assert!(co_t >= iso_t);
            // Round-robin bound: each of the FIR's LMU accesses can wait
            // for at most one contender request.
            let lmu_accesses = (FIR_SAMPLES * 5) as u64;
            assert!(co_t - iso_t <= lmu_accesses * 11 + 16 * 1_000);
        }
    }
}
