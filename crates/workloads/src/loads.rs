//! The H/M/L-Load contenders (§4.2): co-runners that put an increasing
//! amount of load on the SRI.
//!
//! Contenders mirror the application's deployment (the paper assumes
//! deployment configurations apply equally to the task under analysis
//! and contenders) but scale their SRI traffic by a load factor, padding
//! with scratchpad-resident compute so that all levels run for a
//! comparable amount of time in isolation.

use crate::control_loop::{ITERS_PER_BANK, UNITS_PER_ITER};
use tc27x_sim::{
    CoreId, DataObject, DeploymentScenario, Pattern, Placement, Program, ProgramBuilder, Region,
    TaskSpec,
};

/// Contender load level on shared resources (H-Load, M-Load, L-Load).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LoadLevel {
    /// Low load (~¼ of the application's SRI traffic).
    Low,
    /// Medium load (~½ of the application's traffic).
    Medium,
    /// High load (≈ the application's own traffic).
    High,
}

impl LoadLevel {
    /// All levels, lightest first.
    pub fn all() -> [LoadLevel; 3] {
        [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High]
    }

    /// The canonical token (`high` / `medium` / `low`) that serve
    /// request fingerprints hash.
    pub fn token(self) -> &'static str {
        match self {
            LoadLevel::High => "high",
            LoadLevel::Medium => "medium",
            LoadLevel::Low => "low",
        }
    }

    /// Main-loop iterations per bank for this level under a scenario.
    fn iterations(self, scenario: DeploymentScenario) -> u32 {
        let base = ITERS_PER_BANK;
        match (scenario, self) {
            // Scenario 2 saturates earlier (the app's data traffic is
            // small), so even the high load stays below the app's rate.
            (DeploymentScenario::Scenario2, LoadLevel::High) => 2 * base / 3,
            (DeploymentScenario::Scenario2, LoadLevel::Medium) => base / 2,
            (DeploymentScenario::Scenario2, LoadLevel::Low) => base / 3,
            (_, LoadLevel::High) => base,
            (_, LoadLevel::Medium) => 7 * base / 10,
            (_, LoadLevel::Low) => 9 * base / 20,
        }
    }

    /// Scratchpad compute padding (cycles) appended per bank so that the
    /// levels have comparable isolation execution times.
    fn padding_cycles(self, scenario: DeploymentScenario) -> u32 {
        let full = ITERS_PER_BANK;
        let mine = self.iterations(scenario);
        // Roughly the per-iteration cycle cost of the main loop.
        let per_iter = match scenario {
            DeploymentScenario::Scenario2 => 9_100,
            _ => 27_000,
        };
        (full - mine) * per_iter
    }
}

/// The one load-level name table: the [`token`](LoadLevel::token) or
/// its initial.
impl std::str::FromStr for LoadLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "high" | "h" => Ok(LoadLevel::High),
            "medium" | "m" => Ok(LoadLevel::Medium),
            "low" | "l" => Ok(LoadLevel::Low),
            other => Err(format!(
                "unknown level `{other}` (expected high, medium or low)"
            )),
        }
    }
}

impl std::fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadLevel::Low => write!(f, "L-Load"),
            LoadLevel::Medium => write!(f, "M-Load"),
            LoadLevel::High => write!(f, "H-Load"),
        }
    }
}

fn contender_unit_sc1(b: &mut ProgramBuilder, u: u32) {
    if u % 13 < 9 {
        if u % 3 == 1 {
            b.store("out_buf", Pattern::Sequential);
        } else {
            b.load("in_buf", Pattern::Sequential);
        }
    } else {
        b.compute(1);
    }
    for k in 0..9 {
        b.compute(if (u + k) % 10 < 7 { 4 } else { 3 });
    }
}

fn contender_unit_sc2(b: &mut ProgramBuilder, u: u32) {
    match u % 35 {
        0 => b.load("shared_b", Pattern::Sequential),
        7 => b.load("calib_b", Pattern::Random),
        _ => b.load("lut_b", Pattern::Random),
    };
    for _ in 0..9 {
        b.compute(1);
    }
}

fn main_loop(iters: u32, unit: impl Fn(&mut ProgramBuilder, u32)) -> Program {
    Program::build(|b| {
        b.repeat(iters, |b| {
            for u in 0..UNITS_PER_ITER {
                unit(b, u);
            }
        });
    })
}

fn padding(cycles: u32) -> Program {
    Program::build(|b| {
        b.repeat(cycles / 101 + 1, |b| {
            b.compute(100);
        });
    })
}

/// Builds a contender task for a scenario and load level on a platform
/// description: the second flash bank folds onto the platform's
/// available code slave (see `second_code_bank`).
///
/// # Examples
///
/// ```
/// use platform::PlatformDesc;
/// use tc27x_sim::{CoreId, DeploymentScenario, SimConfig, System};
/// use workloads::{contender_on, LoadLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let desc = PlatformDesc::tc27x();
/// let load = contender_on(&desc, DeploymentScenario::Scenario1, LoadLevel::Low, CoreId(2), 7);
/// let mut sys = System::with_config(SimConfig::from_platform(&desc));
/// sys.load(CoreId(2), &load)?;
/// let out = sys.run()?;
/// assert!(out.counters(CoreId(2)).dmem_stall > 0);
/// # Ok(())
/// # }
/// ```
pub fn contender_on(
    desc: &platform::PlatformDesc,
    scenario: DeploymentScenario,
    level: LoadLevel,
    core: CoreId,
    seed: u64,
) -> TaskSpec {
    let bank2 = crate::second_code_bank(desc);
    let iters = level.iterations(scenario).max(1);
    let pad = level.padding_cycles(scenario);
    let name = format!("{level}-{scenario}");
    match scenario {
        DeploymentScenario::Scenario1 | DeploymentScenario::LowTraffic => TaskSpec::empty(name)
            .with_segment(
                main_loop(iters, contender_unit_sc1),
                Placement::new(Region::Pflash0, true),
            )
            .with_segment(padding(pad), Placement::pspr(core))
            .with_segment(
                main_loop(iters, contender_unit_sc1),
                Placement::new(bank2, true),
            )
            .with_segment(padding(pad), Placement::pspr(core))
            .with_object(DataObject::new(
                "in_buf",
                4 << 10,
                Placement::new(Region::Lmu, false),
            ))
            .with_object(DataObject::new(
                "out_buf",
                2 << 10,
                Placement::new(Region::Lmu, false),
            ))
            .with_seed(seed),
        DeploymentScenario::Scenario2 => TaskSpec::empty(name)
            .with_segment(
                main_loop(iters, contender_unit_sc2),
                Placement::new(Region::Pflash0, true),
            )
            .with_segment(padding(pad), Placement::pspr(core))
            .with_segment(
                main_loop(iters, contender_unit_sc2),
                Placement::new(bank2, true),
            )
            .with_segment(padding(pad), Placement::pspr(core))
            .with_object(DataObject::new(
                "lut_b",
                4 << 10,
                Placement::new(Region::Lmu, true),
            ))
            .with_object(DataObject::new(
                "calib_b",
                2 << 10,
                Placement::new(bank2, true),
            ))
            .with_object(DataObject::new(
                "shared_b",
                1 << 10,
                Placement::new(Region::Lmu, false),
            ))
            .with_seed(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::System;

    fn profile(scenario: DeploymentScenario, level: LoadLevel) -> tc27x_sim::DebugCounters {
        let core = CoreId(2);
        let spec = contender_on(platform::default_platform(), scenario, level, core, 7);
        let mut sys = System::tc277();
        sys.load(core, &spec).unwrap();
        sys.run().unwrap().counters(core)
    }

    #[test]
    fn level_names_round_trip() {
        for level in LoadLevel::all() {
            assert_eq!(level.token().parse::<LoadLevel>(), Ok(level));
            assert_eq!(level.token()[..1].parse::<LoadLevel>(), Ok(level));
        }
        let err = "extreme".parse::<LoadLevel>().unwrap_err();
        assert!(err.contains("expected high, medium or low"), "{err}");
    }

    #[test]
    fn load_levels_scale_sri_traffic() {
        let l = profile(DeploymentScenario::Scenario1, LoadLevel::Low);
        let m = profile(DeploymentScenario::Scenario1, LoadLevel::Medium);
        let h = profile(DeploymentScenario::Scenario1, LoadLevel::High);
        assert!(l.pmem_stall < m.pmem_stall && m.pmem_stall < h.pmem_stall);
        assert!(l.dmem_stall < m.dmem_stall && m.dmem_stall < h.dmem_stall);
        assert!(l.pcache_miss < m.pcache_miss && m.pcache_miss < h.pcache_miss);
    }

    #[test]
    fn padding_keeps_execution_times_comparable() {
        let l = profile(DeploymentScenario::Scenario1, LoadLevel::Low);
        let h = profile(DeploymentScenario::Scenario1, LoadLevel::High);
        let ratio = l.ccnt as f64 / h.ccnt as f64;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "L/H isolation time ratio {ratio:.2} out of range"
        );
    }

    #[test]
    fn scenario2_contenders_have_light_data_traffic() {
        let h = profile(DeploymentScenario::Scenario2, LoadLevel::High);
        assert!(h.dmem_stall < h.pmem_stall / 5);
        assert_eq!(h.dcache_miss_dirty, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(LoadLevel::High.to_string(), "H-Load");
        assert_eq!(LoadLevel::Medium.to_string(), "M-Load");
        assert_eq!(LoadLevel::Low.to_string(), "L-Load");
        assert_eq!(LoadLevel::all()[0], LoadLevel::Low);
    }
}
