//! Latency and stall calibration — the campaign that regenerates
//! Table 2 of the paper using only DSU-observable quantities.
//!
//! ## Method
//!
//! *Minimum stall cycles* `cs^{t,o}` come from differential stall-counter
//! readings over microbenchmarks with a known request count: two probes
//! with `n₁ < n₂` requests give `cs = (S₂ − S₁) / (n₂ − n₁)`, immune to
//! one-off warm-up effects (§3.3.2).
//!
//! *Maximum latencies* `l^{t,o}` come from marginal-cost measurements on
//! CCNT, the method the paper describes ("the latency incurred by single
//! accesses to a target as measured by the on-chip cycle counter"):
//! the marginal cost of one extra *non-sequential* access, minus the
//! cost of the same loop iteration against the core-local scratchpad,
//! plus the one overlapped address cycle, equals the end-to-end
//! transaction latency. For code, the bounce probe's stall per
//! iteration minus the sequential stall isolates the non-sequential
//! fetch latency.

use crate::exec::{ExecEngine, JobError, SimJob};
use contention::{DebugCounters, LatencyTable, Operation, Platform, StallTable, Target};
use std::error::Error;
use std::fmt;
use tc27x_sim::{CoreId, DataObject, Pattern, Placement, Program, Region, TaskSpec};
use workloads::micro;

/// The calibrated tables (the reproduction of Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Calibration {
    /// Worst-case per-request latencies `l^{t,o}`.
    pub latency: LatencyTable,
    /// Best-case per-request stall cycles `cs^{t,o}`.
    pub stall: StallTable,
    /// LMU dirty-miss end-to-end latency (Table 2's bracketed value).
    pub lmu_dirty_latency: u64,
}

impl Calibration {
    /// Builds a [`Platform`] from the calibrated tables.
    pub fn into_platform(self) -> Platform {
        Platform::from_tables(self.latency, self.stall, self.lmu_dirty_latency)
    }
}

/// Differential over two probe readings: `(r2 - r1) / (n2 - n1)`.
fn differential(r1: u64, r2: u64, n1: u32, n2: u32) -> u64 {
    (r2 - r1) / (n2 - n1) as u64
}

/// The dspr-resident single-access loop whose marginal CCNT cost is the
/// baseline subtracted from shared-memory probes.
fn baseline_probe(core: CoreId, n: u32) -> TaskSpec {
    let prog = Program::build(|b| {
        b.repeat(n, |b| {
            b.load("local", Pattern::Sequential);
        });
    });
    TaskSpec::new("baseline", prog, Placement::pspr(core)).with_object(DataObject::new(
        "local",
        1 << 10,
        Placement::dspr(core),
    ))
}

const CODE_BANKS: [(Target, Region); 3] = [
    (Target::Pf0, Region::Pflash0),
    (Target::Pf1, Region::Pflash1),
    (Target::Lmu, Region::Lmu),
];
const PF_BANKS: [(Target, Region); 2] = [
    (Target::Pf0, Region::Pflash0),
    (Target::Pf1, Region::Pflash1),
];
const WORD_REGIONS: [(Target, Region); 2] =
    [(Target::Lmu, Region::Lmu), (Target::Dfl, Region::Dflash)];

/// Builds the full probe batch, in the fixed order [`calibrate`]
/// consumes it. The LMU/DFLASH word probes appear twice (stall and
/// latency campaigns read different counters of the same run), so an
/// engine serves the second appearance from its memo cache.
fn probe_batch(core: CoreId) -> Vec<SimJob> {
    let mut batch = Vec::new();
    let mut push = |spec: TaskSpec| batch.push(SimJob::Isolation { spec, core });

    for (_, bank) in CODE_BANKS {
        push(micro::code_stream(bank, 64));
        push(micro::code_stream(bank, 320));
        push(micro::code_bounce(bank, 50));
        push(micro::code_bounce(bank, 150));
    }
    for (_, bank) in PF_BANKS {
        push(micro::data_lines(core, bank, 64));
        push(micro::data_lines(core, bank, 320));
    }
    for (_, region) in WORD_REGIONS {
        push(micro::data_words(core, region, 100, false));
        push(micro::data_words(core, region, 400, false));
    }
    push(baseline_probe(core, 200));
    push(baseline_probe(core, 600));
    for (_, bank) in PF_BANKS {
        push(micro::data_skip(core, bank, 400));
        push(micro::data_skip(core, bank, 1200));
    }
    for (_, region) in WORD_REGIONS {
        push(micro::data_words(core, region, 100, false));
        push(micro::data_words(core, region, 400, false));
    }
    push(micro::dirty_stores(core, 600));
    push(micro::dirty_stores(core, 1000));
    batch
}

/// Why a calibration campaign could not produce its tables.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum CalibrationError {
    /// The platform lacks a slave the campaign probes. It is refused
    /// before any probe runs.
    SlaveAbsent {
        /// The platform's registry name.
        platform: &'static str,
        /// The first probed slave the platform lacks.
        slave: Target,
    },
    /// A probe run failed.
    Job(JobError),
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::SlaveAbsent { platform, slave } => write!(
                f,
                "platform {platform} has no {slave} slave, which the Table 2 calibration \
                 campaign probes"
            ),
            CalibrationError::Job(e) => write!(f, "calibration probe {e}"),
        }
    }
}

impl Error for CalibrationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CalibrationError::SlaveAbsent { .. } => None,
            CalibrationError::Job(e) => Some(e),
        }
    }
}

impl From<JobError> for CalibrationError {
    fn from(e: JobError) -> Self {
        CalibrationError::Job(e)
    }
}

/// Runs the full calibration campaign on `engine`'s platform, probing
/// from its application core. The whole campaign (28 probe runs) goes
/// out as one batch, and the repeated LMU/DFLASH word probes are
/// deduplicated by the engine's memo cache. A journaled engine makes
/// the campaign crash-safe.
///
/// # Errors
///
/// [`CalibrationError::SlaveAbsent`], before anything runs, when the
/// platform lacks one of the four probed slaves; otherwise the first
/// failing probe run.
///
/// # Examples
///
/// ```
/// use contention::{Operation, Platform, Target};
///
/// # fn main() -> Result<(), mbta::CalibrationError> {
/// let cal = mbta::calibrate(&mbta::ExecEngine::new(2))?;
/// // The campaign recovers Table 2 exactly on the reference platform.
/// let reference = Platform::tc277_reference();
/// assert_eq!(cal.stall.get(Target::Pf0, Operation::Code),
///            reference.stall(Target::Pf0, Operation::Code));
/// # Ok(())
/// # }
/// ```
pub fn calibrate(engine: &ExecEngine) -> Result<Calibration, CalibrationError> {
    let desc = engine.platform();
    if let Some(slave) = Target::all()
        .into_iter()
        .find(|t| !desc.slave(t.index()).present)
    {
        return Err(CalibrationError::SlaveAbsent {
            platform: desc.name,
            slave,
        });
    }
    let core = CoreId(desc.app_core as u8);
    let mut stall = StallTable::new();
    let mut latency = LatencyTable::new();

    let outcomes = engine.run_batch(&probe_batch(core))?;
    let mut readings = outcomes
        .into_iter()
        .map(|o| *o.into_profile().counters())
        .collect::<Vec<DebugCounters>>()
        .into_iter();
    let mut pair = move || {
        let mut one = || {
            readings
                .next()
                .unwrap_or_else(|| unreachable!("probe batch covers every reading"))
        };
        (one(), one())
    };

    // --- code stalls: ΔPMEM_STALL per line over streaming probes,
    //     and code latency: bounce stall per iteration − sequential cs ---
    for (target, _) in CODE_BANKS {
        let (a, b) = pair();
        let cs = differential(a.pmem_stall, b.pmem_stall, 64, 320);
        stall.set(target, Operation::Code, cs);
        let (a, b) = pair();
        let per_iter = differential(a.pmem_stall, b.pmem_stall, 50, 150);
        latency.set(target, Operation::Code, per_iter - cs);
    }

    // --- data stalls ---
    for (target, _) in PF_BANKS {
        let (a, b) = pair();
        stall.set(
            target,
            Operation::Data,
            differential(a.dmem_stall, b.dmem_stall, 64, 320),
        );
    }
    for (target, _) in WORD_REGIONS {
        let (a, b) = pair();
        stall.set(
            target,
            Operation::Data,
            differential(a.dmem_stall, b.dmem_stall, 100, 400),
        );
    }

    // --- data latencies: marginal CCNT − dspr baseline + 1 ---
    let (a, b) = pair();
    let base = differential(a.ccnt, b.ccnt, 200, 600);
    for (target, _) in PF_BANKS {
        let (a, b) = pair();
        let marginal = differential(a.ccnt, b.ccnt, 400, 1200);
        latency.set(target, Operation::Data, marginal - base + 1);
    }
    for (target, _) in WORD_REGIONS {
        let (a, b) = pair();
        let marginal = differential(a.ccnt, b.ccnt, 100, 400);
        latency.set(target, Operation::Data, marginal - base + 1);
    }

    // --- LMU dirty-miss latency ---
    let (a, b) = pair();
    let dirty_marginal = differential(a.ccnt, b.ccnt, 600, 1000);
    let lmu_dirty_latency = dirty_marginal - base + 1;

    Ok(Calibration {
        latency,
        stall,
        lmu_dirty_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline calibration test: the campaign must reproduce
    /// Table 2 of the paper cell by cell.
    #[test]
    fn calibration_reproduces_table2() {
        let cal = calibrate(&ExecEngine::sequential()).unwrap();
        let reference = Platform::tc277_reference();
        for (t, o) in [
            (Target::Pf0, Operation::Code),
            (Target::Pf1, Operation::Code),
            (Target::Lmu, Operation::Code),
            (Target::Pf0, Operation::Data),
            (Target::Pf1, Operation::Data),
            (Target::Lmu, Operation::Data),
            (Target::Dfl, Operation::Data),
        ] {
            assert_eq!(cal.stall.get(t, o), reference.stall(t, o), "cs^{{{t},{o}}}");
            assert_eq!(
                cal.latency.get(t, o),
                reference.latency(t, o),
                "l^{{{t},{o}}}"
            );
        }
        assert_eq!(cal.lmu_dirty_latency, reference.lmu_dirty_latency());
    }

    #[test]
    fn parallel_calibration_matches_sequential_and_hits_cache() {
        let engine = ExecEngine::new(4);
        let par = calibrate(&engine).unwrap();
        assert_eq!(par, calibrate(&ExecEngine::sequential()).unwrap());
        let r = engine.report();
        // The LMU/DFLASH word probes appear twice in the batch (stall
        // and latency campaigns) — four cache hits, zero re-simulation.
        assert_eq!(r.cache_hits, 4);
        assert_eq!(r.simulations_run, r.cache_misses);
    }

    #[test]
    fn a_platform_without_a_probed_slave_is_refused_before_any_run() {
        let engine = ExecEngine::sequential().with_platform(::platform::PlatformDesc::ahb2());
        let err = calibrate(&engine).unwrap_err();
        assert!(matches!(
            err,
            CalibrationError::SlaveAbsent {
                platform: "ahb2",
                slave: Target::Pf1
            }
        ));
        assert_eq!(
            err.to_string(),
            "platform ahb2 has no pf1 slave, which the Table 2 calibration campaign probes"
        );
        assert_eq!(engine.report().simulations_run, 0);
    }

    #[test]
    fn calibrated_platform_behaves_like_reference() {
        let p = calibrate(&ExecEngine::sequential())
            .unwrap()
            .into_platform();
        assert_eq!(p.cs_code_min(), 6);
        assert_eq!(p.cs_data_min(), 10);
    }
}
