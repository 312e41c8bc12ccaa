//! # `contention-bench` — the table/figure regeneration harness
//!
//! One binary per evaluation artefact of the paper:
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `table2` | Table 2 — max latency and min stall cycles per SRI target |
//! | `table3` | Table 3 — code/data placement constraints |
//! | `table6` | Table 6 — debug-counter readings, Scenarios 1 & 2 |
//! | `figure4` | Figure 4 — model predictions w.r.t. isolation (`--scenario low` for the §4.2 real-world remark) |
//! | `ablation` | design-choice ablations of the ILP-PTAC model |
//! | `sweep` | Figure 4 over a continuous contender-intensity axis (CSV) |
//!
//! Every binary parses the shared flags (`--jobs`, `--engine`,
//! `--platform`, `--journal`/`--resume`, `--telemetry`, ...) through
//! [`mbta::args`] and rejects any argument it does not know.
//!
//! Micro-benchmarks (`cargo bench`) cover the ILP solver, the
//! simulator, the calibration campaign and model evaluation on a
//! dependency-free [`harness`] (median-of-N over `std::time::Instant`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod harness;

use contention::{
    ContentionModel, EvalOptions, Evaluator, FsbModel, FtcModel, IdealModel, IlpPtacModel,
    Platform, WcetEstimate,
};
use mbta::{ExecEngine, SimJob, Telemetry};
use tc27x_sim::{
    CoreId, DataObject, DeploymentScenario, Pattern, Placement, Program, Region, TaskSpec,
};
use workloads::LoadLevel;

/// Formats paper-vs-measured cells for table output.
pub fn paper_vs(measured: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{measured} (paper: {paper})")
}

/// Formats a WCET estimate as the Figure 4 ratio annotation.
pub fn fig4_cell(e: &WcetEstimate) -> String {
    format!("{:.2}x ({} cyc)", e.ratio(), e.bound_cycles())
}

/// Prints the engine's lifetime stats to stderr and writes
/// `BENCH_engine.json` (jobs, wall-clock, runs/sec, cache hit rate,
/// plus the shared [`harness::MetaEnvelope`] of `args`, the binary's
/// argument vector without its program name) — stderr/file so piped
/// stdout (tables, CSV) stays clean. When the engine carries a
/// telemetry recorder, the report is also folded into it
/// ([`Telemetry::record_engine`]).
pub fn write_engine_report(engine: &ExecEngine, args: &[String]) {
    let envelope =
        harness::MetaEnvelope::new(args, engine.sim_engine().to_string(), engine.jobs() as u64);
    let r = engine.report();
    if let Some(t) = engine.telemetry() {
        t.record_engine(&r);
    }
    eprintln!(
        "engine: {} jobs, {} simulations in {:.2}s ({:.1} runs/s), cache hit rate {:.0}%",
        r.jobs,
        r.simulations_run,
        r.wall_seconds,
        r.runs_per_sec(),
        r.hit_rate() * 100.0
    );
    if let Err(e) = std::fs::write("BENCH_engine.json", envelope.wrap(&r.to_json())) {
        eprintln!("warning: could not write BENCH_engine.json: {e}");
    }
}

/// A parameterised contender with traffic scaled by `intensity` per
/// mille of the reference stream (the sweep binary's load generator).
pub fn scaled_contender(core: CoreId, intensity_permille: u32) -> TaskSpec {
    // Reference: 4000 LMU accesses and 2000 flash code lines at 1000‰.
    let accesses = (4_000u64 * intensity_permille as u64 / 1_000) as u32;
    let code_iters = (40u64 * intensity_permille as u64 / 1_000) as u32;
    let mut spec = TaskSpec::empty(format!("sweep-load-{intensity_permille}"));
    if code_iters > 0 {
        let code_prog = Program::build(|b| {
            b.repeat(code_iters, |b| {
                for _ in 0..640 {
                    b.compute(1);
                }
            });
        });
        spec = spec.with_segment(code_prog, Placement::new(Region::Pflash0, true));
    }
    if accesses > 0 {
        let data_prog = Program::build(|b| {
            b.repeat(accesses, |b| {
                b.load("sweep_buf", Pattern::Sequential);
                b.compute(4);
            });
        });
        spec = spec.with_segment(data_prog, Placement::pspr(core));
    } else {
        let idle = Program::build(|b| {
            b.compute(100);
        });
        spec = spec.with_segment(idle, Placement::pspr(core));
    }
    spec.with_object(DataObject::new(
        "sweep_buf",
        4 << 10,
        Placement::new(Region::Lmu, false),
    ))
}

/// The sweep's job list, in the fixed order the CSV assembly consumes:
/// one app isolation, then per intensity a contender isolation and a
/// co-run. Core placement follows the platform description.
pub fn sweep_batch(
    desc: &::platform::PlatformDesc,
    scenario: DeploymentScenario,
    intensities: &[u32],
) -> Vec<SimJob> {
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let app_spec = workloads::control_loop_on(desc, scenario, app_core, 42);
    let mut batch = vec![SimJob::Isolation {
        spec: app_spec.clone(),
        core: app_core,
    }];
    for &intensity in intensities {
        let load_spec = scaled_contender(load_core, intensity);
        batch.push(SimJob::Isolation {
            spec: load_spec.clone(),
            core: load_core,
        });
        batch.push(SimJob::Corun {
            app: app_spec.clone(),
            app_core,
            load: load_spec,
            load_core,
        });
    }
    batch
}

/// Builds the full sweep CSV (header plus one row per intensity step)
/// on the given engine: all isolation runs and co-runs go out as one
/// batch, and the CSV is assembled from the index-ordered results — so
/// the returned string is byte-identical for any worker count (and for
/// an engine replaying a journal).
///
/// # Errors
///
/// Propagates simulation and model errors; the first failing job aborts
/// the sweep. Use [`sweep_csv_partial`] to degrade gracefully instead.
pub fn sweep_csv(
    engine: &ExecEngine,
    scenario: DeploymentScenario,
) -> Result<String, mbta::ExperimentError> {
    let partial = sweep_csv_partial(engine, scenario)?;
    match partial.skipped.first() {
        None => Ok(partial.csv),
        Some(&intensity) => {
            // Reproduce the fail-fast contract: surface the first
            // failed row's job failure.
            let index = 1 + 2 * partial.skipped_indices.first().copied().unwrap_or_default();
            Err(mbta::ExperimentError::Job(mbta::JobError {
                index,
                cause: partial
                    .first_failure
                    .unwrap_or(mbta::JobFailure::Panic(format!(
                        "sweep row for intensity {intensity} failed"
                    ))),
            }))
        }
    }
}

/// A sweep that finished possibly degraded: every computable row is in
/// the CSV, and the rows whose simulations failed are named instead of
/// aborting the whole campaign.
#[derive(Clone, Debug)]
pub struct PartialSweep {
    /// The CSV (header plus every completed row, intensity-ordered).
    pub csv: String,
    /// Intensities (permille) whose row was dropped.
    pub skipped: Vec<u32>,
    /// Positions of the skipped intensities in the sweep order.
    pub skipped_indices: Vec<usize>,
    /// The lowest-indexed job failure among the skipped rows.
    pub first_failure: Option<mbta::JobFailure>,
}

impl PartialSweep {
    /// Whether every row made it into the CSV.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// [`sweep_csv`] with graceful degradation: a failed contender
/// isolation or co-run drops only its own row. The app's isolation run
/// must succeed (every column is relative to it). When nothing fails,
/// the CSV is byte-identical to [`sweep_csv`]'s.
///
/// # Errors
///
/// Propagates an app-isolation failure and model errors.
pub fn sweep_csv_partial(
    engine: &ExecEngine,
    scenario: DeploymentScenario,
) -> Result<PartialSweep, mbta::ExperimentError> {
    let desc = engine.platform();
    let platform = Platform::from_desc(desc);
    let intensities: Vec<u32> = (0..=1_000).step_by(100).collect();
    let mut results = engine
        .run_batch_detailed(&sweep_batch(desc, scenario, &intensities))
        .into_iter();
    let mut next = move |index: usize| -> Result<mbta::SimOutcome, mbta::JobError> {
        results
            .next()
            .unwrap_or_else(|| unreachable!("batch yields one outcome per job"))
            .map_err(|cause| mbta::JobError { index, cause })
    };

    let app = next(0)?.into_profile();

    let ftc = FtcModel::new(&platform);
    let ilp = IlpPtacModel::new(&platform, mbta::constraints_for(scenario));
    let ideal = IdealModel::new(&platform);
    let fsb = FsbModel::new(&platform);

    let mut csv = String::from(
        "intensity_permille,ftc_ratio,ilp_ratio,ideal_ratio,fsb_ratio,observed_ratio\n",
    );
    let mut skipped = Vec::new();
    let mut skipped_indices = Vec::new();
    let mut first_failure = None;
    let iso = app.counters().ccnt as f64;
    for (pos, intensity) in intensities.into_iter().enumerate() {
        let row = (next(1 + 2 * pos), next(2 + 2 * pos));
        let (load, observed) = match row {
            (Ok(load), Ok(observed)) => (load.into_profile(), observed.into_observed()),
            (load, observed) => {
                if first_failure.is_none() {
                    first_failure = [load.err(), observed.err()]
                        .into_iter()
                        .flatten()
                        .next()
                        .map(|e| e.cause);
                }
                skipped.push(intensity);
                skipped_indices.push(pos);
                continue;
            }
        };
        csv.push_str(&format!(
            "{intensity},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            ftc.wcet_estimate(&app, &[&load])?.ratio(),
            ilp.wcet_estimate(&app, &[&load])?.ratio(),
            ideal.wcet_estimate(&app, &[&load])?.ratio(),
            fsb.wcet_estimate(&app, &[&load])?.ratio(),
            observed as f64 / iso,
        ));
    }
    Ok(PartialSweep {
        csv,
        skipped,
        skipped_indices,
        first_failure,
    })
}

/// How often the fault-tolerant evaluator degraded to the fTC bound
/// over a set of (app, contender) pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FallbackReport {
    /// Pairs bounded by the exact ILP-PTAC solve.
    pub ilp: usize,
    /// Pairs that fell back to the contender-independent fTC bound.
    pub ftc: usize,
}

impl FallbackReport {
    /// Fraction of pairs that fell back, in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        let total = self.ilp + self.ftc;
        if total == 0 {
            0.0
        } else {
            self.ftc as f64 / total as f64
        }
    }
}

impl std::fmt::Display for FallbackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fallback rate: {}/{} pairs degraded to fTC ({:.0}%)",
            self.ftc,
            self.ilp + self.ftc,
            self.rate() * 100.0
        )
    }
}

/// Runs the fault-tolerant [`Evaluator`] over every (app, contender)
/// pair of the intensity sweep and counts which model produced each
/// bound. Isolation profiles come from the engine's memo cache, so
/// calling this after [`sweep_csv`] re-runs no simulations.
///
/// With a `telemetry` recorder, every solve lands as a span plus node
/// counters ([`Telemetry::record_solve`]); a non-zero fallback rate is
/// additionally recorded on the `ilp.fallback` warning channel (quiet —
/// the caller owns the stderr rendering of the report).
///
/// # Errors
///
/// Propagates engine and model errors.
pub fn sweep_fallback_report(
    engine: &ExecEngine,
    scenario: DeploymentScenario,
    node_budget: Option<u64>,
    telemetry: Option<&Telemetry>,
) -> Result<FallbackReport, mbta::ExperimentError> {
    let desc = engine.platform();
    let platform = Platform::from_desc(desc);
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let app = engine.isolation(
        &workloads::control_loop_on(desc, scenario, app_core, 42),
        app_core,
    )?;

    let mut options = EvalOptions::for_scenario(mbta::constraints_for(scenario));
    if let Some(budget) = node_budget {
        options.ilp.node_budget = budget;
    }
    let evaluator = Evaluator::new(&platform, options);

    let mut report = FallbackReport::default();
    for intensity in (0..=1_000).step_by(100) {
        let spec = scaled_contender(load_core, intensity);
        let label = format!("solve:{}", spec.name);
        let load = engine.isolation(&spec, load_core)?;
        let evaluated = evaluator.bound(&app, &load)?;
        if let Some(t) = telemetry {
            t.record_solve(
                label,
                evaluated.nodes_explored,
                evaluated.source.is_fallback(),
            );
        }
        if evaluated.source.is_fallback() {
            report.ftc += 1;
        } else {
            report.ilp += 1;
        }
    }
    if let Some(t) = telemetry {
        if report.ftc > 0 {
            t.warn_quiet("ilp.fallback", report.to_string());
        }
    }
    Ok(report)
}

/// [`sweep_fallback_report`] for one Figure 4 panel: the three
/// contender levels of `scenario` against the control-loop app, using
/// the same specs (and thus the same memoized profiles) as
/// [`mbta::figure4_panel`].
///
/// # Errors
///
/// Propagates engine and model errors.
pub fn panel_fallback_report(
    engine: &ExecEngine,
    scenario: DeploymentScenario,
    seed: u64,
    node_budget: Option<u64>,
    telemetry: Option<&Telemetry>,
) -> Result<FallbackReport, mbta::ExperimentError> {
    let desc = engine.platform();
    let platform = Platform::from_desc(desc);
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let app_spec = workloads::control_loop_on(desc, scenario, app_core, seed);
    let app = engine.isolation(&app_spec, app_core)?;

    let mut options = EvalOptions::for_scenario(mbta::constraints_for(scenario));
    if let Some(budget) = node_budget {
        options.ilp.node_budget = budget;
    }
    let evaluator = Evaluator::new(&platform, options);

    let mut report = FallbackReport::default();
    for level in LoadLevel::all() {
        let load_seed = seed.wrapping_add(level as u64);
        let spec = workloads::contender_on(desc, scenario, level, load_core, load_seed);
        let label = format!("solve:{}", spec.name);
        let load = engine.isolation(&spec, load_core)?;
        let evaluated = evaluator.bound(&app, &load)?;
        if let Some(t) = telemetry {
            t.record_solve(
                label,
                evaluated.nodes_explored,
                evaluated.source.is_fallback(),
            );
        }
        if evaluated.source.is_fallback() {
            report.ftc += 1;
        } else {
            report.ilp += 1;
        }
    }
    if let Some(t) = telemetry {
        if report.ftc > 0 {
            t.warn_quiet("ilp.fallback", report.to_string());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbta::{FaultPlan, RetryPolicy};

    #[test]
    fn helpers_format() {
        assert_eq!(super::paper_vs(16, 16), "16 (paper: 16)");
        let e = contention::WcetEstimate {
            isolation_cycles: 100,
            contention_cycles: 50,
        };
        assert_eq!(super::fig4_cell(&e), "1.50x (150 cyc)");
    }

    #[test]
    fn fallback_report_formats() {
        let r = FallbackReport { ilp: 9, ftc: 3 };
        assert!((r.rate() - 0.25).abs() < 1e-12);
        assert_eq!(
            r.to_string(),
            "fallback rate: 3/12 pairs degraded to fTC (25%)"
        );
        assert_eq!(FallbackReport::default().rate(), 0.0);
    }

    #[test]
    fn scaled_contender_scales_to_nothing() {
        let idle = scaled_contender(CoreId(2), 0);
        let full = scaled_contender(CoreId(2), 1_000);
        assert_eq!(idle.segments.len(), 1);
        assert_eq!(full.segments.len(), 2);
    }

    /// The graceful-degradation path must not change a healthy sweep:
    /// `sweep_csv_partial` with nothing failing is byte-identical to
    /// `sweep_csv`, on the plain engine and under a campaign.
    #[test]
    fn partial_sweep_matches_sweep_when_nothing_fails() {
        let engine = ExecEngine::new(2);
        let full = sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
        let partial = sweep_csv_partial(&engine, DeploymentScenario::Scenario1).unwrap();
        assert!(partial.is_complete());
        assert_eq!(partial.csv, full);

        // A never-firing fault plan keys every job, as a campaign does.
        let campaign = ExecEngine::new(2).with_fault_plan(Some(FaultPlan {
            rate_permille: 0,
            seed: 1,
        }));
        let campaigned = sweep_csv_partial(&campaign, DeploymentScenario::Scenario1).unwrap();
        assert!(campaigned.is_complete());
        assert_eq!(campaigned.csv, full);
    }

    /// Under an always-faulting campaign with retries exhausted, the
    /// partial sweep keeps the header, names every skipped intensity,
    /// and the strict `sweep_csv` surfaces the underlying job failure.
    #[test]
    fn partial_sweep_degrades_and_strict_sweep_fails() {
        let campaign = ExecEngine::new(2)
            .with_retry(RetryPolicy { max_attempts: 1 })
            .with_fault_plan(Some(FaultPlan {
                rate_permille: 1_000,
                seed: 3,
            }));
        // The app isolation itself fails → the whole sweep is an error.
        assert!(sweep_csv_partial(&campaign, DeploymentScenario::Scenario1).is_err());
        assert!(sweep_csv(&campaign, DeploymentScenario::Scenario1).is_err());
    }

    /// When only row jobs stay unrecovered (the app's isolation
    /// survives), the partial sweep keeps every healthy row, names the
    /// skipped intensities, and the strict `sweep_csv` still errors.
    #[test]
    fn partial_sweep_skips_only_failed_rows() {
        // The fault plan is a pure function of (seed, job key, attempt),
        // so this scan is deterministic: find a plan that spares the app
        // but permanently kills at least one row job.
        for seed in 0..64 {
            let campaign = ExecEngine::new(2)
                .with_retry(RetryPolicy { max_attempts: 1 })
                .with_fault_plan(Some(FaultPlan {
                    rate_permille: 300,
                    seed,
                }));
            let Ok(partial) = sweep_csv_partial(&campaign, DeploymentScenario::Scenario1) else {
                continue;
            };
            if partial.is_complete() {
                continue;
            }
            let rows = partial.csv.lines().count() - 1;
            assert!(partial.csv.starts_with("intensity_permille,"));
            assert_eq!(rows + partial.skipped.len(), 11, "seed {seed}");
            assert_eq!(partial.skipped.len(), partial.skipped_indices.len());
            assert!(partial.first_failure.is_some(), "seed {seed}");
            // The fail-fast variant surfaces the same campaign state as
            // an error instead of a degraded CSV.
            assert!(sweep_csv(&campaign, DeploymentScenario::Scenario1).is_err());
            return;
        }
        panic!("no fault seed in 0..64 produced a row-wise degradation");
    }
}
