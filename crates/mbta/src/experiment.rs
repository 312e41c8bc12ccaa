//! The paper's evaluation protocol (§4.2): profile in isolation, feed
//! the models, validate against co-run observations.

use crate::exec::{ExecEngine, JobError, SimJob};
use contention::{
    AccessCounts, ContentionModel, DebugCounters, FtcModel, IdealModel, IlpPtacModel,
    IsolationProfile, ModelError, Platform, ScenarioConstraints, WcetEstimate,
};
use std::error::Error;
use std::fmt;
use tc27x_sim::{CoreId, DeploymentScenario, SimError, TaskSpec};
use workloads::{contender_on, control_loop_on, LoadLevel};

/// Errors from running an experiment.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// Simulation failed.
    Sim(SimError),
    /// A model failed.
    Model(ModelError),
    /// A batched engine job failed (simulation error or contained
    /// panic), identified by its batch index.
    Job(JobError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExperimentError::Model(e) => write!(f, "model failed: {e}"),
            ExperimentError::Job(e) => write!(f, "engine {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Sim(e) => Some(e),
            ExperimentError::Model(e) => Some(e),
            ExperimentError::Job(e) => Some(e),
        }
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<ModelError> for ExperimentError {
    fn from(e: ModelError) -> Self {
        ExperimentError::Model(e)
    }
}

impl From<JobError> for ExperimentError {
    fn from(e: JobError) -> Self {
        ExperimentError::Job(e)
    }
}

/// The scenario constraints matching a deployment scenario.
pub fn constraints_for(scenario: DeploymentScenario) -> ScenarioConstraints {
    match scenario {
        DeploymentScenario::Scenario1 | DeploymentScenario::LowTraffic => {
            ScenarioConstraints::scenario1()
        }
        DeploymentScenario::Scenario2 => ScenarioConstraints::scenario2(),
    }
}

/// One bar group of Figure 4: all model predictions for one contender
/// level, plus the observed co-run time for validation.
#[derive(Clone, Debug)]
pub struct Figure4Cell {
    /// Contender load level.
    pub level: LoadLevel,
    /// fTC model estimate (Eqs. 6–8).
    pub ftc: WcetEstimate,
    /// ILP-PTAC estimate (Eqs. 9–23, scenario-tailored).
    pub ilp: WcetEstimate,
    /// Ideal (full-PTAC) model estimate (Eq. 1) — simulator-only input.
    pub ideal: WcetEstimate,
    /// Observed app execution time co-running against this contender.
    pub observed_cycles: u64,
}

impl Figure4Cell {
    /// Observed execution-time increase w.r.t. isolation.
    pub fn observed_ratio(&self) -> f64 {
        self.observed_cycles as f64 / self.ftc.isolation_cycles.max(1) as f64
    }
}

/// A full Figure 4 panel: one deployment scenario across the three
/// contender levels.
#[derive(Clone, Debug)]
pub struct Figure4Panel {
    /// The deployment scenario.
    pub scenario: DeploymentScenario,
    /// The application's isolation profile.
    pub app: IsolationProfile,
    /// One cell per load level, lightest first.
    pub cells: Vec<Figure4Cell>,
}

impl Figure4Panel {
    /// Checks the paper's headline soundness claim: every model
    /// prediction upper-bounds the observed co-run execution time.
    pub fn all_bounds_sound(&self) -> bool {
        self.cells.iter().all(|c| {
            c.ftc.bound_cycles() >= c.observed_cycles
                && c.ilp.bound_cycles() >= c.observed_cycles
                && c.ideal.bound_cycles() >= c.observed_cycles
        })
    }
}

/// Runs the Figure 4 experiment for one scenario on `engine`'s
/// platform: app on the platform's application core, contender on its
/// load core (cores 1 and 2 on the paper's TC277). All seven
/// simulations of a panel (one app isolation, three contender
/// isolations, three co-runs) go out as one batch, so they spread
/// across the engine's workers and repeated profiles come from the
/// memo cache. A journaled engine ([`ExecEngine::journal`]) makes the
/// panel a crash-safe campaign.
///
/// # Errors
///
/// Propagates simulation and model errors.
pub fn figure4_panel(
    engine: &ExecEngine,
    scenario: DeploymentScenario,
    platform: &Platform,
    seed: u64,
) -> Result<Figure4Panel, ExperimentError> {
    let desc = engine.platform();
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let app_spec = control_loop_on(desc, scenario, app_core, seed);

    let mut batch = vec![SimJob::Isolation {
        spec: app_spec.clone(),
        core: app_core,
    }];
    for level in LoadLevel::all() {
        let load_seed = seed.wrapping_add(level as u64);
        let load_spec = contender_on(desc, scenario, level, load_core, load_seed);
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
    let mut outcomes = engine.run_batch(&batch)?.into_iter();
    let app = next_outcome(&mut outcomes).into_profile();

    let ftc_model = match scenario {
        DeploymentScenario::Scenario2 => FtcModel::new(platform).assume_dirty_lmu(),
        _ => FtcModel::new(platform),
    };
    let ilp_model = IlpPtacModel::new(platform, constraints_for(scenario));
    let ideal_model = IdealModel::new(platform);

    let mut cells = Vec::new();
    for level in LoadLevel::all() {
        let load = next_outcome(&mut outcomes).into_profile();
        let observed = next_outcome(&mut outcomes).into_observed();
        cells.push(Figure4Cell {
            level,
            ftc: ftc_model.wcet_estimate(&app, &[&load])?,
            ilp: ilp_model.wcet_estimate(&app, &[&load])?,
            ideal: ideal_model.wcet_estimate(&app, &[&load])?,
            observed_cycles: observed,
        });
    }
    Ok(Figure4Panel {
        scenario,
        app,
        cells,
    })
}

/// A Table 6 block: counter readings of the application (the
/// platform's application core, core 1 on the TC277) and the H-Load
/// contender (its load core, core 2) for one scenario.
#[derive(Clone, Debug)]
pub struct Table6Block {
    /// The deployment scenario.
    pub scenario: DeploymentScenario,
    /// Application profile (core 1).
    pub core1: IsolationProfile,
    /// H-Load contender profile (core 2).
    pub core2: IsolationProfile,
}

/// Regenerates the Table 6 counter readings for one scenario on
/// `engine`'s platform: both isolation runs go out as one batch.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn table6_block(
    engine: &ExecEngine,
    scenario: DeploymentScenario,
    seed: u64,
) -> Result<Table6Block, ExperimentError> {
    let desc = engine.platform();
    let (c1, c2) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let batch = [
        SimJob::Isolation {
            spec: control_loop_on(desc, scenario, c1, seed),
            core: c1,
        },
        SimJob::Isolation {
            spec: contender_on(desc, scenario, LoadLevel::High, c2, seed ^ 0xbeef),
            core: c2,
        },
    ];
    let mut outcomes = engine.run_batch(&batch)?.into_iter();
    Ok(Table6Block {
        scenario,
        core1: next_outcome(&mut outcomes).into_profile(),
        core2: next_outcome(&mut outcomes).into_profile(),
    })
}

/// A high-water-mark measurement campaign: the task is run `runs` times
/// with perturbed seeds (standard MBTA input variation) and the
/// *envelope* of all counter readings is kept — each counter's maximum
/// across runs, the conservative direction for every model input.
#[derive(Clone, Debug)]
pub struct HwmMeasurement {
    /// Envelope profile (per-counter maxima).
    pub profile: IsolationProfile,
    /// Execution times of the individual runs.
    pub ccnt_per_run: Vec<u64>,
}

impl HwmMeasurement {
    /// The observed execution-time high-water mark.
    pub fn ccnt_hwm(&self) -> u64 {
        self.ccnt_per_run.iter().copied().max().unwrap_or(0)
    }
}

/// Runs the MBTA campaign for `spec` on `engine`: `runs` isolation runs
/// with seeds `seed₀ … seed₀+runs-1`, envelope over counters. The runs
/// are independent, so they go out as one batch and spread across the
/// engine's workers; the envelope folds the index-ordered results, so
/// it is identical for any worker count.
///
/// # Errors
///
/// Propagates link and simulation errors.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn hwm_campaign(
    engine: &ExecEngine,
    spec: &TaskSpec,
    core: CoreId,
    runs: u32,
) -> Result<HwmMeasurement, JobError> {
    assert!(runs > 0, "a campaign needs at least one run");
    let batch: Vec<SimJob> = (0..runs)
        .map(|r| {
            let mut varied = spec.clone();
            varied.seed = spec.seed.wrapping_add(r as u64);
            SimJob::Isolation { spec: varied, core }
        })
        .collect();
    let mut envelope = DebugCounters::default();
    let mut ptac = AccessCounts::new();
    let mut ccnts = Vec::with_capacity(runs as usize);
    for outcome in engine.run_batch(&batch)? {
        let p = outcome.into_profile();
        let c = *p.counters();
        envelope.ccnt = envelope.ccnt.max(c.ccnt);
        envelope.pmem_stall = envelope.pmem_stall.max(c.pmem_stall);
        envelope.dmem_stall = envelope.dmem_stall.max(c.dmem_stall);
        envelope.pcache_miss = envelope.pcache_miss.max(c.pcache_miss);
        envelope.dcache_miss_clean = envelope.dcache_miss_clean.max(c.dcache_miss_clean);
        envelope.dcache_miss_dirty = envelope.dcache_miss_dirty.max(c.dcache_miss_dirty);
        let g = p
            .ptac()
            .unwrap_or_else(|| unreachable!("isolation profiles carry ground truth"));
        ptac = AccessCounts::from_fn(|t, o| ptac.get(t, o).max(g.get(t, o)));
        ccnts.push(c.ccnt);
    }
    Ok(HwmMeasurement {
        profile: IsolationProfile::new(spec.name.clone(), envelope).with_ptac(ptac),
        ccnt_per_run: ccnts,
    })
}

/// `run_batch` returns exactly one outcome per submitted job, so a
/// local batch always yields as many outcomes as it listed jobs.
fn next_outcome(outcomes: &mut std::vec::IntoIter<crate::SimOutcome>) -> crate::SimOutcome {
    outcomes
        .next()
        .unwrap_or_else(|| unreachable!("batch yields one outcome per job"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_scenario1_has_paper_shape() {
        let platform = Platform::tc277_reference();
        let panel = figure4_panel(
            &ExecEngine::sequential(),
            DeploymentScenario::Scenario1,
            &platform,
            42,
        )
        .unwrap();
        assert_eq!(panel.cells.len(), 3);
        // fTC is load-invariant; ILP adapts monotonically.
        let f: Vec<u64> = panel.cells.iter().map(|c| c.ftc.bound_cycles()).collect();
        assert_eq!(f[0], f[1]);
        assert_eq!(f[1], f[2]);
        let i: Vec<u64> = panel.cells.iter().map(|c| c.ilp.bound_cycles()).collect();
        assert!(i[0] < i[1] && i[1] < i[2], "{i:?}");
        // ILP contention roughly below half of fTC contention (Figure 4;
        // the paper's own H-Load numbers give 0.49 vs 0.95, i.e. ~52%).
        for c in &panel.cells {
            assert!(c.ilp.contention_cycles * 20 < c.ftc.contention_cycles * 11);
        }
        // Soundness: every bound covers the observed co-run.
        assert!(panel.all_bounds_sound());
        // Ratios land in the paper's bands (±0.12).
        let h = &panel.cells[2];
        assert!((h.ftc.ratio() - 1.95).abs() < 0.12, "fTC {}", h.ftc.ratio());
        assert!(
            (h.ilp.ratio() - 1.49).abs() < 0.12,
            "ILP-H {}",
            h.ilp.ratio()
        );
        let l = &panel.cells[0];
        assert!(
            (l.ilp.ratio() - 1.24).abs() < 0.12,
            "ILP-L {}",
            l.ilp.ratio()
        );
    }

    #[test]
    fn figure4_scenario2_has_paper_shape() {
        let platform = Platform::tc277_reference();
        let panel = figure4_panel(
            &ExecEngine::sequential(),
            DeploymentScenario::Scenario2,
            &platform,
            42,
        )
        .unwrap();
        assert!(panel.all_bounds_sound());
        let h = &panel.cells[2];
        let l = &panel.cells[0];
        assert!((h.ftc.ratio() - 2.33).abs() < 0.2, "fTC {}", h.ftc.ratio());
        assert!(
            (h.ilp.ratio() - 1.67).abs() < 0.15,
            "ILP-H {}",
            h.ilp.ratio()
        );
        assert!(
            (l.ilp.ratio() - 1.34).abs() < 0.15,
            "ILP-L {}",
            l.ilp.ratio()
        );
        for c in &panel.cells {
            assert!(c.ilp.contention_cycles * 20 < c.ftc.contention_cycles * 11);
        }
    }

    #[test]
    fn low_traffic_bounds_are_small() {
        let platform = Platform::tc277_reference();
        let panel = figure4_panel(
            &ExecEngine::sequential(),
            DeploymentScenario::LowTraffic,
            &platform,
            42,
        )
        .unwrap();
        assert!(panel.all_bounds_sound());
        // The paper reports ~10% contention bounds on real use cases.
        let h = &panel.cells[2];
        assert!(
            h.ilp.ratio() < 1.25,
            "low-traffic ILP ratio {} should be small",
            h.ilp.ratio()
        );
    }

    #[test]
    fn table6_shape_matches_paper() {
        let sc1 =
            table6_block(&ExecEngine::sequential(), DeploymentScenario::Scenario1, 42).unwrap();
        let sc2 =
            table6_block(&ExecEngine::sequential(), DeploymentScenario::Scenario2, 42).unwrap();
        // Sc1: no d-cache misses at all; Sc2: clean misses only.
        assert_eq!(sc1.core1.counters().dcache_miss_total(), 0);
        assert!(sc2.core1.counters().dcache_miss_clean > 0);
        assert_eq!(sc2.core1.counters().dcache_miss_dirty, 0);
        // Contender traffic roughly half the app's (Table 6 proportions).
        let r = sc1.core2.counters().pcache_miss as f64 / sc1.core1.counters().pcache_miss as f64;
        assert!((0.3..=1.1).contains(&r), "PM ratio {r:.2}");
    }

    #[test]
    fn panel_is_worker_count_invariant() {
        let platform = Platform::tc277_reference();
        let seq = figure4_panel(
            &ExecEngine::sequential(),
            DeploymentScenario::Scenario1,
            &platform,
            42,
        )
        .unwrap();
        let engine = ExecEngine::new(4);
        let par = figure4_panel(&engine, DeploymentScenario::Scenario1, &platform, 42).unwrap();
        assert_eq!(seq.app.counters(), par.app.counters());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(a.level, b.level);
            assert_eq!(a.observed_cycles, b.observed_cycles);
            assert_eq!(a.ftc, b.ftc);
            assert_eq!(a.ilp, b.ilp);
            assert_eq!(a.ideal, b.ideal);
        }
        // Re-running the panel on the same engine reuses all four
        // isolation profiles from the memo cache.
        let before = engine.report();
        figure4_panel(&engine, DeploymentScenario::Scenario1, &platform, 42).unwrap();
        let after = engine.report();
        assert_eq!(after.cache_hits, before.cache_hits + 4);
        assert_eq!(after.cache_misses, before.cache_misses);
    }

    fn hwm_app() -> TaskSpec {
        control_loop_on(
            ::platform::default_platform(),
            DeploymentScenario::Scenario1,
            CoreId(1),
            10,
        )
    }

    #[test]
    fn hwm_envelope_dominates_every_run() {
        let m = hwm_campaign(&ExecEngine::sequential(), &hwm_app(), CoreId(1), 4).unwrap();
        assert_eq!(m.ccnt_per_run.len(), 4);
        for c in &m.ccnt_per_run {
            assert!(m.profile.counters().ccnt >= *c);
        }
        assert_eq!(m.ccnt_hwm(), *m.ccnt_per_run.iter().max().unwrap());
    }

    #[test]
    fn hwm_campaign_is_worker_count_invariant() {
        let (app, core) = (hwm_app(), CoreId(1));
        let seq = hwm_campaign(&ExecEngine::sequential(), &app, core, 4).unwrap();
        let par = hwm_campaign(&ExecEngine::new(4), &app, core, 4).unwrap();
        assert_eq!(seq.ccnt_per_run, par.ccnt_per_run);
        assert_eq!(seq.profile.counters(), par.profile.counters());
        assert_eq!(seq.profile.ptac(), par.profile.ptac());
    }

    #[test]
    fn ideal_model_is_tightest() {
        let platform = Platform::tc277_reference();
        let panel = figure4_panel(
            &ExecEngine::sequential(),
            DeploymentScenario::Scenario1,
            &platform,
            42,
        )
        .unwrap();
        for c in &panel.cells {
            assert!(c.ideal.bound_cycles() <= c.ilp.bound_cycles());
        }
    }
}
