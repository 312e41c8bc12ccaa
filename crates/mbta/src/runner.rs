//! Isolation runs and profile extraction — the measurement side of
//! measurement-based timing analysis.

use contention::{AccessCounts, IsolationProfile};
use tc27x_sim::{CoreId, SimError, SoloTimeline, System, TaskSpec};

/// Converts simulator ground truth into model-side access counts.
pub fn to_model_counts(g: tc27x_sim::GroundTruth) -> AccessCounts {
    AccessCounts::from_fn(|t, o| g.accesses(t, o))
}

/// Runs `spec` alone on a fresh TC277 and returns its isolation profile
/// (debug counters plus simulator ground-truth PTAC, which only the
/// ideal model consumes).
///
/// # Errors
///
/// Propagates link and simulation errors.
///
/// # Examples
///
/// ```
/// use mbta::isolation_profile;
/// use tc27x_sim::{CoreId, DeploymentScenario};
/// use workloads::control_loop;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = control_loop(DeploymentScenario::Scenario1, CoreId(1), 42);
/// let profile = isolation_profile(&app, CoreId(1))?;
/// assert!(profile.counters().ccnt > 0);
/// # Ok(())
/// # }
/// ```
pub fn isolation_profile(spec: &TaskSpec, core: CoreId) -> Result<IsolationProfile, SimError> {
    isolation_profile_stats(
        spec,
        core,
        None,
        tc27x_sim::Engine::default(),
        true,
        false,
        ::platform::default_platform(),
    )
    .map(|(p, _)| p)
}

/// [`isolation_profile`] under an optional per-job cycle budget
/// (`max_cycles` aborts the run with [`SimError::CycleLimit`]; it never
/// changes a successful profile), on an explicit timing kernel and
/// platform, that also snapshots the simulator's post-run statistics
/// ([`tc27x_sim::SimStats`]) for the telemetry layer, with explicit
/// control over the event kernel's block memo (a pure speed knob —
/// both settings are bit-identical).
#[allow(clippy::too_many_arguments)]
pub(crate) fn isolation_profile_stats(
    spec: &TaskSpec,
    core: CoreId,
    max_cycles: Option<u64>,
    engine: tc27x_sim::Engine,
    block_memo: bool,
    attribution: bool,
    desc: &::platform::PlatformDesc,
) -> Result<(IsolationProfile, tc27x_sim::SimStats), SimError> {
    let config = sim_config(desc, max_cycles, engine, block_memo, attribution);
    let mut sys = System::with_config(config);
    sys.load(core, spec)?;
    let out = sys.run()?;
    Ok((profile_of(spec, core, &out), sys.stats()))
}

/// The configuration one engine job runs under.
pub(crate) fn sim_config(
    desc: &::platform::PlatformDesc,
    max_cycles: Option<u64>,
    engine: tc27x_sim::Engine,
    block_memo: bool,
    attribution: bool,
) -> tc27x_sim::SimConfig {
    let config = tc27x_sim::SimConfig::from_platform(desc)
        .with_engine(engine)
        .with_block_memo(block_memo)
        .with_attribution(attribution);
    match max_cycles {
        Some(limit) => config.with_max_cycles(limit),
        None => config,
    }
}

/// The isolation profile of `spec` from a run's outcome.
fn profile_of(spec: &TaskSpec, core: CoreId, out: &tc27x_sim::RunOutcome) -> IsolationProfile {
    IsolationProfile::new(spec.name.clone(), out.counters(core))
        .with_ptac(to_model_counts(out.ground_truth(core)))
}

/// [`isolation_profile_stats`] under `config` that also records the
/// task's solo timeline ([`System::run_solo`]), for co-runs of the same
/// task to splice their contender-free tail from.
pub(crate) fn isolation_profile_recording(
    spec: &TaskSpec,
    core: CoreId,
    config: tc27x_sim::SimConfig,
) -> Result<(IsolationProfile, tc27x_sim::SimStats, SoloTimeline), SimError> {
    let mut sys = System::with_config(config);
    sys.load(core, spec)?;
    let (out, timeline) = sys.run_solo()?;
    Ok((profile_of(spec, core, &out), sys.stats(), timeline))
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

/// Runs the MBTA campaign for `spec`: `runs` isolation runs with seeds
/// `seed₀ … seed₀+runs-1`, envelope over counters. Executes
/// sequentially; use [`hwm_campaign_with`] to share an
/// [`crate::ExecEngine`].
///
/// # Errors
///
/// Propagates link and simulation errors.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn hwm_campaign(
    spec: &TaskSpec,
    core: CoreId,
    runs: u32,
) -> Result<HwmMeasurement, crate::JobError> {
    hwm_campaign_with(&crate::ExecEngine::sequential(), spec, core, runs)
}

/// [`hwm_campaign`] on a caller-supplied engine: the seed-varied runs
/// are independent, so they go out as one batch and spread across the
/// engine's workers. The envelope fold runs on the index-ordered
/// results, so it is identical for any worker count.
///
/// # Errors
///
/// Propagates link and simulation errors.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn hwm_campaign_with(
    engine: &crate::ExecEngine,
    spec: &TaskSpec,
    core: CoreId,
    runs: u32,
) -> Result<HwmMeasurement, crate::JobError> {
    assert!(runs > 0, "a campaign needs at least one run");
    let batch: Vec<crate::SimJob> = (0..runs)
        .map(|r| {
            let mut varied = spec.clone();
            varied.seed = spec.seed.wrapping_add(r as u64);
            crate::SimJob::Isolation { spec: varied, core }
        })
        .collect();
    let mut envelope = contention::DebugCounters::default();
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

/// Runs the app on `app_core` against a contender on `load_core` and
/// returns the app's observed co-run execution time.
///
/// # Errors
///
/// Propagates link and simulation errors.
pub fn observed_corun(
    app: &TaskSpec,
    app_core: CoreId,
    load: &TaskSpec,
    load_core: CoreId,
) -> Result<u64, SimError> {
    observed_corun_stats(
        app,
        app_core,
        load,
        load_core,
        None,
        tc27x_sim::Engine::default(),
        true,
        false,
        ::platform::default_platform(),
    )
    .map(|(c, _)| c)
}

/// [`observed_corun`] under the settings of
/// [`isolation_profile_stats`], that also snapshots the simulator's
/// post-run statistics ([`tc27x_sim::SimStats`]) for the telemetry
/// layer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn observed_corun_stats(
    app: &TaskSpec,
    app_core: CoreId,
    load: &TaskSpec,
    load_core: CoreId,
    max_cycles: Option<u64>,
    engine: tc27x_sim::Engine,
    block_memo: bool,
    attribution: bool,
    desc: &::platform::PlatformDesc,
) -> Result<(u64, tc27x_sim::SimStats), SimError> {
    let config = sim_config(desc, max_cycles, engine, block_memo, attribution);
    let mut sys = System::with_config(config);
    sys.load(app_core, app)?;
    sys.load(load_core, load)?;
    let out = sys.run_until(app_core)?;
    Ok((out.counters(app_core).ccnt, sys.stats()))
}

/// The observed app CCNT of a co-run under `config`, its
/// contender-free tail spliced from the app's solo `timeline`
/// ([`System::run_until_spliced`]): the value and any cycle-limit error
/// are those of [`observed_corun_stats`], and no statistics exist.
pub(crate) fn observed_corun_spliced(
    app: &TaskSpec,
    app_core: CoreId,
    load: &TaskSpec,
    load_core: CoreId,
    config: tc27x_sim::SimConfig,
    timeline: &SoloTimeline,
) -> Result<tc27x_sim::SplicedRun, SimError> {
    let mut sys = System::with_config(config);
    sys.load(app_core, app)?;
    sys.load(load_core, load)?;
    sys.run_until_spliced(app_core, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc27x_sim::DeploymentScenario;
    use workloads::{contender, control_loop, LoadLevel};

    #[test]
    fn isolation_profile_carries_ptac() {
        let core = CoreId(1);
        let app = control_loop(DeploymentScenario::LowTraffic, core, 1);
        let p = isolation_profile(&app, core).unwrap();
        assert!(p.ptac().is_some());
        assert!(p.counters().ccnt > 0);
        assert_eq!(p.name(), "cruise-control-low");
    }

    #[test]
    fn hwm_envelope_dominates_every_run() {
        let core = CoreId(1);
        let app = control_loop(DeploymentScenario::Scenario1, core, 10);
        let m = hwm_campaign(&app, core, 4).unwrap();
        assert_eq!(m.ccnt_per_run.len(), 4);
        for c in &m.ccnt_per_run {
            assert!(m.profile.counters().ccnt >= *c);
        }
        assert_eq!(m.ccnt_hwm(), *m.ccnt_per_run.iter().max().unwrap());
    }

    #[test]
    fn hwm_campaign_is_worker_count_invariant() {
        let core = CoreId(1);
        let app = control_loop(DeploymentScenario::Scenario1, core, 10);
        let seq = hwm_campaign(&app, core, 4).unwrap();
        let par = hwm_campaign_with(&crate::ExecEngine::new(4), &app, core, 4).unwrap();
        assert_eq!(seq.ccnt_per_run, par.ccnt_per_run);
        assert_eq!(seq.profile.counters(), par.profile.counters());
        assert_eq!(seq.profile.ptac(), par.profile.ptac());
    }

    #[test]
    fn corun_is_slower_than_isolation() {
        let (a, b) = (CoreId(1), CoreId(2));
        let app = control_loop(DeploymentScenario::Scenario1, a, 42);
        let load = contender(DeploymentScenario::Scenario1, LoadLevel::High, b, 7);
        let iso = isolation_profile(&app, a).unwrap().counters().ccnt;
        let co = observed_corun(&app, a, &load, b).unwrap();
        assert!(co > iso, "co-run {co} must exceed isolation {iso}");
    }

    #[test]
    fn cycle_budget_aborts_or_matches_the_unbudgeted_run() {
        let core = CoreId(1);
        let app = control_loop(DeploymentScenario::Scenario1, core, 42);
        let budgeted = |max_cycles| {
            let engine = tc27x_sim::Engine::default();
            let desc = ::platform::default_platform();
            isolation_profile_stats(&app, core, max_cycles, engine, true, false, desc)
                .map(|(p, _)| p)
        };
        // A starvation budget aborts deterministically…
        let err = budgeted(Some(10)).unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 10 }));
        // …while a sufficient budget reproduces the unbudgeted profile
        // bit for bit.
        let free = isolation_profile(&app, core).unwrap();
        let budgeted = budgeted(Some(free.counters().ccnt + 1)).unwrap();
        assert_eq!(budgeted.counters(), free.counters());
        assert_eq!(budgeted.ptac(), free.ptac());
    }

    #[test]
    fn profiles_are_engine_invariant() {
        let (a, b) = (CoreId(1), CoreId(2));
        let app = control_loop(DeploymentScenario::Scenario1, a, 42);
        let load = contender(DeploymentScenario::Scenario1, LoadLevel::High, b, 7);
        let desc = ::platform::default_platform();
        let iso = |engine| {
            isolation_profile_stats(&app, a, None, engine, true, false, desc)
                .map(|(p, _)| p)
                .unwrap()
        };
        let (tick, event) = (iso(tc27x_sim::Engine::Tick), iso(tc27x_sim::Engine::Event));
        assert_eq!(tick.counters(), event.counters());
        assert_eq!(tick.ptac(), event.ptac());
        let co = |engine| {
            observed_corun_stats(&app, a, &load, b, None, engine, true, false, desc)
                .map(|(c, _)| c)
                .unwrap()
        };
        assert_eq!(co(tc27x_sim::Engine::Tick), co(tc27x_sim::Engine::Event));
    }
}
